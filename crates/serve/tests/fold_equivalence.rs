//! The served fold — resident full frame → `FramePred::select` →
//! integer-keyed `AccState` → render — against a row-at-a-time oracle
//! that shares none of it: frames built from *rows*
//! (`SnapshotFrame::build` over `get_lossy`), `FramePred::test` per row,
//! string group keys from the first row on. Bytes are compared, not
//! values: `result`, `rows`, `days_scanned` and the notes of every
//! `sample_query` shape × parameter band × tenant, over a store with a
//! clean multi-zone day, a day that lost a non-spine section and a colf
//! v2 day — and again after `refresh` folds an appended day into the hot
//! states.
//!
//! Seeds come from `SPIDER_SERVE_SEED` when set, else three defaults.

use spider_core::{FramePred, SnapshotFrame};
use spider_serve::proto::{AggSpec, GroupBy, Query};
use spider_serve::{sample_query, EngineConfig, QueryEngine};
use spider_snapshot::colf;
use spider_snapshot::store::{SnapshotStore, StoreHealth};
use spider_snapshot::{Snapshot, SnapshotRecord};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

fn seeds() -> Vec<u64> {
    match std::env::var("SPIDER_SERVE_SEED") {
        Ok(s) => vec![s.parse().expect("SPIDER_SERVE_SEED must be a u64")],
        Err(_) => vec![660_942, 2_964_594_389, 3_237_998_146],
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const ROWS: usize = 420;
/// 420 rows in 128-row zones: four zones a day.
const ZONE_ROWS: usize = 128;
const CLEAN_DAY: u32 = 0;
const DEGRADED_DAY: u32 = 7;
const V2_DAY: u32 = 14;
const APPENDED_DAY: u32 = 21;
const EXTS: [&str; 7] = ["h5", "nc", "c", "py", "dat", "txt", ""];

/// One day of directories, each with its own uid and gid and a handful
/// of files, at depths on both sides of `sample_query`'s `depth <= 4`:
/// in path order a directory's rows are adjacent, so ids cluster the way
/// a real scan's do.
fn snapshot(day: u32, seed: u64) -> Snapshot {
    let mut rng = seed ^ (day as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let base = 1_420_000_000 + day as u64 * 86_400;
    let mut records: Vec<SnapshotRecord> = Vec::with_capacity(ROWS + 16);
    while records.len() < ROWS {
        let d = splitmix(&mut rng);
        let (uid, gid) = (10_000 + (d % 97) as u32, 2_000 + ((d >> 8) % 11) as u32);
        let root = ["/lustre", "/lustre/atlas1", "/lustre/atlas1/deep/er"][(d >> 16) as usize % 3];
        let dir = format!(
            "{root}/p{:02}-u{:03}-{:04}",
            gid - 2_000,
            uid - 10_000,
            records.len()
        );
        let entry = |path: String, r: u64, is_dir: bool| SnapshotRecord {
            path,
            atime: base - r % 2_000_000,
            ctime: base - (r >> 16) % 4_000_000,
            mtime: base - (r >> 24) % 3_000_000,
            uid,
            gid,
            mode: if is_dir { 0o040_770 } else { 0o100_664 },
            ino: day as u64 * 1_000_000 + r % 1_000_000,
            osts: if is_dir {
                Vec::new()
            } else {
                (0..(1 + (r >> 48) % 5) as u16)
                    .map(|k| (k * 67, (r >> 52) as u32 + k as u32))
                    .collect()
            },
        };
        records.push(entry(dir.clone(), d, true));
        for k in 0..2 + (d >> 24) % 12 {
            let r = splitmix(&mut rng);
            let name = match EXTS[(r >> 6) as usize % EXTS.len()] {
                "" => format!("out{k:03}"),
                ext => format!("out{k:03}.{ext}"),
            };
            records.push(entry(format!("{dir}/{name}"), r, false));
        }
    }
    records.truncate(ROWS);
    Snapshot::new(day, base, records)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spider-fold-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The three-day store: multi-zone v3, multi-zone v3 with its `uid`
/// section rotted on disk, and v2.
fn seed_store(dir: &Path, seed: u64) {
    let mut store = SnapshotStore::open(dir).expect("open store");
    for day in [CLEAN_DAY, DEGRADED_DAY] {
        let bytes = colf::encode_with_zone_rows(&snapshot(day, seed), ZONE_ROWS);
        store.put_raw(day, &bytes).expect("put v3 day");
    }
    store
        .put_raw(V2_DAY, &colf::encode_v2(&snapshot(V2_DAY, seed)))
        .expect("put v2 day");

    let victim = dir.join(format!("snap-{DEGRADED_DAY:05}.colf"));
    let mut bytes = fs::read(&victim).unwrap();
    let spans = colf::section_table(&bytes).unwrap();
    let uid = spans.iter().find(|s| s.name == "uid").expect("uid section");
    bytes[uid.offset + uid.len / 2] ^= 0x10;
    fs::write(&victim, &bytes).unwrap();
}

/// Every stored day as a frame built the slow way, from rows.
fn row_frames(dir: &Path) -> Vec<SnapshotFrame> {
    let store = SnapshotStore::open(dir).expect("reopen store");
    store
        .days()
        .iter()
        .map(|&day| {
            let lossy = store.get_lossy(day).expect("read day").expect("day stored");
            SnapshotFrame::build(&lossy.snapshot)
        })
        .collect()
}

/// What `execute` and `cached` both report.
#[derive(Debug, PartialEq)]
struct Answer {
    result: String,
    rows: u64,
    days_scanned: u64,
    notes: Vec<String>,
}

/// The row-wise fold: one predicate test and one accumulator update per
/// row, group keys stringified per row.
fn oracle(frames: &[SnapshotFrame], health: &StoreHealth, query: &Query) -> Answer {
    let pred = query.effective_pred();
    let (mut rows, mut files, mut stripes, mut days_scanned) = (0u64, 0u64, 0u64, 0u64);
    let mut groups: HashMap<String, u64> = HashMap::new();
    for frame in frames.iter().filter(|f| pred.matches_day(f.day())) {
        days_scanned += 1;
        let compiled = FramePred::compile(&pred, frame);
        for i in (0..frame.len()).filter(|&i| compiled.test(frame, i)) {
            rows += 1;
            files += frame.is_file[i] as u64;
            stripes += frame.stripe_count[i] as u64;
            if let AggSpec::GroupCount { by, .. } = &query.agg {
                let key = match by {
                    GroupBy::Uid => frame.uid[i].to_string(),
                    GroupBy::Gid => frame.gid[i].to_string(),
                    GroupBy::Ext => frame
                        .extension_str(frame.ext[i])
                        .unwrap_or("<none>")
                        .to_string(),
                };
                *groups.entry(key).or_insert(0) += 1;
            }
        }
    }
    let result = match &query.agg {
        AggSpec::Count => format!("{{\"count\":{rows}}}"),
        AggSpec::FilesDirs => format!("{{\"files\":{files},\"dirs\":{}}}", rows - files),
        AggSpec::StripesSum => format!("{{\"stripes\":{stripes},\"rows\":{rows}}}"),
        AggSpec::GroupCount { top, .. } => {
            let mut pairs: Vec<(&String, &u64)> = groups.iter().collect();
            pairs.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            let listed: Vec<String> = pairs
                .iter()
                .take(*top)
                .map(|(key, count)| {
                    let mut item = String::from("[");
                    spider_serve::json::escape_into(&mut item, key);
                    item.push_str(&format!(",{count}]"));
                    item
                })
                .collect();
            format!(
                "{{\"groups\":[{}],\"distinct\":{}}}",
                listed.join(","),
                groups.len()
            )
        }
    };
    let notes = health
        .degraded
        .iter()
        .filter(|d| pred.matches_day(d.day))
        .map(|d| {
            format!(
                "day {} degraded: lost {}",
                d.day,
                d.lost_sections.join(", ")
            )
        })
        .collect();
    Answer {
        result,
        rows,
        days_scanned,
        notes,
    }
}

/// The `draw` for which `sample_query` yields exactly this shape and
/// band: it reads `draw % 12`, `(draw >> 8) % 4`, `(draw >> 16) % 3` and
/// `(draw >> 24) % weeks`, solved here from the top.
fn draw_for(shape: u64, p1: u64, p2: u64, week: u64) -> u64 {
    let mut draw = week << 24;
    draw |= ((p2 + 3 - (draw >> 16) % 3) % 3) << 16;
    draw |= p1 << 8;
    draw | ((shape + 12 - draw % 12) % 12)
}

/// Every shape × every `(p1, p2)` band × every week, for one tenant.
fn all_queries(tenant: &str, day_hi: u32) -> Vec<Query> {
    let mut queries = Vec::new();
    for shape in 0..12 {
        for p1 in 0..4 {
            for p2 in 0..3 {
                for week in 0..=(day_hi / 7) as u64 {
                    let id = queries.len() as u64;
                    queries.push(sample_query(
                        id,
                        tenant,
                        day_hi,
                        draw_for(shape, p1, p2, week),
                    ));
                }
            }
        }
    }
    queries
}

#[test]
fn served_fold_is_byte_identical_to_the_row_oracle() {
    for seed in seeds() {
        let dir = temp_dir(&format!("{seed:x}"));
        seed_store(&dir, seed);
        let engine = QueryEngine::open(&dir, EngineConfig::default()).expect("open engine");
        let health = engine.health();
        assert!(health.quarantined.is_empty(), "seed {seed}: {health:?}");
        assert_eq!(health.degraded.len(), 1, "seed {seed}: {health:?}");
        assert_eq!(health.degraded[0].day, DEGRADED_DAY);
        assert_eq!(health.degraded[0].lost_sections, ["uid"]);

        let frames = row_frames(&dir);
        let tenants = [(1, "t0"), (2, "t1")];
        let mut distinct = std::collections::HashSet::new();
        for (tenant, name) in tenants {
            for query in all_queries(name, V2_DAY) {
                let want = oracle(&frames, health, &query);
                let exec = engine.execute(tenant, &query).expect("execute");
                let got = Answer {
                    result: exec.result,
                    rows: exec.rows,
                    days_scanned: exec.days_scanned,
                    notes: exec.notes,
                };
                assert_eq!(got, want, "seed {seed} tenant {name}: {query:?}");
                distinct.insert(query.fingerprint());
            }
        }
        // The family is not degenerate on this store: most of it matches
        // some rows and not all of them.
        let every_row = 3 * ROWS as u64;
        let family = all_queries("t0", V2_DAY);
        let selective = family
            .iter()
            .map(|q| oracle(&frames, health, q).rows)
            .filter(|&rows| rows > 0 && rows < every_row)
            .count();
        assert!(
            selective * 2 >= family.len(),
            "seed {seed}: only {selective} of {} queries are selective",
            family.len()
        );

        // Append a day: `refresh` folds it into every hot state whose
        // window reaches it, and those answers — served from cache, no
        // re-execution — must again equal the oracle's, as must a fresh
        // execution of every query.
        SnapshotStore::open(&dir)
            .expect("reopen store")
            .put(&snapshot(APPENDED_DAY, seed))
            .expect("append day");
        let stats = engine.refresh().expect("refresh");
        assert_eq!(stats.added, vec![APPENDED_DAY], "seed {seed}");
        assert!(stats.hot_updated > 0 && stats.hot_dropped == 0, "{stats:?}");
        let frames = row_frames(&dir);
        // `day_hi` stays the old one: the windowed shapes do not reach
        // the new day, the unwindowed ones do.
        let mut served_hot = 0;
        for query in &family {
            let reaches = query.effective_pred().matches_day(APPENDED_DAY);
            let hot = engine.cached(query.fingerprint());
            assert_eq!(hot.is_some(), reaches, "seed {seed}: {query:?}");
            if let Some(hot) = hot {
                let got = Answer {
                    result: hot.result,
                    rows: hot.rows,
                    days_scanned: hot.days_scanned,
                    notes: hot.notes,
                };
                assert_eq!(
                    got,
                    oracle(&frames, health, query),
                    "seed {seed} hot: {query:?}"
                );
                served_hot += 1;
            }
        }
        for (tenant, name) in tenants {
            for query in all_queries(name, V2_DAY) {
                let exec = engine.execute(tenant, &query).expect("re-execute");
                let got = Answer {
                    result: exec.result,
                    rows: exec.rows,
                    days_scanned: exec.days_scanned,
                    notes: exec.notes,
                };
                let want = oracle(&frames, health, &query);
                assert_eq!(got, want, "seed {seed} tenant {name} refreshed: {query:?}");
            }
        }
        assert!(served_hot > 0, "seed {seed}: no hot answer was checked");
        assert!(distinct.len() <= EngineConfig::default().hot_states);
        fs::remove_dir_all(&dir).unwrap();
    }
}
