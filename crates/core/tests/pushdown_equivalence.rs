//! Deterministic pushdown equivalence suite: a pruned load
//! (`FrameLoader::frames_pruned` / `FrameColumns::decode_pruned`) must
//! return exactly the rows a full load plus `Scan::filter_pred` keeps —
//! across multi-day stores, multi-zone files, and zone-map corruption.
//! The column-at-a-time `FramePred::select` is held to its row-wise
//! oracle `FramePred::test` here too. `tests/prop_pushdown.rs` adds the
//! randomized twin.

use spider_core::{FrameLoader, FramePred, Pred, Scan, SnapshotFrame};
use spider_snapshot::colf::{self, section_table};
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Snapshot, SnapshotRecord, SnapshotStore};
use spider_telemetry as telemetry;

fn rec(i: usize, day: u32) -> SnapshotRecord {
    let dir = i.is_multiple_of(11);
    SnapshotRecord {
        path: format!(
            "/lustre/atlas{}/proj{:03}/run-{}/out.{:05}.{}",
            1 + i % 2,
            i % 23,
            i % 7,
            i,
            ["nc", "h5", "dat", "txt", "silo", ""][i % 6]
        ),
        atime: 1_420_000_000 + day as u64 * 86_400 + i as u64 * 17,
        ctime: 1_420_000_000 + i as u64 * 5,
        mtime: 1_420_000_000 + i as u64 * 9,
        uid: 10_000 + (i % 41) as u32,
        gid: 7_000 + (i % 13) as u32,
        mode: if dir { 0o040770 } else { 0o100664 },
        ino: 1_000_000 + i as u64,
        osts: if dir {
            vec![]
        } else {
            (0..(i % 6))
                .map(|k| (k as u16, (i * 6 + k) as u32))
                .collect()
        },
    }
}

fn sample(day: u32, n: usize) -> Snapshot {
    Snapshot::new(
        day,
        1_420_000_000 + day as u64 * 86_400,
        (0..n).map(|i| rec(i, day)).collect(),
    )
}

/// Predicates spanning every variant: ranges, extensions, day
/// const-folding, nesting, and degenerate And/Or.
fn sample_preds() -> Vec<Pred> {
    vec![
        Pred::uid(10_003..=10_011),
        Pred::gid(..7_004),
        Pred::depth(..=4),
        Pred::stripes(2..),
        Pred::mtime(..=1_420_001_000),
        Pred::ext("h5"),
        Pred::ext_in(["dat", "silo", "nope"]),
        Pred::ext_none(),
        Pred::day(7..=14),
        Pred::and(vec![Pred::uid(10_000..=10_020), Pred::stripes(1..)]),
        Pred::or(vec![Pred::ext("nc"), Pred::gid(7_010..)]),
        Pred::and(vec![
            Pred::day(0..),
            Pred::or(vec![Pred::ext_none(), Pred::mtime(1_420_000_500..)]),
        ]),
        Pred::or(vec![]),
        Pred::and(vec![]),
    ]
}

fn store_with_days(tag: &str, days: &[u32]) -> (std::path::PathBuf, SnapshotStore) {
    let dir = std::env::temp_dir().join(format!("spider-pushdown-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open(&dir).unwrap();
    for &day in days {
        store.put(&sample(day, 150 + day as usize)).unwrap();
    }
    (dir, store)
}

/// Row-for-row: `pruned` must be the matching subsequence of `full`.
fn assert_is_filtered_subsequence(pruned: &SnapshotFrame, full: &SnapshotFrame, pred: &Pred) {
    let compiled = FramePred::compile(pred, full);
    let survivors: Vec<usize> = (0..full.len())
        .filter(|&i| compiled.test(full, i))
        .collect();
    assert_rows_equal(pruned, full, &survivors, pred);
}

/// `pruned` row `j` must equal `full` row `survivors[j]` in every column.
fn assert_rows_equal(
    pruned: &SnapshotFrame,
    full: &SnapshotFrame,
    survivors: &[usize],
    pred: &Pred,
) {
    assert_eq!(pruned.len(), survivors.len(), "{pred:?}");
    for (j, &i) in survivors.iter().enumerate() {
        assert_eq!(pruned.uid[j], full.uid[i], "{pred:?}");
        assert_eq!(pruned.gid[j], full.gid[i]);
        assert_eq!(pruned.mtime[j], full.mtime[i]);
        assert_eq!(pruned.atime[j], full.atime[i]);
        assert_eq!(pruned.depth[j], full.depth[i]);
        assert_eq!(pruned.stripe_count[j], full.stripe_count[i]);
        assert_eq!(pruned.is_file[j], full.is_file[i]);
        assert_eq!(
            pruned.extension_str(pruned.ext[j]),
            full.extension_str(full.ext[i])
        );
    }
}

#[test]
fn pruned_store_loads_equal_full_loads_filtered() {
    let days = [0u32, 7, 14, 21];
    let (dir, store) = store_with_days("loads", &days);
    let loader = FrameLoader::new(&store).unwrap();
    for pred in &sample_preds() {
        let pruned = loader.frames_pruned(&days, pred).unwrap();
        let mut at = 0;
        for &day in &days {
            if !pred.matches_day(day) {
                continue;
            }
            let full = loader.frame(day).unwrap().unwrap();
            assert_is_filtered_subsequence(&pruned[at], &full, pred);
            at += 1;
        }
        assert_eq!(at, pruned.len(), "{pred:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_filter_pred_equals_pruned_load() {
    // A typed filter over cached full frames keeps exactly the rows a
    // cold pruned load returns.
    let days = [0u32, 7, 14, 21];
    let (dir, store) = store_with_days("warm", &days);
    let loader = FrameLoader::new(&store).unwrap();
    let full = loader.frames(&days).unwrap();
    for pred in &sample_preds() {
        let pruned = loader.frames_pruned(&days, pred).unwrap();
        let warm: Vec<_> = full.iter().filter(|f| pred.matches_day(f.day())).collect();
        assert_eq!(warm.len(), pruned.len(), "{pred:?}");
        for (frame, pruned) in warm.into_iter().zip(&pruned) {
            let rows = Scan::over(frame).filter_pred(pred).column(|_, i| i);
            assert_rows_equal(pruned, frame, &rows, pred);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn select_equals_row_test_across_word_boundaries() {
    // Every leaf kind (`sample_preds` plus the atime leaf), both
    // constants (a day range folds against the frame's day 3), an
    // extension set that resolves to nothing, and a nested tree — over
    // frame lengths on each side of the bitmap's 64-row words.
    let mut preds = sample_preds();
    preds.extend([
        Pred::atime(1_420_000_000 + 3 * 86_400 + 600..),
        Pred::day(3..=3),
        Pred::day(4..),
        Pred::ext_in(Vec::<String>::new()),
        Pred::ext_in(["nope", "nada"]),
        Pred::or(vec![
            Pred::and(vec![
                Pred::uid(10_005..),
                Pred::or(vec![Pred::depth(6..), Pred::ext_none(), Pred::day(9..)]),
            ]),
            Pred::and(vec![Pred::stripes(..=1), Pred::gid(7_002..=7_003)]),
        ]),
    ]);
    for n in [0usize, 1, 63, 64, 65, 4097] {
        let frame = SnapshotFrame::build(&sample(3, n));
        for pred in &preds {
            let compiled = FramePred::compile(pred, &frame);
            let selected = compiled.select(&frame);
            let want: Vec<usize> = (0..n).filter(|&i| compiled.test(&frame, i)).collect();
            assert_eq!(selected.len(), n, "{pred:?}");
            assert_eq!(
                selected.rows().collect::<Vec<_>>(),
                want,
                "{pred:?} over {n} rows"
            );
            assert_eq!(
                selected.count(),
                want.len() as u64,
                "{pred:?} over {n} rows"
            );
        }
    }
}

#[test]
fn pruned_scan_counts_agree_with_record_oracle() {
    // End to end against the row-level oracle: counting matches over
    // the raw records must equal the length of every pruned frame.
    let days = [0u32, 9];
    let (dir, store) = store_with_days("oracle", &days);
    let loader = FrameLoader::new(&store).unwrap();
    for pred in &sample_preds() {
        let pruned = loader.frames_pruned(&days, pred).unwrap();
        let mut at = 0;
        for &day in &days {
            if !pred.matches_day(day) {
                continue;
            }
            let snap = store.get(day).unwrap().unwrap();
            let expect = snap
                .records()
                .iter()
                .filter(|r| pred.matches_record(r, day))
                .count();
            assert_eq!(pruned[at].len(), expect, "{pred:?} day {day}");
            // And a further filter_pred over the pruned frame is a
            // no-op: pushdown left only matching rows behind.
            assert_eq!(
                Scan::over(&pruned[at]).filter_pred(pred).count(),
                expect as u64
            );
            at += 1;
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn multi_zone_pruning_is_exact_and_skips_zones() {
    // Small zones force real zone-map pruning; the telemetry counters
    // prove sections were actually skipped, and the rows must still be
    // exactly the filtered set.
    telemetry::global().enable();
    let snap = sample(3, 900);
    let bytes = colf::encode_with_zone_rows(&snap, 64);
    let full = FrameColumns::decode_lossy(&bytes).unwrap();
    let zones_before = telemetry::global().counter("pushdown.zones_skipped").get();
    for pred in &sample_preds() {
        let pruned = FrameColumns::decode_pruned(&bytes, pred).unwrap();
        let expect: Vec<usize> = (0..full.len())
            .filter(|&i| full.pred_matches(pred, i))
            .collect();
        assert_eq!(pruned.len(), expect.len(), "{pred:?}");
        for (j, &i) in expect.iter().enumerate() {
            assert_eq!(pruned.path(j), full.path(i), "{pred:?}");
            assert_eq!(pruned.mtime[j], full.mtime[i]);
        }
    }
    // uid(10_003..=10_011) alone must rule out whole zones of 64 rows
    // with uids striding 10_000..10_041.
    let zones_after = telemetry::global().counter("pushdown.zones_skipped").get();
    assert!(
        zones_after > zones_before,
        "selective predicates over 15 zones skipped nothing"
    );
}

#[test]
fn corrupt_zonemap_never_changes_answers() {
    // Flip a byte inside the zone map: pruning degrades to a full
    // decode-and-filter, and results stay identical to the clean file.
    let snap = sample(5, 400);
    let clean = colf::encode_with_zone_rows(&snap, 64);
    let spans = section_table(&clean).unwrap();
    let zm = spans.iter().find(|s| s.name == "zonemap").unwrap();
    let mut bytes = clean.clone();
    bytes[zm.offset + zm.len / 2] ^= 0xA5;

    let lossy = FrameColumns::decode_lossy(&bytes).unwrap();
    assert_eq!(lossy.lost_sections(), &["zonemap"]);
    for pred in &sample_preds() {
        let pruned_corrupt = FrameColumns::decode_pruned(&bytes, pred).unwrap();
        let pruned_clean = FrameColumns::decode_pruned(&clean, pred).unwrap();
        assert_eq!(pruned_corrupt.len(), pruned_clean.len(), "{pred:?}");
        for j in 0..pruned_clean.len() {
            assert_eq!(pruned_corrupt.path(j), pruned_clean.path(j), "{pred:?}");
            assert_eq!(pruned_corrupt.uid[j], pruned_clean.uid[j]);
            assert_eq!(pruned_corrupt.mtime[j], pruned_clean.mtime[j]);
        }
        // The degraded frames still feed the query layer unchanged.
        let fa = SnapshotFrame::from_columns(&pruned_corrupt);
        let fb = SnapshotFrame::from_columns(&pruned_clean);
        assert_eq!(Scan::over(&fa).count(), Scan::over(&fb).count(), "{pred:?}");
    }
}

#[test]
fn corrupt_numeric_column_disables_its_pruning_but_stays_consistent() {
    // Losing the uid column means uid zone pruning is off AND row
    // evaluation sees the same defaults the salvaged frame carries —
    // pushdown and post-filter stay in lockstep even on damaged data.
    let snap = sample(2, 300);
    let clean = colf::encode_with_zone_rows(&snap, 64);
    let spans = section_table(&clean).unwrap();
    for section in ["uid", "mtime", "osts", "extc"] {
        let sp = spans.iter().find(|s| s.name == section).unwrap();
        let mut bytes = clean.clone();
        bytes[sp.offset + sp.len / 2] ^= 0xA5;
        let lossy = match FrameColumns::decode_lossy(&bytes) {
            Ok(l) => l,
            // Some mid-section flips are unrecoverable framing damage;
            // then pruned decode must fail identically, not fabricate.
            Err(_) => {
                assert!(
                    FrameColumns::decode_pruned(&bytes, &Pred::uid(0..)).is_err(),
                    "{section}: pruned succeeded where lossy failed"
                );
                continue;
            }
        };
        assert!(lossy.lost_sections().contains(&section), "{section}");
        for pred in &sample_preds() {
            let pruned = FrameColumns::decode_pruned(&bytes, pred).unwrap();
            let expect: Vec<usize> = (0..lossy.len())
                .filter(|&i| lossy.pred_matches(pred, i))
                .collect();
            assert_eq!(pruned.len(), expect.len(), "{section} {pred:?}");
            for (j, &i) in expect.iter().enumerate() {
                assert_eq!(pruned.path(j), lossy.path(i), "{section} {pred:?}");
            }
        }
    }
}
