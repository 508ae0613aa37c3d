//! Property-based pushdown equivalence: for arbitrary snapshots and
//! arbitrary `Pred` trees, `FrameColumns::decode_pruned` returns exactly
//! the rows `decode_lossy` + `pred_matches` keeps — at any zone size,
//! and with the zone map (or any other single section) corrupted — and
//! `FramePred::select` marks exactly the rows `FramePred::test` accepts.
//! The deterministic twin lives in `tests/pushdown_equivalence.rs`.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{check, Gen};
use spider_core::{FramePred, Scan, SnapshotFrame};
use spider_snapshot::colf::{self, section_table};
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Pred, Snapshot, SnapshotRecord};

/// A file extension: none, `.nc` / `.h5` / `.αβ` (multi-byte) behind any
/// character (the `.` of a regex), or a dot and 1–4 lowercase letters.
fn ext(g: &mut Gen) -> String {
    match g.int(0..5u8) {
        0 => String::new(),
        1 => format!("{}nc", g.any_char()),
        2 => format!("{}h5", g.any_char()),
        3 => format!("{}αβ", g.any_char()),
        _ => {
            let letters: String = g
                .vec(1..=4, |g| char::from(g.int(b'a'..=b'z')))
                .into_iter()
                .collect();
            format!(".{letters}")
        }
    }
}

fn record(g: &mut Gen) -> SnapshotRecord {
    let is_file = g.bool();
    let gid = g.int(0u32..8);
    let atime = g.int(0u64..100_000);
    let mtime = g.int(0u64..100_000);
    let stripes = g.int(0usize..10);
    let tag = g.int(0u64..10_000);
    let ext = ext(g);
    SnapshotRecord {
        path: if is_file {
            format!("/lustre/atlas1/proj{gid}/файл-{tag}{ext}")
        } else {
            format!("/lustre/atlas1/d{tag}")
        },
        atime,
        ctime: mtime / 2,
        mtime,
        uid: gid + 100,
        gid,
        mode: if is_file { 0o100664 } else { 0o040770 },
        ino: tag,
        osts: if is_file {
            (0..stripes).map(|s| (s as u16, s as u32)).collect()
        } else {
            vec![]
        },
    }
}

fn snapshot(g: &mut Gen) -> Snapshot {
    let mut records = g.vec(0..150, record);
    let day = g.int(0u32..500);
    let taken_at = g.int(0u64..2_000_000_000);
    for (i, r) in records.iter_mut().enumerate() {
        r.path = format!("{}_{i}", r.path);
    }
    Snapshot::new(day, taken_at, records)
}

/// One predicate leaf over the ranges the records above occupy (plus
/// out-of-range bounds, so empty matches are exercised too).
fn leaf(g: &mut Gen) -> Pred {
    let ordered = |a: u32, b: u32| a.min(b)..=a.max(b);
    match g.int(0..10u8) {
        0 => Pred::day(ordered(g.int(0..600), g.int(0..600))),
        1 => Pred::uid(ordered(g.int(0..120), g.int(0..120))),
        2 => Pred::gid(ordered(g.int(0..12), g.int(0..12))),
        3 => Pred::depth(..=g.int(0u32..8)),
        4 => Pred::stripes(g.int(0u32..12)..),
        5 => {
            let (a, b) = (g.int(0u64..120_000), g.int(0u64..120_000));
            Pred::mtime(a.min(b)..=a.max(b))
        }
        6 => Pred::atime(g.int(0u64..120_000)..),
        7 => Pred::ext(*g.pick(&["nc", "h5", "αβ", "zzz"])),
        8 => Pred::ext_in(g.vec(0..3, |g| *g.pick(&["nc", "h5", "txt"]))),
        _ => Pred::ext_none(),
    }
}

/// Arbitrary predicate trees, at most three `and`/`or` levels deep with
/// up to three children per node. The chance of branching at each level
/// (0.9, then 0.375, then 0.047) is the one a recursive strategy of
/// depth 3, desired size 24 and expected branch size 4 uses.
fn pred(g: &mut Gen) -> Pred {
    fn at(g: &mut Gen, level: usize) -> Pred {
        const BRANCH: [f64; 3] = [0.9, 24.0 / 64.0, 24.0 / 512.0];
        if level < BRANCH.len() && g.f64(0.0..1.0) < BRANCH[level] {
            let and = g.bool();
            let children = g.vec(0..4, |g| at(g, level + 1));
            if and {
                Pred::and(children)
            } else {
                Pred::or(children)
            }
        } else {
            leaf(g)
        }
    }
    at(g, 0)
}

/// The invariant under test, shared by every property below.
fn assert_pruned_equals_filtered(bytes: &[u8], pred: &Pred) {
    let full = match FrameColumns::decode_lossy(bytes) {
        Ok(f) => f,
        Err(_) => {
            assert!(
                FrameColumns::decode_pruned(bytes, pred).is_err(),
                "pruned decode succeeded where lossy decode failed"
            );
            return;
        }
    };
    let pruned = FrameColumns::decode_pruned(bytes, pred).unwrap();
    let expect: Vec<usize> = (0..full.len())
        .filter(|&i| full.pred_matches(pred, i))
        .collect();
    assert_eq!(pruned.len(), expect.len());
    for (j, &i) in expect.iter().enumerate() {
        assert_eq!(pruned.path(j), full.path(i));
        assert_eq!(pruned.uid[j], full.uid[i]);
        assert_eq!(pruned.gid[j], full.gid[i]);
        assert_eq!(pruned.mtime[j], full.mtime[i]);
        assert_eq!(pruned.atime[j], full.atime[i]);
        assert_eq!(pruned.stripe_count[j], full.stripe_count[i]);
        assert_eq!(pruned.ext(j), full.ext(i));
    }
}

#[test]
fn pushdown_equals_closure_filter() {
    check("pushdown_equals_closure_filter", 48, |g| {
        let snap = snapshot(g);
        let pred = pred(g);
        let zone_rows = *g.pick(&[4usize, 16, 64, 4096]);
        let bytes = colf::encode_with_zone_rows(&snap, zone_rows);
        assert_pruned_equals_filtered(&bytes, &pred);
        // And through the query layer: a typed filter over the full
        // frame equals the oracle count over the raw records.
        let cols = FrameColumns::decode(&bytes).unwrap();
        let frame = SnapshotFrame::from_columns(&cols);
        let scanned = Scan::over(&frame).filter_pred(&pred).count();
        let oracle = snap
            .records()
            .iter()
            .filter(|r| pred.matches_record(r, snap.day()))
            .count() as u64;
        assert_eq!(scanned, oracle);
    });
}

#[test]
fn select_equals_row_test() {
    check("select_equals_row_test", 48, |g| {
        let snap = snapshot(g);
        let pred = pred(g);
        let frame = SnapshotFrame::build(&snap);
        let compiled = FramePred::compile(&pred, &frame);
        let selected = compiled.select(&frame);
        let want: Vec<usize> = (0..frame.len())
            .filter(|&i| compiled.test(&frame, i))
            .collect();
        assert_eq!(selected.rows().collect::<Vec<_>>(), want);
        assert_eq!(selected.count(), want.len() as u64);
    });
}

#[test]
fn pushdown_survives_single_byte_corruption() {
    check("pushdown_survives_single_byte_corruption", 48, |g| {
        let snap = snapshot(g);
        let pred = pred(g);
        let section_pick = g.int(0usize..16);
        let frac = g.f64(0.0..1.0);
        let flip = g.int(1u8..=255);
        let bytes = colf::encode_with_zone_rows(&snap, 16);
        let spans = section_table(&bytes).unwrap();
        if spans.is_empty() {
            return;
        }
        let sp = &spans[section_pick % spans.len()];
        if sp.len == 0 {
            return;
        }
        let mut corrupt = bytes.clone();
        let at = sp.offset + ((sp.len - 1) as f64 * frac) as usize;
        corrupt[at] ^= flip;
        assert_pruned_equals_filtered(&corrupt, &pred);
    });
}

#[test]
fn legacy_versions_prune_identically() {
    check("legacy_versions_prune_identically", 48, |g| {
        let snap = snapshot(g);
        let pred = pred(g);
        // v1 has no writer any more; the frozen v1 golden stands in (v1
        // and v2 share the whole-column section parsers).
        let v1 = include_bytes!("../../snapshot/tests/fixtures/tiny-v1.colf");
        for bytes in [v1.to_vec(), colf::encode_v2(&snap)] {
            assert_pruned_equals_filtered(&bytes, &pred);
        }
    });
}
