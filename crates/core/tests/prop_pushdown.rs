//! Property-based pushdown equivalence: for arbitrary snapshots and
//! arbitrary `Pred` trees, `FrameColumns::decode_pruned` returns exactly
//! the rows `decode_lossy` + `pred_matches` keeps — at any zone size,
//! and with the zone map (or any other single section) corrupted — and
//! `FramePred::select` marks exactly the rows `RowPred::test` accepts.
//! The deterministic twin the offline harness can run lives in
//! `tests/pushdown_equivalence.rs`.

use proptest::prelude::*;
use spider_core::query::RowPred;
use spider_core::{FramePred, Scan, SnapshotFrame};
use spider_snapshot::colf::{self, section_table};
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Pred, Snapshot, SnapshotRecord};

fn record_strategy() -> impl Strategy<Value = SnapshotRecord> {
    (
        any::<bool>(),
        0u32..8,
        0u64..100_000,
        0u64..100_000,
        0usize..10,
        0u64..10_000,
        prop_oneof![
            Just(String::new()),
            ".nc".prop_map(String::from),
            ".h5".prop_map(String::from),
            ".αβ".prop_map(String::from),
            "\\.[a-z]{1,4}".prop_map(|s| s),
        ],
    )
        .prop_map(
            |(is_file, gid, atime, mtime, stripes, tag, ext)| SnapshotRecord {
                path: if is_file {
                    format!("/lustre/atlas1/proj{}/файл-{tag}{ext}", gid)
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
            },
        )
}

fn snapshot_strategy() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec(record_strategy(), 0..150),
        0u32..500,
        0u64..2_000_000_000,
    )
        .prop_map(|(mut records, day, taken_at)| {
            for (i, r) in records.iter_mut().enumerate() {
                r.path = format!("{}_{i}", r.path);
            }
            Snapshot::new(day, taken_at, records)
        })
}

/// Arbitrary predicate trees over the ranges the records above occupy
/// (plus out-of-range bounds, so empty matches are exercised too).
fn pred_strategy() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        (0u32..600, 0u32..600).prop_map(|(a, b)| Pred::day(a.min(b)..=a.max(b))),
        (0u32..120, 0u32..120).prop_map(|(a, b)| Pred::uid(a.min(b)..=a.max(b))),
        (0u32..12, 0u32..12).prop_map(|(a, b)| Pred::gid(a.min(b)..=a.max(b))),
        (0u32..8).prop_map(|d| Pred::depth(..=d)),
        (0u32..12).prop_map(|s| Pred::stripes(s..)),
        (0u64..120_000, 0u64..120_000).prop_map(|(a, b)| Pred::mtime(a.min(b)..=a.max(b))),
        (0u64..120_000).prop_map(|a| Pred::atime(a..)),
        prop_oneof![Just("nc"), Just("h5"), Just("αβ"), Just("zzz")].prop_map(|e| Pred::ext(e)),
        prop::collection::vec(prop_oneof![Just("nc"), Just("h5"), Just("txt")], 0..3)
            .prop_map(Pred::ext_in),
        Just(Pred::ext_none()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Pred::and),
            prop::collection::vec(inner, 0..4).prop_map(Pred::or),
        ]
    })
}

/// The invariant under test, shared by every property below.
fn assert_pruned_equals_filtered(bytes: &[u8], pred: &Pred) -> Result<(), TestCaseError> {
    let full = match FrameColumns::decode_lossy(bytes) {
        Ok(f) => f,
        Err(_) => {
            prop_assert!(
                FrameColumns::decode_pruned(bytes, pred).is_err(),
                "pruned decode succeeded where lossy decode failed"
            );
            return Ok(());
        }
    };
    let pruned = FrameColumns::decode_pruned(bytes, pred).unwrap();
    let expect: Vec<usize> = (0..full.len())
        .filter(|&i| full.pred_matches(pred, i))
        .collect();
    prop_assert_eq!(pruned.len(), expect.len());
    for (j, &i) in expect.iter().enumerate() {
        prop_assert_eq!(pruned.path(j), full.path(i));
        prop_assert_eq!(pruned.uid[j], full.uid[i]);
        prop_assert_eq!(pruned.gid[j], full.gid[i]);
        prop_assert_eq!(pruned.mtime[j], full.mtime[i]);
        prop_assert_eq!(pruned.atime[j], full.atime[i]);
        prop_assert_eq!(pruned.stripe_count[j], full.stripe_count[i]);
        prop_assert_eq!(pruned.ext(j), full.ext(i));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pushdown_equals_closure_filter(
        snap in snapshot_strategy(),
        pred in pred_strategy(),
        zone_rows in prop_oneof![Just(4usize), Just(16), Just(64), Just(4096)],
    ) {
        let bytes = colf::encode_with_zone_rows(&snap, zone_rows);
        assert_pruned_equals_filtered(&bytes, &pred)?;
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
        prop_assert_eq!(scanned, oracle);
    }

    #[test]
    fn select_equals_row_test(snap in snapshot_strategy(), pred in pred_strategy()) {
        let frame = SnapshotFrame::build(&snap);
        let compiled = FramePred::compile(&pred, &frame);
        let selected = compiled.select(&frame);
        let want: Vec<usize> = (0..frame.len())
            .filter(|&i| compiled.test(&frame, i))
            .collect();
        prop_assert_eq!(selected.rows().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(selected.count(), want.len() as u64);
    }

    #[test]
    fn pushdown_survives_single_byte_corruption(
        snap in snapshot_strategy(),
        pred in pred_strategy(),
        section_pick in 0usize..16,
        frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let bytes = colf::encode_with_zone_rows(&snap, 16);
        let spans = section_table(&bytes).unwrap();
        if spans.is_empty() {
            return Ok(());
        }
        let sp = &spans[section_pick % spans.len()];
        if sp.len == 0 {
            return Ok(());
        }
        let mut corrupt = bytes.clone();
        let at = sp.offset + ((sp.len - 1) as f64 * frac) as usize;
        corrupt[at] ^= flip;
        assert_pruned_equals_filtered(&corrupt, &pred)?;
    }

    #[test]
    fn legacy_versions_prune_identically(
        snap in snapshot_strategy(),
        pred in pred_strategy(),
    ) {
        // v1 has no writer any more; the frozen v1 golden stands in (v1
        // and v2 share the whole-column section parsers).
        let v1 = include_bytes!("../../snapshot/tests/fixtures/tiny-v1.colf");
        for bytes in [v1.to_vec(), colf::encode_v2(&snap)] {
            assert_pruned_equals_filtered(&bytes, &pred)?;
        }
    }
}
