//! Property-based equivalence for the columnar fast path: for arbitrary
//! snapshots, `SnapshotFrame::from_columns` ≡ `SnapshotFrame::build`
//! field-for-field — and under arbitrary single-byte corruption the two
//! decode paths agree on accept/reject, on which sections were lost, and
//! on the salvaged frame. The deterministic twin that the offline
//! harness can run lives in `tests/frame_equivalence.rs`.

use proptest::prelude::*;
use spider_core::SnapshotFrame;
use spider_snapshot::colf;
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Snapshot, SnapshotRecord};

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
            ".αβ".prop_map(String::from), // multi-byte extension
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
        prop::collection::vec(record_strategy(), 0..120),
        0u32..500,
        0u64..2_000_000_000,
    )
        .prop_map(|(mut records, day, taken_at)| {
            // Paths must be unique within a snapshot; suffix with position.
            for (i, r) in records.iter_mut().enumerate() {
                r.path = format!("{}_{i}", r.path);
            }
            Snapshot::new(day, taken_at, records)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_columns_equals_build(snap in snapshot_strategy()) {
        let bytes = colf::encode(&snap);
        let cols = FrameColumns::decode(&bytes).unwrap();
        let fast = SnapshotFrame::from_columns(&cols);
        let slow = SnapshotFrame::build(&snap);
        prop_assert_eq!(&fast, &slow);
        // Spot-check the derived columns really came out of the arena.
        prop_assert_eq!(fast.len(), snap.len());
        prop_assert_eq!(fast.file_count(), slow.file_count());
        prop_assert_eq!(fast.extension_count(), slow.extension_count());
    }

    #[test]
    fn v2_from_columns_equals_build(snap in snapshot_strategy()) {
        // The legacy whole-column section parsers (shared by v1 and v2;
        // nothing writes v1 any more).
        let bytes = colf::encode_v2(&snap);
        let cols = FrameColumns::decode(&bytes).unwrap();
        prop_assert_eq!(
            &SnapshotFrame::from_columns(&cols),
            &SnapshotFrame::build(&snap)
        );
    }

    #[test]
    fn mutated_bytes_decode_equivalently(
        snap in snapshot_strategy(),
        pos_seed in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = colf::encode(&snap);
        let pos = pos_seed.index(bytes.len());
        bytes[pos] ^= xor;

        // Rows-kept and columns-only strict decodes agree on accept/reject.
        let row_strict = colf::decode(&bytes);
        let col_strict = FrameColumns::decode(&bytes);
        prop_assert_eq!(row_strict.is_ok(), col_strict.is_ok());

        // Lossy salvage: same verdict, same lost sections, and the frame
        // built from the derived rows equals the one built from columns.
        match (colf::decode_lossy(&bytes), FrameColumns::decode_lossy(&bytes)) {
            (Ok(row), Ok(col)) => {
                prop_assert_eq!(&row.lost_sections, col.lost_sections());
                prop_assert_eq!(
                    &SnapshotFrame::build(&row.snapshot),
                    &SnapshotFrame::from_columns(&col)
                );
            }
            (Err(_), Err(_)) => {}
            (row, col) => prop_assert!(
                false,
                "lossy disagreement: row ok={}, fast ok={}",
                row.is_ok(),
                col.is_ok()
            ),
        }
    }

    #[test]
    fn rows_and_frame_from_one_parse_agree(snap in snapshot_strategy()) {
        let bytes = colf::encode(&snap);
        let cols = FrameColumns::decode_lossy_with_rows(&bytes).unwrap();
        let fast = SnapshotFrame::from_columns(&cols);
        let roundtrip = cols.into_snapshot().unwrap();
        prop_assert_eq!(&roundtrip, &snap);
        prop_assert_eq!(&fast, &SnapshotFrame::build(&roundtrip));
    }
}
