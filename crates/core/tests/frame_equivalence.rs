//! Deterministic equivalence suite for the two frame constructors:
//! `SnapshotFrame::from_columns` over a `FrameColumns` decode must equal
//! `SnapshotFrame::build` over the rows derived from that same reader
//! (`colf::decode*` → `into_snapshot`) field-for-field — on clean files,
//! the v1 golden, and every corrupt-section salvage case the integrity
//! layer defines. (There is one colf parser; what differs is how the
//! derived frame columns — depth, extension, stripe count — are
//! computed.) Runs without proptest so the offline harness can execute
//! it; `tests/prop_frame.rs` adds the randomized twin.

use spider_core::{FrameLoader, SnapshotFrame};
use spider_snapshot::colf::{self, section_table};
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Snapshot, SnapshotRecord, SnapshotStore};

fn rec(i: usize, day: u32) -> SnapshotRecord {
    let dir = i % 13 == 0;
    SnapshotRecord {
        path: format!(
            "/lustre/atlas{}/proj{:03}/αβγ-{}/file.{:05}.{}",
            1 + i % 2,
            i % 17,
            i % 5,
            i,
            ["nc", "h5", "dat", "txt", "silo"][i % 5]
        ),
        atime: 1_420_000_000 + day as u64 * 86_400 + i as u64 * 13,
        ctime: 1_420_000_000 + i as u64 * 7,
        mtime: 1_420_000_000 + i as u64 * 11,
        uid: 10_000 + (i % 53) as u32,
        gid: 7_000 + (i % 19) as u32,
        mode: if dir { 0o040770 } else { 0o100664 },
        ino: 1_000_000 + i as u64,
        osts: if dir {
            vec![]
        } else {
            (0..(1 + i % 8))
                .map(|k| (k as u16, (i * 8 + k) as u32))
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

/// The contract at the heart of this suite.
fn assert_paths_equivalent(bytes: &[u8]) {
    let row = colf::decode_lossy(bytes);
    let col = FrameColumns::decode_lossy(bytes);
    match (row, col) {
        (Ok(row), Ok(col)) => {
            assert_eq!(row.lost_sections, col.lost_sections());
            let slow = SnapshotFrame::build(&row.snapshot);
            let fast = SnapshotFrame::from_columns(&col);
            assert_eq!(slow, fast);
        }
        (Err(_), Err(_)) => {}
        (row, col) => panic!(
            "decodes disagree: with rows ok={}, columns only ok={}",
            row.is_ok(),
            col.is_ok()
        ),
    }
}

#[test]
fn clean_v2_frames_are_identical() {
    for n in [0usize, 1, 2, 100, 1_000] {
        let snap = sample(21, n);
        assert_paths_equivalent(&colf::encode(&snap));
    }
}

#[test]
fn clean_v1_frames_are_identical() {
    let bytes = include_bytes!("../../snapshot/tests/fixtures/tiny-v1.colf");
    let slow = SnapshotFrame::build(&colf::decode(bytes).unwrap());
    let fast = SnapshotFrame::from_columns(&FrameColumns::decode(bytes).unwrap());
    assert_eq!(slow, fast);
}

#[test]
fn every_single_section_corruption_is_equivalent() {
    let snap = sample(14, 150);
    let bytes = colf::encode(&snap);
    let spans = section_table(&bytes).unwrap();
    for span in spans.iter().filter(|s| s.len > 0) {
        for at in [0, span.len / 2, span.len - 1] {
            let mut corrupted = bytes.clone();
            corrupted[span.offset + at] ^= 0xA5;
            assert_paths_equivalent(&corrupted);
        }
    }
}

#[test]
fn multi_section_corruption_is_equivalent() {
    let snap = sample(28, 80);
    let bytes = colf::encode(&snap);
    let spans = section_table(&bytes).unwrap();
    let mut corrupted = bytes.clone();
    for name in ["uid", "mtime", "osts"] {
        let span = spans.iter().find(|s| s.name == name).unwrap();
        corrupted[span.offset + span.len / 3] ^= 0xFF;
    }
    let col = FrameColumns::decode_lossy(&corrupted).unwrap();
    assert_eq!(col.lost_sections(), ["mtime", "uid", "osts"]);
    assert_paths_equivalent(&corrupted);
}

#[test]
fn sampled_byte_flips_are_equivalent() {
    // A deterministic sweep standing in for the proptest mutation case:
    // flip every 7th byte of a small file and demand reader agreement —
    // both on accept/reject and on the salvaged frame.
    let snap = sample(35, 40);
    let bytes = colf::encode(&snap);
    for pos in (0..bytes.len()).step_by(7) {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x3C;
        assert_paths_equivalent(&mutated);
    }
}

#[test]
fn truncations_are_equivalent() {
    let snap = sample(42, 60);
    let bytes = colf::encode(&snap);
    for cut in (0..bytes.len()).step_by(11) {
        assert_paths_equivalent(&bytes[..cut]);
    }
}

#[test]
fn loader_matches_row_path_through_a_degraded_store() {
    let dir = std::env::temp_dir().join(format!("spider-equiv-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open(&dir).unwrap();
    for day in [0u32, 7, 14, 21] {
        store.put(&sample(day, 100 + day as usize)).unwrap();
    }
    // Degrade day 7 (gid column) on disk.
    let path = dir.join("snap-00007.colf");
    let mut bytes = std::fs::read(&path).unwrap();
    let spans = section_table(&bytes).unwrap();
    let gid = spans.iter().find(|s| s.name == "gid").unwrap();
    bytes[gid.offset] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();

    let loader = FrameLoader::new(&store).unwrap();
    for &day in store.days() {
        let fast = loader.frame(day).unwrap().unwrap();
        let lossy = store.get_lossy(day).unwrap().unwrap();
        assert_eq!(*fast, SnapshotFrame::build(&lossy.snapshot), "day {day}");
        if day == 7 {
            assert!(
                fast.gid.iter().all(|&g| g == 0),
                "lost gid reads as default"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loader_cache_never_serves_stale_frames_after_heal() {
    // Quarantine-then-heal: a day is first unreadable, then replaced by
    // healthy bytes (different content). The checksum key must miss and
    // re-decode — serving the pre-heal frame would be silent corruption.
    let dir = std::env::temp_dir().join(format!("spider-equiv-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open(&dir).unwrap();
    store.put(&sample(0, 50)).unwrap();

    let loader = FrameLoader::new(&store).unwrap();
    let before = loader.frame(0).unwrap().unwrap();
    assert_eq!(before.len(), 50);

    // "Heal" the day with a re-synced snapshot of different content.
    let healed = sample(0, 75);
    std::fs::write(dir.join("snap-00000.colf"), colf::encode(&healed)).unwrap();
    let after = loader.frame(0).unwrap().unwrap();
    assert_eq!(after.len(), 75, "cache served a stale pre-heal frame");
    assert_eq!(*after, SnapshotFrame::build(&healed));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loader_through_fault_injected_io_still_matches() {
    use spider_snapshot::faultfs::{FaultFs, FaultKind};
    use spider_snapshot::io::{OsIo, StoreIo};
    use spider_snapshot::store::RetryPolicy;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("spider-equiv-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = SnapshotStore::open(&dir).unwrap();
        for day in [0u32, 7] {
            store.put(&sample(day, 90)).unwrap();
        }
    }
    let ffs = Arc::new(FaultFs::new(OsIo, 99));
    let store = SnapshotStore::open_with_io(
        &dir,
        ffs.clone() as Arc<dyn StoreIo>,
        RetryPolicy::immediate(),
    )
    .unwrap();
    // Ops 0..=1 are open-time peeks; hit the loader's reads with one
    // transient error and one short read — both heal through retries.
    ffs.plan_read(2, FaultKind::TransientEio);
    ffs.plan_read(3, FaultKind::ShortRead);
    let loader = FrameLoader::new(&store).unwrap();
    for &day in store.days() {
        let fast = loader.frame(day).unwrap().unwrap();
        let slow = SnapshotFrame::build(&store.get(day).unwrap().unwrap());
        assert_eq!(*fast, slow, "day {day}");
    }
    assert!(
        ffs.injected().len() >= 1,
        "faults must flow through the seam"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
