//! Golden-fixture regression tests for the colf format.
//!
//! `tests/fixtures/` holds tiny committed `.colf` files — valid v1,
//! v2, and v3, plus deliberately corrupted and hostile variants. They
//! freeze the on-disk format: an encoder change that silently breaks
//! the archive of half a terabyte of historical snapshots fails here
//! first, against files a few hundred bytes long.
//!
//! Regenerate (after an *intentional* format change) with:
//! `SPIDER_BLESS_FIXTURES=1` set for this test binary, then commit the
//! new files alongside the code change. `tiny-v1.colf` is the
//! exception: nothing writes v1 any more, so it is a frozen read-only
//! golden that the bless helper never touches.

use spider_snapshot::colf::{self, ColfError};
use spider_snapshot::record::SnapshotRecord;
use spider_snapshot::snapshot::Snapshot;
use std::fs;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    // Under cargo the manifest dir is set at compile time; the offline
    // rustc harness runs from the repo root instead.
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("tests/fixtures"),
        None => PathBuf::from("crates/snapshot/tests/fixtures"),
    }
}

/// The canonical fixture snapshot: covers front-coded paths, shared
/// prefixes, a directory, empty and multi-stripe ost lists, and
/// non-ASCII text. Must never change — it is baked into the fixtures.
fn fixture_snapshot() -> Snapshot {
    let records = vec![
        SnapshotRecord {
            path: "/lustre/atlas1/abc101/u1".to_string(),
            atime: 1_421_000_000,
            ctime: 1_420_000_000,
            mtime: 1_420_000_000,
            uid: 10_001,
            gid: 2_001,
            mode: 0o040770,
            ino: 100,
            osts: vec![],
        },
        SnapshotRecord {
            path: "/lustre/atlas1/abc101/u1/data.h5".to_string(),
            atime: 1_421_100_000,
            ctime: 1_420_100_000,
            mtime: 1_420_100_000,
            uid: 10_001,
            gid: 2_001,
            mode: 0o100664,
            ino: 101,
            osts: vec![(7, 0x10), (19, 0x11), (755, 0x12)],
        },
        SnapshotRecord {
            path: "/lustre/atlas1/abc101/u1/restart.0001".to_string(),
            atime: 1_421_200_000,
            ctime: 1_420_200_000,
            mtime: 1_420_150_000,
            uid: 10_001,
            gid: 2_001,
            mode: 0o100600,
            ino: 102,
            osts: vec![(7, 0x20)],
        },
        SnapshotRecord {
            path: "/lustre/atlas1/xyz202/σμβ/out.αβ".to_string(),
            atime: 1_421_300_000,
            ctime: 1_420_300_000,
            mtime: 1_420_300_000,
            uid: 10_002,
            gid: 2_002,
            mode: 0o100664,
            ino: 103,
            osts: vec![(2015, 0xFFFF_FFFF)],
        },
    ];
    Snapshot::new(42, 1_421_625_600, records)
}

/// Derives the corrupted variants from the clean v2 bytes. Kept in code
/// so the corruption is reproducible and documented.
fn corrupt_variants(v2: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let spans = colf::section_table(v2).expect("fixture v2 must parse");
    let span = |name: &str| spans.iter().find(|s| s.name == name).unwrap().clone();

    let osts = span("osts");
    let mut osts_corrupt = v2.to_vec();
    osts_corrupt[osts.offset + osts.len / 2] ^= 0xFF;

    let paths = span("paths");
    let mut paths_corrupt = v2.to_vec();
    paths_corrupt[paths.offset + 1] ^= 0xFF;

    let truncated = v2[..osts.offset + 1].to_vec();

    vec![
        ("tiny-v2-osts-corrupt.colf", osts_corrupt),
        ("tiny-v2-paths-corrupt.colf", paths_corrupt),
        ("tiny-v2-truncated.colf", truncated),
    ]
}

/// The corrupted v3 variant: a flipped byte inside the `zonemap`
/// section, which must degrade to an unpruned full decode — never a
/// wrong answer.
fn v3_zonemap_corrupt(v3: &[u8]) -> Vec<u8> {
    let spans = colf::section_table(v3).expect("fixture v3 must parse");
    let zm = spans.iter().find(|s| s.name == "zonemap").unwrap();
    let mut out = v3.to_vec();
    out[zm.offset + zm.len / 2] ^= 0xFF;
    out
}

/// Hostile variants: every digest verifies, but the second path's
/// shared-prefix length (2) lands inside the first path's two-byte `é`,
/// so the front-coded result would not be UTF-8. A reader must answer
/// `BadValue("path utf-8")`, never slice a `str` mid-character.
fn midchar_prefix_variants() -> Vec<(&'static str, Vec<u8>)> {
    use spider_snapshot::xxh::section_digest;
    let paths: &[u8] = &[0, 3, b'/', 0xC3, 0xA9, 2, 1, b'a'];
    // Two rows of zeros in every other column (anchored columns carry a
    // leading minimum).
    let anchored: &[u8] = &[0, 0, 0];
    let plain: &[u8] = &[0, 0];
    let payloads = [
        paths, anchored, anchored, anchored, anchored, plain, plain, plain, plain,
    ];
    let header = [42, 0, 0, 0, 0, 2]; // day 42 (u32-LE), taken_at 0, count 2

    let mut v1 = b"COLF\x01".to_vec();
    v1.extend_from_slice(&header);
    v1.extend(payloads.iter().copied().flatten());

    let mut table = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        table.extend_from_slice(&[i as u8 + 1, payload.len() as u8]);
        table.extend_from_slice(&section_digest(payload).to_le_bytes());
    }
    let mut v2 = b"COLF\x02".to_vec();
    v2.push(header.len() as u8);
    v2.extend_from_slice(&header);
    v2.extend_from_slice(&section_digest(&header).to_le_bytes());
    v2.push(payloads.len() as u8);
    v2.extend_from_slice(&table);
    v2.extend_from_slice(&section_digest(&table).to_le_bytes());
    v2.extend(payloads.iter().copied().flatten());

    vec![
        ("hostile-v1-midchar-prefix.colf", v1),
        ("hostile-v2-midchar-prefix.colf", v2),
    ]
}

fn all_fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let snap = fixture_snapshot();
    let v2 = colf::encode_v2(&snap);
    let v3 = colf::encode(&snap);
    let mut out = vec![
        ("tiny-v2.colf", v2.clone()),
        ("tiny-v3.colf", v3.clone()),
        ("tiny-v3-zonemap-corrupt.colf", v3_zonemap_corrupt(&v3)),
    ];
    out.extend(corrupt_variants(&v2));
    out.extend(midchar_prefix_variants());
    out
}

#[test]
fn bless_fixtures_when_asked() {
    if std::env::var("SPIDER_BLESS_FIXTURES").is_err() {
        return;
    }
    let dir = fixtures_dir();
    fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in all_fixtures() {
        fs::write(dir.join(name), bytes).unwrap();
    }
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixtures_dir().join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

#[test]
fn v1_fixture_still_decodes() {
    let snap = colf::decode(&read_fixture("tiny-v1.colf")).expect("v1 fixture must decode");
    assert_eq!(snap, fixture_snapshot());
}

#[test]
fn v2_fixture_still_decodes() {
    let snap = colf::decode(&read_fixture("tiny-v2.colf")).expect("v2 fixture must decode");
    assert_eq!(snap, fixture_snapshot());
}

#[test]
fn encoder_output_is_byte_stable() {
    // The committed fixtures pin the v2 and v3 encoders byte-for-byte:
    // any change to the layout, varint packing, zone framing, or
    // checksum seed shows up here.
    assert_eq!(
        colf::encode(&fixture_snapshot()),
        read_fixture("tiny-v3.colf"),
        "v3 encoder output drifted from the golden fixture"
    );
    assert_eq!(
        colf::encode_v2(&fixture_snapshot()),
        read_fixture("tiny-v2.colf"),
        "v2 encoder output drifted from the golden fixture"
    );
}

#[test]
fn v3_fixture_still_decodes() {
    let snap = colf::decode(&read_fixture("tiny-v3.colf")).expect("v3 fixture must decode");
    assert_eq!(snap, fixture_snapshot());
}

#[test]
fn corrupt_zonemap_fixture_degrades_without_wrong_answers() {
    use spider_snapshot::{FrameColumns, Pred};
    let bytes = read_fixture("tiny-v3-zonemap-corrupt.colf");
    // Strict: the checksum mismatch is an error.
    assert!(matches!(
        colf::decode(&bytes),
        Err(ColfError::Corrupt {
            section: "zonemap",
            ..
        })
    ));
    // Lossy: rows are untouched (the zone map carries no row data).
    let lossy = colf::decode_lossy(&bytes).expect("zonemap loss is recoverable");
    assert_eq!(lossy.lost_sections, vec!["zonemap"]);
    assert_eq!(lossy.snapshot, fixture_snapshot());
    // Pruned decodes fall back to full-decode-and-filter — identical
    // rows to filtering the lossy decode, never a wrong answer.
    for pred in [Pred::uid(10_002..), Pred::ext("h5"), Pred::day(0..=5)] {
        let pruned = FrameColumns::decode_pruned(&bytes, &pred).unwrap();
        let full = FrameColumns::decode_lossy(&bytes).unwrap();
        let expect: Vec<usize> = (0..full.len())
            .filter(|&i| full.pred_matches(&pred, i))
            .collect();
        assert_eq!(pruned.len(), expect.len(), "{pred:?}");
        for (j, &i) in expect.iter().enumerate() {
            assert_eq!(pruned.path(j), full.path(i));
            assert_eq!(pruned.uid[j], full.uid[i]);
        }
    }
}

#[test]
fn corrupt_osts_fixture_degrades_as_documented() {
    let bytes = read_fixture("tiny-v2-osts-corrupt.colf");
    assert!(matches!(
        colf::decode(&bytes),
        Err(ColfError::Corrupt {
            section: "osts",
            ..
        })
    ));
    let lossy = colf::decode_lossy(&bytes).expect("osts loss is recoverable");
    assert_eq!(lossy.lost_sections, vec!["osts"]);
    let want = fixture_snapshot();
    assert_eq!(lossy.snapshot.len(), want.len());
    for (got, orig) in lossy.snapshot.records().iter().zip(want.records()) {
        assert_eq!(got.path, orig.path);
        assert_eq!(got.atime, orig.atime);
        assert_eq!(got.mode, orig.mode);
        assert!(got.osts.is_empty());
    }
}

#[test]
fn corrupt_paths_fixture_is_unrecoverable() {
    let bytes = read_fixture("tiny-v2-paths-corrupt.colf");
    assert!(colf::decode(&bytes).is_err());
    assert!(colf::decode_lossy(&bytes).is_err());
}

#[test]
fn truncated_fixture_errors_strictly_and_salvages_lossily() {
    let bytes = read_fixture("tiny-v2-truncated.colf");
    assert!(colf::decode(&bytes).is_err());
    let lossy = colf::decode_lossy(&bytes).expect("prefix sections salvage");
    assert_eq!(lossy.lost_sections, vec!["osts"]);
    assert_eq!(lossy.snapshot.len(), fixture_snapshot().len());
}

#[test]
fn midchar_prefix_fixtures_are_rejected_not_panicked() {
    use spider_snapshot::FrameColumns;
    for (name, _) in midchar_prefix_variants() {
        let bytes = read_fixture(name);
        let bad = ColfError::BadValue("path utf-8");
        assert_eq!(colf::decode(&bytes).unwrap_err(), bad, "{name}");
        // (Lossy v2 reports the unparseable spine as lost instead.)
        assert!(colf::decode_lossy(&bytes).is_err(), "{name}");
        assert_eq!(FrameColumns::decode(&bytes).unwrap_err(), bad, "{name}");
    }
}

#[test]
fn fixtures_match_their_in_code_derivation() {
    // The corrupted fixtures must stay derivable from the clean one —
    // guards against hand-edited fixture drift.
    for (name, bytes) in all_fixtures() {
        assert_eq!(read_fixture(name), bytes, "fixture {name} drifted");
    }
}
