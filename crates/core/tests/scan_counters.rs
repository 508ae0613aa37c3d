//! The per-stage scan counters: `scan.stage<N>.matched` must equal the
//! rows stage `N` of a scan passed, for group-bys and multi-aggregates,
//! under both engines. The predicate is tested inside the group key, so
//! a fold that keyed a row twice (say, on the row that ends a run of
//! equal keys) would count it twice.
//!
//! Its own test binary: the telemetry registry is process-global, so no
//! other scan may run beside this one.

use spider_core::{Engine, Pred, Scan, SnapshotFrame};
use spider_snapshot::{Snapshot, SnapshotRecord};
use spider_telemetry as telemetry;

/// Rows in runs of one project per directory, as in a path-sorted
/// snapshot: directory `p` holds `37 * p % 500 + 1` entries of gid
/// `p % 9`, every third of them a directory.
fn frame() -> SnapshotFrame {
    let mut records = Vec::new();
    for p in 0..120u32 {
        for e in 0..(37 * p % 500 + 1) {
            let is_file = e % 3 != 0;
            records.push(SnapshotRecord {
                path: format!("/p{p:03}/e{e:04}"),
                atime: u64::from(e * 7 % 1_000),
                ctime: u64::from(e),
                mtime: u64::from(e),
                uid: 100 + p % 4,
                gid: p % 9,
                mode: if is_file { 0o100664 } else { 0o040770 },
                ino: u64::from(p * 1_000 + e),
                osts: if is_file { vec![(0, e)] } else { vec![] },
            });
        }
    }
    SnapshotFrame::build(&Snapshot::new(0, 0, records))
}

fn counters() -> [u64; 2] {
    let tel = telemetry::global();
    [
        tel.counter("scan.stage0.matched").get(),
        tel.counter("scan.stage1.matched").get(),
    ]
}

/// Runs `scan` and returns how far each stage counter moved.
fn delta(scan: impl FnOnce()) -> [u64; 2] {
    let before = counters();
    scan();
    let after = counters();
    [after[0] - before[0], after[1] - before[1]]
}

#[test]
fn stage_counters_count_each_passed_row_once() {
    telemetry::global().enable();
    let f = frame();
    assert!(f.len() > 20_000, "the frame must span several morsels");
    let pred = Pred::gid(2..=5);
    let stage0 = (0..f.len())
        .filter(|&i| (2..=5).contains(&f.gid[i]))
        .count() as u64;
    let stage1 = (0..f.len())
        .filter(|&i| (2..=5).contains(&f.gid[i]) && f.is_file[i])
        .count() as u64;
    assert!(stage1 > 0 && stage1 < stage0);

    for engine in [Engine::Parallel, Engine::Sequential] {
        let moved = delta(|| {
            let groups = Scan::with_engine(&f, engine)
                .filter_pred(&pred)
                .files()
                .group_count(|f, i| Some(f.gid[i]));
            assert_eq!(groups.values().sum::<u64>(), stage1);
        });
        assert_eq!(moved, [stage0, stage1], "group_count, {engine:?}");

        let moved = delta(|| {
            let stats = Scan::with_engine(&f, engine)
                .filter_pred(&pred)
                .files()
                .multi(|f, i| Some(f.gid[i]))
                .count("n")
                .sum("mtime", |f, i| f.mtime[i] as f64)
                .run();
            let n: u64 = stats.keys().map(|g| stats.count(g, "n").unwrap()).sum();
            assert_eq!(n, stage1);
        });
        assert_eq!(moved, [stage0, stage1], "multi, {engine:?}");

        // A key that is `None` for some passed rows: the stages still
        // count every row they passed.
        let moved = delta(|| {
            Scan::with_engine(&f, engine)
                .filter_pred(&pred)
                .files()
                .group_sum(
                    |f, i| (f.uid[i] != 101).then_some(f.gid[i]),
                    |f, i| f.atime[i] as f64,
                );
        });
        assert_eq!(
            moved,
            [stage0, stage1],
            "group_sum with None keys, {engine:?}"
        );
    }
}
