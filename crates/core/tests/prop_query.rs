//! Property-based equivalence tests for the lazy fused scan engine:
//!
//! * fused aggregates ≡ a naive materialized reference (collect matching
//!   rows first, then aggregate the list — the pre-redesign shape);
//! * `Engine::Parallel` ≡ `Engine::Sequential`, bit-for-bit, on every
//!   aggregate (the deterministic morsel tree at work);
//! * one-pass `MultiAgg` ≡ the equivalent single-aggregate queries.
//!
//! Timestamps are integer-valued, so float sums stay exact regardless of
//! association and the reference comparison can use strict equality.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{check, Gen};
use rustc_hash::FxHashMap;
use spider_core::{Engine, FramePred, Pred, Scan, SnapshotFrame};
use spider_snapshot::{Snapshot, SnapshotRecord};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// A runtime description of one filter, applied both to the fused scan
/// (as a composed predicate) and to the naive reference loop.
#[derive(Debug, Clone, Copy)]
enum FilterSpec {
    FilesOnly,
    DirsOnly,
    MtimeAtMost(u64),
    GidIs(u32),
}

impl FilterSpec {
    fn matches(self, f: &SnapshotFrame, i: usize) -> bool {
        match self {
            FilterSpec::FilesOnly => f.is_file[i],
            FilterSpec::DirsOnly => !f.is_file[i],
            FilterSpec::MtimeAtMost(t) => f.mtime[i] <= t,
            FilterSpec::GidIs(g) => f.gid[i] == g,
        }
    }
}

fn filter(g: &mut Gen) -> FilterSpec {
    match g.int(0..4u8) {
        0 => FilterSpec::FilesOnly,
        1 => FilterSpec::DirsOnly,
        2 => FilterSpec::MtimeAtMost(g.int(0u64..5_000)),
        _ => FilterSpec::GidIs(g.int(0u32..6)),
    }
}

fn record(g: &mut Gen) -> SnapshotRecord {
    let is_file = g.bool();
    let gid = g.int(0u32..6);
    let atime = g.int(0u64..5_000);
    let mtime = g.int(0u64..5_000);
    let stripes = g.int(0usize..5);
    let tag = g.int(0u64..1_000);
    SnapshotRecord {
        path: if is_file {
            format!("/p/f{tag}")
        } else {
            format!("/d{tag}")
        },
        atime,
        ctime: mtime,
        mtime,
        uid: gid + 100,
        gid,
        mode: if is_file { 0o100664 } else { 0o040770 },
        ino: tag,
        osts: (0..stripes).map(|s| (s as u16, s as u32)).collect(),
    }
}

fn frame(g: &mut Gen) -> SnapshotFrame {
    let mut records = g.vec(0..300, record);
    // Paths must be unique within a snapshot (`Snapshot::new` asserts);
    // suffix each with its position, which keeps the file/dir shape.
    for (i, r) in records.iter_mut().enumerate() {
        r.path = format!("{}_{i}", r.path);
    }
    SnapshotFrame::build(&Snapshot::new(0, 0, records))
}

/// A frame laid out like a path-sorted snapshot: up to ~20k rows in runs
/// of one gid per directory, run lengths from 1 to past a morsel, so
/// group folds see long runs that cross morsel-leaf edges next to runs
/// of one or two rows.
fn clustered_frame(g: &mut Gen) -> SnapshotFrame {
    let n = g.int(0usize..20_000);
    let mut records = Vec::with_capacity(n);
    let mut dir = 0usize;
    while records.len() < n {
        let len = match g.int(0u8..4) {
            0 => g.int(1usize..3),
            1 => g.int(1usize..64),
            2 => g.int(1usize..1_000),
            _ => g.int(1usize..9_000),
        }
        .min(n - records.len());
        let gid = g.int(0u32..6);
        for e in 0..len {
            let mut r = record(g);
            r.gid = gid;
            r.uid = gid + 100;
            r.path = format!("/r{dir:05}/e{e:04}");
            records.push(r);
        }
        dir += 1;
    }
    SnapshotFrame::build(&Snapshot::new(0, 0, records))
}

/// Applies up to three runtime filters as stacked closure filters, one
/// arm per stack depth.
fn fused_count(frame: &SnapshotFrame, engine: Engine, specs: &[FilterSpec]) -> u64 {
    let scan = Scan::with_engine(frame, engine);
    match *specs {
        [] => scan.count(),
        [a] => scan.filter(move |f, i| a.matches(f, i)).count(),
        [a, b] => scan
            .filter(move |f, i| a.matches(f, i))
            .filter(move |f, i| b.matches(f, i))
            .count(),
        [a, b, c] => scan
            .filter(move |f, i| a.matches(f, i))
            .filter(move |f, i| b.matches(f, i))
            .filter(move |f, i| c.matches(f, i))
            .count(),
        _ => unreachable!("the generator caps the stack at 3"),
    }
}

fn naive_rows(frame: &SnapshotFrame, specs: &[FilterSpec]) -> Vec<usize> {
    // The pre-redesign shape: materialize the row list, retain per filter.
    let mut rows: Vec<usize> = (0..frame.len()).collect();
    for spec in specs {
        rows.retain(|&i| spec.matches(frame, i));
    }
    rows
}

/// Fused filtered counts equal the materialized reference, under both
/// engines.
#[test]
fn fused_count_matches_materialized_reference() {
    check("fused_count_matches_materialized_reference", 256, |g| {
        let frame = frame(g);
        let specs = g.vec(0..=3, filter);
        let expected = naive_rows(&frame, &specs).len() as u64;
        assert_eq!(fused_count(&frame, Engine::Parallel, &specs), expected);
        assert_eq!(fused_count(&frame, Engine::Sequential, &specs), expected);
    });
}

/// Grouped aggregates (count / sum / min / max) equal the reference
/// maps, and the two engines agree bit-for-bit.
#[test]
fn grouped_aggregates_match_reference() {
    check("grouped_aggregates_match_reference", 256, |g| {
        let frame = frame(g);
        grouped_aggregates_case(g, &frame);
    });
    check("grouped_aggregates_match_reference_clustered", 24, |g| {
        let frame = clustered_frame(g);
        grouped_aggregates_case(g, &frame);
    });
}

fn grouped_aggregates_case(g: &mut Gen, frame: &SnapshotFrame) {
    let spec = filter(g);
    let rows = naive_rows(frame, &[spec]);
    let mut ref_count: FxHashMap<u32, u64> = FxHashMap::default();
    let mut ref_sum: FxHashMap<u32, f64> = FxHashMap::default();
    let mut ref_min: FxHashMap<u32, u64> = FxHashMap::default();
    let mut ref_max: FxHashMap<u32, u64> = FxHashMap::default();
    for &i in &rows {
        let gid = frame.gid[i];
        *ref_count.entry(gid).or_insert(0) += 1;
        *ref_sum.entry(gid).or_insert(0.0) += frame.mtime[i] as f64;
        let m = ref_min.entry(gid).or_insert(u64::MAX);
        *m = (*m).min(frame.atime[i]);
        let x = ref_max.entry(gid).or_insert(0);
        *x = (*x).max(frame.atime[i]);
    }
    for engine in [Engine::Parallel, Engine::Sequential] {
        let scan = Scan::with_engine(frame, engine).filter(move |f, i| spec.matches(f, i));
        assert_eq!(&scan.group_count(|f, i| Some(f.gid[i])), &ref_count);
        // Integer-valued sums are exact: strict equality is sound.
        assert_eq!(
            &scan.group_sum(|f, i| Some(f.gid[i]), |f, i| f.mtime[i] as f64),
            &ref_sum
        );
        assert_eq!(
            &scan.group_min(|f, i| Some(f.gid[i]), |f, i| f.atime[i]),
            &ref_min
        );
        assert_eq!(
            &scan.group_max(|f, i| Some(f.gid[i]), |f, i| f.atime[i]),
            &ref_max
        );
    }
}

/// A closure filter is called exactly once for each row the earlier
/// stages selected and never for any other, under both engines, and the
/// terminals that read the scan afterwards do not call it again.
#[test]
fn closure_filter_sees_each_selected_row_once() {
    check("closure_filter_sees_each_selected_row_once", 64, |g| {
        let frame = frame(g);
        closure_contract_case(g, &frame);
    });
    check(
        "closure_filter_sees_each_selected_row_once_clustered",
        16,
        |g| {
            let frame = clustered_frame(g);
            closure_contract_case(g, &frame);
        },
    );
}

fn closure_contract_case(g: &mut Gen, frame: &SnapshotFrame) {
    let (earlier, later) = (filter(g), filter(g));
    let cutoff = g.int(0u64..5_000);
    let selected: Vec<bool> = (0..frame.len())
        .map(|i| earlier.matches(frame, i) && frame.mtime[i] <= cutoff)
        .collect();
    let expected = naive_rows(frame, &[earlier, later])
        .into_iter()
        .filter(|&i| frame.mtime[i] <= cutoff)
        .count() as u64;
    for engine in [Engine::Parallel, Engine::Sequential] {
        let calls: Vec<AtomicU32> = (0..frame.len()).map(|_| AtomicU32::new(0)).collect();
        let scan = Scan::with_engine(frame, engine)
            .filter(move |f, i| earlier.matches(f, i))
            .filter_pred(&Pred::mtime(..=cutoff))
            .filter(|f, i| {
                assert!(selected[i], "closure called on rejected row {i}");
                calls[i].fetch_add(1, Relaxed);
                later.matches(f, i)
            });
        assert_eq!(scan.count(), expected, "{engine:?}");
        let grouped = scan.group_count(|f, i| Some(f.gid[i]));
        assert_eq!(grouped.values().sum::<u64>(), expected, "{engine:?}");
        for (i, calls) in calls.iter().enumerate() {
            assert_eq!(
                calls.load(Relaxed),
                u32::from(selected[i]),
                "{engine:?} row {i}"
            );
        }
    }
}

/// `n` rows, files and directories mixed, each path unique.
fn sized_frame(n: usize) -> SnapshotFrame {
    let mut g = Gen::new(n as u64);
    let records = (0..n)
        .map(|i| {
            let mut r = record(&mut g);
            r.path = format!("{}_{i}", r.path);
            r
        })
        .collect();
    SnapshotFrame::build(&Snapshot::new(0, 0, records))
}

/// No bit at or beyond a selection's length is ever set, on frames
/// around the word (64-row) and morsel (4,096-row) edges: filled
/// selections, `And`/`Or` combinations and closure passes all leave the
/// tail clear, so popcounts count only real rows.
#[test]
fn selection_tails_stay_clear() {
    for n in [0usize, 1, 63, 64, 65, 4_095, 4_097] {
        let frame = sized_frame(n);
        let preds = [
            FramePred::Const(true),
            FramePred::Const(false),
            FramePred::And(vec![]),
            FramePred::Or(vec![]),
            FramePred::And(vec![FramePred::Const(true), FramePred::Gid(0, u32::MAX)]),
            FramePred::Or(vec![FramePred::Const(false), FramePred::Mtime(0, 2_500)]),
            FramePred::Or(vec![FramePred::Const(true), FramePred::ExtNone]),
        ];
        for pred in &preds {
            let selected = pred.select(&frame);
            let expected = (0..n).filter(|&i| pred.test(&frame, i)).count();
            assert_eq!(selected.len(), n, "{pred:?} n={n}");
            assert!(selected.rows().all(|i| i < n), "{pred:?} n={n}");
            assert_eq!(selected.count(), expected as u64, "{pred:?} n={n}");
        }
        for engine in [Engine::Parallel, Engine::Sequential] {
            let all = Scan::with_engine(&frame, engine).filter(|_, _| true);
            assert_eq!(all.count(), n as u64, "{engine:?} n={n}");
            let files = (0..n).filter(|&i| frame.is_file[i]).count() as u64;
            let kept = Scan::with_engine(&frame, engine)
                .files()
                .filter(|_, _| true)
                .filter_pred(&Pred::gid(..));
            assert_eq!(kept.count(), files, "{engine:?} n={n}");
            let none = Scan::with_engine(&frame, engine).filter(|_, _| false);
            assert_eq!(none.count(), 0, "{engine:?} n={n}");
        }
    }
}

/// One-pass `MultiAgg` equals the individual single-aggregate queries
/// and is bit-identical across engines.
#[test]
fn multiagg_matches_individual_queries() {
    check("multiagg_matches_individual_queries", 256, |g| {
        multiagg_case(&frame(g));
    });
    check("multiagg_matches_individual_queries_clustered", 24, |g| {
        multiagg_case(&clustered_frame(g));
    });
}

fn multiagg_case(frame: &SnapshotFrame) {
    let run = |engine: Engine| {
        Scan::with_engine(frame, engine)
            .multi(|f: &SnapshotFrame, i| Some(f.gid[i]))
            .count("entries")
            .sum("mtime_sum", |f, i| f.mtime[i] as f64)
            .mean("mtime_mean", |f, i| f.mtime[i] as f64)
            .min_opt("file_atime_min", |f, i| {
                f.is_file[i].then(|| f.atime[i] as f64)
            })
            .max("atime_max", |f, i| f.atime[i] as f64)
            .run()
    };
    let par = run(Engine::Parallel);
    let seq = run(Engine::Sequential);

    let scan = Scan::over(frame);
    let counts = scan.group_count(|f, i| Some(f.gid[i]));
    let sums = scan.group_sum(|f, i| Some(f.gid[i]), |f, i| f.mtime[i] as f64);
    let means = scan.group_mean(|f, i| Some(f.gid[i]), |f, i| f.mtime[i] as f64);
    let file_mins = Scan::over(frame)
        .files()
        .group_min(|f, i| Some(f.gid[i]), |f, i| f.atime[i]);
    let maxes = scan.group_max(|f, i| Some(f.gid[i]), |f, i| f.atime[i]);

    assert_eq!(par.len(), counts.len());
    for (&g, &n) in &counts {
        assert_eq!(par.count(&g, "entries"), Some(n));
        assert_eq!(par.sum(&g, "mtime_sum"), Some(sums[&g]));
        assert_eq!(
            par.mean(&g, "mtime_mean").map(f64::to_bits),
            Some(means[&g].to_bits())
        );
        assert_eq!(
            par.min(&g, "file_atime_min"),
            file_mins.get(&g).map(|&v| v as f64)
        );
        assert_eq!(par.max(&g, "atime_max"), Some(maxes[&g] as f64));

        // Engines agree bit-for-bit on every aggregate.
        for name in [
            "entries",
            "mtime_sum",
            "mtime_mean",
            "file_atime_min",
            "atime_max",
        ] {
            let a = par
                .value(&g, name)
                .and_then(|v| v.numeric())
                .map(f64::to_bits);
            let b = seq
                .value(&g, name)
                .and_then(|v| v.numeric())
                .map(f64::to_bits);
            assert_eq!(a, b, "engine mismatch on {name}");
        }
    }
}

/// `top_k_groups` is deterministic and consistent across engines.
#[test]
fn top_k_is_deterministic() {
    check("top_k_is_deterministic", 256, |g| {
        let frame = frame(g);
        top_k_case(g, &frame);
    });
    check("top_k_is_deterministic_clustered", 24, |g| {
        let frame = clustered_frame(g);
        top_k_case(g, &frame);
    });
}

fn top_k_case(g: &mut Gen, frame: &SnapshotFrame) {
    let k = g.int(0usize..8);
    let par = Scan::with_engine(frame, Engine::Parallel).top_k_groups(|f, i| Some(f.gid[i]), k);
    let seq = Scan::with_engine(frame, Engine::Sequential).top_k_groups(|f, i| Some(f.gid[i]), k);
    assert_eq!(&par, &seq);
    // Descending by count, ties broken by ascending key.
    for w in par.windows(2) {
        assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
    }
}

/// Typed filters stacked on `files()` count exactly the rows a
/// retain-per-filter pass over the row list keeps, under both engines.
#[test]
fn stacked_filter_preds_match_materialized_reference() {
    check(
        "stacked_filter_preds_match_materialized_reference",
        256,
        |g| {
            let frame = frame(g);
            let cutoff = g.int(0u64..5_000);
            let min_stripes = g.int(0u32..6);
            let mut rows: Vec<usize> = (0..frame.len()).collect();
            rows.retain(|&i| frame.is_file[i]);
            rows.retain(|&i| frame.mtime[i] <= cutoff);
            rows.retain(|&i| u32::from(frame.stripe_count[i]) >= min_stripes);
            for engine in [Engine::Parallel, Engine::Sequential] {
                let fused = Scan::with_engine(&frame, engine)
                    .files()
                    .filter_pred(&Pred::mtime(..=cutoff))
                    .filter_pred(&Pred::stripes(min_stripes..))
                    .count();
                assert_eq!(fused, rows.len() as u64);
            }
        },
    );
}
