//! `Engine::group_fold` folds a morsel leaf a run of equal keys at a
//! time; this suite holds it equal to the row-at-a-time body it replaced,
//! kept here as the oracle and driven through `Engine::fold_morsels` so
//! both walk the same morsel tree.
//!
//! Every comparison is exact: per group the row list (so the order rows
//! were folded in), the count, and a non-integer `f64` sum compared by
//! bits, under both engines. Key layouts cover long runs that cross leaf
//! edges, `None` keys inside runs and on leaf edges, keys that rarely
//! repeat (the per-row fallback), and the switch between the two. A
//! filtered `Scan` group-by hands the same fold only its runs of selected
//! rows; it is held to the oracle over keys that are `None` off the
//! selection, with selected runs that cross word and leaf edges.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::{check, Gen};
use rustc_hash::FxHashMap;
use spider_core::engine::morsel_rows_for;
use spider_core::{Engine, Scan, SnapshotFrame};
use spider_snapshot::{Snapshot, SnapshotRecord};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const BOTH: [Engine; 2] = [Engine::Parallel, Engine::Sequential];

/// Per group: the rows folded, in fold order; their count; the sum of
/// their values.
#[derive(Debug, Default, PartialEq)]
struct Acc {
    rows: Vec<usize>,
    count: u64,
    sum_bits: u64,
}

impl Acc {
    fn push(&mut self, i: usize, value: f64) {
        self.rows.push(i);
        self.count += 1;
        self.sum_bits = (f64::from_bits(self.sum_bits) + value).to_bits();
    }

    fn merge(&mut self, right: Acc) {
        self.rows.extend(right.rows);
        self.count += right.count;
        self.sum_bits = (f64::from_bits(self.sum_bits) + f64::from_bits(right.sum_bits)).to_bits();
    }
}

/// The row-at-a-time group fold: one probe per row, on the same tree.
fn per_row(engine: Engine, keys: &[Option<u32>], values: &[f64]) -> FxHashMap<u32, Acc> {
    engine.fold_morsels(
        keys.len(),
        FxHashMap::default,
        |mut acc: FxHashMap<u32, Acc>, rows| {
            for i in rows {
                if let Some(k) = keys[i] {
                    acc.entry(k).or_default().push(i, values[i]);
                }
            }
            acc
        },
        |mut a, b| {
            for (k, v) in b {
                match a.entry(k) {
                    Entry::Occupied(mut e) => e.get_mut().merge(v),
                    Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
            a
        },
    )
}

/// The run fold under test; also returns how often `key` was called.
fn by_runs(engine: Engine, keys: &[Option<u32>], values: &[f64]) -> (FxHashMap<u32, Acc>, usize) {
    let calls = AtomicUsize::new(0);
    let groups = engine.group_fold(
        keys.len(),
        |i| {
            calls.fetch_add(1, Relaxed);
            keys[i]
        },
        |acc: &mut Acc, run| {
            for i in run {
                acc.push(i, values[i]);
            }
        },
        Acc::merge,
    );
    (groups, calls.into_inner())
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (i as f64 + 3.0) + 0.1).collect()
}

/// Asserts the run fold equals the row-at-a-time oracle exactly, under
/// both engines, with `key` called once per row.
fn assert_matches_oracle(keys: &[Option<u32>], label: &str) {
    let values = values(keys.len());
    let oracle = per_row(Engine::Sequential, keys, &values);
    for engine in BOTH {
        let (groups, calls) = by_runs(engine, keys, &values);
        assert_eq!(calls, keys.len(), "{label}: {engine:?} key calls");
        assert_eq!(groups, oracle, "{label}: {engine:?} groups");
    }
}

/// Keys in runs of the given lengths, cycled until `n` rows; adjacent
/// runs always differ, and keys recur across non-adjacent runs.
fn runs(n: usize, lengths: &[usize]) -> Vec<Option<u32>> {
    let mut keys = Vec::with_capacity(n);
    let mut run = 0u32;
    while keys.len() < n {
        let len = lengths[run as usize % lengths.len()];
        let key = run % 5;
        keys.extend(std::iter::repeat_n(Some(key), len.min(n - keys.len())));
        run += 1;
    }
    keys
}

#[test]
fn run_lengths_across_leaf_edges() {
    let n = 70_000;
    let morsel = morsel_rows_for(n);
    assert!(
        n.div_ceil(morsel) > 1,
        "the layout must span several leaves"
    );
    let lengths = [1, 2, 63, 64, 4095, 4096, 4097, 20_000];
    for &len in &lengths {
        assert_matches_oracle(&runs(n, &[len]), &format!("runs of {len}"));
    }
    assert_matches_oracle(&runs(n, &lengths), "mixed run lengths");
    // One key throughout: a single run per leaf.
    assert_matches_oracle(&vec![Some(7); n], "one key");
}

#[test]
fn none_keys_inside_runs_and_on_leaf_edges() {
    let n = 70_000;
    let morsel = morsel_rows_for(n);
    let mut keys = runs(n, &[4095, 20_000, 2, 64]);
    // Inside runs.
    for i in (100..n).step_by(997) {
        keys[i] = None;
    }
    // On both sides of every leaf edge, and at the ends.
    for edge in (morsel..n).step_by(morsel) {
        keys[edge - 1] = None;
        keys[edge] = None;
    }
    keys[0] = None;
    keys[n - 1] = None;
    // A stretch of `None` longer than a per-row block.
    for k in &mut keys[30_000..30_600] {
        *k = None;
    }
    assert_matches_oracle(&keys, "none keys");
    assert_matches_oracle(&vec![None; n], "all none");
}

#[test]
fn short_runs_switch_to_per_row_probing_and_back() {
    let n = 70_000;
    // Extension-like: keys that rarely repeat, then long runs, then
    // alternating stretches of the two, so runs open inside and straddle
    // the end of a per-row block.
    let mut g = Gen::new(0x5eed);
    let mut keys: Vec<Option<u32>> = (0..n).map(|_| Some(g.int(0u32..40))).collect();
    assert_matches_oracle(&keys, "short runs");
    for (s, chunk) in keys.chunks_mut(700).enumerate() {
        if s % 2 == 1 {
            chunk.fill(Some(s as u32 % 3));
        }
    }
    assert_matches_oracle(&keys, "short and long stretches");
    // Short runs of two alternate with one-row runs.
    let pairs: Vec<Option<u32>> = (0..n).map(|i| Some((i / 2 % 2) as u32)).collect();
    assert_matches_oracle(&pairs, "runs of two");
    let singles_then_run: Vec<Option<u32>> = (0..n)
        .map(|i| Some(if i % 300 < 10 { i as u32 } else { 1_000_000 }))
        .collect();
    assert_matches_oracle(&singles_then_run, "singles then a run");
}

#[test]
fn empty_and_one_row() {
    assert_matches_oracle(&[], "n = 0");
    assert_matches_oracle(&[Some(3)], "n = 1");
    assert_matches_oracle(&[None], "n = 1, none");
}

#[test]
fn random_clustered_layouts_match_the_oracle() {
    check("random_clustered_layouts_match_the_oracle", 48, |g| {
        let n = g.int(0usize..20_000);
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            let len = match g.int(0u8..4) {
                0 => 1,
                1 => g.int(1usize..8),
                2 => g.int(1usize..600),
                _ => g.int(1usize..9_000),
            };
            let key = g.bool().then(|| g.int(0u32..12));
            keys.extend(std::iter::repeat_n(key, len.min(n - keys.len())));
        }
        assert_matches_oracle(&keys, "random clustered");
    });
}

/// A frame of `n` rows in index order. The filtered fold below keys and
/// values rows by index, so nothing but the row count matters.
fn frame(n: usize) -> SnapshotFrame {
    let record = |i: usize| SnapshotRecord {
        path: format!("/p/{i:06}"),
        atime: 0,
        ctime: 0,
        mtime: 0,
        uid: 0,
        gid: 0,
        mode: 0o100664,
        ino: i as u64 + 1,
        osts: vec![],
    };
    SnapshotFrame::build(&Snapshot::new(0, 0, (0..n).map(record).collect()))
}

#[test]
fn filtered_group_fold_walks_selected_runs_across_word_and_leaf_edges() {
    let n = 70_000;
    let morsel = morsel_rows_for(n);
    let frame = frame(n);
    let mut keys = runs(n, &[1, 63, 4097, 20_000, 2]);
    for i in (50..n).step_by(997) {
        keys[i] = None;
    }
    let values = values(n);
    // Stretches that start and end on, just before and just after word
    // edges, alternately selected and not.
    let stretches = [1, 63, 64, 65, 127, 129, 4095, 4097];
    let (mut selected, mut on, mut s) = (Vec::with_capacity(n), true, 0);
    while selected.len() < n {
        let len = stretches[s % stretches.len()].min(n - selected.len());
        selected.extend(std::iter::repeat_n(on, len));
        (on, s) = (!on, s + 3);
    }
    // Selected runs straddling every leaf edge, and a sparse stretch.
    for edge in (morsel..n).step_by(morsel) {
        selected[edge - 70..edge + 70].fill(true);
    }
    for i in (40_000..45_000).step_by(3) {
        selected[i] = !selected[i];
    }
    let keyed: Vec<Option<u32>> = (0..n).map(|i| keys[i].filter(|_| selected[i])).collect();
    let oracle = per_row(Engine::Sequential, &keyed, &values);
    let chosen = selected.iter().filter(|&&b| b).count();
    for engine in BOTH {
        let calls = AtomicUsize::new(0);
        let groups = Scan::with_engine(&frame, engine)
            .filter(|_, i| selected[i])
            .group_agg(
                |_, i| {
                    calls.fetch_add(1, Relaxed);
                    keys[i]
                },
                |acc: &mut Acc, _, i| acc.push(i, values[i]),
                Acc::merge,
            );
        assert_eq!(calls.into_inner(), chosen, "{engine:?} key calls");
        assert_eq!(groups, oracle, "{engine:?} filtered groups");
    }
}
