//! Morsel-driven parallel fold/reduce over frame columns.
//!
//! The study's scalability came from partition-parallel scans in Spark;
//! the shared-memory equivalent here is a **morsel-driven fold**: the row
//! range is cut into equal chunks (a multiple of [`MORSEL_ROWS`] rows,
//! sized by [`morsel_rows_for`]), each morsel run is folded into a
//! private accumulator, and accumulators are merged pairwise up a *fixed*
//! binary tree whose halves run on the fork-join pool
//! ([`spider_stats::par::join`]). Two properties fall out of that shape:
//!
//! * **Low overhead.** Pool tasks are per-morsel-range, not per-row, so
//!   the scheduler cost amortizes over thousands of rows and per-chunk
//!   `FxHashMap` shards stay cache-resident while they are hot.
//! * **Determinism.** The tree's split points depend only on `n`, never on
//!   the core count or on which thread ran what. [`Engine::Sequential`]
//!   walks the *same* tree without forking, so parallel and sequential
//!   runs perform bit-identical reductions — including floating-point
//!   sums, where association order matters — on any machine. This is what
//!   lets every analysis assert `Parallel == Sequential` exactly.
//!
//! Every group-by in the analyses funnels through [`Engine::group_fold`],
//! which folds a leaf a *run* of equal keys at a time: snapshots are
//! path-sorted, so a project's or a user's rows arrive together and cost
//! one hash probe per run, not per row. Free-form reductions use
//! [`Engine::fold_morsels`] directly. The sequential mode is the oracle
//! the parallel one is checked against, and serves single-threaded
//! debugging.

use rustc_hash::FxHashMap;
use spider_stats::par;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;

/// Minimum rows per morsel and the quantum all morsel sizes are rounded
/// to. Small enough that a shard of every column of a morsel fits
/// comfortably in L2, large enough that a pool task's overhead is noise.
pub const MORSEL_ROWS: usize = 4096;

/// Leaves of every scan's morsel tree (fewer when `n` is small).
const MORSELS_PER_SCAN: usize = 4;

/// The morsel length used for an `n`-row scan: `n / 4` rounded up to a
/// multiple of [`MORSEL_ROWS`] (and at least one quantum), so a scan
/// folds at most 4 leaves.
///
/// A fixed 4096-row morsel meant a 1M-row `group_fold` built and merged
/// 256 hash shards, a measured regression of the morsel-parallel group
/// fold; 4 leaves keep the merge cheap and still give
/// the two halves of the tree, and their halves, to the pool.
///
/// The length is a function of `n` alone — not of the core count — so
/// the reduction order, and with it every floating-point result, is the
/// same on every machine, and `Parallel == Sequential` holds bit-exactly
/// everywhere.
pub fn morsel_rows_for(n: usize) -> usize {
    n.div_ceil(MORSELS_PER_SCAN).div_ceil(MORSEL_ROWS).max(1) * MORSEL_ROWS
}

/// Execution mode for scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Data-parallel scans on the fork-join pool (default).
    #[default]
    Parallel,
    /// Single-threaded scans, the oracle for [`Engine::Parallel`]. Walks
    /// the same morsel tree, so results are bit-identical.
    Sequential,
}

/// Folds `rows` over a fixed binary tree of morsel-aligned splits.
///
/// The split point is always the morsel boundary nearest the midpoint, so
/// the tree shape is a pure function of the range — both engines reduce in
/// exactly the same order.
fn fold_tree<A, I, F, M>(
    rows: Range<usize>,
    morsel: usize,
    parallel: bool,
    init: &I,
    fold: &F,
    merge: &M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, Range<usize>) -> A + Sync,
    M: Fn(A, A) -> A + Sync,
{
    let len = rows.end - rows.start;
    if len <= morsel {
        return fold(init(), rows);
    }
    let morsels = len.div_ceil(morsel);
    let mid = rows.start + (morsels / 2) * morsel;
    let (left, right) = (rows.start..mid, mid..rows.end);
    let (a, b) = if parallel {
        par::join(
            || fold_tree(left, morsel, true, init, fold, merge),
            || fold_tree(right, morsel, true, init, fold, merge),
        )
    } else {
        (
            fold_tree(left, morsel, false, init, fold, merge),
            fold_tree(right, morsel, false, init, fold, merge),
        )
    };
    merge(a, b)
}

/// One-row runs in a row after which [`fold_runs`] stops looking for runs
/// for a while.
const SHORT_RUNS: u32 = 4;

/// Rows [`fold_runs`] then probes one at a time before it looks for runs
/// again.
const PER_ROW_BLOCK: usize = 256;

/// Folds one morsel leaf into `acc` a run at a time: the leaf extends a
/// run while `key` stays equal and probes the map once per run, so a
/// run of thousands of rows costs one hash probe.
///
/// Where keys rarely repeat (the extension key averages ≈1.2 rows a
/// run), the run bookkeeping costs more than it saves; after
/// [`SHORT_RUNS`] one-row runs in a row the leaf hands the next
/// [`PER_ROW_BLOCK`] rows to [`fold_rows`], then looks for runs again.
/// Either way each row is keyed once and folded, in ascending order, into
/// the entry its key names, so the result does not depend on the mode.
fn fold_runs<K, A>(
    acc: &mut FxHashMap<K, A>,
    rows: Range<usize>,
    key: &impl Fn(usize) -> Option<K>,
    fold: &impl Fn(&mut A, Range<usize>),
) where
    K: Eq + Hash,
    A: Default,
{
    let end = rows.end;
    let mut i = rows.start;
    // `key(i)`, when the run before row `i` already computed it.
    let mut next: Option<Option<K>> = None;
    let mut short = 0u32;
    while i < end {
        let Some(k) = next.take().unwrap_or_else(|| key(i)) else {
            i += 1;
            continue;
        };
        let start = i;
        i += 1;
        while i < end {
            let k2 = key(i);
            if k2.as_ref() != Some(&k) {
                next = Some(k2);
                break;
            }
            i += 1;
        }
        fold(acc.entry(k).or_default(), start..i);
        short = if i - start == 1 { short + 1 } else { 0 };
        if short == SHORT_RUNS {
            short = 0;
            // The run ended at the leaf's end: nothing is left.
            let Some(pending) = next.take() else { break };
            if let Some(k) = pending {
                fold(acc.entry(k).or_default(), i..i + 1);
            }
            let block_end = (i + 1 + PER_ROW_BLOCK).min(end);
            fold_rows(acc, i + 1..block_end, key, fold);
            i = block_end;
        }
    }
}

/// Folds `rows` one probe per row. Kept out of line: inlined into
/// [`fold_runs`], the row loop compiled ≈20 % slower than on its own.
#[inline(never)]
fn fold_rows<K, A>(
    acc: &mut FxHashMap<K, A>,
    rows: Range<usize>,
    key: &impl Fn(usize) -> Option<K>,
    fold: &impl Fn(&mut A, Range<usize>),
) where
    K: Eq + Hash,
    A: Default,
{
    for i in rows {
        if let Some(k) = key(i) {
            fold(acc.entry(k).or_default(), i..i + 1);
        }
    }
}

impl Engine {
    /// The morsel-driven fold primitive: fold row ranges into per-morsel
    /// accumulators, merge them pairwise up a fixed tree.
    ///
    /// `fold` receives an accumulator plus a contiguous row range (at most
    /// [`morsel_rows_for`]`(n)` long) and must fold the rows **in order**;
    /// `merge` combines a left subtree's result with a right subtree's.
    /// Because the tree shape depends only on `n`, the reduction order —
    /// and hence the result, even for floating-point accumulators — is
    /// identical for both engines.
    pub fn fold_morsels<A>(
        &self,
        n: usize,
        init: impl Fn() -> A + Sync + Send,
        fold: impl Fn(A, Range<usize>) -> A + Sync + Send,
        merge: impl Fn(A, A) -> A + Sync + Send,
    ) -> A
    where
        A: Send,
    {
        let morsel = morsel_rows_for(n);
        // Scan telemetry is pure arithmetic per *scan*, not per row: the
        // morsel count and row count are known before the tree runs.
        let tel = spider_telemetry::global();
        tel.incr("engine.scans", 1);
        tel.incr("engine.morsels", n.div_ceil(morsel) as u64);
        tel.incr("engine.rows_scanned", n as u64);
        fold_tree(
            0..n,
            morsel,
            *self == Engine::Parallel,
            &init,
            &fold,
            &merge,
        )
    }

    /// Groups row indices `0..n` by `key(i)` (rows where `key` returns
    /// `None` are skipped) and folds each group with `fold`, starting from
    /// `A::default()`; shards are merged with `merge`.
    ///
    /// `fold` receives a **run**: a range of consecutive rows that share
    /// one key, which it must fold in ascending order. Snapshots are
    /// path-sorted, so a project's or a user's rows arrive together and a
    /// leaf probes its map once per run instead of once per row. `key` is
    /// called exactly once per row.
    ///
    /// Runs morsel-driven: each morsel of rows builds a private
    /// `FxHashMap` shard, and shards merge pairwise in a fixed order, so
    /// both engines produce identical maps. There are at most 4 shards
    /// (see [`morsel_rows_for`]), whatever the row count. Runs never
    /// cross a leaf, so the tree — and every floating-point association
    /// in it — is the same as a row-at-a-time fold's.
    pub fn group_fold<K, A>(
        &self,
        n: usize,
        key: impl Fn(usize) -> Option<K> + Sync + Send,
        fold: impl Fn(&mut A, Range<usize>) + Sync + Send,
        merge: impl Fn(&mut A, A) + Sync + Send,
    ) -> FxHashMap<K, A>
    where
        K: Eq + Hash + Send,
        A: Default + Send,
    {
        self.fold_morsels(
            n,
            FxHashMap::default,
            |mut acc: FxHashMap<K, A>, rows| {
                fold_runs(&mut acc, rows, &key, &fold);
                acc
            },
            |mut a, b| {
                for (k, v) in b {
                    match a.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), v),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(v);
                        }
                    }
                }
                a
            },
        )
    }

    /// Maps rows `0..n` and reduces with `op` starting from `identity`.
    ///
    /// # Contract
    ///
    /// `(T, op, identity)` must form a **commutative monoid**: `op` is
    /// associative and commutative, and `identity` is a true identity
    /// (`op(identity, x) == x` for all `x`). The identity is cloned once
    /// per morsel-tree leaf, so a non-idempotent "identity" (e.g. a
    /// non-zero seed value) would be counted once per leaf rather than
    /// once per reduction — debug builds assert `op(id, id) == id` to
    /// catch exactly that misuse.
    pub fn map_reduce<T>(
        &self,
        n: usize,
        identity: T,
        map: impl Fn(usize) -> T + Sync + Send,
        op: impl Fn(T, T) -> T + Sync + Send,
    ) -> T
    where
        T: Send + Sync + Clone + PartialEq + Debug,
    {
        debug_assert!(
            op(identity.clone(), identity.clone()) == identity,
            "map_reduce identity is not idempotent under op: \
             op(id, id) != id for id = {identity:?}"
        );
        self.fold_morsels(
            n,
            || identity.clone(),
            |acc, rows| rows.map(&map).fold(acc, &op),
            &op,
        )
    }

    /// Counts rows matching a predicate, fused into a single morsel scan
    /// (no per-row `map` allocation of intermediate values).
    pub fn count_where(&self, n: usize, pred: impl Fn(usize) -> bool + Sync + Send) -> u64 {
        self.fold_morsels(
            n,
            || 0u64,
            |acc, rows| acc + rows.filter(|&i| pred(i)).count() as u64,
            |a, b| a + b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [Engine; 2] = [Engine::Parallel, Engine::Sequential];

    #[test]
    fn group_fold_counts_by_key() {
        let keys = [1u32, 2, 1, 3, 2, 1];
        for engine in BOTH {
            let groups: FxHashMap<u32, u64> = engine.group_fold(
                keys.len(),
                |i| Some(keys[i]),
                |acc: &mut u64, run| *acc += run.len() as u64,
                |a, b| *a += b,
            );
            assert_eq!(groups[&1], 3, "{engine:?}");
            assert_eq!(groups[&2], 2);
            assert_eq!(groups[&3], 1);
        }
    }

    #[test]
    fn group_fold_skips_none_keys() {
        let keys = [Some(1u32), None, Some(1), None];
        for engine in BOTH {
            let groups: FxHashMap<u32, u64> = engine.group_fold(
                keys.len(),
                |i| keys[i],
                |acc: &mut u64, run| *acc += run.len() as u64,
                |a, b| *a += b,
            );
            assert_eq!(groups.len(), 1);
            assert_eq!(groups[&1], 2);
        }
    }

    #[test]
    fn parallel_equals_sequential_on_vector_sums() {
        let data: Vec<u64> = (0..10_000).map(|i| i * i % 97).collect();
        let seq = Engine::Sequential.map_reduce(data.len(), 0u64, |i| data[i], |a, b| a + b);
        let par = Engine::Parallel.map_reduce(data.len(), 0u64, |i| data[i], |a, b| a + b);
        assert_eq!(seq, par);
    }

    #[test]
    fn float_sums_are_bit_identical_across_engines() {
        // Association order changes f64 sums; the fixed morsel tree makes
        // both engines associate identically, so equality here is exact.
        let data: Vec<f64> = (0..100_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let run = |engine: Engine| {
            engine.fold_morsels(
                data.len(),
                || 0.0f64,
                |acc, rows| rows.fold(acc, |a, i| a + data[i]),
                |a, b| a + b,
            )
        };
        assert_eq!(
            run(Engine::Parallel).to_bits(),
            run(Engine::Sequential).to_bits()
        );
    }

    #[test]
    fn fold_morsels_sees_every_row_exactly_once_in_order() {
        for engine in BOTH {
            for n in [
                0usize,
                1,
                MORSEL_ROWS,
                MORSEL_ROWS + 1,
                3 * MORSEL_ROWS + 17,
            ] {
                // Per-leaf ranges must tile 0..n in order; concatenating
                // sorted-by-start leaf vectors must give 0..n.
                let rows: Vec<Vec<usize>> = engine.fold_morsels(
                    n,
                    Vec::new,
                    |mut acc: Vec<Vec<usize>>, rows| {
                        acc.push(rows.collect());
                        acc
                    },
                    |mut a, mut b| {
                        a.append(&mut b);
                        a
                    },
                );
                let flat: Vec<usize> = rows.iter().flatten().copied().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "{engine:?} n={n}");
                for leaf in &rows {
                    assert!(leaf.len() <= morsel_rows_for(n));
                }
            }
        }
    }

    #[test]
    fn morsel_size_is_quantized_and_a_function_of_n_alone() {
        for (n, morsel) in [
            (0usize, MORSEL_ROWS),
            (1, MORSEL_ROWS),
            (MORSEL_ROWS, MORSEL_ROWS),
            (4 * MORSEL_ROWS + 1, 2 * MORSEL_ROWS),
            (65_536, 16_384),
            (1 << 20, 1 << 18),
            (10_000_000, 2_502_656),
        ] {
            assert_eq!(morsel_rows_for(n), morsel, "n={n}");
            // At most 4 leaves (the quantum rounding can only shrink
            // the count), whatever the core count.
            assert!(n.div_ceil(morsel) <= 4, "n={n}");
        }
    }

    #[test]
    fn shard_count_no_longer_scales_with_rows() {
        // The shard regression: 1M rows used to mean 256 hash shards
        // regardless of parallelism. Count actual leaves now.
        let n = 1 << 20;
        let leaves =
            Engine::Sequential.fold_morsels(n, || 0usize, |acc, _rows| acc + 1, |a, b| a + b);
        assert_eq!(leaves, n.div_ceil(morsel_rows_for(n)));
        assert_eq!(leaves, 4);
    }

    #[test]
    fn parallel_fold_runs_leaves_on_two_threads() {
        if par::threads() < 2 {
            eprintln!("skipped: one core, so the pool has no worker");
            return;
        }
        let n = 1 << 20;
        let data: Vec<u64> = (0..n as u64).collect();
        // A worker wakes in microseconds and a leaf folds 2^18 rows, but
        // a loaded machine can delay the wake-up; retry a bounded number
        // of times before calling it a failure.
        for _ in 0..100 {
            let ids = std::sync::Mutex::new(Vec::new());
            let sum = Engine::Parallel.fold_morsels(
                n,
                || 0u64,
                |acc, rows| {
                    ids.lock().unwrap().push(std::thread::current().id());
                    rows.fold(acc, |a, i| a.wrapping_add(data[i].rotate_left(7)))
                },
                u64::wrapping_add,
            );
            let expected = Engine::Sequential.fold_morsels(
                n,
                || 0u64,
                |acc, rows| rows.fold(acc, |a, i| a.wrapping_add(data[i].rotate_left(7))),
                u64::wrapping_add,
            );
            assert_eq!(sum, expected);
            let mut ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 4);
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            if ids.len() >= 2 {
                return;
            }
        }
        panic!("100 parallel folds never ran a leaf off the calling thread");
    }

    #[test]
    fn count_where() {
        for engine in BOTH {
            assert_eq!(engine.count_where(100, |i| i % 3 == 0), 34);
            assert_eq!(engine.count_where(0, |_| true), 0);
            assert_eq!(
                engine.count_where(10 * MORSEL_ROWS, |i| i % 2 == 0),
                5 * MORSEL_ROWS as u64
            );
        }
    }

    #[test]
    fn group_fold_accumulates_sums() {
        let keys = [0u8, 1, 0, 1, 0];
        let vals = [1.0f64, 10.0, 2.0, 20.0, 3.0];
        for engine in BOTH {
            let groups: FxHashMap<u8, f64> = engine.group_fold(
                keys.len(),
                |i| Some(keys[i]),
                |acc: &mut f64, run| run.for_each(|i| *acc += vals[i]),
                |a, b| *a += b,
            );
            assert_eq!(groups[&0], 6.0);
            assert_eq!(groups[&1], 30.0);
        }
    }

    #[test]
    #[should_panic(expected = "identity is not idempotent")]
    #[cfg(debug_assertions)]
    fn map_reduce_rejects_non_idempotent_identity() {
        // 1 is not an identity for +: the old per-thread clone would have
        // silently added it once per shard.
        Engine::Sequential.map_reduce(10, 1u64, |i| i as u64, |a, b| a + b);
    }
}
