//! Scans over snapshot frames — the SparkSQL-flavoured surface of the
//! pipeline.
//!
//! The study ran interactive SQL over the converted snapshots ("SELECT
//! gid, COUNT(*) ... GROUP BY gid"-style questions). [`Scan`] provides the
//! same select → filter → group-by → aggregate shape over a
//! [`SnapshotFrame`], evaluated a column at a time: each filter narrows a
//! [`Selection`] bitmap (one bit per row) when it is composed, and a
//! terminal aggregate (`count`, `group_count`, [`Scan::multi`], ...) reads
//! that bitmap. `count` is a popcount; a group-by runs one morsel-driven
//! pass through the [`Engine`] and keys only the selected rows.
//!
//! ```
//! use spider_core::{Scan, SnapshotFrame};
//! use spider_snapshot::{Snapshot, SnapshotRecord};
//!
//! let snapshot = Snapshot::new(0, 0, vec![SnapshotRecord {
//!     path: "/p/a.nc".into(), atime: 9, ctime: 5, mtime: 5,
//!     uid: 7, gid: 42, mode: 0o100664, ino: 1, osts: vec![(1, 1)],
//! }]);
//! let frame = SnapshotFrame::build(&snapshot);
//!
//! // One aggregate: one pass over the selected rows.
//! let files_per_project = Scan::over(&frame)
//!     .files()
//!     .group_count(|f, i| Some(f.gid[i]));
//! assert_eq!(files_per_project[&42], 1);
//!
//! // Several aggregates: still one pass, via `multi`.
//! let stats = Scan::over(&frame)
//!     .files()
//!     .multi(|f, i| Some(f.gid[i]))
//!     .count("files")
//!     .mean("atime", |f, i| f.atime[i] as f64)
//!     .max("stripes", |f, i| f.stripe_count[i] as f64)
//!     .run();
//! assert_eq!(stats.count(&42, "files"), Some(1));
//! assert_eq!(stats.mean(&42, "atime"), Some(9.0));
//! ```
//!
//! Filters come in three forms that compose freely, each ANDed into the
//! selection:
//!
//! * typed [`Pred`] trees ([`Scan::filter_pred`]) compile to a
//!   [`FramePred`] and run [`FramePred::select`]: every leaf is one pass
//!   down a flat column, and `And`/`Or` combine the leaves' bitmaps a
//!   word (64 rows) at a time. Because a `Pred` is inspectable it is also
//!   *pushable* — a cold one-shot question hands the same predicate to
//!   [`crate::FrameLoader::frames_pruned`], and day-level plus colf v3
//!   zone-map pruning happen before the frame is even built;
//! * [`Scan::files`] and [`Scan::dirs`] read the `is_file` column;
//! * opaque closures ([`Scan::filter`], the escape hatch — anything goes,
//!   nothing can be pushed) run as a second pass on the engine's morsel
//!   tree, clearing bits: the closure is called once for each row the
//!   earlier filters kept and never for any other.
//!
//! [`FramePred::select`] is also the kernel `spider-serve` runs over its
//! resident full frames. Its row-at-a-time form, [`FramePred::test`], is
//! the oracle the equivalence suites hold it to; no scan calls it.
//!
//! The accounts-database join of §4.1.1 is the [`crate::AnalysisContext`]
//! passed into key functions.

use crate::agg::MultiAgg;
use crate::engine::Engine;
use crate::frame::SnapshotFrame;
use rustc_hash::FxHashMap;
use spider_snapshot::Pred;
use spider_telemetry as telemetry;
use std::ops::Range;

/// Telemetry counter names for the first filter stages of a scan; deeper
/// stacks all charge the last name.
const SCAN_STAGE_NAMES: [&str; 6] = [
    "scan.stage0.matched",
    "scan.stage1.matched",
    "scan.stage2.matched",
    "scan.stage3.matched",
    "scan.stage4.matched",
    "scan.stage5.matched",
];

/// A typed [`Pred`] compiled against one frame: the `Day` leaf folds to
/// a constant, extension names resolve to this frame's interned ids
/// (extension equality is one `u32` comparison per row), and everything
/// else reads dense columns directly. Built by [`Scan::filter_pred`];
/// because the source predicate is inspectable, callers that load
/// through [`crate::FrameLoader::frame_pruned`] can hand the *same*
/// `Pred` to the loader and have whole zones and days skipped before
/// this per-frame form ever runs.
#[derive(Debug, Clone)]
pub enum FramePred {
    /// Fully decided at compile time (e.g. a day range vs. this frame's
    /// day, or an extension set with no member in this frame).
    Const(bool),
    /// `uid` within the inclusive range.
    Uid(u32, u32),
    /// `gid` within the inclusive range.
    Gid(u32, u32),
    /// Path depth within the inclusive range.
    Depth(u32, u32),
    /// Stripe count within the inclusive range.
    Stripes(u32, u32),
    /// `mtime` within the inclusive range.
    Mtime(u64, u64),
    /// `atime` within the inclusive range.
    Atime(u64, u64),
    /// Extension id is one of these (sorted for binary search).
    ExtIn(Vec<crate::frame::ExtId>),
    /// Row has no extension.
    ExtNone,
    /// All children match.
    And(Vec<FramePred>),
    /// Any child matches.
    Or(Vec<FramePred>),
}

impl FramePred {
    /// Compiles `pred` for `frame`. Must agree row-for-row with
    /// [`Pred::matches_record`] over the records the frame was built
    /// from — the pushdown equivalence suite enforces this.
    pub fn compile(pred: &Pred, frame: &SnapshotFrame) -> FramePred {
        match pred {
            Pred::Day { lo, hi } => FramePred::Const((*lo..=*hi).contains(&frame.day())),
            Pred::Uid { lo, hi } => FramePred::Uid(*lo, *hi),
            Pred::Gid { lo, hi } => FramePred::Gid(*lo, *hi),
            Pred::Depth { lo, hi } => FramePred::Depth(*lo, *hi),
            Pred::Stripes { lo, hi } => FramePred::Stripes(*lo, *hi),
            Pred::Mtime { lo, hi } => FramePred::Mtime(*lo, *hi),
            Pred::Atime { lo, hi } => FramePred::Atime(*lo, *hi),
            Pred::ExtIn(names) => {
                let mut ids: Vec<crate::frame::ExtId> =
                    names.iter().filter_map(|n| frame.ext_id_of(n)).collect();
                if ids.is_empty() {
                    // The intern table lists every extension present in
                    // the frame, so an unresolvable set matches nothing.
                    return FramePred::Const(false);
                }
                ids.sort_unstable();
                FramePred::ExtIn(ids)
            }
            Pred::ExtNone => FramePred::ExtNone,
            Pred::And(ps) => {
                FramePred::And(ps.iter().map(|p| FramePred::compile(p, frame)).collect())
            }
            Pred::Or(ps) => {
                FramePred::Or(ps.iter().map(|p| FramePred::compile(p, frame)).collect())
            }
        }
    }

    /// Evaluates the predicate over the whole frame, column-at-a-time:
    /// every leaf is one branch-free range compare down a flat
    /// `u32`/`u64`/`u16` column, and `And`/`Or` combine their children's
    /// bitmaps a word (64 rows) at a time. Bit `i` of the result equals
    /// [`FramePred::test`]`(frame, i)`, the row-at-a-time oracle.
    pub fn select(&self, frame: &SnapshotFrame) -> Selection {
        match self {
            FramePred::Const(b) => Selection::filled(frame.len(), *b),
            FramePred::Uid(lo, hi) => Selection::of(&frame.uid, |v| (*lo..=*hi).contains(&v)),
            FramePred::Gid(lo, hi) => Selection::of(&frame.gid, |v| (*lo..=*hi).contains(&v)),
            FramePred::Depth(lo, hi) => {
                Selection::of(&frame.depth, |v| (*lo..=*hi).contains(&(v as u32)))
            }
            FramePred::Stripes(lo, hi) => {
                Selection::of(&frame.stripe_count, |v| (*lo..=*hi).contains(&(v as u32)))
            }
            FramePred::Mtime(lo, hi) => Selection::of(&frame.mtime, |v| (*lo..=*hi).contains(&v)),
            FramePred::Atime(lo, hi) => Selection::of(&frame.atime, |v| (*lo..=*hi).contains(&v)),
            FramePred::ExtIn(ids) => Selection::of(&frame.ext, |v| ids.contains(&v)),
            FramePred::ExtNone => Selection::of(&frame.ext, |v| v == crate::frame::EXT_NONE),
            FramePred::And(ps) => Self::combine(ps, frame, true, |a, c| *a &= c),
            FramePred::Or(ps) => Self::combine(ps, frame, false, |a, c| *a |= c),
        }
    }

    /// Whether row `i` of `frame` matches, one row at a time: the oracle
    /// [`FramePred::select`] is held to (`pushdown_equivalence`,
    /// `prop_pushdown`, serve's `fold_equivalence`). Scans never call it.
    pub fn test(&self, frame: &SnapshotFrame, i: usize) -> bool {
        match self {
            FramePred::Const(b) => *b,
            FramePred::Uid(lo, hi) => (*lo..=*hi).contains(&frame.uid[i]),
            FramePred::Gid(lo, hi) => (*lo..=*hi).contains(&frame.gid[i]),
            FramePred::Depth(lo, hi) => (*lo..=*hi).contains(&(frame.depth[i] as u32)),
            FramePred::Stripes(lo, hi) => (*lo..=*hi).contains(&(frame.stripe_count[i] as u32)),
            FramePred::Mtime(lo, hi) => (*lo..=*hi).contains(&frame.mtime[i]),
            FramePred::Atime(lo, hi) => (*lo..=*hi).contains(&frame.atime[i]),
            FramePred::ExtIn(ids) => ids.binary_search(&frame.ext[i]).is_ok(),
            FramePred::ExtNone => frame.ext[i] == crate::frame::EXT_NONE,
            FramePred::And(ps) => ps.iter().all(|p| p.test(frame, i)),
            FramePred::Or(ps) => ps.iter().any(|p| p.test(frame, i)),
        }
    }

    /// Word-wise `op` of the children's selections; `empty` is what a
    /// childless node selects.
    fn combine(
        children: &[FramePred],
        frame: &SnapshotFrame,
        empty: bool,
        op: impl Fn(&mut u64, u64),
    ) -> Selection {
        let mut selections = children.iter().map(|p| p.select(frame));
        let Some(mut acc) = selections.next() else {
            return Selection::filled(frame.len(), empty);
        };
        for child in selections {
            acc.apply(&child, &op);
        }
        acc
    }
}

/// Which rows of one frame a [`FramePred`] or a [`Scan`] selected: bit
/// `i % 64` of word `i / 64` is row `i`. Bits at and beyond the frame's
/// length are always zero, so word-wise combination and popcounts need
/// no tail handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    words: Vec<u64>,
    len: usize,
}

impl Selection {
    fn filled(len: usize, value: bool) -> Selection {
        let mut words = vec![if value { u64::MAX } else { 0 }; len.div_ceil(64)];
        if value && !len.is_multiple_of(64) {
            *words.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Selection { words, len }
    }

    fn of<T: Copy>(column: &[T], keep: impl Fn(T) -> bool) -> Selection {
        let words = column
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |word, (bit, &v)| word | (keep(v) as u64) << bit)
            })
            .collect();
        Selection {
            words,
            len: column.len(),
        }
    }

    /// Rows in the frame the selection was taken over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame had no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of selected rows.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether row `i` is selected.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The selected row indices, ascending.
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Word-wise `op` of `other` into this selection; both were taken
    /// over the same frame.
    fn apply(&mut self, other: &Selection, op: impl Fn(&mut u64, u64)) {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, &c)| op(a, c));
    }

    /// This selection with every row `keep` rejects cleared, calling
    /// `keep` once per selected row and never for any other. Runs on
    /// `engine`'s morsel tree: leaves start on multiples of
    /// [`crate::engine::MORSEL_ROWS`], so each owns whole words and the
    /// leaves' words concatenate in row order.
    fn retain(&self, engine: Engine, keep: impl Fn(usize) -> bool + Sync + Send) -> Selection {
        let words = engine.fold_morsels(
            self.len,
            Vec::new,
            |mut words: Vec<u64>, rows| {
                debug_assert!(rows.start.is_multiple_of(64));
                for w in rows.start / 64..rows.end.div_ceil(64) {
                    let (mut bits, mut kept) = (self.words[w], 0u64);
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        kept |= (keep(w * 64 + bit) as u64) << bit;
                        bits &= bits - 1;
                    }
                    words.push(kept);
                }
                words
            },
            |mut left, mut right| {
                left.append(&mut right);
                left
            },
        );
        Selection {
            words,
            len: self.len,
        }
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// A scan over one frame: the frame, an engine, and the rows the filters
/// composed so far selected.
///
/// Each filter narrows the selection when it is composed; terminal
/// aggregates only read it, so one scan can answer several of them.
/// Because both engines reduce over the same fixed morsel tree, every
/// aggregate — including floating-point means and sums — is
/// bit-identical between [`Engine::Parallel`] and [`Engine::Sequential`].
#[derive(Clone)]
pub struct Scan<'f> {
    frame: &'f SnapshotFrame,
    engine: Engine,
    /// The selected rows; `None` until the first filter, when every row
    /// is selected.
    selected: Option<Selection>,
    /// Number of filter stages composed so far — indexes the per-stage
    /// telemetry counters.
    stage: usize,
}

impl<'f> Scan<'f> {
    /// Starts a scan selecting every row, with the parallel engine.
    pub fn over(frame: &'f SnapshotFrame) -> Scan<'f> {
        Self::with_engine(frame, Engine::Parallel)
    }

    /// Starts a scan with an explicit engine.
    pub fn with_engine(frame: &'f SnapshotFrame, engine: Engine) -> Scan<'f> {
        Scan {
            frame,
            engine,
            selected: None,
            stage: 0,
        }
    }

    /// The frame under scan.
    pub fn frame(&self) -> &'f SnapshotFrame {
        self.frame
    }

    /// Replaces the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs the selection of the next filter stage and charges the
    /// rows it keeps to `scan.stage<N>.matched`: one popcount per
    /// composed stage, however many terminals then read the scan.
    fn staged(mut self, selected: Selection) -> Self {
        let name = SCAN_STAGE_NAMES[self.stage.min(SCAN_STAGE_NAMES.len() - 1)];
        telemetry::global().incr(name, selected.count());
        self.selected = Some(selected);
        self.stage += 1;
        self
    }

    /// ANDs `stage` into the selection as the next filter stage.
    fn narrow(mut self, stage: Selection) -> Self {
        let selected = match self.selected.take() {
            Some(mut selected) => {
                selected.apply(&stage, |a, c| *a &= c);
                selected
            }
            None => stage,
        };
        self.staged(selected)
    }

    /// Adds a closure filter: a pass on the engine's morsel tree that
    /// calls `keep` once for each row the earlier filters selected (never
    /// for any other) and clears the rows it rejects. When telemetry is
    /// enabled, the rows this stage keeps are counted under
    /// `scan.stage<N>.matched`.
    pub fn filter<F>(mut self, keep: F) -> Self
    where
        F: Fn(&SnapshotFrame, usize) -> bool + Sync + Send,
    {
        let frame = self.frame;
        let prior = self
            .selected
            .take()
            .unwrap_or_else(|| Selection::filled(frame.len(), true));
        let selected = prior.retain(self.engine, |i| keep(frame, i));
        self.staged(selected)
    }

    /// Adds a **typed** filter, evaluated column-at-a-time by
    /// [`FramePred::select`]. Because a [`Pred`] is inspectable it is
    /// also *pushable*: hand the same predicate to
    /// [`crate::FrameLoader::frame_pruned`] and the loader skips days and
    /// zones before the frame is ever built, while this compiled form
    /// keeps the scan result exact. Typed and closure filters compose
    /// freely in one scan.
    pub fn filter_pred(self, pred: &Pred) -> Self {
        let stage = FramePred::compile(pred, self.frame).select(self.frame);
        self.narrow(stage)
    }

    /// Keeps only regular files.
    pub fn files(self) -> Self {
        let stage = Selection::of(&self.frame.is_file, |file| file);
        self.narrow(stage)
    }

    /// Keeps only directories.
    pub fn dirs(self) -> Self {
        let stage = Selection::of(&self.frame.is_file, |file| !file);
        self.narrow(stage)
    }

    /// Groups the selected rows by `key` through [`Engine::group_fold`]
    /// (see there for `fold` and `merge`): the one place a group-by
    /// reads the selection. Unselected rows key to `None`; an unfiltered
    /// scan keys every row without testing a bit.
    pub(crate) fn group<K, A>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        fold: impl Fn(&mut A, Range<usize>) + Sync + Send,
        merge: impl Fn(&mut A, A) + Sync + Send,
    ) -> FxHashMap<K, A>
    where
        K: Eq + std::hash::Hash + Send,
        A: Default + Send,
    {
        let (frame, n) = (self.frame, self.frame.len());
        match &self.selected {
            None => self.engine.group_fold(n, |i| key(frame, i), fold, merge),
            Some(selected) => self.engine.group_fold(
                n,
                |i| {
                    if selected.contains(i) {
                        key(frame, i)
                    } else {
                        None
                    }
                },
                fold,
                merge,
            ),
        }
    }

    /// Number of selected rows (a popcount).
    pub fn count(&self) -> u64 {
        self.selected
            .as_ref()
            .map_or(self.frame.len() as u64, Selection::count)
    }

    /// Extracts a column from the selection, in row order.
    pub fn column<T>(&self, get: impl Fn(&SnapshotFrame, usize) -> T) -> Vec<T> {
        let frame = self.frame;
        match &self.selected {
            Some(selected) => selected.rows().map(|i| get(frame, i)).collect(),
            None => (0..frame.len()).map(|i| get(frame, i)).collect(),
        }
    }

    /// `GROUP BY key -> COUNT(*)`. Rows whose key is `None` are skipped.
    pub fn group_count<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
    ) -> FxHashMap<K, u64>
    where
        K: Eq + std::hash::Hash + Send,
    {
        self.group(
            key,
            |acc: &mut u64, run| *acc += run.len() as u64,
            |a, b| *a += b,
        )
    }

    /// `GROUP BY key -> SUM(value)`.
    pub fn group_sum<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send,
    ) -> FxHashMap<K, f64>
    where
        K: Eq + std::hash::Hash + Send,
    {
        let frame = self.frame;
        self.group(
            key,
            |acc: &mut f64, run| {
                for i in run {
                    *acc += value(frame, i);
                }
            },
            |a, b| *a += b,
        )
    }

    /// `GROUP BY key -> AVG(value)`.
    pub fn group_mean<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send,
    ) -> FxHashMap<K, f64>
    where
        K: Eq + std::hash::Hash + Send,
    {
        let frame = self.frame;
        let sums: FxHashMap<K, (f64, u64)> = self.group(
            key,
            |acc: &mut (f64, u64), run| {
                acc.1 += run.len() as u64;
                for i in run {
                    acc.0 += value(frame, i);
                }
            },
            |a, b| {
                a.0 += b.0;
                a.1 += b.1;
            },
        );
        sums.into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect()
    }

    /// `GROUP BY key -> MIN(value)`.
    pub fn group_min<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        value: impl Fn(&SnapshotFrame, usize) -> u64 + Sync + Send,
    ) -> FxHashMap<K, u64>
    where
        K: Eq + std::hash::Hash + Send,
    {
        let frame = self.frame;
        let mins: FxHashMap<K, Option<u64>> = self.group(
            key,
            |acc: &mut Option<u64>, run| {
                for i in run {
                    let v = value(frame, i);
                    *acc = Some(acc.map_or(v, |a| a.min(v)));
                }
            },
            |a, b| {
                if let Some(v) = b {
                    *a = Some(a.map_or(v, |x| x.min(v)));
                }
            },
        );
        // Groups only exist where at least one row folded, so the inner
        // Option is always Some.
        mins.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// `GROUP BY key -> MAX(value)`.
    pub fn group_max<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        value: impl Fn(&SnapshotFrame, usize) -> u64 + Sync + Send,
    ) -> FxHashMap<K, u64>
    where
        K: Eq + std::hash::Hash + Send,
    {
        let frame = self.frame;
        self.group(
            key,
            |acc: &mut u64, run| {
                for i in run {
                    *acc = (*acc).max(value(frame, i));
                }
            },
            |a, b| *a = (*a).max(b),
        )
    }

    /// `GROUP BY key` folding each group with a custom accumulator —
    /// the escape hatch for analyses whose state is richer than one
    /// numeric aggregate. `fold` must process rows in the order given;
    /// `merge` combines a left shard with a right shard.
    pub fn group_agg<K, A>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        fold: impl Fn(&mut A, &SnapshotFrame, usize) + Sync + Send,
        merge: impl Fn(&mut A, A) + Sync + Send,
    ) -> FxHashMap<K, A>
    where
        K: Eq + std::hash::Hash + Send,
        A: Default + Send,
    {
        let frame = self.frame;
        self.group(
            key,
            |acc: &mut A, run| {
                for i in run {
                    fold(acc, frame, i);
                }
            },
            merge,
        )
    }

    /// The `k` groups with the highest counts, descending (ties broken by
    /// key for determinism).
    pub fn top_k_groups<K>(
        &self,
        key: impl Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
        k: usize,
    ) -> Vec<(K, u64)>
    where
        K: Eq + std::hash::Hash + Send + Ord,
    {
        let mut groups: Vec<(K, u64)> = self.group_count(key).into_iter().collect();
        groups.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        groups.truncate(k);
        groups
    }

    /// Starts a [`MultiAgg`] builder: several named aggregates, one group
    /// key, one pass over the selected rows.
    pub fn multi<K, KF>(self, key: KF) -> MultiAgg<'f, K, KF>
    where
        K: Eq + std::hash::Hash + Send,
        KF: Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
    {
        MultiAgg::new(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_snapshot::{Snapshot, SnapshotRecord};

    fn frame() -> SnapshotFrame {
        let records = vec![
            SnapshotRecord {
                path: "/p".into(),
                atime: 0,
                ctime: 0,
                mtime: 0,
                uid: 1,
                gid: 10,
                mode: 0o040770,
                ino: 1,
                osts: vec![],
            },
            SnapshotRecord {
                path: "/p/a.nc".into(),
                atime: 10,
                ctime: 5,
                mtime: 5,
                uid: 1,
                gid: 10,
                mode: 0o100664,
                ino: 2,
                osts: vec![(1, 1), (2, 2)],
            },
            SnapshotRecord {
                path: "/p/b.nc".into(),
                atime: 20,
                ctime: 7,
                mtime: 7,
                uid: 2,
                gid: 10,
                mode: 0o100664,
                ino: 3,
                osts: vec![(3, 3)],
            },
            SnapshotRecord {
                path: "/q/c.dat".into(),
                atime: 30,
                ctime: 9,
                mtime: 9,
                uid: 2,
                gid: 11,
                mode: 0o100664,
                ino: 4,
                osts: vec![(4, 4)],
            },
        ];
        SnapshotFrame::build(&Snapshot::new(0, 0, records))
    }

    #[test]
    fn filter_and_count() {
        let f = frame();
        assert_eq!(Scan::over(&f).count(), 4);
        assert_eq!(Scan::over(&f).files().count(), 3);
        assert_eq!(Scan::over(&f).dirs().count(), 1);
        assert_eq!(
            Scan::over(&f).files().filter(|f, i| f.gid[i] == 10).count(),
            2
        );
    }

    #[test]
    fn group_count_per_project() {
        let f = frame();
        let per_gid = Scan::over(&f).files().group_count(|f, i| Some(f.gid[i]));
        assert_eq!(per_gid[&10], 2);
        assert_eq!(per_gid[&11], 1);
    }

    #[test]
    fn group_mean_and_max() {
        let f = frame();
        let mean_atime = Scan::over(&f)
            .files()
            .group_mean(|f, i| Some(f.uid[i]), |f, i| f.atime[i] as f64);
        assert_eq!(mean_atime[&1], 10.0);
        assert_eq!(mean_atime[&2], 25.0);
        let max_stripes = Scan::over(&f)
            .files()
            .group_max(|f, i| Some(f.gid[i]), |f, i| f.stripe_count[i] as u64);
        assert_eq!(max_stripes[&10], 2);
        assert_eq!(max_stripes[&11], 1);
    }

    #[test]
    fn group_sum_and_min() {
        let f = frame();
        let sum_atime = Scan::over(&f)
            .files()
            .group_sum(|f, i| Some(f.gid[i]), |f, i| f.atime[i] as f64);
        assert_eq!(sum_atime[&10], 30.0);
        assert_eq!(sum_atime[&11], 30.0);
        let min_stripes = Scan::over(&f)
            .files()
            .group_min(|f, i| Some(f.gid[i]), |f, i| f.stripe_count[i] as u64);
        assert_eq!(min_stripes[&10], 1);
        assert_eq!(min_stripes[&11], 1);
    }

    #[test]
    fn group_agg_custom_accumulator() {
        let f = frame();
        // (min, max) atime per gid in one pass.
        let spans: FxHashMap<u32, (u64, u64)> = Scan::over(&f).files().group_agg(
            |f, i| Some(f.gid[i]),
            |acc: &mut (u64, u64), f, i| {
                let a = f.atime[i];
                if acc.1 == 0 && acc.0 == 0 {
                    *acc = (a, a);
                } else {
                    acc.0 = acc.0.min(a);
                    acc.1 = acc.1.max(a);
                }
            },
            |a, b| {
                a.0 = a.0.min(b.0);
                a.1 = a.1.max(b.1);
            },
        );
        assert_eq!(spans[&10], (10, 20));
        assert_eq!(spans[&11], (30, 30));
    }

    #[test]
    fn top_k_ordering_is_deterministic() {
        let f = frame();
        let top = Scan::over(&f)
            .files()
            .top_k_groups(|f, i| Some(f.gid[i]), 5);
        assert_eq!(top, vec![(10, 2), (11, 1)]);
        let top1 = Scan::over(&f)
            .files()
            .top_k_groups(|f, i| Some(f.gid[i]), 1);
        assert_eq!(top1, vec![(10, 2)]);
    }

    #[test]
    fn engines_agree() {
        let f = frame();
        let par = Scan::with_engine(&f, Engine::Parallel)
            .files()
            .group_count(|f, i| Some(f.uid[i]));
        let seq = Scan::with_engine(&f, Engine::Sequential)
            .files()
            .group_count(|f, i| Some(f.uid[i]));
        assert_eq!(par, seq);
    }

    #[test]
    fn none_keys_are_skipped() {
        let f = frame();
        let groups = Scan::over(&f).group_count(|f, i| (f.gid[i] == 10).then_some(0u8));
        assert_eq!(groups[&0], 3);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn column_extraction() {
        let f = frame();
        let atimes = Scan::over(&f).files().column(|f, i| f.atime[i]);
        // Selections keep row order — no sort needed.
        assert_eq!(atimes, vec![10, 20, 30]);
    }

    #[test]
    fn filter_pred_agrees_with_closure() {
        let f = frame();
        assert_eq!(
            Scan::over(&f).filter_pred(&Pred::gid(10..=10)).count(),
            Scan::over(&f).filter(|f, i| f.gid[i] == 10).count(),
        );
        assert_eq!(
            Scan::over(&f).files().filter_pred(&Pred::uid(2..)).count(),
            2
        );
        // Day folds to a constant against this frame (day 0).
        assert_eq!(Scan::over(&f).filter_pred(&Pred::day(1..)).count(), 0);
        assert_eq!(Scan::over(&f).filter_pred(&Pred::day(..=0)).count(), 4);
        // Extension sets compile to interned-id comparisons.
        assert_eq!(Scan::over(&f).filter_pred(&Pred::ext("nc")).count(), 2);
        assert_eq!(
            Scan::over(&f)
                .filter_pred(&Pred::ext_in(["nc", "dat", "h5"]))
                .count(),
            3
        );
        assert_eq!(Scan::over(&f).filter_pred(&Pred::ext("h5")).count(), 0);
        assert_eq!(Scan::over(&f).filter_pred(&Pred::ext_none()).count(), 1);
        // Typed and closure filters compose in one scan.
        let composed = Scan::over(&f)
            .filter_pred(&Pred::and(vec![Pred::gid(10..=11), Pred::stripes(1..)]))
            .filter(|f, i| f.atime[i] >= 20)
            .count();
        assert_eq!(composed, 2);
    }

    #[test]
    fn filter_pred_matches_record_oracle() {
        let f = frame();
        let snap = {
            // Rebuild the same records to run the record-level oracle.
            use spider_snapshot::{Snapshot, SnapshotRecord};
            let records = vec![
                SnapshotRecord {
                    path: "/p".into(),
                    atime: 0,
                    ctime: 0,
                    mtime: 0,
                    uid: 1,
                    gid: 10,
                    mode: 0o040770,
                    ino: 1,
                    osts: vec![],
                },
                SnapshotRecord {
                    path: "/p/a.nc".into(),
                    atime: 10,
                    ctime: 5,
                    mtime: 5,
                    uid: 1,
                    gid: 10,
                    mode: 0o100664,
                    ino: 2,
                    osts: vec![(1, 1), (2, 2)],
                },
                SnapshotRecord {
                    path: "/p/b.nc".into(),
                    atime: 20,
                    ctime: 7,
                    mtime: 7,
                    uid: 2,
                    gid: 10,
                    mode: 0o100664,
                    ino: 3,
                    osts: vec![(3, 3)],
                },
                SnapshotRecord {
                    path: "/q/c.dat".into(),
                    atime: 30,
                    ctime: 9,
                    mtime: 9,
                    uid: 2,
                    gid: 11,
                    mode: 0o100664,
                    ino: 4,
                    osts: vec![(4, 4)],
                },
            ];
            Snapshot::new(0, 0, records)
        };
        let preds = [
            Pred::uid(1..=1),
            Pred::depth(..=2),
            Pred::or(vec![Pred::ext("dat"), Pred::ext_none()]),
            Pred::and(vec![Pred::mtime(5..=7), Pred::stripes(2..)]),
        ];
        for pred in &preds {
            let compiled = FramePred::compile(pred, &f);
            for (i, r) in snap.records().iter().enumerate() {
                assert_eq!(
                    compiled.test(&f, i),
                    pred.matches_record(r, snap.day()),
                    "{pred:?} row {i}"
                );
            }
        }
    }
}
