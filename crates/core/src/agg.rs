//! One-pass multi-aggregate scans — several named aggregates, one group
//! key, one fused pass over the frame.
//!
//! Table 1 of the study reports ~9 statistics per science domain (entry
//! counts, file counts, depth quantiles, stripe widths, ages, ...). With
//! single-aggregate queries that costs one full frame scan per statistic;
//! [`MultiAgg`] registers them all up front and computes every one in a
//! single morsel-driven pass: per group, a `Vec<AggState>` holds one
//! small accumulator per registered aggregate, folded a run of equal keys
//! at a time (one state/spec dispatch per run, then a loop over its rows)
//! and merged pairwise up the engine's fixed morsel tree. Because every
//! state merge is order-deterministic (integer adds, float adds in tree
//! order, exact sketch merges), parallel and sequential engines agree
//! exactly.
//!
//! Value functions return `Option<f64>`; `None` rows are skipped by that
//! aggregate only (SQL `NULL` semantics), which is how e.g. a stripe-width
//! mean over files coexists with an entry count over all rows in the same
//! scan. Convenience registrars accept plain `f64` functions.
//!
//! ```
//! use spider_core::{Scan, SnapshotFrame};
//! use spider_snapshot::{Snapshot, SnapshotRecord};
//!
//! let snapshot = Snapshot::new(0, 0, vec![SnapshotRecord {
//!     path: "/p/a.nc".into(), atime: 864_000, ctime: 5, mtime: 5,
//!     uid: 7, gid: 42, mode: 0o100664, ino: 1, osts: vec![(1, 1)],
//! }]);
//! let frame = SnapshotFrame::build(&snapshot);
//! let stats = Scan::over(&frame)
//!     .multi(|f, i| Some(f.gid[i]))
//!     .count("entries")
//!     .sum_opt("files", |f, i| f.is_file[i].then_some(1.0))
//!     .max("depth", |f, i| f.depth[i] as f64)
//!     .quantile("depth_q", |f, i| Some(f.depth[i] as f64))
//!     .run();
//! assert_eq!(stats.count(&42, "entries"), Some(1));
//! assert_eq!(stats.sum(&42, "files"), Some(1.0));
//! ```

use crate::frame::SnapshotFrame;
use crate::query::Scan;
use rustc_hash::FxHashMap;
use spider_stats::QuantileSketch;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Range;

/// A per-row value extractor; `None` means "skip this row for this
/// aggregate" (SQL `NULL`).
type ValueFn<'f> = Box<dyn Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f>;

/// What to compute for one named aggregate.
enum AggSpec<'f> {
    Count,
    Sum(ValueFn<'f>),
    Mean(ValueFn<'f>),
    Min(ValueFn<'f>),
    Max(ValueFn<'f>),
    /// The empty sketch doubles as the per-group prototype (it carries the
    /// error-bound configuration).
    Quantile(ValueFn<'f>, QuantileSketch),
}

struct NamedSpec<'f> {
    name: String,
    spec: AggSpec<'f>,
}

/// Per-group running state for one aggregate.
///
/// Public so incremental consumers ([`crate::incremental`]) can maintain
/// long-lived aggregate states outside a [`MultiAgg`] scan: states are
/// **mergeable** ([`AggState::merge`], the same operation the morsel tree
/// uses) and **retractable** ([`AggState::retract_value`]) — with the
/// caveat that sketch-backed and extremum states can only retract
/// approximately, which the returned [`Retraction`] flags.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// `COUNT(*)` accumulator.
    Count(u64),
    /// `SUM(value)` accumulator.
    Sum(f64),
    /// `AVG(value)` accumulator (sum and contributing-row count).
    Mean {
        /// Running sum of contributed values.
        sum: f64,
        /// Number of contributing (non-`None`) rows.
        n: u64,
    },
    /// `MIN(value)` accumulator.
    Min {
        /// Current minimum (meaningless while `n == 0`).
        v: f64,
        /// Number of contributing rows.
        n: u64,
    },
    /// `MAX(value)` accumulator.
    Max {
        /// Current maximum (meaningless while `n == 0`).
        v: f64,
        /// Number of contributing rows.
        n: u64,
    },
    /// Quantile-sketch accumulator.
    Quantile(QuantileSketch),
}

/// How faithful a [`AggState::retract_value`] call was.
///
/// `Exact` means the state is exactly what it would have been had the
/// retracted row never been folded in. `Approximate` means it is not —
/// the caller must either tolerate the drift or schedule a full rebuild
/// (the oracle fallback rule; see DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retraction {
    /// Retraction fully undone the corresponding update.
    Exact,
    /// State is now approximate: extremum may be stale, or the sketch
    /// still contains the retracted sample.
    Approximate,
}

impl AggState {
    /// A fresh `COUNT(*)` state.
    pub fn count() -> AggState {
        AggState::Count(0)
    }

    /// A fresh `SUM` state.
    pub fn sum() -> AggState {
        AggState::Sum(0.0)
    }

    /// A fresh `MEAN` state.
    pub fn mean() -> AggState {
        AggState::Mean { sum: 0.0, n: 0 }
    }

    /// A fresh `MIN` state.
    pub fn min() -> AggState {
        AggState::Min { v: 0.0, n: 0 }
    }

    /// A fresh `MAX` state.
    pub fn max() -> AggState {
        AggState::Max { v: 0.0, n: 0 }
    }

    /// A fresh quantile-sketch state with the given relative-error bound.
    pub fn quantile(relative_error: f64) -> AggState {
        AggState::Quantile(QuantileSketch::new(relative_error))
    }

    /// Folds one value into the state; `None` is skipped for every
    /// aggregate except `Count`, which counts rows, not values.
    pub fn push_value(&mut self, value: Option<f64>) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(s) => {
                if let Some(v) = value {
                    *s += v;
                }
            }
            AggState::Mean { sum, n } => {
                if let Some(v) = value {
                    *sum += v;
                    *n += 1;
                }
            }
            AggState::Min { v, n } => {
                if let Some(x) = value {
                    *v = if *n == 0 { x } else { v.min(x) };
                    *n += 1;
                }
            }
            AggState::Max { v, n } => {
                if let Some(x) = value {
                    *v = if *n == 0 { x } else { v.max(x) };
                    *n += 1;
                }
            }
            AggState::Quantile(sketch) => {
                if let Some(v) = value {
                    sketch.push(v);
                }
            }
        }
    }

    /// Retracts one previously-pushed value, reporting whether the state
    /// is still exact afterwards.
    ///
    /// * `Count` / `Sum` / `Mean` invert exactly.
    /// * `Min` / `Max` invert exactly **unless** the retracted value ties
    ///   the current extremum — the runner-up is unknown, so the state
    ///   keeps the stale extremum and reports [`Retraction::Approximate`].
    /// * `Quantile` sketches cannot forget a sample at all; the sketch is
    ///   left untouched and the retraction is always approximate.
    ///
    /// Callers accumulating `Approximate` results must treat the state as
    /// degraded and fall back to the full-rescan oracle before trusting
    /// the affected statistic.
    pub fn retract_value(&mut self, value: Option<f64>) -> Retraction {
        match self {
            AggState::Count(c) => {
                *c = c.saturating_sub(1);
                Retraction::Exact
            }
            AggState::Sum(s) => {
                if let Some(v) = value {
                    *s -= v;
                }
                Retraction::Exact
            }
            AggState::Mean { sum, n } => {
                if let Some(v) = value {
                    *sum -= v;
                    *n = n.saturating_sub(1);
                }
                Retraction::Exact
            }
            AggState::Min { v, n } => match value {
                Some(x) => {
                    *n = n.saturating_sub(1);
                    if x <= *v {
                        Retraction::Approximate
                    } else {
                        Retraction::Exact
                    }
                }
                None => Retraction::Exact,
            },
            AggState::Max { v, n } => match value {
                Some(x) => {
                    *n = n.saturating_sub(1);
                    if x >= *v {
                        Retraction::Approximate
                    } else {
                        Retraction::Exact
                    }
                }
                None => Retraction::Exact,
            },
            AggState::Quantile(_) => match value {
                Some(_) => Retraction::Approximate,
                None => Retraction::Exact,
            },
        }
    }

    fn init(spec: &AggSpec<'_>) -> AggState {
        match spec {
            AggSpec::Count => AggState::Count(0),
            AggSpec::Sum(_) => AggState::Sum(0.0),
            AggSpec::Mean(_) => AggState::Mean { sum: 0.0, n: 0 },
            AggSpec::Min(_) => AggState::Min { v: 0.0, n: 0 },
            AggSpec::Max(_) => AggState::Max { v: 0.0, n: 0 },
            AggSpec::Quantile(_, proto) => AggState::Quantile(proto.clone()),
        }
    }

    /// Folds a run of rows into the state, in row order: the state/spec
    /// pair is matched once per run, not once per row.
    fn fold_run(&mut self, spec: &AggSpec<'_>, frame: &SnapshotFrame, run: Range<usize>) {
        match (self, spec) {
            (AggState::Count(c), AggSpec::Count) => *c += run.len() as u64,
            (AggState::Sum(s), AggSpec::Sum(value)) => {
                for v in run.filter_map(|i| value(frame, i)) {
                    *s += v;
                }
            }
            (AggState::Mean { sum, n }, AggSpec::Mean(value)) => {
                for v in run.filter_map(|i| value(frame, i)) {
                    *sum += v;
                    *n += 1;
                }
            }
            (AggState::Min { v, n }, AggSpec::Min(value)) => {
                for x in run.filter_map(|i| value(frame, i)) {
                    *v = if *n == 0 { x } else { v.min(x) };
                    *n += 1;
                }
            }
            (AggState::Max { v, n }, AggSpec::Max(value)) => {
                for x in run.filter_map(|i| value(frame, i)) {
                    *v = if *n == 0 { x } else { v.max(x) };
                    *n += 1;
                }
            }
            (AggState::Quantile(sketch), AggSpec::Quantile(value, _)) => {
                for v in run.filter_map(|i| value(frame, i)) {
                    sketch.push(v);
                }
            }
            _ => unreachable!("state/spec mismatch: states are built from specs in order"),
        }
    }

    /// Merges a right-subtree state into this left-subtree state. Merging
    /// states of different shapes panics — states are built from specs in
    /// order, and incremental callers must keep their layouts aligned.
    pub fn merge(&mut self, right: AggState) {
        match (self, right) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Mean { sum, n }, AggState::Mean { sum: bs, n: bn }) => {
                *sum += bs;
                *n += bn;
            }
            (AggState::Min { v, n }, AggState::Min { v: bv, n: bn }) => {
                if bn > 0 {
                    *v = if *n == 0 { bv } else { v.min(bv) };
                    *n += bn;
                }
            }
            (AggState::Max { v, n }, AggState::Max { v: bv, n: bn }) => {
                if bn > 0 {
                    *v = if *n == 0 { bv } else { v.max(bv) };
                    *n += bn;
                }
            }
            (AggState::Quantile(a), AggState::Quantile(b)) => a.merge(&b),
            _ => unreachable!("state/spec mismatch: states are built from specs in order"),
        }
    }

    /// Finalizes the state into an [`AggValue`] (consumes the state;
    /// incremental callers clone first so the running state survives).
    pub fn finalize(self) -> AggValue {
        match self {
            AggState::Count(c) => AggValue::Count(c),
            AggState::Sum(s) => AggValue::Sum(s),
            AggState::Mean { n: 0, .. } => AggValue::Null,
            AggState::Mean { sum, n } => AggValue::Mean(sum / n as f64),
            AggState::Min { n: 0, .. } => AggValue::Null,
            AggState::Min { v, .. } => AggValue::Min(v),
            AggState::Max { n: 0, .. } => AggValue::Null,
            AggState::Max { v, .. } => AggValue::Max(v),
            AggState::Quantile(s) if s.is_empty() => AggValue::Null,
            AggState::Quantile(s) => AggValue::Quantile(s),
        }
    }
}

/// A finalized aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// `COUNT(*)` of the group.
    Count(u64),
    /// Sum of the non-`None` values (0.0 when none were seen).
    Sum(f64),
    /// Mean of the non-`None` values.
    Mean(f64),
    /// Minimum of the non-`None` values.
    Min(f64),
    /// Maximum of the non-`None` values.
    Max(f64),
    /// Quantile sketch over the non-`None` values.
    Quantile(QuantileSketch),
    /// No value contributed (every row was `None` for this aggregate).
    Null,
}

impl AggValue {
    /// The value as an `f64` where that makes sense (`Count` included;
    /// `Quantile` yields the median; `Null` yields `None`).
    pub fn numeric(&self) -> Option<f64> {
        match self {
            AggValue::Count(c) => Some(*c as f64),
            AggValue::Sum(v) | AggValue::Mean(v) | AggValue::Min(v) | AggValue::Max(v) => Some(*v),
            AggValue::Quantile(s) => s.median(),
            AggValue::Null => None,
        }
    }
}

/// Builder for a one-pass multi-aggregate scan; created by
/// [`crate::Scan::multi`].
pub struct MultiAgg<'f, K, KF> {
    /// The scan whose selected rows are grouped.
    scan: Scan<'f>,
    key: KF,
    specs: Vec<NamedSpec<'f>>,
    _key: PhantomData<K>,
}

impl<'f, K, KF> MultiAgg<'f, K, KF>
where
    K: Eq + Hash + Send,
    KF: Fn(&SnapshotFrame, usize) -> Option<K> + Sync + Send,
{
    pub(crate) fn new(scan: Scan<'f>, key: KF) -> Self {
        MultiAgg {
            scan,
            key,
            specs: Vec::new(),
            _key: PhantomData,
        }
    }

    fn push(mut self, name: &str, spec: AggSpec<'f>) -> Self {
        // A duplicate would be answered from the first aggregate of that
        // name, silently, so it is rejected in every build.
        assert!(
            self.specs.iter().all(|s| s.name != name),
            "duplicate aggregate name {name:?}"
        );
        self.specs.push(NamedSpec {
            name: name.to_string(),
            spec,
        });
        self
    }

    /// Registers `COUNT(*)` under `name`.
    pub fn count(self, name: &str) -> Self {
        self.push(name, AggSpec::Count)
    }

    /// Registers `SUM(value)` under `name`.
    pub fn sum(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send + 'f,
    ) -> Self {
        self.sum_opt(name, move |f, i| Some(value(f, i)))
    }

    /// Registers `SUM(value)` with per-row `NULL` skipping.
    pub fn sum_opt(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(name, AggSpec::Sum(Box::new(value)))
    }

    /// Registers `AVG(value)` under `name`.
    pub fn mean(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send + 'f,
    ) -> Self {
        self.mean_opt(name, move |f, i| Some(value(f, i)))
    }

    /// Registers `AVG(value)` with per-row `NULL` skipping.
    pub fn mean_opt(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(name, AggSpec::Mean(Box::new(value)))
    }

    /// Registers `MIN(value)` under `name`.
    pub fn min(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send + 'f,
    ) -> Self {
        self.min_opt(name, move |f, i| Some(value(f, i)))
    }

    /// Registers `MIN(value)` with per-row `NULL` skipping.
    pub fn min_opt(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(name, AggSpec::Min(Box::new(value)))
    }

    /// Registers `MAX(value)` under `name`.
    pub fn max(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> f64 + Sync + Send + 'f,
    ) -> Self {
        self.max_opt(name, move |f, i| Some(value(f, i)))
    }

    /// Registers `MAX(value)` with per-row `NULL` skipping.
    pub fn max_opt(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(name, AggSpec::Max(Box::new(value)))
    }

    /// Registers a quantile sketch over `value` (default 1% relative
    /// error); `None` rows are skipped.
    pub fn quantile(
        self,
        name: &str,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(
            name,
            AggSpec::Quantile(Box::new(value), QuantileSketch::default()),
        )
    }

    /// Registers a quantile sketch with an explicit relative-error bound.
    pub fn quantile_with_error(
        self,
        name: &str,
        relative_error: f64,
        value: impl Fn(&SnapshotFrame, usize) -> Option<f64> + Sync + Send + 'f,
    ) -> Self {
        self.push(
            name,
            AggSpec::Quantile(Box::new(value), QuantileSketch::new(relative_error)),
        )
    }

    /// Executes the single fused scan and finalizes every aggregate.
    pub fn run(self) -> MultiAggResult<K> {
        let MultiAgg {
            scan,
            key,
            specs,
            _key,
        } = self;
        let frame = scan.frame();
        let groups: FxHashMap<K, Vec<AggState>> = scan.group(
            key,
            |acc: &mut Vec<AggState>, run| {
                // `group_fold` starts groups from Default (an empty Vec);
                // materialize the per-aggregate states on first touch.
                if acc.is_empty() {
                    acc.extend(specs.iter().map(|s| AggState::init(&s.spec)));
                }
                for (slot, named) in acc.iter_mut().zip(&specs) {
                    slot.fold_run(&named.spec, frame, run.clone());
                }
            },
            |a, b| {
                if a.is_empty() {
                    *a = b;
                } else if !b.is_empty() {
                    for (left, right) in a.iter_mut().zip(b) {
                        left.merge(right);
                    }
                }
            },
        );
        MultiAggResult {
            names: specs.into_iter().map(|s| s.name).collect(),
            groups: groups
                .into_iter()
                .map(|(k, states)| (k, states.into_iter().map(AggState::finalize).collect()))
                .collect(),
        }
    }
}

/// The finalized result of a [`MultiAgg`] scan: per group, one
/// [`AggValue`] per registered aggregate.
#[derive(Debug, Clone)]
pub struct MultiAggResult<K> {
    names: Vec<String>,
    groups: FxHashMap<K, Vec<AggValue>>,
}

impl<K: Eq + Hash> MultiAggResult<K> {
    /// Registered aggregate names, in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no group was produced.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterates over the group keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.groups.keys()
    }

    /// Whether `key` produced a group.
    pub fn contains(&self, key: &K) -> bool {
        self.groups.contains_key(key)
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The raw value of aggregate `name` for `key`.
    pub fn value(&self, key: &K, name: &str) -> Option<&AggValue> {
        let idx = self.index_of(name)?;
        self.groups.get(key).map(|v| &v[idx])
    }

    /// A `COUNT` aggregate's value.
    pub fn count(&self, key: &K, name: &str) -> Option<u64> {
        match self.value(key, name)? {
            AggValue::Count(c) => Some(*c),
            _ => None,
        }
    }

    /// A `SUM` aggregate's value.
    pub fn sum(&self, key: &K, name: &str) -> Option<f64> {
        match self.value(key, name)? {
            AggValue::Sum(v) => Some(*v),
            _ => None,
        }
    }

    /// A `MEAN` aggregate's value (`None` for `NULL`).
    pub fn mean(&self, key: &K, name: &str) -> Option<f64> {
        match self.value(key, name)? {
            AggValue::Mean(v) => Some(*v),
            _ => None,
        }
    }

    /// A `MIN` aggregate's value (`None` for `NULL`).
    pub fn min(&self, key: &K, name: &str) -> Option<f64> {
        match self.value(key, name)? {
            AggValue::Min(v) => Some(*v),
            _ => None,
        }
    }

    /// A `MAX` aggregate's value (`None` for `NULL`).
    pub fn max(&self, key: &K, name: &str) -> Option<f64> {
        match self.value(key, name)? {
            AggValue::Max(v) => Some(*v),
            _ => None,
        }
    }

    /// A quantile of a `quantile` aggregate (`None` for `NULL` or an
    /// out-of-range `q`).
    pub fn quantile(&self, key: &K, name: &str, q: f64) -> Option<f64> {
        match self.value(key, name)? {
            AggValue::Quantile(s) => s.quantile(q),
            _ => None,
        }
    }

    /// The `k` groups with the highest numeric value of aggregate `name`,
    /// descending (ties broken by key for determinism). Groups where the
    /// aggregate is `NULL` or NaN are skipped, so the rest are totally
    /// ordered and the ranking does not depend on the map's order.
    pub fn top_k(&self, name: &str, k: usize) -> Vec<(K, f64)>
    where
        K: Clone + Ord,
    {
        let Some(idx) = self.index_of(name) else {
            return Vec::new();
        };
        let mut ranked: Vec<(K, f64)> = self
            .groups
            .iter()
            .filter_map(|(key, vals)| {
                let v = vals[idx].numeric().filter(|v| !v.is_nan())?;
                Some((key.clone(), v))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use spider_snapshot::{Snapshot, SnapshotRecord};

    fn rec(
        path: &str,
        mode: u32,
        uid: u32,
        gid: u32,
        atime: u64,
        mtime: u64,
        osts: usize,
    ) -> SnapshotRecord {
        SnapshotRecord {
            path: path.to_string(),
            atime,
            ctime: mtime,
            mtime,
            uid,
            gid,
            mode,
            ino: 1,
            osts: (0..osts).map(|i| (i as u16, i as u32)).collect(),
        }
    }

    fn frame() -> SnapshotFrame {
        SnapshotFrame::build(&Snapshot::new(
            0,
            0,
            vec![
                rec("/p", 0o040770, 1, 10, 0, 0, 0),
                rec("/p/a.nc", 0o100664, 1, 10, 10, 4, 2),
                rec("/p/b.nc", 0o100664, 2, 10, 20, 6, 4),
                rec("/q", 0o040770, 2, 11, 0, 0, 0),
                rec("/q/c.dat", 0o100664, 2, 11, 30, 30, 1),
            ],
        ))
    }

    #[test]
    fn one_pass_matches_individual_queries() {
        let f = frame();
        let stats = Scan::over(&f)
            .multi(|f, i| Some(f.gid[i]))
            .count("entries")
            .sum_opt("files", |f, i| f.is_file[i].then_some(1.0))
            .mean_opt("stripe_mean", |f, i| {
                f.is_file[i].then(|| f.stripe_count[i] as f64)
            })
            .min_opt("stripe_min", |f, i| {
                f.is_file[i].then(|| f.stripe_count[i] as f64)
            })
            .max("atime_max", |f, i| f.atime[i] as f64)
            .run();

        let entries = Scan::over(&f).group_count(|f, i| Some(f.gid[i]));
        let files = Scan::over(&f).files().group_count(|f, i| Some(f.gid[i]));
        let stripe_mean = Scan::over(&f)
            .files()
            .group_mean(|f, i| Some(f.gid[i]), |f, i| f.stripe_count[i] as f64);
        for gid in [10u32, 11] {
            assert_eq!(stats.count(&gid, "entries"), Some(entries[&gid]));
            assert_eq!(stats.sum(&gid, "files"), Some(files[&gid] as f64));
            assert_eq!(stats.mean(&gid, "stripe_mean"), Some(stripe_mean[&gid]));
        }
        assert_eq!(stats.min(&10, "stripe_min"), Some(2.0));
        assert_eq!(stats.max(&11, "atime_max"), Some(30.0));
    }

    #[test]
    fn null_semantics_per_aggregate() {
        let f = frame();
        // Group only directories, but register a files-only aggregate:
        // every row is None for it → Null, while count still works.
        let stats = Scan::over(&f)
            .dirs()
            .multi(|f, i| Some(f.gid[i]))
            .count("dirs")
            .mean_opt("stripe_mean", |f, i| {
                f.is_file[i].then(|| f.stripe_count[i] as f64)
            })
            .run();
        assert_eq!(stats.count(&10, "dirs"), Some(1));
        assert_eq!(stats.value(&10, "stripe_mean"), Some(&AggValue::Null));
        assert_eq!(stats.mean(&10, "stripe_mean"), None);
    }

    #[test]
    fn quantile_sketch_in_shared_scan() {
        let f = frame();
        let stats = Scan::over(&f)
            .multi(|_, _| Some(0u8))
            .quantile("depth", |f, i| Some(f.depth[i] as f64))
            .run();
        let q = stats.quantile(&0, "depth", 1.0).unwrap();
        let max_depth = *Scan::over(&f)
            .group_max(|_, _| Some(0u8), |f, i| f.depth[i] as u64)
            .get(&0)
            .unwrap() as f64;
        assert!((q - max_depth).abs() / max_depth < 0.03);
    }

    #[test]
    fn engines_agree_exactly() {
        let f = frame();
        let run = |engine| {
            let stats = Scan::with_engine(&f, engine)
                .multi(|f: &SnapshotFrame, i| Some(f.gid[i]))
                .count("entries")
                .mean("atime", |f, i| f.atime[i] as f64)
                .quantile("depth", |f, i| Some(f.depth[i] as f64))
                .run();
            let mut keys: Vec<u32> = stats.keys().copied().collect();
            keys.sort_unstable();
            keys.into_iter()
                .map(|k| {
                    (
                        k,
                        stats.count(&k, "entries"),
                        stats.mean(&k, "atime").map(f64::to_bits),
                        stats.quantile(&k, "depth", 0.5).map(f64::to_bits),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Engine::Parallel), run(Engine::Sequential));
    }

    #[test]
    fn top_k_by_named_aggregate() {
        let f = frame();
        let stats = Scan::over(&f)
            .multi(|f, i| Some(f.gid[i]))
            .count("entries")
            .run();
        assert_eq!(stats.top_k("entries", 1), vec![(10, 3.0)]);
        assert_eq!(stats.top_k("entries", 9), vec![(10, 3.0), (11, 2.0)]);
        assert!(stats.top_k("missing", 3).is_empty());
    }

    #[test]
    fn top_k_skips_nan_groups() {
        let f = frame();
        // One group per row; rows 0 and 2 sum to NaN.
        let vals = [f64::NAN, 2.0, f64::NAN, 5.0, 1.0];
        let stats = Scan::over(&f)
            .multi(|_, i| Some(i as u32))
            .sum("v", move |_, i| vals[i])
            .run();
        assert!(stats.sum(&0, "v").unwrap().is_nan());
        assert_eq!(stats.top_k("v", 9), vec![(3, 5.0), (1, 2.0), (4, 1.0)]);
        assert_eq!(stats.top_k("v", 1), vec![(3, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate aggregate name")]
    fn duplicate_names_are_rejected() {
        let f = frame();
        // Without the check, `sum(.., "n")` would read the count.
        let _ = Scan::over(&f)
            .multi(|f, i| Some(f.gid[i]))
            .count("n")
            .sum("n", |f, i| f.atime[i] as f64);
    }

    #[test]
    fn agg_state_retraction_inverts_exact_states() {
        let mut count = AggState::count();
        let mut sum = AggState::sum();
        let mut mean = AggState::mean();
        for v in [2.0, 4.0, 9.0] {
            count.push_value(Some(v));
            sum.push_value(Some(v));
            mean.push_value(Some(v));
        }
        assert_eq!(count.retract_value(Some(4.0)), Retraction::Exact);
        assert_eq!(sum.retract_value(Some(4.0)), Retraction::Exact);
        assert_eq!(mean.retract_value(Some(4.0)), Retraction::Exact);
        assert_eq!(count.finalize(), AggValue::Count(2));
        assert_eq!(sum.finalize(), AggValue::Sum(11.0));
        assert_eq!(mean.finalize(), AggValue::Mean(5.5));
    }

    #[test]
    fn extremum_retraction_is_exact_only_off_the_extreme() {
        let mut min = AggState::min();
        let mut max = AggState::max();
        for v in [2.0, 4.0, 9.0] {
            min.push_value(Some(v));
            max.push_value(Some(v));
        }
        // Retracting an interior value leaves both extrema exact.
        assert_eq!(min.retract_value(Some(4.0)), Retraction::Exact);
        assert_eq!(max.retract_value(Some(4.0)), Retraction::Exact);
        // Retracting the extreme itself cannot recover the runner-up.
        assert_eq!(min.retract_value(Some(2.0)), Retraction::Approximate);
        assert_eq!(max.retract_value(Some(9.0)), Retraction::Approximate);
    }

    #[test]
    fn sketch_retraction_is_always_approximate() {
        let mut q = AggState::quantile(0.01);
        q.push_value(Some(1.0));
        q.push_value(Some(2.0));
        assert_eq!(q.retract_value(Some(1.0)), Retraction::Approximate);
        // The sketch itself is untouched: both samples still inside.
        match q {
            AggState::Quantile(ref s) => assert_eq!(s.count(), 2),
            _ => unreachable!(),
        }
        assert_eq!(q.retract_value(None), Retraction::Exact);
    }

    #[test]
    fn public_merge_matches_tree_merge() {
        let mut left = AggState::mean();
        left.push_value(Some(2.0));
        let mut right = AggState::mean();
        right.push_value(Some(6.0));
        left.merge(right);
        assert_eq!(left.finalize(), AggValue::Mean(4.0));
    }

    #[test]
    fn empty_frame_yields_no_groups() {
        let f = SnapshotFrame::build(&Snapshot::new(0, 0, vec![]));
        let stats = Scan::over(&f)
            .multi(|f, i| Some(f.gid[i]))
            .count("entries")
            .run();
        assert!(stats.is_empty());
        assert_eq!(stats.names(), ["entries".to_string()]);
    }
}
