//! Robust estimators over the timings of identical rounds.
//!
//! A run is `R` rounds of one fixed op list. Slot `i` is the `i`-th op of
//! the round; its time is the **second-fastest of its `R` timings**
//! ([`quiet`]). Percentiles are then taken over slots. Throughput is ops
//! per round over the round's wall time taken apart and put together
//! again: the slots at their own times, plus the [`quiet`] of what each
//! measured round spent **outside** its slots (the round-start fetch of
//! `scan_warm`, the budget refill of `serve_closed` and the wait for its
//! slower client). Everything between a round's start and its end
//! therefore counts, and a burst still has to hit the same place in all
//! rounds but one to move the number. The second-fastest whole round wall
//! would count the same things, but any burst anywhere spoils a whole
//! round: over six runs in a noisy quarter of an hour it spread
//! `scan_warm/ops_per_s` by 7.5 %, against 4.3 % for `op_p50_ms`.
//!
//! Why not the median across rounds: the sandbox's noise only ever adds
//! time, and in a bad minute it adds it to most rounds of a run. With a
//! neighbour busy on both cores about half the time, six runs of
//! `scan_warm` put `op_p50_ms` between 1.60 and 2.11 ms by per-slot
//! medians and between 1.49 and 1.68 ms by the second-fastest (1.46 ms
//! on a quiet box). The fastest would be steadier still, but one lucky
//! interleaving of the two `serve_closed` clients would then set the
//! number; the second-fastest needs the luck twice. A burst has to hit
//! the same slot in all rounds but one to move it.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a median of nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The second-smallest of `values` (the only one, if there is one): what
/// an op costs when the machine leaves the program alone.
///
/// # Panics
/// Panics on an empty slice.
pub fn quiet(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no timing to pick from");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

/// Whether a sample of `n` supports percentile `p` (0..1): the rule is
/// at least ten samples beyond the reported one.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n >= percentile_index(n, p) + 1 + 10
}

fn percentile_index(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0..1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[percentile_index(v.len(), p)]
}

/// Timings of one run: `op_ns[round][slot]` and the wall time of each
/// round.
#[derive(Debug, Clone, Default)]
pub struct RoundTimes {
    /// Per-round, per-slot op time in nanoseconds.
    pub op_ns: Vec<Vec<u64>>,
    /// Per-round wall time in nanoseconds, from before the round's first
    /// call into the program to after its last answer.
    pub wall_ns: Vec<u64>,
    /// Closed loops running side by side (0 reads as 1). The slots of a
    /// round are laid out lane by lane, equally many per lane.
    pub lanes: usize,
}

impl RoundTimes {
    /// Number of rounds recorded.
    pub fn rounds(&self) -> usize {
        self.wall_ns.len()
    }

    /// Ops per round.
    pub fn slots(&self) -> usize {
        self.op_ns.first().map_or(0, Vec::len)
    }

    /// Per-slot [`quiet`] time across rounds, in milliseconds.
    pub fn slot_times_ms(&self) -> Vec<f64> {
        (0..self.slots())
            .map(|slot| {
                let across: Vec<f64> = self.op_ns.iter().map(|r| r[slot] as f64 / 1e6).collect();
                quiet(&across)
            })
            .collect()
    }

    /// Seconds the longest lane takes when slot `i` takes `slot_ms[i]`.
    fn longest_lane_s(&self, slot_ms: &[f64]) -> f64 {
        let per_lane = slot_ms.len().div_ceil(self.lanes.max(1)).max(1);
        slot_ms
            .chunks(per_lane)
            .map(|lane| lane.iter().sum::<f64>() / 1e3)
            .fold(0.0, f64::max)
    }

    /// Seconds a round takes when the machine leaves the program alone:
    /// the longest lane with every slot at its [`quiet`] time, plus the
    /// [`quiet`] of what the measured rounds spent outside their slots
    /// (round wall minus that round's longest lane).
    pub fn quiet_round_s(&self) -> f64 {
        let outside: Vec<f64> = self
            .op_ns
            .iter()
            .zip(&self.wall_ns)
            .map(|(ops, &wall)| {
                let ms: Vec<f64> = ops.iter().map(|&ns| ns as f64 / 1e6).collect();
                wall as f64 / 1e9 - self.longest_lane_s(&ms)
            })
            .collect();
        self.longest_lane_s(&self.slot_times_ms()) + quiet(&outside)
    }

    /// Median round wall time in seconds (the traced run's overhead ratio
    /// compares whole rounds).
    pub fn median_wall_s(&self) -> f64 {
        let walls: Vec<f64> = self.wall_ns.iter().map(|&w| w as f64 / 1e9).collect();
        median(&walls)
    }

    /// `(max - min) / median` of the round walls.
    pub fn round_spread(&self) -> f64 {
        let walls: Vec<f64> = self.wall_ns.iter().map(|&w| w as f64).collect();
        let max = walls.iter().copied().fold(f64::MIN, f64::max);
        let min = walls.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / median(&walls)
    }

    /// All ops over total wall, unfiltered (the estimator the robust
    /// ones are compared against).
    pub fn pooled_ops_per_s(&self) -> f64 {
        let total_s: f64 = self.wall_ns.iter().map(|&w| w as f64 / 1e9).sum();
        (self.rounds() * self.slots()) as f64 / total_s
    }

    /// The three timing metrics of a run.
    pub fn summary(&self) -> Summary {
        let slots = self.slot_times_ms();
        let p50 = percentile(&slots, 0.50);
        // Workloads without a supported tail repeat the median, so the
        // metric set is the same on every workload.
        let p90 = if supports_percentile(slots.len(), 0.90) {
            percentile(&slots, 0.90)
        } else {
            p50
        };
        Summary {
            op_p50_ms: p50,
            op_p90_ms: p90,
            ops_per_s: slots.len() as f64 / self.quiet_round_s(),
        }
    }
}

/// The timing end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// p50 over slots of the per-slot times.
    pub op_p50_ms: f64,
    /// p90 over slots of the per-slot times (p50 when unsupported).
    pub op_p90_ms: f64,
    /// Ops per round over [`RoundTimes::quiet_round_s`].
    pub ops_per_s: f64,
}
