//! # spider-benchmark
//!
//! The benchmark every performance claim about this repository is
//! measured with. One process links the workspace crates and drives them
//! only through their public functions. Four closed-loop workloads, five
//! end-to-end metrics, per-layer attribution from a separate traced run.
//! `README.md` beside this crate is the glossary.
//!
//! What makes runs repeat:
//!
//! * **Fixed work.** A run is one untimed warm-up round plus [`ROUNDS`]
//!   measured rounds of one fixed op list; all rounds are identical.
//! * **The seed changes values, never amounts** ([`refstore`]).
//! * **Robust estimators** ([`stats`]): per slot the second-fastest of
//!   its timings across rounds, percentiles over slots, throughput over
//!   those slot times plus what a round spends outside its slots.

pub mod calib;
pub mod ingest;
pub mod layers;
pub mod refstore;
pub mod scanops;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Measured rounds of an untraced run. The op lists are sized so that
/// seven rounds take about `run_seconds` of `BENCHMARK.json` on the
/// 2-core reference box; the work is fixed, the time is what is measured.
pub const ROUNDS: usize = 7;
/// Rounds of a traced run (telemetry on, spans recorded).
pub const TRACED_ROUNDS: usize = 2;
/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Anything that stops a run before it has a result.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Feeds every generator; changes values, never amounts.
    pub seed: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Scratch directory, private to this run, removed when it ends.
    pub work: PathBuf,
    /// Where the traced run writes `trace-<workload>.json`.
    pub trace_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The names and units of the end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("store_bytes_per_row", "B"),
];

/// The result of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Ops measured (every op of every measured round).
    pub attempted: u64,
    /// Ops that errored, were shed or rejected, or answered wrongly.
    pub failed: u64,
    /// Why ops failed (first few).
    pub failures: Vec<String>,
    /// Metric name → value: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub values: BTreeMap<&'static str, f64>,
    /// Counted work of the run (rows decoded, rows matched, ...): equal
    /// across seeds within 1 %, which `--selfcheck` asserts.
    pub counted: BTreeMap<&'static str, u64>,
    /// Wall time of every measured round, in seconds: how steady the
    /// machine was while the run measured.
    pub round_walls_s: Vec<f64>,
    /// The reference kernel ([`calib`]) before and after the run, in
    /// milliseconds: how fast the machine was when the run was made.
    pub calib_ms: (f64, f64),
}

impl Report {
    /// Records a failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// The metrics this run reports, in `BENCHMARK.json` order. A
    /// per-layer metric whose layer the workload never enters reads 0.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let table: &[(&'static str, &'static str)] = if traced {
            &layers::PER_LAYER
        } else {
            &END_TO_END
        };
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                // A ratio over work that never happened is no number;
                // JSON has no NaN.
                value: self
                    .values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
