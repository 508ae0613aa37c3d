//! `repro_batch` — one op is one full reproduction into a fresh
//! directory at a pinned `SimConfig` scale: `Simulation` weeks + weekly
//! capture → PSV + colf `put` → `Lab::prepare` (scrub, `ensure_deltas`,
//! incremental advance + oracle, both analysis passes) → every
//! `all_experiments()` runner → verdict markdown/CSV render. One op per
//! round.
//!
//! An op of two seconds has no quiet moment to be timed in: whatever the
//! sandbox adds in those two seconds is in the number. So every call into
//! a layer is a **stage** with a time of its own (≈90 a reproduction), and
//! the op's time is its stages at their second-fastest over the rounds
//! plus the second-fastest of what a reproduction spent between them —
//! the same estimator the other workloads use over their slots.
//!
//! Why it exists: it is the paper's own pipeline and the only workload
//! where `workload`/`fsmeta`/`simulate`, the snapshot **writers**, scrub,
//! deltas, `incremental`, `graph`, `stats`, `experiments` and `report`
//! all do work — the write-side use of the codecs that `scan_cold` only
//! reads, and the workload every simplification change (one decoder, one
//! aggregate definition, dependency diet) must hold.

use super::{
    report_bench_layer, report_end_to_end, timed_rounds, unreported_rounds, warm_up_and_reference,
    write_trace,
};
use crate::ingest::bytes_on_disk;
use crate::stats::{RoundTimes, Summary};
use crate::trace::Tracer;
use crate::{BenchError, Ctx, Report, ROUNDS, TRACED_ROUNDS};
use spider_core::IncrementalPipeline;
use spider_experiments::{all_experiments, Lab, LabConfig};
use spider_sim::{SimConfig, Simulation};
use spider_snapshot::{psv, OsIo, RetryPolicy, SnapshotStore};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shape checks a reproduction at the pinned scale must produce.
pub const CHECKS_TOTAL: u64 = 101;

/// The runners that work on the user–project graph.
const GRAPH_RUNNERS: [&str; 4] = ["table3", "fig18", "fig19", "fig20"];

/// The pinned simulation: the CLI's `--quick` configuration at a quarter
/// of its volume and half its window (11 weekly snapshots, ≈113,000
/// captured rows, ≈1.9 s per reproduction on the reference box).
///
/// The benchmark seed does **not** feed it. The simulator is the
/// product's own seeded generator and its row count moves by ±3 % with
/// its seed, so a seeded reproduction would change the amount of work
/// from run to run; every run reproduces this one configuration.
pub fn sim_config() -> SimConfig {
    SimConfig {
        scale: 0.000_05,
        days: 70,
        ..SimConfig::test_small(0x51d_e001)
    }
}

/// What one reproduction produced.
pub struct Reproduction {
    /// Rows captured over all weekly snapshots.
    pub rows: u64,
    /// PSV bytes written.
    pub psv_bytes: u64,
    /// Shape checks that passed / were made.
    pub checks: (u64, u64),
    /// Whether the incremental state matched its full-rescan oracle.
    pub oracle_ok: bool,
    /// Whether the scrub found every day clean.
    pub clean: bool,
    /// Nanoseconds of every stage, in order: the same stages in every
    /// reproduction of one configuration (taken by the round loop).
    pub stage_ns: Vec<u64>,
    /// The prepared lab (its store outlives the op for the probes).
    pub lab: Lab,
}

/// Runs the stages of one reproduction: each under its span, each timed.
struct Stages<'a> {
    tracer: &'a mut Tracer,
    ns: Vec<u64>,
}

impl Stages<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = self.tracer.span(name, f);
        self.ns.push(started.elapsed().as_nanos() as u64);
        out
    }
}

/// Runs one full reproduction into a fresh `dir`.
pub fn reproduce(
    dir: &Path,
    config: SimConfig,
    tracer: &mut Tracer,
) -> Result<Reproduction, BenchError> {
    let mut stages = Stages {
        tracer,
        ns: Vec::new(),
    };
    let _ = std::fs::remove_dir_all(dir);
    let psv_dir = dir.join("psv");
    let out_dir = dir.join("results");
    std::fs::create_dir_all(&psv_dir)?;
    std::fs::create_dir_all(&out_dir)?;

    // Simulate and capture, the way `spider-metalab simulate` does.
    let mut store = SnapshotStore::open(dir.join("snapshots"))?;
    let mut sim = stages.run("simulate.new", || Simulation::new(config));
    let weeks = (config.warmup_days + config.days) / config.snapshot_interval_days;
    let (mut rows, mut psv_bytes) = (0u64, 0u64);
    for _ in 0..weeks {
        let stats = stages.run("simulate.run_week", || sim.run_week());
        if stats.observation_day < 0 {
            continue;
        }
        let day = stats.observation_day as u32;
        let snapshot = stages.run("simulate.snapshot", || sim.snapshot(day));
        rows += snapshot.len() as u64;
        let path = psv_dir.join(format!("snap-{day:05}.psv"));
        psv_bytes += stages.run("snapshot.psv.write_psv", || -> std::io::Result<u64> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            psv::write_psv(&snapshot, &mut out)?;
            out.flush()?;
            Ok(out.get_ref().metadata()?.len())
        })?;
        stages.run("snapshot.store.put", || store.put(&snapshot))?;
    }
    drop(sim);
    drop(store);
    // The marker `Lab::prepare` compares to decide the store is current.
    std::fs::write(
        dir.join("lab-config.json"),
        serde_json::to_string_pretty(&config)?,
    )?;

    let lab_config = LabConfig {
        sim: config,
        dir: dir.to_path_buf(),
        burstiness_min_files: 10,
    };
    let lab = stages
        .run("experiments.lab.prepare", || Lab::prepare(lab_config))
        .map_err(|e| e.to_string())?;

    let mut markdown = String::from("# Experiment results\n\n");
    let (mut passed, mut total) = (0u64, 0u64);
    for (id, runner) in all_experiments() {
        let span = if GRAPH_RUNNERS.contains(&id) {
            "experiments.exp.graph_runners"
        } else {
            "experiments.exp.runners"
        };
        let out = stages.run(span, || runner(&lab));
        total += out.verdicts.checks.len() as u64;
        passed += out.verdicts.checks.iter().filter(|c| c.pass).count() as u64;
        stages.run("report.render", || -> std::io::Result<()> {
            std::fs::write(out_dir.join(format!("{id}.txt")), &out.text)?;
            if let Some(csv) = &out.csv {
                std::fs::write(out_dir.join(format!("{id}.csv")), csv)?;
            }
            markdown.push_str(&out.verdicts.to_markdown());
            markdown.push('\n');
            Ok(())
        })?;
    }
    stages.run("report.render", || {
        std::fs::write(out_dir.join("verdicts.md"), &markdown)
    })?;

    Ok(Reproduction {
        rows,
        psv_bytes,
        checks: (passed, total),
        oracle_ok: lab.incremental_oracle_ok(),
        clean: lab.store_health().is_clean(),
        stage_ns: stages.ns,
        lab,
    })
}

/// Records what a reproduction got wrong, if anything.
fn check(report: &mut Report, round: usize, r: &Reproduction) {
    if !r.oracle_ok {
        report.fail(format!(
            "round {round}: incremental state differs from its rescan oracle"
        ));
    } else if !r.clean {
        report.fail(format!(
            "round {round}: scrub found damaged days in a fresh store"
        ));
    } else if r.checks.1 != CHECKS_TOTAL {
        report.fail(format!(
            "round {round}: {} shape checks made, {CHECKS_TOTAL} pinned",
            r.checks.1
        ));
    }
}

/// Runs `rounds` reproductions, one op each, and appends the stage times
/// of each to `stage_ns`.
fn rounds(
    rounds: usize,
    dir: &Path,
    config: SimConfig,
    tracer: &mut Tracer,
    report: &mut Report,
    last: &mut Option<Reproduction>,
    stage_ns: &mut Vec<Vec<u64>>,
) -> Result<RoundTimes, BenchError> {
    timed_rounds(
        rounds,
        1,
        tracer,
        |_| Ok(()),
        |round, _, tracer| {
            // The previous lab holds handles into the directory about
            // to be replaced.
            drop(last.take());
            let mut r = reproduce(dir, config, tracer)?;
            check(report, round, &r);
            stage_ns.push(std::mem::take(&mut r.stage_ns));
            *last = Some(r);
            Ok(())
        },
    )
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, BenchError> {
    let config = sim_config();
    let dir = ctx.work.join("repro");
    let mut report = Report::default();
    let mut last = None;

    let mut stage_ns = Vec::new();
    let mut go =
        |n, t: &mut Tracer, r: &mut Report| rounds(n, &dir, config, t, r, &mut last, &mut stage_ns);

    if !ctx.traced {
        // Set-up is the reproduction an operator runs first, cold; it is
        // also the warm-up of the measured ones.
        let setup_s = unreported_rounds(&mut go, 1)?.median_wall_s();
        let times = go(ROUNDS, &mut Tracer::off(), &mut report)?;
        let r = last.as_ref().expect("at least one round ran");
        let bytes = bytes_on_disk(&dir, &[".colf", ".delta", ".psv"])?;
        report.counted.insert("rows_captured", r.rows);
        report
            .counted
            .insert("stages_per_op", stage_ns[0].len() as u64);
        // The op at its stages' own times (see the module comment); the
        // first reproduction was the warm-up.
        let op_s = RoundTimes {
            op_ns: stage_ns.split_off(1),
            wall_ns: times.wall_ns.clone(),
            lanes: 1,
        }
        .quiet_round_s();
        let summary = Summary {
            op_p50_ms: op_s * 1e3,
            op_p90_ms: op_s * 1e3,
            ops_per_s: 1.0 / op_s,
        };
        report_end_to_end(
            &mut report,
            &times,
            summary,
            setup_s,
            bytes as f64 / r.rows as f64,
        );
        return Ok(report);
    }

    let mut tracer = Tracer::on(Instant::now(), 1);
    let tel = spider_telemetry::global();
    let (warmup_s, untraced) = warm_up_and_reference(&mut go)?;
    tel.reset();
    tel.enable();
    let traced = go(TRACED_ROUNDS, &mut tracer, &mut report)?;
    tel.disable();
    let r = last.as_ref().expect("at least one round ran");

    // Layers `Lab::prepare` calls inside itself, called on their own.
    let store_dir = dir.join("snapshots");
    tracer.span("snapshot.store.scrub", || -> Result<(), BenchError> {
        SnapshotStore::open_lenient(&store_dir, Arc::new(OsIo), RetryPolicy::default())?.scrub();
        Ok(())
    })?;
    tracer.span("core.incremental.rescan", || {
        IncrementalPipeline::rescan(r.lab.loader())
    })?;

    let totals = tracer.totals();
    let per_op =
        |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9) / TRACED_ROUNDS as f64;
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / 1e6 / t.1 as f64)
    };
    let colf = bytes_on_disk(&store_dir, &[".colf"])? as f64;
    let delta = bytes_on_disk(&store_dir, &[".delta"])? as f64;
    report.counted.insert("rows_captured", r.rows);
    let v = &mut report.values;
    v.insert(
        "simulate.generate_s",
        per_op("simulate.new") + per_op("simulate.run_week"),
    );
    v.insert("simulate.capture_s", per_op("simulate.snapshot"));
    v.insert("simulate.rows_captured", r.rows as f64);
    v.insert(
        "snapshot.psv_encode_mb_s",
        r.psv_bytes as f64 * TRACED_ROUNDS as f64 / 1e6 / secs("snapshot.psv.write_psv"),
    );
    v.insert("snapshot.scrub_s", secs("snapshot.store.scrub"));
    v.insert("snapshot.store_put_ms", mean_ms("snapshot.store.put"));
    v.insert("snapshot.colf_bytes_per_row", colf / r.rows as f64);
    v.insert("snapshot.delta_bytes_per_row", delta / r.rows as f64);
    v.insert(
        "snapshot.colf_bytes_per_psv_byte",
        colf / r.psv_bytes as f64,
    );
    v.insert("core.incremental_rescan_s", secs("core.incremental.rescan"));
    v.insert(
        "core.incremental_rows_applied",
        r.lab.incremental().rows_applied() as f64,
    );
    v.insert(
        "core.incremental_full_rebuilds",
        r.lab.incremental().full_rebuilds() as f64,
    );
    v.insert("experiments.prepare_s", per_op("experiments.lab.prepare"));
    v.insert(
        "experiments.run_s",
        per_op("experiments.exp.runners") + per_op("experiments.exp.graph_runners"),
    );
    v.insert("experiments.checks_passed", r.checks.0 as f64);
    v.insert("experiments.checks_total", r.checks.1 as f64);
    v.insert("graph.sharing_s", per_op("experiments.exp.graph_runners"));
    v.insert("report.render_s", per_op("report.render"));
    report_bench_layer(&mut report, &traced, &untraced, &[&tracer], warmup_s);
    write_trace(ctx, "repro_batch", &[&tracer])?;
    Ok(report)
}
