//! The four workloads and what they share: repeated set-up, the round
//! loop, and the numbers every run reports about itself.

pub mod repro_batch;
pub mod scan_cold;
pub mod scan_warm;
pub mod serve_closed;

use crate::calib::Calib;
use crate::ingest::{self, Ingested, PsvDays};
use crate::scanops::{Oracle, Question};
use crate::stats::{median, RoundTimes, Summary};
use crate::trace::{self, Tracer, OP};
use crate::{refstore, BenchError, Ctx, Report};
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["repro_batch", "scan_cold", "scan_warm", "serve_closed"];

/// Runs workload `name`, with the reference kernel before and after it:
/// when the kernel's time moves between two runs the machine drifted, when
/// it holds and a metric moves the code did.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, BenchError> {
    let workload = match name {
        "repro_batch" => repro_batch::run,
        "scan_cold" => scan_cold::run,
        "scan_warm" => scan_warm::run,
        "serve_closed" => serve_closed::run,
        other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}").into()),
    };
    let calib = Calib::new();
    let before = calib.run_ms();
    let mut report = workload(ctx)?;
    report.calib_ms = (before, calib.run_ms());
    if ctx.traced {
        report
            .values
            .insert("bench.calib_ms", (before + report.calib_ms.1) / 2.0);
    }
    Ok(report)
}

/// Runs `once` `n` times and returns the median of the times it reports
/// with the state of the last repeat. Each earlier state is dropped
/// before the next repeat starts, so repeats may reuse one directory.
pub fn repeat_setup<S>(
    n: usize,
    mut once: impl FnMut() -> Result<(f64, S), BenchError>,
) -> Result<(f64, S), BenchError> {
    let mut secs = Vec::with_capacity(n);
    let mut state = None;
    for _ in 0..n {
        drop(state.take());
        let (s, st) = once()?;
        secs.push(s);
        state = Some(st);
    }
    Ok((median(&secs), state.expect("n >= 1 repeats")))
}

/// Inputs of a read workload: the PSV text of the reference store and the
/// row oracle over the workload's questions, both from one pass over the
/// generator's records.
pub fn reference_inputs(seed: u64, questions: &[Question]) -> (PsvDays, Oracle) {
    let mut oracle = Oracle::new(questions.len());
    let mut text = Vec::with_capacity(refstore::DAYS);
    for d in 0..refstore::DAYS {
        let records = refstore::day_records(seed, d);
        text.push(refstore::render_psv(
            refstore::day_number(d),
            refstore::taken_at(d),
            &records,
        ));
        oracle.add_day(questions, d, &records);
    }
    (PsvDays { text }, oracle)
}

/// Sizes of an ingested reference store, in bytes per stored row.
pub struct StoreSizes {
    /// colf files plus `.delta` sidecars: the `store_bytes_per_row` metric.
    pub store_bytes_per_row: f64,
    /// colf files alone.
    pub colf_bytes_per_row: f64,
    /// `.delta` sidecars alone.
    pub delta_bytes_per_row: f64,
    /// colf bytes over the PSV bytes they were converted from (the
    /// paper's 28 GB / 119 GB = 0.235).
    pub colf_bytes_per_psv_byte: f64,
}

/// Measures the store `ingested` left on disk.
pub fn store_sizes(ingested: &Ingested, psv_bytes: u64) -> Result<StoreSizes, BenchError> {
    let colf = ingest::bytes_on_disk(&ingested.dir, &[".colf"])? as f64;
    let delta = ingest::bytes_on_disk(&ingested.dir, &[".delta"])? as f64;
    let rows = ingested.rows as f64;
    Ok(StoreSizes {
        store_bytes_per_row: (colf + delta) / rows,
        colf_bytes_per_row: colf / rows,
        delta_bytes_per_row: delta / rows,
        colf_bytes_per_psv_byte: colf / psv_bytes as f64,
    })
}

/// Runs `rounds` identical rounds of `slots` ops on this thread. `op` is
/// called with the slot index and must return whether the op succeeded;
/// it is timed as a whole and wrapped in an [`OP`] span.
pub fn timed_rounds(
    rounds: usize,
    slots: usize,
    tracer: &mut Tracer,
    mut before_round: impl FnMut(&mut Tracer) -> Result<(), BenchError>,
    mut op: impl FnMut(usize, usize, &mut Tracer) -> Result<(), BenchError>,
) -> Result<RoundTimes, BenchError> {
    let mut times = RoundTimes {
        lanes: 1,
        ..RoundTimes::default()
    };
    for round in 0..rounds {
        let mut op_ns = Vec::with_capacity(slots);
        let round_started = Instant::now();
        before_round(tracer)?;
        for slot in 0..slots {
            tracer.set_op((round * slots + slot) as u32);
            let started = Instant::now();
            tracer.begin(OP);
            let result = op(round, slot, tracer);
            tracer.end();
            op_ns.push(started.elapsed().as_nanos() as u64);
            result?;
        }
        times
            .wall_ns
            .push(round_started.elapsed().as_nanos() as u64);
        times.op_ns.push(op_ns);
    }
    Ok(times)
}

/// A workload's round runner with its store, plan and expectations bound:
/// `(rounds, tracer, report) -> timings`.
pub type Go<'a> = dyn FnMut(usize, &mut Tracer, &mut Report) -> Result<RoundTimes, BenchError> + 'a;

/// `n` rounds with no spans whose failures are not reported: warm-ups and
/// reference rounds (the measured rounds check the same answers again).
pub fn unreported_rounds(go: &mut Go, n: usize) -> Result<RoundTimes, BenchError> {
    go(n, &mut Tracer::off(), &mut Report::default())
}

/// What a traced run does before its traced rounds: the untimed warm-up
/// round (its wall time is `bench.warmup_s`) and one untraced reference
/// round for `bench.trace_overhead_ratio`.
pub fn warm_up_and_reference(go: &mut Go) -> Result<(f64, RoundTimes), BenchError> {
    let started = Instant::now();
    unreported_rounds(go, 1)?;
    let warmup_s = started.elapsed().as_secs_f64();
    Ok((warmup_s, unreported_rounds(go, 1)?))
}

/// Fills in what an untraced run reports from its round timings and their
/// `summary`.
pub fn report_end_to_end(
    report: &mut Report,
    times: &RoundTimes,
    summary: Summary,
    setup_s: f64,
    bytes_per_row: f64,
) {
    report.attempted = (times.rounds() * times.slots()) as u64;
    report.round_walls_s = times.wall_ns.iter().map(|&w| w as f64 / 1e9).collect();
    report.values.insert("setup_s", setup_s);
    report.values.insert("op_p50_ms", summary.op_p50_ms);
    report.values.insert("op_p90_ms", summary.op_p90_ms);
    report.values.insert("ops_per_s", summary.ops_per_s);
    report.values.insert("store_bytes_per_row", bytes_per_row);
}

/// The traced run's numbers about the benchmark itself. `untraced` is one
/// reference round with the registry off and no spans, measured in the
/// same run.
pub fn report_bench_layer(
    report: &mut Report,
    traced: &RoundTimes,
    untraced: &RoundTimes,
    tracers: &[&Tracer],
    warmup_s: f64,
) {
    report.attempted = (traced.rounds() * traced.slots()) as u64;
    report.round_walls_s = traced.wall_ns.iter().map(|&w| w as f64 / 1e9).collect();
    let v = &mut report.values;
    v.insert(
        "bench.trace_overhead_ratio",
        traced.median_wall_s() / untraced.median_wall_s(),
    );
    v.insert("bench.coverage", trace::coverage(tracers));
    v.insert("bench.round_spread", traced.round_spread());
    v.insert("bench.pooled_ops_per_s", traced.pooled_ops_per_s());
    v.insert("bench.warmup_s", warmup_s);
    v.insert("bench.peak_rss_mb", crate::peak_rss_mb());
}

/// Writes the chrome trace of a traced run.
pub fn write_trace(ctx: &Ctx, workload: &str, tracers: &[&Tracer]) -> Result<(), BenchError> {
    std::fs::create_dir_all(&ctx.trace_dir)?;
    let path = ctx.trace_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, Tracer::render_chrome(tracers))?;
    eprintln!("trace: {}", path.display());
    Ok(())
}

/// Snapshot of the product's telemetry counters, by name.
pub fn counters() -> std::collections::BTreeMap<&'static str, u64> {
    spider_telemetry::global()
        .counter_values()
        .into_iter()
        .collect()
}

/// Per-layer metrics of the ingest path, from the spans of one traced
/// ingest plus one direct `colf::encode` of the last day.
pub fn report_ingest_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    ingested: &Ingested,
    psv: &PsvDays,
) -> Result<(), BenchError> {
    let last = psv.text.last().expect("the reference store has days");
    let snapshot = spider_snapshot::psv::read_psv(last.as_bytes())?;
    let encoded = tracer.span("snapshot.colf.encode", || {
        spider_snapshot::colf::encode(&snapshot)
    });
    std::hint::black_box(encoded);

    let totals = tracer.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / 1e6 / t.1 as f64)
    };
    let sizes = store_sizes(ingested, psv.bytes())?;
    let v = &mut report.values;
    v.insert(
        "snapshot.psv_parse_mb_s",
        psv.bytes() as f64 / 1e6 / secs("snapshot.psv.read_psv"),
    );
    v.insert(
        "snapshot.colf_encode_mrows_s",
        snapshot.len() as f64 / 1e6 / secs("snapshot.colf.encode"),
    );
    v.insert("snapshot.store_put_ms", mean_ms("snapshot.store.put"));
    v.insert(
        "snapshot.ensure_deltas_ms",
        mean_ms("snapshot.store.ensure_deltas"),
    );
    v.insert(
        "core.incremental_advance_ms",
        mean_ms("core.incremental.advance"),
    );
    v.insert(
        "core.incremental_rows_applied",
        ingested.incremental.rows_applied() as f64,
    );
    v.insert(
        "core.incremental_full_rebuilds",
        ingested.incremental.full_rebuilds() as f64,
    );
    v.insert("snapshot.colf_bytes_per_row", sizes.colf_bytes_per_row);
    v.insert("snapshot.delta_bytes_per_row", sizes.delta_bytes_per_row);
    v.insert(
        "snapshot.colf_bytes_per_psv_byte",
        sizes.colf_bytes_per_psv_byte,
    );
    Ok(())
}
