//! `scan_cold` — one analyst question answered from a **fresh
//! `FrameLoader`** (empty `FrameCache`) over a window of the reference
//! store.
//!
//! 80 of the 100 slots are selective: `frames_pruned` with a uid, gid,
//! extension or mtime-range `Pred` at ≤2 % selectivity, then
//! `Scan::filter_pred` + `count`/`group_count`. 70 of those are on a uid
//! or gid, which zone maps prune; 10 on an extension or mtime range, which
//! they cannot. 20 slots are full-table: `frames` plus a group-by census.
//! So `op_p50_ms` sits inside the pruned cluster and `op_p90_ms` in the
//! middle of the full-decode cluster.
//!
//! Why it exists: store read + `FrameColumns::decode_pruned` /
//! `decode_lossy` + `SnapshotFrame::from_columns` do nearly all the work
//! and the scan kernel almost none. Decoder unification, zone-map and
//! zero-copy work shows here; a fix to the serve path must show no change.
//! File reads come from the OS page cache (a sandbox, not a device), so
//! "cold" means cold program caches.

use super::{
    counters, reference_inputs, repeat_setup, report_bench_layer, report_end_to_end,
    report_ingest_layers, store_sizes, timed_rounds, unreported_rounds, warm_up_and_reference,
    write_trace,
};
use crate::ingest::ingest;
use crate::refstore::{self, Level, Rng, DAYS, RARE_EXTS, ROWS_PER_DAY};
use crate::scanops::{
    intern, key_of, merge_frame, pred_group_count, small_project_gids, stratified, uid_stratum,
    Answer, Key, Oracle, Question, Value,
};
use crate::stats::RoundTimes;
use crate::trace::Tracer;
use crate::{BenchError, Ctx, Report, ROUNDS, SETUP_REPEATS, TRACED_ROUNDS};
use spider_core::{FrameLoader, Pred, Scan, SnapshotFrame};
use spider_snapshot::{FrameColumns, SnapshotStore};
use std::ops::Range;
use std::time::Instant;

/// Days one question looks at (2 × 65,536 = 131,072 rows).
pub const WINDOW_DAYS: usize = 2;
/// Selective slots on one uid, per size class (C and D): predicates zone
/// maps prune.
pub const UID_SLOTS_PER_LEVEL: usize = 18;
/// Selective slots on one gid: likewise.
pub const GID_SLOTS: usize = 34;
/// Selective slots on an extension and on an mtime range, each:
/// predicates no zone map prunes, so every zone's predicate columns decode.
pub const PER_UNPRUNABLE: usize = 5;
/// Full-table slots.
pub const FULL_SLOTS: usize = 20;
/// Lattice cells an mtime-range predicate spans (40 runs ≈ 1.9 % of a day).
pub const MTIME_CELLS: usize = 40;
const ZONES_PER_DAY: usize = ROWS_PER_DAY / 4096;

/// One slot of the round.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into the plan's questions.
    pub question: usize,
    /// Day indices the question covers.
    pub days: Range<usize>,
    /// Selective (pruned load) or full-table (full load).
    pub selective: bool,
}

/// The fixed op list of a run and the questions it asks.
pub struct Plan {
    /// The round, in execution order.
    pub ops: Vec<Op>,
    /// Distinct questions, indexed by [`Op::question`].
    pub questions: Vec<Question>,
}

/// Builds the round for `seed`. The multiset of (family, stratum, key)
/// is pinned; the seed picks the members, the windows and the order.
pub fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 2);
    let mut questions = Vec::new();
    let mut ops = Vec::new();
    let mut push = |rng: &mut Rng, pred: Pred, key: Key, selective: bool| {
        let start = rng.below(DAYS - WINDOW_DAYS + 1);
        ops.push(Op {
            question: intern(&mut questions, Question { pred, key }),
            days: start..start + WINDOW_DAYS,
            selective,
        });
    };
    // Half of every family counts, half groups.
    let key_for = |i: usize, grouped: Key| {
        if i.is_multiple_of(2) {
            Key::All
        } else {
            grouped
        }
    };
    let mut uids = stratified(&mut rng, &uid_stratum(Level::C), UID_SLOTS_PER_LEVEL);
    uids.extend(stratified(
        &mut rng,
        &uid_stratum(Level::D),
        UID_SLOTS_PER_LEVEL,
    ));
    for (i, uid) in uids.into_iter().enumerate() {
        push(&mut rng, Pred::uid(uid..=uid), key_for(i, Key::Ext), true);
    }
    for (i, gid) in stratified(&mut rng, &small_project_gids(), GID_SLOTS)
        .into_iter()
        .enumerate()
    {
        push(&mut rng, Pred::gid(gid..=gid), key_for(i, Key::Uid), true);
    }
    for (i, ext) in stratified(&mut rng, &RARE_EXTS, PER_UNPRUNABLE)
        .into_iter()
        .enumerate()
    {
        push(&mut rng, Pred::ext(ext), key_for(i, Key::Gid), true);
    }
    for i in 0..PER_UNPRUNABLE {
        let first = rng.below(refstore::total_runs() - MTIME_CELLS);
        let (lo, hi) = refstore::lattice_window(first, MTIME_CELLS);
        push(&mut rng, Pred::mtime(lo..=hi), key_for(i, Key::Gid), true);
    }
    for i in 0..FULL_SLOTS {
        let key = [Key::Gid, Key::Uid, Key::Ext][i % 3];
        push(&mut rng, Pred::and(Vec::new()), key, false);
    }
    rng.shuffle(&mut ops);
    Plan { ops, questions }
}

fn day_numbers(days: &Range<usize>) -> Vec<u32> {
    days.clone().map(refstore::day_number).collect()
}

/// Answers `op` the way an analyst with a fresh process would.
fn execute(
    store: &SnapshotStore,
    plan: &Plan,
    op: &Op,
    tracer: &mut Tracer,
) -> Result<Answer, BenchError> {
    let question = &plan.questions[op.question];
    let days = day_numbers(&op.days);
    let loader = tracer.span("core.loader.new", || FrameLoader::new(store))?;
    let mut answer = Answer::new();
    if op.selective {
        let frames = tracer.span("core.loader.frames_pruned", || {
            loader.frames_pruned(&days, &question.pred)
        })?;
        tracer.span("core.query.scan", || {
            for frame in &frames {
                pred_group_count(&mut answer, frame, &question.pred, question.key);
            }
        });
    } else {
        let frames = tracer.span("core.loader.frames", || loader.frames(&days))?;
        tracer.span("core.query.scan", || {
            for frame in &frames {
                let groups = Scan::over(frame).group_count(key_of(question.key));
                merge_frame(&mut answer, frame, question.key, Value::Count, groups);
            }
        });
    }
    Ok(answer)
}

/// What the row oracle says each slot must answer.
fn expected(plan: &Plan, oracle: &Oracle) -> Vec<Answer> {
    plan.ops
        .iter()
        .map(|op| oracle.answer(op.question, op.days.clone(), Value::Count))
        .collect()
}

/// Runs `rounds` rounds, checking every answer of every round against
/// the row oracle.
fn rounds(
    rounds: usize,
    store: &SnapshotStore,
    plan: &Plan,
    expected: &[Answer],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<RoundTimes, BenchError> {
    timed_rounds(
        rounds,
        plan.ops.len(),
        tracer,
        |_| Ok(()),
        |round, slot, tracer| {
            let answer = execute(store, plan, &plan.ops[slot], tracer)?;
            if answer != expected[slot] {
                report.fail(format!(
                    "round {round} slot {slot}: answer differs from the row oracle"
                ));
            }
            Ok(())
        },
    )
}

/// Counted work of one round, from the plan and the oracle.
fn counted(report: &mut Report, plan: &Plan, oracle: &Oracle) {
    let matched: u64 = plan
        .ops
        .iter()
        .map(|op| oracle.matched(op.question, op.days.clone()))
        .sum();
    report
        .counted
        .insert("ops_per_round", plan.ops.len() as u64);
    report.counted.insert("rows_matched_per_round", matched);
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, BenchError> {
    let plan = plan(ctx.seed);
    let (psv, oracle) = reference_inputs(ctx.seed, &plan.questions);
    let dir = ctx.work.join("store");
    let mut report = Report::default();
    counted(&mut report, &plan, &oracle);
    let expected = expected(&plan, &oracle);

    if !ctx.traced {
        let mut off = Tracer::off();
        let (setup_s, ingested) = repeat_setup(SETUP_REPEATS, || {
            let ingested = ingest(&dir, &psv, &mut off)?;
            Ok((ingested.secs, ingested))
        })?;
        let sizes = store_sizes(&ingested, psv.bytes())?;
        let store = SnapshotStore::open(&dir)?;
        let mut go = |n, t: &mut Tracer, r: &mut Report| rounds(n, &store, &plan, &expected, t, r);
        unreported_rounds(&mut go, 1)?;
        let times = go(ROUNDS, &mut off, &mut report)?;
        report_end_to_end(
            &mut report,
            &times,
            times.summary(),
            setup_s,
            sizes.store_bytes_per_row,
        );
        return Ok(report);
    }

    let mut tracer = Tracer::on(Instant::now(), 1);
    let tel = spider_telemetry::global();
    let ingested = ingest(&dir, &psv, &mut tracer)?;
    report_ingest_layers(&mut report, &mut tracer, &ingested, &psv)?;
    let store = SnapshotStore::open(&dir)?;
    let mut go = |n, t: &mut Tracer, r: &mut Report| rounds(n, &store, &plan, &expected, t, r);
    let (warmup_s, untraced) = warm_up_and_reference(&mut go)?;

    tel.reset();
    tel.enable();
    let traced = go(TRACED_ROUNDS, &mut tracer, &mut report)?;
    tel.disable();
    let counts = counters();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let selective = plan.ops.iter().filter(|op| op.selective).count();
    let pruned_days = (selective * WINDOW_DAYS * TRACED_ROUNDS) as f64;
    report.values.insert(
        "snapshot.zones_skipped_share",
        count("pushdown.zones_skipped") / (pruned_days * ZONES_PER_DAY as f64),
    );
    report.values.insert(
        "snapshot.rows_pruned_share",
        count("pushdown.rows_pruned") / (pruned_days * ROWS_PER_DAY as f64),
    );
    for (name, key) in [
        ("rows_decoded", "frame.decode.rows"),
        ("bytes_decoded", "frame.decode.bytes"),
        ("zones_skipped", "pushdown.zones_skipped"),
    ] {
        report.counted.insert(name, count(key) as u64);
    }

    probes(&store, &plan, &mut tracer, &mut report)?;
    report_bench_layer(&mut report, &traced, &untraced, &[&tracer], warmup_s);
    write_trace(ctx, "scan_cold", &[&tracer])?;
    Ok(report)
}

/// Calls each layer of the cold read path on its own, so its time is
/// known apart from the layers around it.
fn probes(
    store: &SnapshotStore,
    plan: &Plan,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), BenchError> {
    let all_days: Vec<u32> = store.days().to_vec();
    let mut raw = Vec::with_capacity(all_days.len());
    for &day in &all_days {
        let bytes = tracer.span("snapshot.store.read_raw", || store.read_raw(day))?;
        raw.push(bytes.ok_or("stored day vanished")?);
    }
    let mut frames: Vec<SnapshotFrame> = Vec::new();
    for bytes in &raw {
        let cols = tracer.span("snapshot.columns.decode_lossy", || {
            FrameColumns::decode_lossy(bytes)
        })?;
        frames.push(tracer.span("core.frame.from_columns", || {
            SnapshotFrame::from_columns(&cols)
        }));
    }
    drop(frames);
    for &day in &all_days {
        let loader = FrameLoader::new(store)?;
        tracer.span("core.loader.frame", || loader.frame(day))?;
    }
    // One pruned decode per selective question, on the first day of the
    // window it is asked over.
    let mut seen = Vec::new();
    for op in plan.ops.iter().filter(|op| op.selective) {
        if seen.contains(&op.question) {
            continue;
        }
        seen.push(op.question);
        let pred = &plan.questions[op.question].pred;
        let day = refstore::day_number(op.days.start);
        tracer.span("snapshot.columns.decode_pruned", || {
            FrameColumns::decode_pruned(&raw[op.days.start], pred)
        })?;
        let loader = FrameLoader::new(store)?;
        tracer.span("core.loader.frame_pruned", || {
            loader.frame_pruned(day, pred)
        })?;
    }

    let totals = tracer.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / 1e6 / t.1 as f64)
    };
    let bytes: usize = raw.iter().map(Vec::len).sum();
    let rows = (all_days.len() * ROWS_PER_DAY) as f64;
    let v = &mut report.values;
    v.insert(
        "snapshot.store_read_mb_s",
        bytes as f64 / 1e6 / secs("snapshot.store.read_raw"),
    );
    v.insert(
        "snapshot.decode_full_mrows_s",
        rows / 1e6 / secs("snapshot.columns.decode_lossy"),
    );
    v.insert(
        "core.frame_build_mrows_s",
        rows / 1e6 / secs("core.frame.from_columns"),
    );
    v.insert("core.loader_cold_full_ms", mean_ms("core.loader.frame"));
    v.insert(
        "snapshot.decode_pruned_ms",
        mean_ms("snapshot.columns.decode_pruned"),
    );
    v.insert(
        "core.loader_cold_pruned_ms",
        mean_ms("core.loader.frame_pruned"),
    );
    Ok(())
}
