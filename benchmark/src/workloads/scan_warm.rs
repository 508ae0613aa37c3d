//! `scan_warm` — all 8 frames resident (`with_cache_capacity(8)`,
//! fetched once at round start through the hit path), then 600 scan ops
//! over the held frames, each across all 524,288 rows: typed-`Pred`
//! counts at three selectivity bands, closure-filter counts, group counts
//! by uid/gid/extension, `top_k_groups`, and `Scan::multi` one-pass
//! multi-aggregates next to the same four aggregates as single scans.
//! `op_p50_ms` lands on counts and group-bys, `op_p90_ms` on the
//! multi-aggregates.
//!
//! Why it exists: decode does nothing here and `core::query`, `engine`
//! and `agg` do everything — the workload for scan-kernel work, and the
//! "fits in cache" counterpart of the other two read workloads. A
//! `FrameCache` re-keying that helps `serve_closed` but slows hits shows
//! in the round-start fetch.

use super::{
    counters, reference_inputs, repeat_setup, report_bench_layer, report_end_to_end,
    report_ingest_layers, store_sizes, timed_rounds, unreported_rounds, warm_up_and_reference,
    write_trace,
};
use crate::ingest::ingest;
use crate::refstore::{Level, Rng, DAYS, ROWS_PER_DAY};
use crate::scanops::{
    intern, key_of, large_project_gids, merge_frame, pred_group_count, stratified, uid_stratum,
    Answer, Key, Oracle, Question, Value,
};
use crate::stats::RoundTimes;
use crate::trace::Tracer;
use crate::{BenchError, Ctx, Report, ROUNDS, SETUP_REPEATS, TRACED_ROUNDS};
use spider_core::{FrameLoader, Pred, Scan, SnapshotFrame};
use spider_snapshot::SnapshotStore;
use std::sync::Arc;
use std::time::Instant;

/// Typed-`Pred` counts per selectivity band.
pub const PER_BAND: usize = 20;
/// Closure-filter counts.
pub const CLOSURES: usize = 20;
/// Group counts per key (gid, uid, extension). With the `top_k_groups`
/// ops they are two thirds of the round and all cost about the same, so
/// the p50 slot falls well inside this cluster, not where two kinds meet.
pub const PER_KEY: usize = 120;
/// `top_k_groups` ops.
pub const TOP_KS: usize = 40;
/// One-pass multi-aggregates. More than a tenth of the round, so the p90
/// slot falls inside this cluster and not on its edge.
pub const MULTIS: usize = 80;
/// Single scans per aggregate of the multi-aggregate.
pub const PER_SINGLE: usize = 10;
const TOP_K: usize = 10;

const VALUES: [Value; 4] = [
    Value::Count,
    Value::SumStripes,
    Value::MinMtime,
    Value::MaxAtime,
];

/// What a slot does with the held frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `filter_pred(pred).count()`.
    PredCount,
    /// `filter(closure).count()`, the closure meaning `stripes >= 4`.
    ClosureStripes,
    /// `filter(closure).count()`, the closure meaning `gid == g`.
    ClosureGid(u32),
    /// `group_count(key)`.
    GroupCount,
    /// `top_k_groups(uid, 10)` per frame.
    TopK,
    /// `multi(gid)` with count, sum, min and max in one pass.
    Multi,
    /// One of the four aggregates as a single scan grouped by gid.
    Single(Value),
}

impl Kind {
    /// The span (and so the layer metric) the op is timed under.
    fn span(self) -> &'static str {
        match self {
            Kind::PredCount => "core.query.pred_count",
            Kind::ClosureStripes | Kind::ClosureGid(_) => "core.query.closure_count",
            Kind::GroupCount | Kind::TopK => "core.query.group_count",
            Kind::Multi => "core.agg.multi",
            Kind::Single(_) => "core.query.single_agg",
        }
    }
}

/// One slot of the round.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// What to run.
    pub kind: Kind,
    /// The oracle question with the same meaning.
    pub question: usize,
}

/// The fixed op list of a run and the questions it asks.
pub struct Plan {
    /// The round, in execution order.
    pub ops: Vec<Op>,
    /// Distinct questions, indexed by [`Op::question`].
    pub questions: Vec<Question>,
}

/// Builds the round for `seed`: the multiset of (kind, band) is pinned,
/// the seed picks the members and the order.
pub fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let mut questions = Vec::new();
    let mut ops = Vec::new();
    let mut push = |kind: Kind, pred: Pred, key: Key| {
        ops.push(Op {
            kind,
            question: intern(&mut questions, Question { pred, key }),
        });
    };
    let everything = || Pred::and(Vec::new());
    // Band "low": one user's rows, 0.4–0.8 % of a day.
    let mut uids = stratified(&mut rng, &uid_stratum(Level::C), PER_BAND / 2);
    uids.extend(stratified(&mut rng, &uid_stratum(Level::D), PER_BAND / 2));
    for uid in uids {
        push(Kind::PredCount, Pred::uid(uid..=uid), Key::All);
    }
    // Band "mid": one large project, 17 % of a day.
    for gid in stratified(&mut rng, &large_project_gids(), PER_BAND) {
        push(Kind::PredCount, Pred::gid(gid..=gid), Key::All);
    }
    // Band "high": files striped over two or more OSTs, 85 % of a day.
    for _ in 0..PER_BAND {
        push(Kind::PredCount, Pred::stripes(2..), Key::All);
    }
    for gid in stratified(&mut rng, &large_project_gids(), CLOSURES / 2) {
        push(Kind::ClosureGid(gid), Pred::gid(gid..=gid), Key::All);
    }
    for _ in 0..CLOSURES / 2 {
        push(Kind::ClosureStripes, Pred::stripes(4..), Key::All);
    }
    for key in [Key::Gid, Key::Uid, Key::Ext] {
        for _ in 0..PER_KEY {
            push(Kind::GroupCount, everything(), key);
        }
    }
    for _ in 0..TOP_KS {
        push(Kind::TopK, everything(), Key::Uid);
    }
    for _ in 0..MULTIS {
        push(Kind::Multi, everything(), Key::Gid);
    }
    for value in VALUES {
        for _ in 0..PER_SINGLE {
            push(Kind::Single(value), everything(), Key::Gid);
        }
    }
    rng.shuffle(&mut ops);
    Plan { ops, questions }
}

fn top_k(groups: impl IntoIterator<Item = (u32, u64)>) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = groups.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(TOP_K);
    v
}

/// What the row oracle says `op` must answer (four answers for a
/// multi-aggregate, one otherwise).
fn expected(oracle: &Oracle, op: &Op) -> Vec<Answer> {
    let all = 0..DAYS;
    match op.kind {
        Kind::Multi => VALUES
            .iter()
            .map(|&v| oracle.answer(op.question, all.clone(), v))
            .collect(),
        Kind::Single(value) => vec![oracle.answer(op.question, all, value)],
        Kind::TopK => {
            let mut answer = Answer::new();
            for d in all {
                let day = oracle.answer(op.question, d..d + 1, Value::Count);
                for (k, n) in top_k(day) {
                    *answer.entry(k).or_insert(0) += n;
                }
            }
            vec![answer]
        }
        _ => vec![oracle.answer(op.question, all, Value::Count)],
    }
}

/// Runs `op` over the held frames.
fn execute(frames: &[Arc<SnapshotFrame>], plan: &Plan, op: &Op) -> Vec<Answer> {
    let question = &plan.questions[op.question];
    let mut answers = vec![Answer::new(); if op.kind == Kind::Multi { 4 } else { 1 }];
    let gid = key_of(Key::Gid);
    for frame in frames {
        let frame: &SnapshotFrame = frame;
        let scan = Scan::over(frame);
        let a = &mut answers[0];
        match op.kind {
            Kind::PredCount => pred_group_count(a, frame, &question.pred, Key::All),
            Kind::ClosureStripes => {
                let n = scan.filter(|f, i| f.stripe_count[i] >= 4).count();
                *a.entry(0).or_insert(0) += n;
            }
            Kind::ClosureGid(g) => {
                let n = scan.filter(move |f, i| f.gid[i] == g).count();
                *a.entry(0).or_insert(0) += n;
            }
            Kind::GroupCount => {
                let groups = scan.group_count(key_of(question.key));
                merge_frame(a, frame, question.key, Value::Count, groups);
            }
            Kind::TopK => {
                let top = scan.top_k_groups(key_of(Key::Uid), TOP_K);
                merge_frame(a, frame, Key::Uid, Value::Count, top);
            }
            Kind::Single(Value::Count) => {
                merge_frame(a, frame, Key::Gid, Value::Count, scan.group_count(gid));
            }
            Kind::Single(Value::SumStripes) => {
                let sums = scan.group_sum(gid, |f, i| f.stripe_count[i] as f64);
                let sums = sums.into_iter().map(|(k, v)| (k, v as u64));
                merge_frame(a, frame, Key::Gid, Value::SumStripes, sums);
            }
            Kind::Single(Value::MinMtime) => {
                let mins = scan.group_min(gid, |f, i| f.mtime[i]);
                merge_frame(a, frame, Key::Gid, Value::MinMtime, mins);
            }
            Kind::Single(Value::MaxAtime) => {
                let maxs = scan.group_max(gid, |f, i| f.atime[i]);
                merge_frame(a, frame, Key::Gid, Value::MaxAtime, maxs);
            }
            Kind::Multi => {
                let result = scan
                    .multi(gid)
                    .count("n")
                    .sum("stripes", |f, i| f.stripe_count[i] as f64)
                    .min("mtime", |f, i| f.mtime[i] as f64)
                    .max("atime", |f, i| f.atime[i] as f64)
                    .run();
                let keys: Vec<u32> = result.keys().copied().collect();
                for k in keys {
                    let folded = [
                        result.count(&k, "n").unwrap_or(0),
                        result.sum(&k, "stripes").unwrap_or(0.0) as u64,
                        result.min(&k, "mtime").unwrap_or(0.0) as u64,
                        result.max(&k, "atime").unwrap_or(0.0) as u64,
                    ];
                    for (answer, (v, value)) in
                        answers.iter_mut().zip(folded.into_iter().zip(VALUES))
                    {
                        merge_frame(answer, frame, Key::Gid, value, [(k, v)]);
                    }
                }
            }
        }
    }
    answers
}

/// Runs `rounds` rounds over `loader`'s cached frames, checking every
/// answer of every round against the row oracle.
fn rounds(
    rounds: usize,
    loader: &FrameLoader,
    plan: &Plan,
    expected: &[Vec<Answer>],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<RoundTimes, BenchError> {
    let days: Vec<u32> = loader.days().to_vec();
    let held: std::cell::RefCell<Vec<Arc<SnapshotFrame>>> = Default::default();
    timed_rounds(
        rounds,
        plan.ops.len(),
        tracer,
        |tracer| {
            // Round start: every day through the loader's hit path
            // (read_raw + section digest + cache lookup).
            *held.borrow_mut() = tracer.span("core.loader.frames_hit", || loader.frames(&days))?;
            Ok(())
        },
        |round, slot, tracer| {
            let op = &plan.ops[slot];
            let answers = tracer.span(op.kind.span(), || execute(&held.borrow(), plan, op));
            if answers != expected[slot] {
                report.fail(format!(
                    "round {round} slot {slot} ({:?}): answer differs from the row oracle",
                    op.kind
                ));
            }
            Ok(())
        },
    )
}

/// Counted work of one round, from the plan and the oracle.
fn counted(report: &mut Report, plan: &Plan, oracle: &Oracle) -> (u64, u64) {
    let day_rows = (DAYS * ROWS_PER_DAY) as u64;
    let filtered = |op: &&Op| {
        matches!(
            op.kind,
            Kind::PredCount | Kind::ClosureStripes | Kind::ClosureGid(_)
        )
    };
    let matched: u64 = plan
        .ops
        .iter()
        .filter(filtered)
        .map(|op| oracle.matched(op.question, 0..DAYS))
        .sum();
    let scanned = plan.ops.iter().filter(filtered).count() as u64 * day_rows;
    report
        .counted
        .insert("ops_per_round", plan.ops.len() as u64);
    report
        .counted
        .insert("rows_scanned_per_round", plan.ops.len() as u64 * day_rows);
    report.counted.insert("rows_matched_per_round", matched);
    (matched, scanned)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, BenchError> {
    let plan = plan(ctx.seed);
    let (psv, oracle) = reference_inputs(ctx.seed, &plan.questions);
    let dir = ctx.work.join("store");
    let mut report = Report::default();
    let (matched, scanned) = counted(&mut report, &plan, &oracle);
    let expected: Vec<Vec<Answer>> = plan.ops.iter().map(|op| expected(&oracle, op)).collect();
    let open = |dir: &std::path::Path| -> Result<FrameLoader, BenchError> {
        let store = SnapshotStore::open(dir)?;
        Ok(FrameLoader::new(&store)?.with_cache_capacity(DAYS))
    };

    if !ctx.traced {
        let mut off = Tracer::off();
        let (setup_s, ingested) = repeat_setup(SETUP_REPEATS, || {
            let ingested = ingest(&dir, &psv, &mut off)?;
            Ok((ingested.secs, ingested))
        })?;
        let sizes = store_sizes(&ingested, psv.bytes())?;
        let loader = open(&dir)?;
        let mut go = |n, t: &mut Tracer, r: &mut Report| rounds(n, &loader, &plan, &expected, t, r);
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
    let loader = open(&dir)?;
    let mut go = |n, t: &mut Tracer, r: &mut Report| rounds(n, &loader, &plan, &expected, t, r);
    let (warmup_s, untraced) = warm_up_and_reference(&mut go)?;

    // The registry's own cost: one round with it enabled and no spans.
    tel.reset();
    tel.enable();
    let registry_on = unreported_rounds(&mut go, 1)?;
    tel.reset();
    let (hits_before, misses_before, evictions_before) = loader.cache().stats();
    let traced = go(TRACED_ROUNDS, &mut tracer, &mut report)?;
    tel.disable();
    let (hits, misses, evictions) = loader.cache().stats();
    let counts = counters();
    report.counted.insert(
        "rows_scanned",
        counts.get("engine.rows_scanned").copied().unwrap_or(0),
    );

    let totals = tracer.totals();
    let day_rows = (DAYS * ROWS_PER_DAY) as f64;
    let mrows_s = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.1 as f64 * day_rows / 1e6 / (t.0 as f64 / 1e9))
    };
    let mean_s = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / 1e9 / t.1 as f64)
    };
    let lookups = (hits - hits_before + misses - misses_before) as f64;
    let v = &mut report.values;
    v.insert(
        "core.loader_hit_ms",
        mean_s("core.loader.frames_hit") * 1e3 / DAYS as f64,
    );
    v.insert(
        "core.cache_hit_share",
        (hits - hits_before) as f64 / lookups,
    );
    v.insert(
        "core.cache_evictions",
        (evictions - evictions_before) as f64,
    );
    v.insert("core.scan_count_mrows_s", mrows_s("core.query.pred_count"));
    v.insert("core.scan_group_mrows_s", mrows_s("core.query.group_count"));
    v.insert(
        "core.scan_closure_mrows_s",
        mrows_s("core.query.closure_count"),
    );
    v.insert("core.scan_selected_share", matched as f64 / scanned as f64);
    v.insert("core.scan_multiagg_mrows_s", mrows_s("core.agg.multi"));
    // One pass over four single scans: a single-scan span is one of the
    // four, so four of their mean is the four-scan cost.
    v.insert(
        "core.multiagg_over_singles",
        mean_s("core.agg.multi") / (4.0 * mean_s("core.query.single_agg")),
    );
    v.insert(
        "telemetry.on_off_ratio",
        registry_on.median_wall_s() / untraced.median_wall_s(),
    );
    report_bench_layer(&mut report, &traced, &untraced, &[&tracer], warmup_s);
    write_trace(ctx, "scan_warm", &[&tracer])?;
    Ok(report)
}
