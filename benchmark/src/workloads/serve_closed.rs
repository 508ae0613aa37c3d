//! `serve_closed` — `Server::start` over the reference store behind a
//! real loopback `TcpListener`, 2 workers, a 16-frame cache, manual-refill
//! budgets sized so nothing is shed; **2 closed-loop clients** (one tenant
//! each, `TcpPort`) each send a fixed list of 50 queries per round drawn
//! from `sample_query`'s 12-shape family. The multiset of (shape, p1, p2)
//! per round and the sending order are pinned; the seed rotates the `week`.
//! Latency is send → full response line.
//!
//! Why it exists: the whole served path (wire → admission → queue → prune
//! → decode → fold → render) under the one condition that hurts today:
//! distinct (day, predicate) pairs far exceed the 16-frame cache, so
//! pruned copies evict each other and nearly all execution time is
//! decode. A fix to the serve path should move this workload by a large
//! factor and the two `scan_*` workloads not at all.

use super::{
    reference_inputs, repeat_setup, report_bench_layer, report_end_to_end, report_ingest_layers,
    store_sizes, write_trace,
};
use crate::ingest::{ingest, Ingested, PsvDays};
use crate::refstore::{self, Rng, DAYS, DAY_STRIDE};
use crate::stats::{median, percentile, RoundTimes};
use crate::trace::{Tracer, OP};
use crate::{BenchError, Ctx, Report, ROUNDS, SETUP_REPEATS, TRACED_ROUNDS};
use spider_serve::json::{self, Json};
use spider_serve::{
    sample_query, scrape_metrics, EngineConfig, ParsedResponse, Query, QueryEngine, QueryPort,
    Refill, Server, ServerConfig, TcpPort,
};
use spider_snapshot::{psv, SnapshotStore};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop clients (= `nproc` of the reference box), one tenant each.
pub const CLIENTS: usize = 2;
/// Queries each client sends per round.
pub const PER_CLIENT: usize = 50;
/// Frames the server's cache holds.
pub const CACHE_FRAMES: usize = 16;

/// The pinned multiset every client sends each round:
/// `(shape, p1, p2, copies)`.
pub const COMMON: &[(u64, u64, u64, usize)] = &[
    // uid and gid windows: zone maps prune.
    (2, 0, 0, 1),
    (2, 1, 0, 1),
    (2, 2, 0, 1),
    (2, 3, 0, 1),
    // The large projects' window three times: with the two widest uid
    // windows it forms the cluster the p90 slot falls inside.
    (3, 0, 0, 3),
    (3, 0, 1, 1),
    (3, 0, 2, 1),
    // One week grouped by uid; the seed picks the first week.
    (8, 0, 0, 31),
    // Two predicates over the first four days.
    (10, 0, 0, 6),
];

/// The whole-store shapes (every day decoded in full or nearly so),
/// split between the clients so a round holds each of them once.
pub const WHOLE_STORE: [&[(u64, u64, u64, usize)]; CLIENTS] = [
    &[(0, 0, 0, 1), (4, 0, 1, 1), (6, 0, 0, 1), (9, 0, 0, 1)],
    &[(1, 0, 0, 1), (5, 0, 0, 1), (7, 2, 0, 1), (11, 0, 0, 1)],
];

/// The `draw` that makes `sample_query` produce exactly this shape and
/// parameters: its fields are `draw % 12`, `(draw >> 8) % 4`,
/// `(draw >> 16) % 3` and `(draw >> 24) % weeks`, solved from the top.
pub fn draw_for(shape: u64, p1: u64, p2: u64, week: u64) -> u64 {
    let weeks = DAYS as u64;
    assert!(shape < 12 && p1 < 4 && p2 < 3 && week < weeks);
    let mut draw = week << 24;
    draw |= ((p2 + 3 - (draw >> 16) % 3) % 3) << 16;
    draw |= p1 << 8;
    draw | ((shape + 12 - draw % 12) % 12)
}

/// The queries of one client for one round, in sending order.
///
/// The order is a pinned shuffle (not the seed's), and the 31 one-week
/// queries walk the weeks round-robin from a seed-chosen start: how often
/// a (day, predicate) pair recurs, and how far apart, is the same for
/// every seed, so the frame cache sees the same reuse and the rows
/// decoded per round are pinned. The seed rotates the weeks and, through
/// the reference store, changes every value the queries read.
pub fn client_queries(seed: u64, client: usize) -> Vec<Query> {
    // One rotation for both clients: how their week walks interleave is
    // part of the pinned structure.
    let first_week = Rng::new(seed, 10).below(DAYS);
    let day_hi = refstore::day_number(DAYS - 1);
    let mut queries = Vec::with_capacity(PER_CLIENT);
    for &(shape, p1, p2, copies) in COMMON.iter().chain(WHOLE_STORE[client]) {
        for copy in 0..copies {
            let week = ((first_week + copy) % DAYS) as u64;
            queries.push(sample_query(
                0,
                &format!("t{client}"),
                day_hi,
                draw_for(shape, p1, p2, week),
            ));
        }
    }
    Rng::new(0x0C11_E275, client as u64).shuffle(&mut queries);
    for (i, query) in queries.iter_mut().enumerate() {
        query.id = (client * PER_CLIENT + i) as u64;
    }
    queries
}

/// The sorted multiset of (aggregate, predicate, day-window length) one
/// round sends: the same for every seed, which `--selfcheck` and the
/// harness tests assert.
pub fn round_shapes(seed: u64) -> Vec<String> {
    let mut shapes: Vec<String> = (0..CLIENTS)
        .flat_map(|client| client_queries(seed, client))
        .map(|q| {
            let window = q.days.map(|(lo, hi)| hi - lo);
            format!("{:?} {:?} {window:?}", q.agg, q.pred)
        })
        .collect();
    shapes.sort();
    shapes
}

/// A started server with its listener, acceptor thread and the clients'
/// open connections. Dropping it stops everything it started.
struct Running {
    server: Option<Arc<Server>>,
    listener: TcpListener,
    addr: String,
    acceptor: Option<JoinHandle<()>>,
    ports: Vec<TcpPort>,
}

impl Running {
    fn start(dir: &Path) -> Result<Running, BenchError> {
        let engine_config = EngineConfig {
            cache_frames: CACHE_FRAMES,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::open(dir, engine_config)?;
        let config = ServerConfig {
            workers: 2,
            // One token per day scanned: far more than a round can spend.
            tenant_budget: 1_000_000,
            refill: Refill::Manual,
            engine: engine_config,
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::start(engine, config));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let accepting = listener.try_clone()?;
        let acceptor = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("bench-acceptor".into())
                .spawn(move || {
                    // Returns once the listener turns non-blocking.
                    let _ = server.serve_listener(accepting);
                })?
        };
        let mut ports = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            ports.push(TcpPort::connect(&addr)?);
        }
        Ok(Running {
            server: Some(server),
            listener,
            addr,
            acceptor: Some(acceptor),
            ports,
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("running until dropped")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Closing the clients ends the connection threads; a non-blocking
        // listener makes `serve_listener` return on its next accept, and
        // one last connection wakes the accept it is blocked in.
        self.ports.clear();
        let _ = self.listener.set_nonblocking(true);
        let _ = TcpStream::connect(&self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The last handle: `Server`'s drop joins the workers.
        self.server.take();
    }
}

/// One response as a client saw it.
struct Seen {
    latency_ns: u64,
    line: Result<String, String>,
}

/// What some rounds produced.
struct Served {
    times: RoundTimes,
    /// Every response, as `seen[client][round][position]`.
    seen: Vec<Vec<Vec<Seen>>>,
    /// The clients' tracers (recording only in a traced run).
    tracers: Vec<Tracer>,
}

/// Runs `rounds` closed-loop rounds.
fn rounds(
    rounds: usize,
    running: &mut Running,
    lines: &[Vec<String>],
    epoch: Option<Instant>,
) -> Result<Served, BenchError> {
    let gate = Barrier::new(CLIENTS + 1);
    let mut times = RoundTimes {
        lanes: CLIENTS,
        ..RoundTimes::default()
    };
    let server = Arc::clone(running.server.as_ref().expect("running"));
    let ports = std::mem::take(&mut running.ports);
    let results: Vec<(TcpPort, Vec<Vec<Seen>>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ports
            .into_iter()
            .enumerate()
            .map(|(client, mut port)| {
                let gate = &gate;
                let lines = &lines[client];
                scope.spawn(move || {
                    let mut tracer = match epoch {
                        Some(epoch) => Tracer::on(epoch, 1 + client as u32),
                        None => Tracer::off(),
                    };
                    let mut seen = Vec::with_capacity(rounds);
                    for round in 0..rounds {
                        let mut this_round = Vec::with_capacity(lines.len());
                        gate.wait();
                        for (i, line) in lines.iter().enumerate() {
                            tracer.set_op(
                                (round * CLIENTS * PER_CLIENT + client * PER_CLIENT + i) as u32,
                            );
                            let sent = Instant::now();
                            tracer.begin(OP);
                            let response = tracer.span("serve.wire.request", || port.request(line));
                            tracer.end();
                            this_round.push(Seen {
                                latency_ns: sent.elapsed().as_nanos() as u64,
                                line: response,
                            });
                        }
                        gate.wait();
                        seen.push(this_round);
                    }
                    (port, seen, tracer)
                })
            })
            .collect();
        for _ in 0..rounds {
            // A round is the refill plus both clients' lists: from here
            // until the slower client has its last answer.
            let started = Instant::now();
            server.refill_budgets();
            gate.wait();
            gate.wait();
            times.wall_ns.push(started.elapsed().as_nanos() as u64);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut seen_by_client = Vec::with_capacity(CLIENTS);
    let mut tracers = Vec::with_capacity(CLIENTS);
    for (port, seen, tracer) in results {
        running.ports.push(port);
        seen_by_client.push(seen);
        tracers.push(tracer);
    }
    // Slot = client * PER_CLIENT + position in the client's list.
    for round in 0..rounds {
        times.op_ns.push(
            seen_by_client
                .iter()
                .flat_map(|client| client[round].iter().map(|s| s.latency_ns))
                .collect(),
        );
    }
    Ok(Served {
        times,
        seen: seen_by_client,
        tracers,
    })
}

/// Executes every distinct query directly on a second engine, on two
/// threads: the expected `result` bytes per fingerprint, and how long a
/// query takes with no wire and no queue.
fn direct_answers(
    dir: &Path,
    queries: &[Vec<Query>],
) -> Result<(BTreeMap<u64, String>, f64), BenchError> {
    let engine = QueryEngine::open(
        dir,
        EngineConfig {
            cache_frames: CACHE_FRAMES,
            ..EngineConfig::default()
        },
    )?;
    let mut distinct: Vec<&Query> = Vec::new();
    for query in queries.iter().flatten() {
        if !distinct
            .iter()
            .any(|q| q.fingerprint() == query.fingerprint())
        {
            distinct.push(query);
        }
    }
    let halves: Vec<Vec<&Query>> = (0..CLIENTS)
        .map(|t| distinct.iter().skip(t).step_by(CLIENTS).copied().collect())
        .collect();
    let engine = &engine;
    // Per thread: (fingerprint, result bytes, seconds) of each query.
    type Part = Result<Vec<(u64, String, f64)>, BenchError>;
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|query| {
                            let started = Instant::now();
                            let exec = engine.execute(0, query)?;
                            let secs = started.elapsed().as_secs_f64();
                            Ok((query.fingerprint(), exec.result, secs))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("direct execution panicked"))
            .collect()
    });
    let mut answers = BTreeMap::new();
    let mut secs = Vec::new();
    for part in parts {
        for (fingerprint, result, s) in part? {
            answers.insert(fingerprint, result);
            secs.push(s);
        }
    }
    Ok((answers, secs.iter().sum::<f64>() / secs.len() as f64 * 1e3))
}

/// Checks every response: `ok`, the right id, and `result` bytes equal to
/// the direct execution's (hence identical per fingerprint across rounds).
/// Returns the parsed responses of the ops that passed.
fn check(
    report: &mut Report,
    queries: &[Vec<Query>],
    seen: &[Vec<Vec<Seen>>],
    direct: &BTreeMap<u64, String>,
) -> Vec<(u64, ParsedResponse)> {
    let mut good = Vec::new();
    for (client, per_round) in seen.iter().enumerate() {
        for (round, responses) in per_round.iter().enumerate() {
            for (i, seen) in responses.iter().enumerate() {
                let query = &queries[client][i];
                let at = format!("round {round} client {client} query {i}");
                let line = match &seen.line {
                    Ok(line) => line,
                    Err(e) => {
                        report.fail(format!("{at}: transport: {e}"));
                        continue;
                    }
                };
                let parsed = match ParsedResponse::parse(line) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        report.fail(format!("{at}: unparseable response: {e}"));
                        continue;
                    }
                };
                if parsed.status != "ok" || parsed.id != query.id {
                    report.fail(format!(
                        "{at}: status {:?} id {} (code {:?})",
                        parsed.status, parsed.id, parsed.code
                    ));
                    continue;
                }
                if parsed.result_raw.as_ref() != direct.get(&query.fingerprint()) {
                    report.fail(format!("{at}: result differs from direct execution"));
                    continue;
                }
                good.push((seen.latency_ns, parsed));
            }
        }
    }
    good
}

struct Prepared {
    ingested: Ingested,
    running: Running,
}

fn prepare(dir: &Path, psv: &PsvDays, tracer: &mut Tracer) -> Result<(f64, Prepared), BenchError> {
    let started = Instant::now();
    let ingested = ingest(dir, psv, tracer)?;
    let running = tracer.span("serve.server.start", || Running::start(dir))?;
    Ok((
        started.elapsed().as_secs_f64(),
        Prepared { ingested, running },
    ))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, BenchError> {
    let queries: Vec<Vec<Query>> = (0..CLIENTS).map(|c| client_queries(ctx.seed, c)).collect();
    let lines: Vec<Vec<String>> = queries
        .iter()
        .map(|qs| qs.iter().map(Query::render).collect())
        .collect();
    let (psv, _) = reference_inputs(ctx.seed, &[]);
    let dir = ctx.work.join("store");
    let mut report = Report::default();
    report
        .counted
        .insert("ops_per_round", (CLIENTS * PER_CLIENT) as u64);

    if !ctx.traced {
        let mut off = Tracer::off();
        let (setup_s, mut prepared) =
            repeat_setup(SETUP_REPEATS, || prepare(&dir, &psv, &mut off))?;
        let sizes = store_sizes(&prepared.ingested, psv.bytes())?;
        rounds(1, &mut prepared.running, &lines, None)?;
        let Served { times, seen, .. } = rounds(ROUNDS, &mut prepared.running, &lines, None)?;
        let (direct, _) = direct_answers(&dir, &queries)?;
        let good = check(&mut report, &queries, &seen, &direct);
        report.counted.insert(
            "rows_matched",
            good.iter()
                .filter_map(|(_, p)| p.cost.map(|c| c.rows))
                .sum::<u64>()
                / ROUNDS as u64,
        );
        report_end_to_end(
            &mut report,
            &times,
            times.summary(),
            setup_s,
            sizes.store_bytes_per_row,
        );
        return Ok(report);
    }

    let epoch = Instant::now();
    let mut tracer = Tracer::on(epoch, 0);
    let tel = spider_telemetry::global();
    let (_, mut prepared) = prepare(&dir, &psv, &mut tracer)?;
    report_ingest_layers(&mut report, &mut tracer, &prepared.ingested, &psv)?;

    let warm_started = Instant::now();
    rounds(1, &mut prepared.running, &lines, None)?;
    let warmup_s = warm_started.elapsed().as_secs_f64();
    let untraced = rounds(1, &mut prepared.running, &lines, None)?.times;

    tel.reset();
    tel.enable();
    // Two scrapes bracket the traced rounds; the second one's deltas are
    // the counters' movement in between.
    scrape_metrics(&mut prepared.running.ports[0])?;
    let Served {
        times: traced,
        seen,
        tracers: client_tracers,
    } = rounds(TRACED_ROUNDS, &mut prepared.running, &lines, Some(epoch))?;
    let scrape = scrape_metrics(&mut prepared.running.ports[0])?;
    tel.disable();

    let (direct, execute_ms) = direct_answers(&dir, &queries)?;
    let good = check(&mut report, &queries, &seen, &direct);
    let answered = (TRACED_ROUNDS * CLIENTS * PER_CLIENT) as f64;
    let deltas = scrape_deltas(&scrape)?;
    let delta = |name: &str| deltas.get(name).copied().unwrap_or(0) as f64;
    let costs: Vec<_> = good
        .iter()
        .filter_map(|(l, p)| p.cost.map(|c| (*l, c)))
        .collect();
    let sum = |f: fn(&spider_serve::QueryCost) -> u64| {
        costs.iter().map(|(_, c)| f(c) as f64).sum::<f64>()
    };
    let p50_ms = |f: fn(&spider_serve::QueryCost) -> u64| {
        let v: Vec<f64> = costs.iter().map(|(_, c)| f(c) as f64 / 1e6).collect();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5)
        }
    };
    let exec_ns = sum(|c| c.exec_ns);
    let wire: Vec<f64> = costs
        .iter()
        .map(|(latency, c)| latency.saturating_sub(c.total_ns) as f64 / 1e6)
        .collect();
    let ok = good.len() as f64;
    // Rows decoded are not counted work here: which of the two clients
    // finds a frame already cached depends on how their requests
    // interleave, so the count moves by a few per cent with timing.
    report
        .counted
        .insert("rows_matched", sum(|c| c.rows) as u64);

    let parse_us = {
        let started = Instant::now();
        let mut parsed = 0u32;
        for line in lines.iter().flatten() {
            tracer.begin("serve.proto.parse");
            parsed += Query::parse(line).is_ok() as u32;
            tracer.end();
        }
        started.elapsed().as_secs_f64() * 1e6 / parsed.max(1) as f64
    };
    let refresh_ms = refresh_probe(&dir, &psv, prepared.running.server().engine(), &mut tracer)?;

    let v = &mut report.values;
    v.insert("serve.parse_us", parse_us);
    v.insert("serve.execute_ms", execute_ms);
    v.insert("serve.queue_ms_p50", p50_ms(|c| c.queue_ns));
    v.insert("serve.exec_ms_p50", p50_ms(|c| c.exec_ns));
    v.insert("serve.prune_share", sum(|c| c.prune_ns) / exec_ns);
    v.insert("serve.decode_share", sum(|c| c.decode_ns) / exec_ns);
    v.insert("serve.fold_share", sum(|c| c.fold_ns) / exec_ns);
    v.insert("serve.render_share", sum(|c| c.render_ns) / exec_ns);
    v.insert(
        "serve.wire_overhead_ms",
        if wire.is_empty() { 0.0 } else { median(&wire) },
    );
    v.insert("serve.rows_per_query", sum(|c| c.rows) / ok);
    v.insert(
        "serve.decode_bytes_per_query",
        delta("frame.decode.bytes") / answered,
    );
    v.insert(
        "serve.frame_cache_hit_share",
        delta("cache.hits") / (delta("cache.hits") + delta("cache.misses")),
    );
    v.insert("serve.frame_cache_evictions", delta("cache.evictions"));
    v.insert(
        "serve.zones_skipped_per_query",
        delta("pushdown.zones_skipped") / answered,
    );
    v.insert("serve.shed_share", 1.0 - ok / answered);
    v.insert("serve.refresh_ms", refresh_ms);

    let mut all: Vec<&Tracer> = vec![&tracer];
    all.extend(client_tracers.iter());
    report_bench_layer(&mut report, &traced, &untraced, &all, warmup_s);
    write_trace(ctx, "serve_closed", &all)?;
    Ok(report)
}

/// Counter movements reported by a `metrics` scrape's `deltas` array.
fn scrape_deltas(line: &str) -> Result<BTreeMap<String, u64>, BenchError> {
    let doc = json::parse(line)?;
    let deltas = doc
        .get("deltas")
        .and_then(Json::as_arr)
        .ok_or("metrics scrape without `deltas`")?;
    Ok(deltas
        .iter()
        .filter_map(|d| {
            Some((
                d.get("name")?.as_str()?.to_string(),
                d.get("delta")?.as_u64()?,
            ))
        })
        .collect())
}

/// The write beside the reads: append one more day to the served store
/// and time `QueryEngine::refresh` picking it up.
fn refresh_probe(
    dir: &Path,
    psv: &PsvDays,
    engine: &QueryEngine,
    tracer: &mut Tracer,
) -> Result<f64, BenchError> {
    // The new day carries the last day's rows under the next weekly date.
    let last = psv.text.last().expect("the reference store has days");
    let body = last.split_once('\n').map_or("", |(_, body)| body);
    let day = refstore::day_number(DAYS - 1) + DAY_STRIDE;
    let text = format!(
        "#{day}|{}\n{body}",
        refstore::taken_at(DAYS - 1) + 7 * 86_400
    );
    let snapshot = psv::read_psv(text.as_bytes())?;
    SnapshotStore::open(dir)?.put(&snapshot)?;
    let started = Instant::now();
    let stats = tracer.span("serve.engine.refresh", || engine.refresh())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if stats.added != [day] {
        return Err(format!("refresh did not pick up day {day}: {stats:?}").into());
    }
    Ok(ms)
}
