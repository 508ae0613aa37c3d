//! The concurrent query server.
//!
//! Plain std threads end to end — a bounded `Mutex<VecDeque>` +
//! `Condvar` work queue feeds a fixed worker pool; no async runtime.
//! Each request line passes through the admission state machine:
//!
//! 1. **parse** — malformed lines and unsupported versions get typed
//!    `error` responses;
//! 2. **budget** — the tenant's token bucket is charged one token per
//!    day the query would scan; an exhausted bucket sheds to a cached
//!    answer (marked stale) or rejects with `over_budget`;
//! 3. **queue** — past `shed_mark` queued jobs the server prefers a
//!    cached answer over queueing; at `queue_capacity` it rejects
//!    with `queue_full` (never blocks, never drops);
//! 4. **execute** — a worker runs the query under the tenant's frame
//!    cache attribution and replies.
//!
//! Shed answers reuse the response cache's rendered `result` bytes
//! verbatim, so a shed response is byte-identical (in its `result`
//! field) to the `ok` response it was cached from.
//!
//! **Observability.** Every request gets a trace id — the client's, or
//! a minted one — installed as a [`TraceScope`] on both the connection
//! thread (around the `serve.request` span) and the worker thread
//! (around `serve.execute`), so the whole request tree is attributable
//! in flight-recorder dumps and chrome-trace exports. Responses carry
//! the id back plus a per-stage cost breakdown (admission, queue,
//! prune, decode, fold, render) that sums to the request's wall clock.
//! A `{"v":1,"metrics":true}` line is answered directly by the
//! front-end — no queueing — with the full telemetry snapshot, counter
//! deltas since the previous scrape, and per-tenant admission / outcome
//! / cache-residency gauges. The onset of a shed storm (first shed
//! after a fresh-answer stretch) fires the `shed_storm` trigger so an
//! armed flight recorder freezes the moments leading into overload.

use crate::admission::{Admission, Refill};
use crate::engine::{CachedAnswer, EngineConfig, QueryEngine};
use crate::json;
use crate::proto::{self, ErrorCode, ProtoError, Query, QueryCost};
use rustc_hash::FxHashMap;
use spider_core::{TenantCacheStats, TenantId};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use spider_telemetry as telemetry;
use spider_telemetry::{TelemetrySnapshot, TraceScope};

// Telemetry counter names are `&'static str`, so per-tenant counters
// use a fixed name table: tenants 1..=7 get their own slot, the rest
// share the overflow slot (same pattern as the scan stage counters).
const TENANT_QUERIES: [&str; 8] = [
    "serve.tenant1.queries",
    "serve.tenant2.queries",
    "serve.tenant3.queries",
    "serve.tenant4.queries",
    "serve.tenant5.queries",
    "serve.tenant6.queries",
    "serve.tenant7.queries",
    "serve.tenant8plus.queries",
];
const TENANT_SHED: [&str; 8] = [
    "serve.tenant1.shed",
    "serve.tenant2.shed",
    "serve.tenant3.shed",
    "serve.tenant4.shed",
    "serve.tenant5.shed",
    "serve.tenant6.shed",
    "serve.tenant7.shed",
    "serve.tenant8plus.shed",
];
const TENANT_REJECTED: [&str; 8] = [
    "serve.tenant1.rejected",
    "serve.tenant2.rejected",
    "serve.tenant3.rejected",
    "serve.tenant4.rejected",
    "serve.tenant5.rejected",
    "serve.tenant6.rejected",
    "serve.tenant7.rejected",
    "serve.tenant8plus.rejected",
];

fn tenant_slot(tenant: TenantId) -> usize {
    (tenant.saturating_sub(1) as usize).min(7)
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Hard bound on queued jobs; past it, `queue_full` rejections.
    pub queue_capacity: usize,
    /// Soft bound; past it the server prefers cached (shed) answers.
    pub shed_mark: usize,
    /// Per-tenant scan budget in day-tokens.
    pub tenant_budget: u64,
    /// How budgets refill.
    pub refill: Refill,
    /// Per-tenant frame-cache budget in frames (0 = whole capacity).
    pub tenant_cache_frames: usize,
    /// Engine knobs.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            shed_mark: 8,
            tenant_budget: 10_000,
            refill: Refill::PerSecond(1_000),
            tenant_cache_frames: 0,
            engine: EngineConfig::default(),
        }
    }
}

/// Outcome counters, total and per tenant name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests received (parse failures included).
    pub queries: u64,
    /// Fresh answers.
    pub ok: u64,
    /// Stale cached answers served under load.
    pub shed: u64,
    /// Typed admission refusals.
    pub rejected: u64,
    /// Protocol / execution errors.
    pub errors: u64,
}

struct Job {
    query: Query,
    tenant: TenantId,
    cost: u64,
    trace: u64,
    received: Instant,
    admission_ns: u64,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

struct Queue {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    engine: QueryEngine,
    admission: Admission,
    queue: Mutex<Queue>,
    available: Condvar,
    config: ServerConfig,
    stats: Mutex<(OutcomeCounts, FxHashMap<String, OutcomeCounts>)>,
    /// Sequence for minted trace ids (client-supplied ids win).
    trace_counter: AtomicU64,
    /// Set while shedding; the false→true edge is shed-storm onset.
    in_storm: AtomicBool,
    /// Counter values at the previous metrics scrape, for deltas.
    last_scrape: Mutex<BTreeMap<String, u64>>,
    /// Scrape sequence number, echoed in metrics responses.
    scrapes: AtomicU64,
}

enum Outcome {
    Ok,
    Shed,
    Rejected,
    Error,
}

impl Shared {
    fn note_outcome(&self, tenant_name: Option<&str>, outcome: Outcome) {
        let mut stats = self.stats.lock().unwrap();
        let apply = |c: &mut OutcomeCounts| match outcome {
            Outcome::Ok => c.ok += 1,
            Outcome::Shed => c.shed += 1,
            Outcome::Rejected => c.rejected += 1,
            Outcome::Error => c.errors += 1,
        };
        apply(&mut stats.0);
        if let Some(name) = tenant_name {
            apply(stats.1.entry(name.to_string()).or_default());
        }
    }

    /// Mints a nonzero trace id for requests that did not bring one.
    fn mint_trace(&self) -> u64 {
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        n.wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            | 1
    }

    fn shed_response(
        &self,
        query: &Query,
        trace: u64,
        tenant: TenantId,
        answer: &CachedAnswer,
        received: Instant,
    ) -> String {
        telemetry::global().incr("serve.shed", 1);
        telemetry::global().incr(TENANT_SHED[tenant_slot(tenant)], 1);
        if !self.in_storm.swap(true, Ordering::Relaxed) {
            telemetry::global().trigger(
                "shed_storm",
                &format!(
                    "shed onset: tenant {} query {} served stale from cache",
                    query.tenant, query.id
                ),
            );
        }
        self.note_outcome(Some(&query.tenant), Outcome::Shed);
        // A shed never executes: its whole life is the admission
        // front-end, so admission is the only nonzero stage.
        let total_ns = received.elapsed().as_nanos() as u64;
        proto::render_shed(
            query.id,
            trace,
            &answer.result,
            &answer.notes,
            QueryCost {
                queue_ns: 0,
                exec_ns: 0,
                days_scanned: answer.days_scanned,
                rows: answer.rows,
                admission_ns: total_ns,
                prune_ns: 0,
                decode_ns: 0,
                fold_ns: 0,
                render_ns: 0,
                total_ns,
            },
        )
    }

    fn handle_line(&self, line: &str) -> String {
        let received = Instant::now();
        if let Some(id) = proto::parse_metrics_request(line) {
            return self.metrics_response(id);
        }
        let response = self.admit(line, received);
        telemetry::global().record("serve.latency_ns", received.elapsed().as_nanos() as u64);
        response
    }

    fn admit(&self, line: &str, received: Instant) -> String {
        telemetry::global().incr("serve.queries", 1);
        {
            self.stats.lock().unwrap().0.queries += 1;
        }
        let query = match Query::parse(line) {
            Ok(q) => q,
            Err(ProtoError { code, detail, id }) => {
                telemetry::global().incr("serve.errors", 1);
                self.note_outcome(None, Outcome::Error);
                return proto::render_error(id, self.mint_trace(), code, &detail);
            }
        };
        let trace = if query.trace != 0 {
            query.trace
        } else {
            self.mint_trace()
        };
        let _trace_scope = TraceScope::enter(trace);
        let _span = telemetry::global().span("serve.request");
        let (tenant, created) = self.admission.tenant_id(&query.tenant);
        if created && self.config.tenant_cache_frames > 0 {
            self.engine
                .cache()
                .set_tenant_budget(tenant, self.config.tenant_cache_frames);
        }
        telemetry::global().incr(TENANT_QUERIES[tenant_slot(tenant)], 1);
        {
            let mut stats = self.stats.lock().unwrap();
            stats.1.entry(query.tenant.clone()).or_default().queries += 1;
        }

        let cost = self.engine.day_cost(&query);
        let fingerprint = query.fingerprint();

        // Stage 1: scan budget.
        if !self.admission.try_charge(tenant, cost) {
            if let Some(answer) = self.engine.cached(fingerprint) {
                return self.shed_response(&query, trace, tenant, &answer, received);
            }
            telemetry::global().incr("serve.rejected", 1);
            telemetry::global().incr(TENANT_REJECTED[tenant_slot(tenant)], 1);
            self.note_outcome(Some(&query.tenant), Outcome::Rejected);
            return proto::render_rejected(
                query.id,
                trace,
                ErrorCode::OverBudget,
                &format!(
                    "tenant {} scan budget exhausted (query costs {} day-tokens)",
                    query.tenant, cost
                ),
            );
        }

        // Stage 2: queue admission.
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let mut queue = self.queue.lock().unwrap();
            if queue.jobs.len() >= self.config.queue_capacity {
                drop(queue);
                self.admission.refund(tenant, cost);
                telemetry::global().incr("serve.rejected", 1);
                telemetry::global().incr(TENANT_REJECTED[tenant_slot(tenant)], 1);
                self.note_outcome(Some(&query.tenant), Outcome::Rejected);
                return proto::render_rejected(
                    query.id,
                    trace,
                    ErrorCode::QueueFull,
                    &format!("queue at capacity ({})", self.config.queue_capacity),
                );
            }
            if queue.jobs.len() >= self.config.shed_mark {
                if let Some(answer) = self.engine.cached(fingerprint) {
                    drop(queue);
                    self.admission.refund(tenant, cost);
                    return self.shed_response(&query, trace, tenant, &answer, received);
                }
            }
            // One instant ends admission and starts the queue wait: the
            // stages tile `total_ns` with no gap between them.
            let enqueued = Instant::now();
            queue.jobs.push_back(Job {
                query,
                tenant,
                cost,
                trace,
                received,
                admission_ns: (enqueued - received).as_nanos() as u64,
                enqueued,
                reply: reply_tx,
            });
            self.available.notify_one();
        }

        // Stage 3: wait for the worker's reply.
        match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => {
                telemetry::global().incr("serve.errors", 1);
                self.note_outcome(None, Outcome::Error);
                proto::render_error(
                    0,
                    trace,
                    ErrorCode::Internal,
                    "worker pool shut down mid-query",
                )
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if !queue.open {
                        return;
                    }
                    queue = self.available.wait(queue).unwrap();
                }
            };
            // The queue wait ends and the exec window opens at one
            // instant, so everything below — the trace scope, a
            // contended histogram lock — lands in a stage (render/glue
            // remainder), not in an unattributed gap: a resident-frame
            // query runs in microseconds, where such a gap would be a
            // visible share of `total_ns`.
            let exec_started = Instant::now();
            let queue_ns = (exec_started - job.enqueued).as_nanos() as u64;
            // The requester's trace follows the job onto this thread, so
            // the execute span (and anything the engine emits under it)
            // stays attributable to the originating query.
            let _trace_scope = TraceScope::enter(job.trace);
            telemetry::global().record("serve.queue_ns", queue_ns);
            let response = match self.engine.execute(job.tenant, &job.query) {
                Ok(exec) => {
                    // One instant closes both windows, before any
                    // bookkeeping locks.
                    let done = Instant::now();
                    let exec_ns = (done - exec_started).as_nanos() as u64;
                    let total_ns = (done - job.received).as_nanos() as u64;
                    telemetry::global().record("serve.exec_ns", exec_ns);
                    telemetry::global().incr("serve.ok", 1);
                    self.in_storm.store(false, Ordering::Relaxed);
                    self.note_outcome(Some(&job.query.tenant), Outcome::Ok);
                    // Render/glue is the execution wall time the staged
                    // timers did not claim — the decomposition is exact
                    // inside the execute interval by construction.
                    let staged = exec.prune_ns + exec.decode_ns + exec.fold_ns;
                    let render_ns = exec_ns.saturating_sub(staged);
                    proto::render_ok(
                        job.query.id,
                        job.trace,
                        &exec.result,
                        &exec.notes,
                        QueryCost {
                            queue_ns,
                            exec_ns,
                            days_scanned: exec.days_scanned,
                            rows: exec.rows,
                            admission_ns: job.admission_ns,
                            prune_ns: exec.prune_ns,
                            decode_ns: exec.decode_ns,
                            fold_ns: exec.fold_ns,
                            render_ns,
                            total_ns,
                        },
                    )
                }
                Err(err) => {
                    self.admission.refund(job.tenant, job.cost);
                    telemetry::global().incr("serve.errors", 1);
                    self.note_outcome(Some(&job.query.tenant), Outcome::Error);
                    proto::render_error(
                        job.query.id,
                        job.trace,
                        ErrorCode::Store,
                        &format!("store error: {err}"),
                    )
                }
            };
            // A disconnected requester just means nobody is waiting.
            let _ = job.reply.send(response);
        }
    }

    /// Renders one `metrics` scrape response: the full telemetry
    /// snapshot, per-counter deltas since the previous scrape (counters
    /// that did not move are omitted), and per-tenant gauges joining
    /// admission budgets, outcome counts, and cache residency.
    fn metrics_response(&self, id: u64) -> String {
        let trace = self.mint_trace();
        let scrape = self.scrapes.fetch_add(1, Ordering::Relaxed);
        let snapshot = TelemetrySnapshot::capture(telemetry::global());
        let mut deltas = String::new();
        {
            let mut last = self.last_scrape.lock().unwrap();
            let mut first = true;
            for c in &snapshot.counters {
                let prev = last.insert(c.name.clone(), c.value).unwrap_or(0);
                let delta = c.value.saturating_sub(prev);
                if delta == 0 {
                    continue;
                }
                if !first {
                    deltas.push(',');
                }
                first = false;
                deltas.push_str("{\"name\":");
                json::escape_into(&mut deltas, &c.name);
                deltas.push_str(&format!(",\"delta\":{delta}}}"));
            }
        }
        let cache_stats: FxHashMap<TenantId, TenantCacheStats> =
            self.engine.cache().tenant_stats().into_iter().collect();
        let outcomes: FxHashMap<String, OutcomeCounts> = self.stats.lock().unwrap().1.clone();
        let mut tenants = String::new();
        for (i, (name, tid, remaining)) in self.admission.tenants().iter().enumerate() {
            if i > 0 {
                tenants.push(',');
            }
            let oc = outcomes.get(name).cloned().unwrap_or_default();
            let cs = cache_stats.get(tid).copied().unwrap_or_default();
            tenants.push_str("{\"name\":");
            json::escape_into(&mut tenants, name);
            tenants.push_str(&format!(
                ",\"id\":{tid},\"budget_remaining\":{remaining},\"queries\":{},\"ok\":{},\
                 \"shed\":{},\"rejected\":{},\"errors\":{},\"cache_resident\":{},\
                 \"cache_hits\":{},\"cache_misses\":{}}}",
                oc.queries, oc.ok, oc.shed, oc.rejected, oc.errors, cs.resident, cs.hits, cs.misses
            ));
        }
        format!(
            "{{\"v\":{},\"id\":{id},\"trace\":\"{}\",\"status\":\"metrics\",\
             \"metrics_version\":{},\"scrape\":{scrape},\"telemetry\":{},\
             \"deltas\":[{deltas}],\"tenants\":[{tenants}]}}",
            proto::PROTOCOL_VERSION,
            proto::trace_to_hex(trace),
            proto::METRICS_VERSION,
            snapshot.to_json_compact(),
        )
    }
}

/// A running server: shared state plus its worker pool.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over an opened engine.
    pub fn start(engine: QueryEngine, config: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            engine,
            admission: Admission::new(config.tenant_budget, config.refill),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            config,
            stats: Mutex::new((OutcomeCounts::default(), FxHashMap::default())),
            trace_counter: AtomicU64::new(1),
            in_storm: AtomicBool::new(false),
            last_scrape: Mutex::new(BTreeMap::new()),
            scrapes: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A cheap handle for submitting request lines from any thread.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine (for cache stats in tests and reports).
    pub fn engine(&self) -> &QueryEngine {
        &self.shared.engine
    }

    /// Manually refills every tenant budget (deterministic soak tick).
    pub fn refill_budgets(&self) {
        self.shared.admission.refill_all();
    }

    /// Total and per-tenant outcome counts so far.
    pub fn stats(&self) -> (OutcomeCounts, Vec<(String, OutcomeCounts)>) {
        let stats = self.shared.stats.lock().unwrap();
        let mut per_tenant: Vec<_> = stats
            .1
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        per_tenant.sort_by(|a, b| a.0.cmp(&b.0));
        (stats.0.clone(), per_tenant)
    }

    /// Accepts TCP connections forever, one reader thread per
    /// connection, one response line per request line.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let client = self.client();
            std::thread::spawn(move || {
                let _ = serve_connection(&client, stream);
            });
        }
        Ok(())
    }

    /// Drains the queue, stops the workers, and returns final stats.
    pub fn shutdown(mut self) -> (OutcomeCounts, Vec<(String, OutcomeCounts)>) {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.open = false;
            self.shared.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

fn serve_connection(client: &Client, stream: TcpStream) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = client.request(&line);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// A cloneable in-process handle: one request line in, one response
/// line out. TCP connections and tests both speak through this.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one request line and blocks for its response line.
    pub fn request(&self, line: &str) -> String {
        self.shared.handle_line(line)
    }
}
