//! Query execution over a scrubbed snapshot store.
//!
//! The engine opens the store leniently, scrubs it (quarantining
//! undecodable days, recording lost sections and nearest-day
//! substitutions), and then answers aggregate queries from **resident
//! full frames**: one decoded [`SnapshotFrame`] per `(day, digest)` in
//! the shared, fairness-aware [`FrameCache`], decoded on first touch and
//! used by every query shape and tenant. The query moves to the data:
//! per day its predicate compiles ([`FramePred::compile`]), evaluates
//! column-at-a-time into a bitmap ([`FramePred::select`]), and the
//! aggregate folds over the selected rows with integer group keys;
//! strings appear only when the answer is rendered.
//!
//! [`QueryEngine::refresh`] (and `open`) is the one freshness point: it
//! re-lists the store, digests every day's bytes and pins the
//! `(day, digest)` pairs. Between refreshes a query finds its frames by
//! pinned key without touching a file; a file changed behind the
//! engine's back misses and is answered from the bytes on disk — never
//! wrong, only slower.
//!
//! Every answer is rendered to a canonical JSON string and remembered
//! in a small LRU response cache keyed by the query's answer
//! fingerprint **and the store epoch** — a digest of the pinned
//! `(day, digest)` pairs. When a refresh finds days added, removed or
//! rewritten in place the epoch moves and every stale answer misses by
//! construction (an answer computed over yesterday's bytes can never be
//! replayed against today's store). The server's shed path serves cached
//! bytes verbatim, which is what makes `shed` responses byte-identical
//! to the `ok` responses they were cached from.
//!
//! Alongside the rendered answers the engine keeps **hot accumulator
//! states** per query fingerprint: the mergeable [`AccState`] each
//! answer was rendered from. When `refresh` finds newly appended days,
//! it folds just those days into each matching hot state and re-renders
//! under the new epoch — appending one day updates every cached answer
//! in O(new day), not O(whole window). Removed or rewritten days cannot
//! be retracted from a count-style state, so any hot state whose window
//! covered one is dropped, never silently reused.

use crate::proto::{AggSpec, GroupBy, Query};
use rustc_hash::FxHashMap;
use spider_core::frame::EXT_NONE;
use spider_core::query::{FramePred, Selection};
use spider_core::{FrameCache, FrameLoader, SnapshotFrame, TenantId};
use spider_snapshot::store::StoreError;
use spider_snapshot::{OsIo, Pred, RetryPolicy, SnapshotStore, StoreHealth};
use spider_telemetry as telemetry;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Frame-cache capacity in full frames, ≈41 B per row each (0 = the
    /// loader default: one per stored day, following the store).
    pub cache_frames: usize,
    /// Response-cache capacity in answers.
    pub response_cache: usize,
    /// Hot accumulator states kept for O(delta) refresh (0 disables).
    pub hot_states: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_frames: 0,
            response_cache: 256,
            hot_states: 64,
        }
    }
}

/// A cached, fully-rendered answer.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// Canonical `result` JSON, byte-for-byte as first rendered.
    pub result: String,
    /// Substitution / degradation notes from the original execution.
    pub notes: Vec<String>,
    /// Days the original execution scanned.
    pub days_scanned: u64,
    /// Rows the original execution matched.
    pub rows: u64,
}

/// A fresh execution result, with its per-stage cost breakdown (the
/// wall time `execute` spent pruning, decoding, and folding — the
/// remainder of the execution wall clock is render/glue).
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Canonical `result` JSON.
    pub result: String,
    /// Substitution / degradation notes for the queried window.
    pub notes: Vec<String>,
    /// Days scanned.
    pub days_scanned: u64,
    /// Rows matched.
    pub rows: u64,
    /// Day-window matching + row-predicate compilation.
    pub prune_ns: u64,
    /// Frame lookup; a miss pays its full decode here.
    pub decode_ns: u64,
    /// Predicate selection plus the fold over the selected rows.
    pub fold_ns: u64,
}

/// Per-stage wall-time accumulator threaded through a fold.
#[derive(Debug, Clone, Copy, Default)]
struct StageNs {
    prune: u64,
    decode: u64,
    fold: u64,
}

/// What one [`QueryEngine::refresh`] pass did.
#[derive(Debug, Clone, Default)]
pub struct RefreshStats {
    /// Days that appeared since the last (re)scan.
    pub added: Vec<u32>,
    /// Days that vanished since the last (re)scan.
    pub removed: Vec<u32>,
    /// Days whose bytes changed in place since the last (re)scan.
    pub rewritten: Vec<u32>,
    /// Hot states advanced in O(new days) and re-cached.
    pub hot_updated: u64,
    /// Hot states dropped (their window covered a vanished or
    /// rewritten day).
    pub hot_dropped: u64,
    /// The epoch after the pass.
    pub epoch: u64,
}

struct RespCache {
    map: FxHashMap<(u64, u64), (CachedAnswer, u64)>,
    tick: u64,
    capacity: usize,
}

impl RespCache {
    fn get(&mut self, key: (u64, u64)) -> Option<CachedAnswer> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|(answer, used)| {
            *used = tick;
            answer.clone()
        })
    }

    fn insert(&mut self, key: (u64, u64), answer: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(&lru) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                self.map.remove(&lru);
            }
        }
        self.map.insert(key, (answer, self.tick));
    }
}

/// A hot, re-renderable answer: the accumulator state plus the query
/// it answers, so newly appended days can be folded straight in.
struct HotState {
    query: Query,
    acc: AccState,
    days_scanned: u64,
    used: u64,
}

/// A scannable day pinned to the digest of its bytes as of the last
/// `open`/`refresh`: the key its resident frame is found under.
type PinnedDay = (u32, u64);

/// Digests every day the loader lists.
fn pin_days(loader: &FrameLoader) -> Result<Vec<PinnedDay>, StoreError> {
    let pin = |&day: &u32| {
        let digest = loader.day_digest(day)?;
        Ok((day, digest.expect("the loader lists only indexed days")))
    };
    loader.days().iter().map(pin).collect()
}

/// Digest of the pinned days — the response-cache epoch component.
fn epoch_of(days: &[PinnedDay]) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    days.hash(&mut h);
    h.finish()
}

/// The multi-tenant query engine: loader + health record + epoch-keyed
/// response cache + hot accumulator states. Shared across server
/// workers behind an `Arc`.
pub struct QueryEngine {
    loader: RwLock<FrameLoader>,
    cache: Arc<FrameCache>,
    health: StoreHealth,
    days: RwLock<Vec<PinnedDay>>,
    epoch: AtomicU64,
    responses: Mutex<RespCache>,
    hot: Mutex<FxHashMap<u64, HotState>>,
    hot_capacity: usize,
    hot_tick: AtomicU64,
}

impl QueryEngine {
    /// Opens the store at `dir` leniently, scrubs it, and builds the
    /// engine over whatever survives.
    pub fn open(dir: &Path, config: EngineConfig) -> Result<QueryEngine, StoreError> {
        let mut store = SnapshotStore::open_lenient(dir, Arc::new(OsIo), RetryPolicy::default())?;
        let health = store.scrub();
        Self::over_store(&store, health, config)
    }

    /// Builds the engine over an already-opened, already-scrubbed
    /// store (tests inject fault-wrapped stores this way).
    pub fn over_store(
        store: &SnapshotStore,
        health: StoreHealth,
        config: EngineConfig,
    ) -> Result<QueryEngine, StoreError> {
        let mut loader = FrameLoader::new(store)?;
        if config.cache_frames > 0 {
            loader = loader.with_cache_capacity(config.cache_frames);
        }
        let cache = loader.cache_handle();
        let days = pin_days(&loader)?;
        let epoch = epoch_of(&days);
        Ok(QueryEngine {
            loader: RwLock::new(loader),
            cache,
            health,
            days: RwLock::new(days),
            epoch: AtomicU64::new(epoch),
            responses: Mutex::new(RespCache {
                map: FxHashMap::default(),
                tick: 0,
                capacity: config.response_cache,
            }),
            hot: Mutex::new(FxHashMap::default()),
            hot_capacity: config.hot_states,
            hot_tick: AtomicU64::new(0),
        })
    }

    /// The store's health record from scrub time.
    pub fn health(&self) -> &StoreHealth {
        &self.health
    }

    /// Days the engine can scan (quarantined days are gone).
    pub fn days(&self) -> Vec<u32> {
        self.days.read().unwrap().iter().map(|p| p.0).collect()
    }

    /// The current store epoch: a digest of the scannable days and their
    /// bytes as of the last refresh. Response-cache keys carry it, so any
    /// change to the store invalidates every cached answer at once.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The shared frame cache (for fairness budgets and stats).
    pub fn cache(&self) -> &FrameCache {
        &self.cache
    }

    /// How many stored days the query would scan — the admission cost.
    pub fn day_cost(&self, query: &Query) -> u64 {
        let pred = query.effective_pred();
        self.days
            .read()
            .unwrap()
            .iter()
            .filter(|p| pred.matches_day(p.0))
            .count() as u64
    }

    /// A cached answer for this fingerprint *at the current epoch*, if
    /// one exists. Answers computed over different days or bytes live
    /// under a different epoch and can never be returned here.
    pub fn cached(&self, fingerprint: u64) -> Option<CachedAnswer> {
        let key = (fingerprint, self.epoch());
        self.responses.lock().unwrap().get(key)
    }

    /// Executes the query under `tenant`'s cache attribution, renders
    /// the canonical answer, and remembers it (answer bytes and hot
    /// accumulator state) for the shed and refresh paths.
    pub fn execute(&self, tenant: TenantId, query: &Query) -> Result<ExecResult, StoreError> {
        let _attr = FrameCache::attribute(tenant);
        // `span_at` rather than `span`: workers run on their own threads,
        // so the execute span names its logical parent explicitly — that
        // is what lets the chrome exporter draw the request→execute flow
        // arrow across threads.
        let _span = telemetry::global().span_at(&["serve.request"], "serve.execute");
        let pred = query.effective_pred();
        let mut acc = AccState::new(query.agg.clone());
        let mut days_scanned = 0u64;
        let mut stages = StageNs::default();
        let (days, epoch) = {
            let days = self.days.read().unwrap();
            (days.clone(), self.epoch())
        };
        {
            let loader = self.loader.read().unwrap();
            for &pinned in &days {
                let pruning = Instant::now();
                let keep = pred.matches_day(pinned.0);
                stages.prune += pruning.elapsed().as_nanos() as u64;
                if !keep {
                    continue;
                }
                if Self::fold_day(&loader, pinned, &pred, &mut acc, &mut stages)? {
                    days_scanned += 1;
                }
            }
        }
        let result = acc.render();
        let notes = self.notes_for(&pred);
        let rows = acc.rows;
        self.responses.lock().unwrap().insert(
            (query.fingerprint(), epoch),
            CachedAnswer {
                result: result.clone(),
                notes: notes.clone(),
                days_scanned,
                rows,
            },
        );
        self.remember_hot(query, acc, days_scanned);
        Ok(ExecResult {
            result,
            notes,
            days_scanned,
            rows,
            prune_ns: stages.prune,
            decode_ns: stages.decode,
            fold_ns: stages.fold,
        })
    }

    /// Folds one day's resident frame into an accumulator. Returns
    /// whether the day was scanned (false only if it left the store).
    /// Stage wall time accrues into `stages`: the frame lookup (a miss
    /// decodes the whole day) as decode, the predicate compile as prune,
    /// selection and fold as fold.
    fn fold_day(
        loader: &FrameLoader,
        (day, digest): PinnedDay,
        pred: &Pred,
        acc: &mut AccState,
        stages: &mut StageNs,
    ) -> Result<bool, StoreError> {
        let loading = Instant::now();
        let frame = loader.frame_at(day, digest)?;
        stages.decode += loading.elapsed().as_nanos() as u64;
        let Some(frame) = frame else {
            return Ok(false);
        };
        let compiling = Instant::now();
        let frame_pred = FramePred::compile(pred, &frame);
        stages.prune += compiling.elapsed().as_nanos() as u64;
        let folding = Instant::now();
        acc.fold(&frame, &frame_pred.select(&frame));
        stages.fold += folding.elapsed().as_nanos() as u64;
        Ok(true)
    }

    fn remember_hot(&self, query: &Query, acc: AccState, days_scanned: u64) {
        if self.hot_capacity == 0 {
            return;
        }
        let used = self.hot_tick.fetch_add(1, Ordering::Relaxed);
        let mut hot = self.hot.lock().unwrap();
        let fingerprint = query.fingerprint();
        if hot.len() >= self.hot_capacity && !hot.contains_key(&fingerprint) {
            if let Some(&lru) = hot
                .iter()
                .min_by_key(|(_, state)| state.used)
                .map(|(k, _)| k)
            {
                hot.remove(&lru);
            }
        }
        hot.insert(
            fingerprint,
            HotState {
                query: query.clone(),
                acc,
                days_scanned,
                used,
            },
        );
    }

    /// Re-lists the store directory, re-digests every day and reconciles
    /// the engine with what it finds. When anything changed the epoch
    /// moves (cold cached answers become unreachable), newly appended
    /// days are folded into every matching hot accumulator state —
    /// O(new days) per answer — and the refreshed answers are cached
    /// under the new epoch. Hot states whose window covered a *vanished*
    /// or *rewritten* day cannot retract it and are dropped instead.
    pub fn refresh(&self) -> Result<RefreshStats, StoreError> {
        let tel = telemetry::global();
        let mut loader = self.loader.write().unwrap();
        loader.rescan()?;
        let new_days = pin_days(&loader)?;
        let old_days = self.days.read().unwrap().clone();
        if new_days == old_days {
            return Ok(RefreshStats {
                epoch: self.epoch(),
                ..RefreshStats::default()
            });
        }
        let digest_in = |days: &[PinnedDay], day: u32| {
            let at = days.binary_search_by_key(&day, |p| p.0).ok()?;
            Some(days[at].1)
        };
        let (mut added, mut rewritten) = (Vec::new(), Vec::new());
        for &(day, digest) in &new_days {
            match digest_in(&old_days, day) {
                None => added.push((day, digest)),
                Some(old) if old != digest => rewritten.push(day),
                Some(_) => {}
            }
        }
        let removed: Vec<u32> = old_days
            .iter()
            .map(|p| p.0)
            .filter(|&day| digest_in(&new_days, day).is_none())
            .collect();
        let epoch = epoch_of(&new_days);
        {
            // Both under the days lock, which `execute` reads them under.
            let mut days = self.days.write().unwrap();
            *days = new_days;
            self.epoch.store(epoch, Ordering::Release);
        }
        tel.incr("serve.refreshes", 1);

        let mut stats = RefreshStats {
            added: added.iter().map(|p| p.0).collect(),
            removed,
            rewritten,
            epoch,
            ..RefreshStats::default()
        };
        let mut hot = self.hot.lock().unwrap();
        let fingerprints: Vec<u64> = hot.keys().copied().collect();
        for fingerprint in fingerprints {
            let state = hot.get_mut(&fingerprint).expect("key just listed");
            let pred = state.query.effective_pred();
            // A count-style state cannot take a day back out.
            let mut retired = stats.removed.iter().chain(&stats.rewritten);
            if retired.any(|&d| pred.matches_day(d)) {
                hot.remove(&fingerprint);
                stats.hot_dropped += 1;
                tel.incr("serve.hot_drops", 1);
                continue;
            }
            let mut touched = false;
            let mut scratch = StageNs::default();
            for &pinned in added.iter().filter(|p| pred.matches_day(p.0)) {
                if Self::fold_day(&loader, pinned, &pred, &mut state.acc, &mut scratch)? {
                    state.days_scanned += 1;
                }
                touched = true;
            }
            if !touched {
                continue;
            }
            let answer = CachedAnswer {
                result: state.acc.render(),
                notes: self.notes_for(&pred),
                days_scanned: state.days_scanned,
                rows: state.acc.rows,
            };
            self.responses
                .lock()
                .unwrap()
                .insert((fingerprint, epoch), answer);
            stats.hot_updated += 1;
            tel.incr("serve.hot_updates", 1);
        }
        Ok(stats)
    }

    /// Degradation notes relevant to a predicate's day window: one per
    /// quarantined day the query *would* have scanned (with its
    /// substitute, when any survives) and one per degraded day it did
    /// scan.
    fn notes_for(&self, pred: &Pred) -> Vec<String> {
        let mut notes = Vec::new();
        for q in &self.health.quarantined {
            if !pred.matches_day(q.day) {
                continue;
            }
            match self.health.substitute_for(q.day) {
                Some(sub) => notes.push(format!(
                    "day {} quarantined ({}); nearest surviving day is {}",
                    q.day, q.reason, sub
                )),
                None => notes.push(format!(
                    "day {} quarantined ({}); no substitute remains",
                    q.day, q.reason
                )),
            }
        }
        for d in &self.health.degraded {
            if !pred.matches_day(d.day) {
                continue;
            }
            notes.push(format!(
                "day {} degraded: lost {}",
                d.day,
                d.lost_sections.join(", ")
            ));
        }
        notes
    }
}

/// Mergeable accumulator for one aggregate spec. Owns its spec so it
/// can live beyond the execution that created it (hot refresh folds
/// newly appended days into the same state later). Group keys stay
/// integers until [`AccState::render`].
struct AccState {
    agg: AggSpec,
    rows: u64,
    files: u64,
    dirs: u64,
    stripes: u64,
    /// uid or gid groups.
    ids: FxHashMap<u32, u64>,
    /// Extension groups, by name: interned ids are per frame.
    names: FxHashMap<String, u64>,
}

impl AccState {
    fn new(agg: AggSpec) -> AccState {
        AccState {
            agg,
            rows: 0,
            files: 0,
            dirs: 0,
            stripes: 0,
            ids: FxHashMap::default(),
            names: FxHashMap::default(),
        }
    }

    /// Folds the selected rows of one day's frame in.
    fn fold(&mut self, frame: &SnapshotFrame, selected: &Selection) {
        let rows = selected.count();
        self.rows += rows;
        match self.agg {
            AggSpec::Count => {}
            AggSpec::FilesDirs => {
                let files = selected.rows().filter(|&i| frame.is_file[i]).count() as u64;
                self.files += files;
                self.dirs += rows - files;
            }
            AggSpec::StripesSum => {
                self.stripes += selected
                    .rows()
                    .map(|i| frame.stripe_count[i] as u64)
                    .sum::<u64>();
            }
            AggSpec::GroupCount { by, .. } => match by {
                GroupBy::Uid => count_ids(&frame.uid, selected, &mut self.ids),
                GroupBy::Gid => count_ids(&frame.gid, selected, &mut self.ids),
                GroupBy::Ext => {
                    // Count per interned id (last slot: no extension),
                    // then merge the day into the totals by name.
                    let none = frame.extension_count();
                    let mut counts = vec![0u64; none + 1];
                    for i in selected.rows() {
                        counts[(frame.ext[i] as usize).min(none)] += 1;
                    }
                    for (id, &n) in counts.iter().enumerate().filter(|c| *c.1 > 0) {
                        let name =
                            frame.extension_str(if id < none { id as u32 } else { EXT_NONE });
                        *self
                            .names
                            .entry(name.unwrap_or("<none>").into())
                            .or_insert(0) += n;
                    }
                }
            },
        }
    }

    fn render(&self) -> String {
        match &self.agg {
            AggSpec::Count => format!("{{\"count\":{}}}", self.rows),
            AggSpec::FilesDirs => {
                format!("{{\"files\":{},\"dirs\":{}}}", self.files, self.dirs)
            }
            AggSpec::StripesSum => {
                format!("{{\"stripes\":{},\"rows\":{}}}", self.stripes, self.rows)
            }
            AggSpec::GroupCount { by, top } => {
                let mut pairs: Vec<(String, u64)> = match by {
                    GroupBy::Ext => self.names.iter().map(|(k, &v)| (k.clone(), v)).collect(),
                    _ => self.ids.iter().map(|(k, &v)| (k.to_string(), v)).collect(),
                };
                let distinct = pairs.len();
                // Count-descending, key-ascending *as strings* (uid "10"
                // sorts before "9"): a total order, so the rendered
                // bytes are deterministic.
                pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                pairs.truncate(*top);
                let mut out = String::from("{\"groups\":[");
                for (i, (key, count)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    crate::json::escape_into(&mut out, key);
                    out.push_str(&format!(",{count}]"));
                }
                out.push_str(&format!("],\"distinct\":{distinct}}}"));
                out
            }
        }
    }
}

/// Counts the selected rows of an id column into `groups`. Frames are
/// path-sorted and a directory's entries mostly share an owner, so ids
/// arrive in runs: one map update per run, not per row.
fn count_ids(column: &[u32], selected: &Selection, groups: &mut FxHashMap<u32, u64>) {
    let (mut id, mut run) = (0, 0u64);
    for i in selected.rows() {
        if column[i] != id {
            if run > 0 {
                *groups.entry(id).or_insert(0) += run;
            }
            (id, run) = (column[i], 0);
        }
        run += 1;
    }
    if run > 0 {
        *groups.entry(id).or_insert(0) += run;
    }
}
