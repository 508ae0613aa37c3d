//! Parallel multi-day frame loading with a checksum-keyed cache.
//!
//! The study's scans were only tractable because Spark loaded Parquet
//! partitions in parallel; [`FrameLoader`] is the shared-memory twin for
//! our store. It reads raw `colf` bytes, decodes them straight into
//! column views ([`spider_snapshot::FrameColumns`]) and builds
//! [`SnapshotFrame`]s via [`SnapshotFrame::from_columns`] — no
//! [`spider_snapshot::SnapshotRecord`] is materialized anywhere on this
//! path — with N days in flight at once under a bounded batch budget.
//!
//! Full decoded frames land in an LRU [`FrameCache`] keyed by
//! `(day, section digest of the file's bytes)`. Keying by content digest
//! rather than by day alone means the cache can never serve a stale
//! frame: a day that was quarantined and later healed (or re-written by a
//! fresh simulation) hashes differently, misses, and is re-decoded, while
//! byte-identical reloads hit without any explicit invalidation protocol.
//! Only full frames are cached — one entry per day serves every
//! predicate, filtered in place ([`crate::query::FramePred::select`]) —
//! and a caller that already holds a day's digest hits through
//! [`FrameLoader::frame_at`] without touching the file.
//!
//! Predicate pushdown is the **cold path**: [`FrameLoader::frames_pruned`]
//! tests each requested day against the predicate's day range *before
//! opening the file* (counted under `pushdown.days_skipped`), then decodes
//! survivors through [`FrameColumns::decode_pruned`], which consults the
//! colf v3 zone maps to skip whole zones without touching their bytes.
//! A pruned frame holds only its predicate's rows, so it goes to the
//! caller and never into the cache.
//!
//! Corruption composes with the integrity layer: decoding is lossy
//! ([`spider_snapshot::FrameColumns::decode_lossy`]), so a corrupt
//! non-spine column yields a frame with that column defaulted and the
//! lost sections are reported on [`LoadedDay`]. Spine-corrupt days fail
//! with the decode error. Every read goes through
//! [`SnapshotStore::decode_day`], the store's one read-decode-heal path,
//! so a transient short read is re-read once here exactly as it is for
//! `SnapshotStore::get`.

use crate::frame::SnapshotFrame;
use rustc_hash::FxHashMap;
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::store::StoreError;
use spider_snapshot::xxh::section_digest;
use spider_snapshot::{Pred, Snapshot, SnapshotStore};
use spider_stats::par;
use spider_telemetry as telemetry;
use std::sync::{Arc, Mutex};

/// Cache key: `(day, section digest of the colf bytes)`.
pub type FrameKey = (u32, u64);

/// Identifies which tenant's working set a cache entry belongs to.
/// Tenant `0` is the untenanted default every load charges unless the
/// calling thread holds a [`TenantAttribution`] guard.
pub type TenantId = u32;

/// The tenant untenanted loads are charged to.
pub const UNTENANTED: TenantId = 0;

thread_local! {
    static CURRENT_TENANT: std::cell::Cell<TenantId> =
        const { std::cell::Cell::new(UNTENANTED) };
}

/// RAII guard from [`FrameCache::attribute`]: while held, every cache
/// hit/miss/insert performed *on this thread* is charged to the given
/// tenant. Attribution is per-thread by design — a multi-tenant server
/// runs each query on one worker thread, so the whole load path of that
/// query (including the loader's internal inserts) lands on the right
/// tenant without threading a tenant id through every loader call.
/// Multi-day loads carry the caller's tenant (and trace id) onto the
/// pool threads that share the batch, so they charge the same tenant.
pub struct TenantAttribution {
    prev: TenantId,
}

impl Drop for TenantAttribution {
    fn drop(&mut self) {
        CURRENT_TENANT.with(|t| t.set(self.prev));
    }
}

/// Per-tenant cache accounting, returned by [`FrameCache::tenant_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Lookups served from the cache, charged to this tenant's threads.
    pub hits: u64,
    /// Lookups that missed, charged to this tenant's threads.
    pub misses: u64,
    /// Inserts performed by this tenant's threads.
    pub inserts: u64,
    /// Entries owned by this tenant that were evicted (by anyone).
    pub evictions: u64,
    /// Entries owned by this tenant currently resident.
    pub resident: usize,
}

struct Entry {
    frame: Arc<SnapshotFrame>,
    last_used: u64,
    tenant: TenantId,
}

#[derive(Default)]
struct CacheInner {
    capacity: usize,
    map: FxHashMap<FrameKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
    budgets: FxHashMap<TenantId, usize>,
    tenants: FxHashMap<TenantId, TenantCacheStats>,
    fairness_violations: u64,
}

impl CacheInner {
    fn budget(&self, tenant: TenantId) -> usize {
        self.budgets.get(&tenant).copied().unwrap_or(self.capacity)
    }

    fn resident(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |s| s.resident)
    }
}

/// A small LRU cache of decoded frames, keyed by [`FrameKey`] so entries
/// self-invalidate whenever a day's bytes change on disk.
///
/// Entries are tagged with the [`TenantId`] the inserting thread was
/// attributed to ([`FrameCache::attribute`]), and eviction is
/// **fairness-aware**: when the cache is full, the least-recently-used
/// entry of a tenant holding *more* frames than its budget
/// ([`FrameCache::set_tenant_budget`]) goes first; only when no tenant
/// is over budget does plain LRU apply, and even then a tenant's last
/// resident frame is spared while any co-tenant still holds several.
/// The pinned-fairness invariant — an eviction never drops a
/// within-budget tenant to zero residents while another tenant sits
/// over its budget — is audited at every eviction and surfaced via
/// [`FrameCache::fairness_violations`] (always zero by construction;
/// the counter is the runtime proof, in the same spirit as the raft
/// cluster's continuous safety audits). One tenant's cold 500-day sweep
/// can therefore never flush every other tenant's hot days.
pub struct FrameCache {
    inner: Mutex<CacheInner>,
    // Pre-resolved global-registry mirrors of the local counters, so the
    // telemetry report sees cache behaviour without polling every cache.
    tel_hits: telemetry::Counter,
    tel_misses: telemetry::Counter,
    tel_evictions: telemetry::Counter,
}

impl FrameCache {
    /// Creates a cache holding at most `capacity` frames. Capacity 0
    /// disables caching entirely (every lookup misses, nothing is kept).
    pub fn new(capacity: usize) -> FrameCache {
        let tel = telemetry::global();
        FrameCache {
            inner: Mutex::new(CacheInner {
                capacity,
                ..CacheInner::default()
            }),
            tel_hits: tel.counter("cache.hits"),
            tel_misses: tel.counter("cache.misses"),
            tel_evictions: tel.counter("cache.evictions"),
        }
    }

    /// Attributes this thread's cache traffic to `tenant` until the
    /// returned guard drops (guards nest; the previous attribution is
    /// restored). Thread-scoped, not cache-scoped: one guard covers
    /// every cache the thread touches.
    pub fn attribute(tenant: TenantId) -> TenantAttribution {
        let prev = CURRENT_TENANT.with(|t| t.replace(tenant));
        TenantAttribution { prev }
    }

    /// The tenant this thread's cache traffic is currently charged to.
    pub fn current_tenant() -> TenantId {
        CURRENT_TENANT.with(|t| t.get())
    }

    /// Caps `tenant`'s resident frames at `frames` for eviction
    /// purposes: beyond it, the tenant's own LRU entries are the first
    /// evicted when the cache is full. Tenants without an explicit
    /// budget default to the full capacity (i.e. unconstrained).
    pub fn set_tenant_budget(&self, tenant: TenantId, frames: usize) {
        let mut inner = self.inner.lock().expect("frame cache poisoned");
        inner.budgets.insert(tenant, frames);
    }

    /// Looks up a frame, refreshing its recency on a hit.
    pub fn get(&self, key: FrameKey) -> Option<Arc<SnapshotFrame>> {
        let tenant = Self::current_tenant();
        let mut inner = self.inner.lock().expect("frame cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let frame = Arc::clone(&entry.frame);
                inner.hits += 1;
                inner.tenants.entry(tenant).or_default().hits += 1;
                self.tel_hits.incr();
                Some(frame)
            }
            None => {
                inner.misses += 1;
                inner.tenants.entry(tenant).or_default().misses += 1;
                self.tel_misses.incr();
                None
            }
        }
    }

    /// Picks the eviction victim per the fairness policy: LRU among
    /// over-budget tenants' entries, else LRU among entries whose owner
    /// keeps at least one other frame (or has a zero budget), else
    /// plain LRU. Returns the key to evict.
    fn victim(inner: &CacheInner) -> Option<FrameKey> {
        let lru = |pred: &dyn Fn(TenantId) -> bool| -> Option<FrameKey> {
            inner
                .map
                .iter()
                .filter(|(_, e)| pred(e.tenant))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
        };
        lru(&|t| inner.resident(t) > inner.budget(t))
            .or_else(|| lru(&|t| inner.resident(t) >= 2 || inner.budget(t) == 0))
            .or_else(|| lru(&|_| true))
    }

    /// Inserts a frame, evicting per the fairness policy when the cache
    /// is full. The entry is owned by the inserting thread's attributed
    /// tenant. A no-op at capacity 0.
    pub fn insert(&self, key: FrameKey, frame: Arc<SnapshotFrame>) {
        let tenant = Self::current_tenant();
        let mut inner = self.inner.lock().expect("frame cache poisoned");
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            // O(len) scans; the cache holds at most a few hundred days,
            // so a heap would be more code than the scans are cost.
            if let Some(victim) = Self::victim(&inner) {
                let evicted = inner.map.remove(&victim).expect("victim exists");
                let owner_left = {
                    let stats = inner.tenants.entry(evicted.tenant).or_default();
                    stats.evictions += 1;
                    stats.resident -= 1;
                    stats.resident
                };
                // Pinned-fairness audit: dropping a within-budget tenant
                // to zero residents is only legal when no *other* tenant
                // sits over its budget (then the pressure is nobody's
                // fault). Unreachable by construction; counted, never
                // panicked, so production behaviour degrades gracefully.
                if owner_left == 0
                    && inner.budget(evicted.tenant) >= 1
                    && inner
                        .tenants
                        .iter()
                        .any(|(&t, s)| t != evicted.tenant && s.resident > inner.budget(t))
                {
                    inner.fairness_violations += 1;
                    telemetry::global().trigger(
                        "fairness_violation",
                        &format!(
                            "tenant {} evicted to zero residents within budget",
                            evicted.tenant
                        ),
                    );
                }
                inner.evictions += 1;
                self.tel_evictions.incr();
            }
        }
        inner.inserts += 1;
        inner.tenants.entry(tenant).or_default().inserts += 1;
        let old = inner.map.insert(
            key,
            Entry {
                frame,
                last_used: tick,
                tenant,
            },
        );
        match old {
            // Overwrite: the key changed owners; move the resident count.
            Some(prev) if prev.tenant != tenant => {
                inner.tenants.entry(prev.tenant).or_default().resident -= 1;
                inner.tenants.entry(tenant).or_default().resident += 1;
            }
            Some(_) => {}
            None => inner.tenants.entry(tenant).or_default().resident += 1,
        }
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("frame cache poisoned").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached frames.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("frame cache poisoned").capacity
    }

    /// Raises the capacity to `capacity` (never shrinks, so nothing is
    /// evicted here). Tenants without an explicit budget follow it.
    fn grow_to(&self, capacity: usize) {
        let mut inner = self.inner.lock().expect("frame cache poisoned");
        inner.capacity = inner.capacity.max(capacity);
    }

    /// `(hits, misses, evictions)` since creation or the last
    /// [`FrameCache::clear`].
    pub fn stats(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("frame cache poisoned");
        (inner.hits, inner.misses, inner.evictions)
    }

    /// Total inserts since creation or the last [`FrameCache::clear`].
    pub fn inserts(&self) -> u64 {
        self.inner.lock().expect("frame cache poisoned").inserts
    }

    /// Per-tenant accounting, tenant-ordered. Tenants appear once they
    /// have touched the cache (or had a budget set and then traffic).
    pub fn tenant_stats(&self) -> Vec<(TenantId, TenantCacheStats)> {
        let inner = self.inner.lock().expect("frame cache poisoned");
        let mut out: Vec<_> = inner.tenants.iter().map(|(&t, &s)| (t, s)).collect();
        out.sort_unstable_by_key(|&(t, _)| t);
        out
    }

    /// Times an eviction dropped a within-budget tenant to zero
    /// residents while another tenant held more than its budget.
    /// Zero by construction; audited continuously so a policy
    /// regression is a counter, not a silent unfairness.
    pub fn fairness_violations(&self) -> u64 {
        self.inner
            .lock()
            .expect("frame cache poisoned")
            .fairness_violations
    }

    /// Records a fairness violation exactly the way the in-eviction
    /// audit does: bump the counter, fire the `fairness_violation`
    /// trigger. The real audit site is unreachable by construction, so
    /// cross-crate tests exercising the flight-recorder dump path call
    /// this instead of contriving an impossible eviction.
    #[doc(hidden)]
    pub fn record_fairness_violation(&self, detail: &str) {
        self.inner
            .lock()
            .expect("frame cache poisoned")
            .fairness_violations += 1;
        telemetry::global().trigger("fairness_violation", detail);
    }

    /// Drops every entry and resets all counters (budgets are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("frame cache poisoned");
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
        inner.inserts = 0;
        inner.tenants.clear();
        inner.fairness_violations = 0;
    }
}

/// One day loaded with rows *and* frame from a single parse.
pub struct LoadedDay {
    /// Row-materialized snapshot (needed for diff-based analyses).
    pub snapshot: Snapshot,
    /// The columnar frame (shared with the cache).
    pub frame: Arc<SnapshotFrame>,
    /// Sections the lossy decode could not recover (empty = clean).
    pub lost_sections: Vec<&'static str>,
    /// True when the frame came out of the cache rather than a build.
    pub from_cache: bool,
}

/// Parallel frame loader over a [`SnapshotStore`] directory.
///
/// Holds its own lenient store handle onto the same directory, sharing
/// the parent's I/O seam and retry policy so fault injection and retry
/// accounting stay under one regime (the construction performs no
/// reads). All loading goes through lossy decoding, so degraded days
/// are salvaged rather than refused.
pub struct FrameLoader {
    store: SnapshotStore,
    cache: Arc<FrameCache>,
    /// True until [`FrameLoader::with_cache_capacity`] pins a capacity:
    /// the default tracks the day count across [`FrameLoader::rescan`].
    cache_follows_days: bool,
    batch: usize,
}

impl FrameLoader {
    /// Creates a loader sharing `store`'s directory, I/O seam, and retry
    /// policy. Defaults: cache capacity = number of stored days (every
    /// repeated pass over the store hits; [`FrameLoader::rescan`] keeps
    /// it so as days are appended), batch = [`par::threads`].
    pub fn new(store: &SnapshotStore) -> Result<FrameLoader, StoreError> {
        let handle = SnapshotStore::open_lenient(store.dir(), store.io(), store.retry_policy())?;
        let cache = Arc::new(FrameCache::new(handle.len()));
        Ok(FrameLoader {
            store: handle,
            cache,
            cache_follows_days: true,
            batch: par::threads(),
        })
    }

    /// Replaces the cache with one of the given, fixed capacity (0
    /// disables).
    pub fn with_cache_capacity(mut self, capacity: usize) -> FrameLoader {
        self.cache = Arc::new(FrameCache::new(capacity));
        self.cache_follows_days = false;
        self
    }

    /// Sets how many days may decode concurrently — the bounded-memory
    /// morsel budget for multi-day loads (at most `batch` snapshots'
    /// worth of decoded columns live at once). Clamped to ≥ 1.
    pub fn with_batch(mut self, batch: usize) -> FrameLoader {
        self.batch = batch.max(1);
        self
    }

    /// Days indexed by the underlying store handle, ascending.
    pub fn days(&self) -> &[u32] {
        self.store.days()
    }

    /// The frame cache (hit/miss stats, explicit clearing).
    pub fn cache(&self) -> &FrameCache {
        &self.cache
    }

    /// A shared handle onto the frame cache, so long-lived services
    /// (e.g. `spider-serve`) can inspect cache stats without borrowing
    /// the loader across await points or lock scopes.
    pub fn cache_handle(&self) -> Arc<FrameCache> {
        Arc::clone(&self.cache)
    }

    /// Re-lists the store directory, picking up days appended (or
    /// removed) since the loader was opened. Returns true when the day
    /// set changed. The frame cache needs no invalidation — keys carry
    /// the bytes' digest, so changed days simply miss — but a default
    /// capacity grows with the day count: sweeping N+1 days through an
    /// N-frame LRU evicts every frame just before its next use.
    pub fn rescan(&mut self) -> Result<bool, StoreError> {
        let changed = self.store.rescan()?;
        if self.cache_follows_days {
            self.cache.grow_to(self.store.len());
        }
        Ok(changed)
    }

    /// Decodes `day`'s raw bytes into full-fidelity column views —
    /// paths included, strict (a corrupt section is an error, never a
    /// silently defaulted column). This is the substrate incremental
    /// consumers fold deltas against; unlike frames, columns are not
    /// cached (the arena borrow makes them unshareable), so callers
    /// should hold on to the result across delta applications.
    pub fn columns(&self, day: u32) -> Result<Option<FrameColumns>, StoreError> {
        self.store
            .decode_day(day, |bytes| timed_decode(|| FrameColumns::decode(bytes)))
    }

    /// Digest of `day`'s raw bytes as currently on disk — the chain
    /// anchor incremental state records alongside its held day.
    pub fn day_digest(&self, day: u32) -> Result<Option<u64>, StoreError> {
        self.store.day_digest(day)
    }

    /// The delta sidecar landing on `day`, **digest-chain validated**:
    /// the sidecar's recorded old/new digests must match the bytes
    /// currently on disk for both endpoint days. A day that was healed,
    /// re-simulated, quarantined, or substituted since the delta was
    /// built hashes differently, the chain breaks, and the delta is
    /// withheld (`Ok(None)`, counted under `loader.delta_stale`) — the
    /// caller must fall back to a full fold, never apply a delta that
    /// no longer describes the bytes it claims to bridge.
    pub fn delta_for(&self, day: u32) -> Result<Option<spider_snapshot::FrameDelta>, StoreError> {
        let tel = telemetry::global();
        let Some(delta) = self.store.read_delta(day)? else {
            return Ok(None);
        };
        let new_ok = self.store.day_digest(day)? == Some(delta.new_digest);
        let old_ok = self.store.day_digest(delta.old_day)? == Some(delta.old_digest);
        if !new_ok || !old_ok {
            tel.incr("loader.delta_stale", 1);
            return Ok(None);
        }
        tel.incr("loader.delta_hits", 1);
        Ok(Some(delta))
    }

    /// Loads the full frame for `day`: raw bytes → cache lookup keyed by
    /// the bytes' digest → on a miss, column views → frame → cache.
    /// Lossy: corrupt non-spine sections are defaulted (use
    /// [`FrameLoader::load_with_rows`] to see which).
    pub fn frame(&self, day: u32) -> Result<Option<Arc<SnapshotFrame>>, StoreError> {
        self.load(day, None)
    }

    /// [`FrameLoader::frame`] for a caller that resolved `day`'s digest
    /// earlier ([`FrameLoader::day_digest`]): a hit is one cache lookup
    /// and touches no file. A miss — first touch, eviction, or bytes that
    /// changed since — reads the file and answers from what is on disk
    /// now, so a stale digest is never wrong, only slower.
    pub fn frame_at(&self, day: u32, at: u64) -> Result<Option<Arc<SnapshotFrame>>, StoreError> {
        self.load(day, Some(at))
    }

    fn load(
        &self,
        day: u32,
        pinned: Option<u64>,
    ) -> Result<Option<Arc<SnapshotFrame>>, StoreError> {
        if let Some(frame) = pinned.and_then(|digest| self.cache.get((day, digest))) {
            return Ok(Some(frame));
        }
        self.store.decode_day(day, |bytes| {
            let key = (day, section_digest(bytes));
            // The pinned key has just missed; only another one can hit.
            if pinned != Some(key.1) {
                if let Some(frame) = self.cache.get(key) {
                    return Ok(frame);
                }
            }
            let frame = timed_decode(|| {
                let cols = FrameColumns::decode_lossy(bytes)?;
                Ok::<_, StoreError>(Arc::new(SnapshotFrame::from_columns(&cols)))
            })?;
            self.cache.insert(key, Arc::clone(&frame));
            Ok::<_, StoreError>(frame)
        })
    }

    /// Loads the frame for `day` with `pred` pushed down into the
    /// decode: v3 zone maps prune whole zones, the predicate evaluates
    /// on just the columns it references, and only surviving rows are
    /// materialized. The result is a **partial frame** — exactly the
    /// rows of [`FrameLoader::frame`]'s result that match `pred` — so
    /// this path neither reads nor fills the cache.
    ///
    /// Returns `Ok(None)` when the day is not in the store *or* when
    /// `pred`'s day range excludes `day` — in the latter case the file
    /// is never opened (counted under `pushdown.days_skipped`).
    pub fn frame_pruned(
        &self,
        day: u32,
        pred: &Pred,
    ) -> Result<Option<Arc<SnapshotFrame>>, StoreError> {
        if !pred.matches_day(day) {
            telemetry::global().incr("pushdown.days_skipped", 1);
            return Ok(None);
        }
        self.store.decode_day(day, |bytes| {
            timed_decode(|| {
                let cols = FrameColumns::decode_pruned(bytes, pred)?;
                Ok::<_, StoreError>(Arc::new(SnapshotFrame::from_columns(&cols)))
            })
        })
    }

    /// Runs `load` over `days` in batches of [`FrameLoader::with_batch`]
    /// size: within a batch, reads and decodes run on the fork-join pool
    /// ([`par::map`]), each under the caller's tenant attribution and
    /// trace id; across batches the loader is sequential, bounding peak
    /// memory at `batch` decoded days regardless of how many are
    /// requested. Results keep the order of `days`, whichever thread
    /// finished first. A day that is not in the store is an error. With
    /// `fail_fast`, no batch is started after one that held an error.
    fn fan_out(
        &self,
        days: &[u32],
        fail_fast: bool,
        load: impl Fn(u32) -> Result<Option<Arc<SnapshotFrame>>, StoreError> + Sync,
    ) -> Vec<(u32, Result<Arc<SnapshotFrame>, StoreError>)> {
        let tel = telemetry::global();
        let (tenant, trace) = (FrameCache::current_tenant(), telemetry::current_trace());
        let mut out = Vec::with_capacity(days.len());
        for chunk in days.chunks(self.batch) {
            tel.record("loader.batch_occupancy", chunk.len() as u64);
            let loaded = par::map(chunk, |&day| {
                let _tenant = FrameCache::attribute(tenant);
                let _trace = telemetry::TraceScope::enter(trace);
                let result = load(day).and_then(|opt| {
                    opt.ok_or_else(|| {
                        StoreError::Io(std::io::Error::other(format!(
                            "day {day} is not in the store"
                        )))
                    })
                });
                (day, result)
            });
            let failed = loaded.iter().any(|(_, r)| r.is_err());
            out.extend(loaded);
            if fail_fast && failed {
                break;
            }
        }
        out
    }

    /// Loads frames for `days` in parallel, failing fast on the first
    /// error (a requested day that is not in the store is an error —
    /// callers pass days they obtained from [`FrameLoader::days`]). The
    /// error returned is that of the first failing day in `days` order,
    /// whichever load failed first in time.
    pub fn frames(&self, days: &[u32]) -> Result<Vec<Arc<SnapshotFrame>>, StoreError> {
        self.fan_out(days, true, |day| self.frame(day))
            .into_iter()
            .map(|(_, frame)| frame)
            .collect()
    }

    /// Loads pruned frames for `days` in parallel under the same batch
    /// budget as [`FrameLoader::frames`], with `pred` pushed down the
    /// whole way: days outside the predicate's day range are dropped
    /// without opening their files (`pushdown.days_skipped`), and the
    /// rest decode through the zone-map-pruning path, uncached like
    /// [`FrameLoader::frame_pruned`]. The returned
    /// frames are the surviving days in input order, each holding only
    /// the rows matching `pred`. A requested day that is missing from
    /// the store is an error, and errors resolve as in
    /// [`FrameLoader::frames`].
    pub fn frames_pruned(
        &self,
        days: &[u32],
        pred: &Pred,
    ) -> Result<Vec<Arc<SnapshotFrame>>, StoreError> {
        let tel = telemetry::global();
        let candidates: Vec<u32> = days
            .iter()
            .copied()
            .filter(|&day| {
                let hit = pred.matches_day(day);
                if !hit {
                    tel.incr("pushdown.days_skipped", 1);
                }
                hit
            })
            .collect();
        self.fan_out(&candidates, true, |day| self.frame_pruned(day, pred))
            .into_iter()
            .map(|(_, frame)| frame)
            .collect()
    }

    /// Like [`FrameLoader::frames`], but per-day tolerant: every day
    /// yields its own `Result`, so one unreadable day does not abort the
    /// sweep. Order matches the input.
    pub fn try_frames(&self, days: &[u32]) -> Vec<(u32, Result<Arc<SnapshotFrame>, StoreError>)> {
        self.fan_out(days, false, |day| self.frame(day))
    }

    /// Loads rows *and* frame for `day` from one parse — the streaming
    /// pipeline needs row snapshots for diffs, but there is no reason to
    /// decode the file twice (or to re-derive the frame when its bytes
    /// are already cached).
    pub fn load_with_rows(&self, day: u32) -> Result<Option<LoadedDay>, StoreError> {
        self.store
            .decode_day(day, |bytes| self.loaded_from_bytes(day, bytes))
    }

    fn loaded_from_bytes(&self, day: u32, bytes: &[u8]) -> Result<LoadedDay, StoreError> {
        let key = (day, section_digest(bytes));
        let cols = timed_decode(|| FrameColumns::decode_lossy_with_rows(bytes))?;
        let lost_sections = cols.lost_sections().to_vec();
        let (frame, from_cache) = match self.cache.get(key) {
            Some(frame) => (frame, true),
            None => {
                let frame = Arc::new(SnapshotFrame::from_columns(&cols));
                self.cache.insert(key, Arc::clone(&frame));
                (frame, false)
            }
        };
        let snapshot = cols.into_snapshot()?;
        Ok(LoadedDay {
            snapshot,
            frame,
            lost_sections,
            from_cache,
        })
    }
}

/// Runs one decode, recording its latency under `loader.decode_ns` when
/// it succeeds.
fn timed_decode<T, E>(decode: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let tel = telemetry::global();
    let sw = tel.stopwatch();
    let decoded = decode()?;
    if let Some(ns) = tel.elapsed_ns(sw) {
        tel.record("loader.decode_ns", ns);
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_snapshot::SnapshotRecord;

    fn snap(day: u32, n: usize) -> Snapshot {
        let records = (0..n)
            .map(|i| SnapshotRecord {
                path: format!("/lustre/atlas1/proj{:02}/f{i:05}.dat", i % 7),
                atime: day as u64 * 86_400 + i as u64,
                ctime: 10,
                mtime: 20 + i as u64,
                uid: 100 + (i % 3) as u32,
                gid: 200,
                mode: if i % 11 == 0 { 0o040770 } else { 0o100664 },
                ino: i as u64 + 1,
                osts: (0..(i % 4)).map(|k| (k as u16, k as u32)).collect(),
            })
            .collect();
        Snapshot::new(day, day as u64 * 86_400, records)
    }

    fn store_with_days(tag: &str, days: &[u32]) -> (std::path::PathBuf, SnapshotStore) {
        let dir = std::env::temp_dir().join(format!("spider-loader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir).unwrap();
        for &day in days {
            store.put(&snap(day, 120 + day as usize)).unwrap();
        }
        (dir, store)
    }

    #[test]
    fn fast_path_equals_row_path() {
        let (dir, store) = store_with_days("equiv", &[0, 7, 14]);
        let loader = FrameLoader::new(&store).unwrap();
        for &day in store.days() {
            let fast = loader.frame(day).unwrap().unwrap();
            let slow = SnapshotFrame::build(&store.get(day).unwrap().unwrap());
            assert_eq!(*fast, slow, "day {day}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_frames_match_sequential_and_preserve_order() {
        let (dir, store) = store_with_days("par", &[0, 7, 14, 21, 28]);
        let loader = FrameLoader::new(&store).unwrap().with_batch(2);
        let days = loader.days().to_vec();
        let frames = loader.frames(&days).unwrap();
        assert_eq!(frames.len(), days.len());
        for (frame, &day) in frames.iter().zip(&days) {
            assert_eq!(frame.day(), day);
            let slow = SnapshotFrame::build(&store.get(day).unwrap().unwrap());
            assert_eq!(**frame, slow);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_on_reload_and_stats_add_up() {
        let (dir, store) = store_with_days("cache", &[0, 7]);
        let loader = FrameLoader::new(&store).unwrap();
        let days = loader.days().to_vec();
        let first = loader.frames(&days).unwrap();
        let again = loader.frames(&days).unwrap();
        let (hits, misses, evictions) = loader.cache().stats();
        assert_eq!(misses, 2, "one miss per day on the cold pass");
        assert_eq!(hits, 2, "one hit per day on the warm pass");
        assert_eq!(evictions, 0, "capacity covers every day");
        // Hits return the very same allocation.
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewritten_day_invalidates_by_checksum() {
        let (dir, store) = store_with_days("rekey", &[0]);
        let loader = FrameLoader::new(&store).unwrap();
        let before = loader.frame(0).unwrap().unwrap();
        // Overwrite day 0 with different content, bypassing the store
        // API (simulates an external heal/re-sync of the file).
        let replacement = snap(0, 13);
        std::fs::write(
            dir.join("snap-00000.colf"),
            spider_snapshot::colf::encode(&replacement),
        )
        .unwrap();
        let after = loader.frame(0).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "stale frame served");
        assert_eq!(after.len(), 13);
        let (hits, misses, _) = loader.cache().stats();
        assert_eq!((hits, misses), (0, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_capacity_cache_disables_caching() {
        let (dir, store) = store_with_days("nocache", &[0]);
        let loader = FrameLoader::new(&store).unwrap().with_cache_capacity(0);
        let a = loader.frame(0).unwrap().unwrap();
        let b = loader.frame(0).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(loader.cache().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = FrameCache::new(2);
        let f = Arc::new(SnapshotFrame::build(&snap(0, 1)));
        cache.insert((0, 0), Arc::clone(&f));
        cache.insert((1, 0), Arc::clone(&f));
        assert!(cache.get((0, 0)).is_some()); // 0 is now most recent
        cache.insert((2, 0), Arc::clone(&f)); // evicts 1
        assert!(cache.get((1, 0)).is_none());
        assert!(cache.get((0, 0)).is_some());
        assert!(cache.get((2, 0)).is_some());
        assert_eq!(cache.len(), 2);
        let (hits, misses, evictions) = cache.stats();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
        cache.clear();
        assert_eq!(cache.stats(), (0, 0, 0));
    }

    #[test]
    fn fair_eviction_prefers_over_budget_tenants() {
        let cache = FrameCache::new(3);
        let f = Arc::new(SnapshotFrame::build(&snap(0, 1)));
        cache.set_tenant_budget(1, 1);
        cache.set_tenant_budget(2, 2);
        {
            let _t = FrameCache::attribute(1);
            cache.insert((10, 0), Arc::clone(&f));
            cache.insert((11, 0), Arc::clone(&f)); // tenant 1 now over budget
        }
        {
            let _t = FrameCache::attribute(2);
            cache.insert((20, 0), Arc::clone(&f));
            // Full. This insert must evict tenant 1's LRU entry (10),
            // not tenant 2's own — tenant 1 is the one over budget.
            cache.insert((21, 0), Arc::clone(&f));
        }
        assert!(cache.get((10, 0)).is_none(), "over-budget LRU evicted");
        assert!(cache.get((11, 0)).is_some());
        assert!(cache.get((20, 0)).is_some());
        assert!(cache.get((21, 0)).is_some());
        assert_eq!(cache.fairness_violations(), 0);
        let stats: FxHashMap<_, _> = cache.tenant_stats().into_iter().collect();
        assert_eq!(stats[&1].resident, 1);
        assert_eq!(stats[&1].evictions, 1);
        assert_eq!(stats[&2].resident, 2);
    }

    #[test]
    fn last_resident_frame_is_pinned_while_another_tenant_hogs() {
        // Tenant 2 holds exactly its budget (1 frame). Tenant 1 streams
        // many frames through a budget of 2: every eviction must come
        // out of tenant 1's own set, never tenant 2's last frame.
        let cache = FrameCache::new(3);
        let f = Arc::new(SnapshotFrame::build(&snap(0, 1)));
        cache.set_tenant_budget(1, 2);
        cache.set_tenant_budget(2, 1);
        {
            let _t = FrameCache::attribute(2);
            cache.insert((200, 0), Arc::clone(&f));
        }
        {
            let _t = FrameCache::attribute(1);
            for day in 0..50 {
                cache.insert((day, 0), Arc::clone(&f));
            }
        }
        {
            let _t = FrameCache::attribute(2);
            assert!(
                cache.get((200, 0)).is_some(),
                "tenant 2's hot frame must survive tenant 1's cold sweep"
            );
        }
        assert_eq!(cache.fairness_violations(), 0);
        let stats: FxHashMap<_, _> = cache.tenant_stats().into_iter().collect();
        assert_eq!(stats[&2].evictions, 0);
        assert_eq!(stats[&2].resident, 1);
        assert_eq!(stats[&1].resident, 2);
    }

    #[test]
    fn attribution_nests_and_restores() {
        assert_eq!(FrameCache::current_tenant(), UNTENANTED);
        {
            let _a = FrameCache::attribute(3);
            assert_eq!(FrameCache::current_tenant(), 3);
            {
                let _b = FrameCache::attribute(4);
                assert_eq!(FrameCache::current_tenant(), 4);
            }
            assert_eq!(FrameCache::current_tenant(), 3);
        }
        assert_eq!(FrameCache::current_tenant(), UNTENANTED);
    }

    #[test]
    fn degraded_day_is_salvaged_with_lost_sections() {
        use spider_snapshot::colf::section_table;
        let (dir, store) = store_with_days("degraded", &[0]);
        // Corrupt the uid section on disk.
        let path = dir.join("snap-00000.colf");
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = section_table(&bytes).unwrap();
        let uid = spans.iter().find(|s| s.name == "uid").unwrap();
        bytes[uid.offset + uid.len / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let loader = FrameLoader::new(&store).unwrap();
        let loaded = loader.load_with_rows(0).unwrap().unwrap();
        assert_eq!(loaded.lost_sections, ["uid"]);
        assert!(loaded.frame.uid.iter().all(|&u| u == 0));
        // The frame agrees with one built from the salvaged rows.
        let lossy = store.get_lossy(0).unwrap().unwrap();
        assert_eq!(*loaded.frame, SnapshotFrame::build(&lossy.snapshot));
        assert_eq!(loaded.snapshot, lossy.snapshot);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_frames_isolates_a_bad_day() {
        use spider_snapshot::colf::section_table;
        let (dir, store) = store_with_days("tolerant", &[0, 7, 14]);
        // Destroy day 7's path spine — unrecoverable even lossily.
        let path = dir.join("snap-00007.colf");
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = section_table(&bytes).unwrap();
        let paths = spans.iter().find(|s| s.name == "paths").unwrap();
        bytes[paths.offset + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let loader = FrameLoader::new(&store).unwrap();
        let results = loader.try_frames(&[0, 7, 14]);
        assert_eq!(results.len(), 3);
        assert!(results[0].1.is_ok());
        assert!(results[1].1.is_err(), "day 7 must fail alone");
        assert!(results[2].1.is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fanned_out_loads_charge_the_callers_tenant_and_trace() {
        if par::threads() < 2 {
            eprintln!("skipped: one core, so the pool has no worker");
            return;
        }
        let days = [0u32, 7, 14, 21, 28, 35];
        let (dir, store) = store_with_days("tenant-fan", &days);
        let loader = FrameLoader::new(&store).unwrap().with_batch(days.len());
        // Retry until the batch really spread over two threads.
        for _ in 0..200 {
            loader.cache().clear();
            let seen = Mutex::new(Vec::new());
            let loaded = {
                let _tenant = FrameCache::attribute(5);
                let _trace = telemetry::TraceScope::enter(77);
                loader.fan_out(&days, true, |day| {
                    let on = std::thread::current().id();
                    seen.lock().unwrap().push((on, telemetry::current_trace()));
                    loader.frame(day)
                })
            };
            let got: Vec<u32> = loaded.iter().map(|(day, _)| *day).collect();
            assert_eq!(got, days, "results keep request order");
            assert!(loaded
                .iter()
                .all(|(day, r)| r.as_ref().unwrap().day() == *day));
            let charged = TenantCacheStats {
                misses: days.len() as u64,
                inserts: days.len() as u64,
                resident: days.len(),
                ..TenantCacheStats::default()
            };
            assert_eq!(loader.cache().tenant_stats(), [(5, charged)]);
            let seen = seen.into_inner().unwrap();
            assert!(seen.iter().all(|&(_, trace)| trace == 77), "{seen:?}");
            let mut threads: Vec<String> = seen.iter().map(|(on, _)| format!("{on:?}")).collect();
            threads.sort();
            threads.dedup();
            if threads.len() >= 2 {
                std::fs::remove_dir_all(&dir).unwrap();
                return;
            }
        }
        panic!("200 batches never loaded a day off the calling thread");
    }

    #[test]
    fn parallel_batch_errors_resolve_in_request_order() {
        use spider_snapshot::colf::section_table;
        let (dir, store) = store_with_days("batch-errors", &[0, 7, 14, 21]);
        // Two unrecoverable days with different errors: day 0 loses its
        // path spine, day 7 its magic.
        let path = dir.join("snap-00000.colf");
        let mut bytes = std::fs::read(&path).unwrap();
        let spans = section_table(&bytes).unwrap();
        let paths = spans.iter().find(|s| s.name == "paths").unwrap();
        bytes[paths.offset + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let path = dir.join("snap-00007.colf");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let probe = FrameLoader::new(&store).unwrap();
        let first = probe.frame(0).unwrap_err().to_string();
        let second = probe.frame(7).unwrap_err().to_string();
        assert_ne!(first, second, "the two failures must be told apart");
        let pred = Pred::ext("dat");
        let pruned_first = [0u32, 7]
            .iter()
            .find_map(|&day| probe.frame_pruned(day, &pred).err())
            .unwrap()
            .to_string();
        for rep in 0..50 {
            let loader = FrameLoader::new(&store).unwrap().with_batch(2);
            let err = loader.frames(&[0, 7, 14, 21]).unwrap_err();
            assert_eq!(err.to_string(), first, "rep {rep}");
            // Fail-fast: the batch after the failed one never started.
            assert_eq!(loader.cache().inserts(), 0, "rep {rep}");
            let err = loader.frames_pruned(&[0, 7, 14], &pred).unwrap_err();
            assert_eq!(err.to_string(), pruned_first, "rep {rep}");

            let results = loader.try_frames(&[0, 7, 14, 21]);
            let order: Vec<u32> = results.iter().map(|(day, _)| *day).collect();
            assert_eq!(order, [0, 7, 14, 21], "rep {rep}");
            let errors: Vec<String> = results[..2]
                .iter()
                .map(|(_, r)| r.as_ref().err().unwrap().to_string())
                .collect();
            assert_eq!(errors, [first.clone(), second.clone()], "rep {rep}");
            assert_eq!(results[2].1.as_ref().unwrap().day(), 14);
            assert_eq!(results[3].1.as_ref().unwrap().day(), 21);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_frames_equal_filtered_full_frames() {
        use crate::query::{FramePred, Scan};
        let (dir, store) = store_with_days("pruned", &[0, 7, 14]);
        let loader = FrameLoader::new(&store).unwrap();
        let preds = [
            Pred::uid(100..=101),
            Pred::and(vec![Pred::day(7..), Pred::stripes(1..)]),
            Pred::ext("dat"),
            Pred::ext_none(),
        ];
        for pred in &preds {
            let pruned = loader.frames_pruned(&[0, 7, 14], pred).unwrap();
            let mut at = 0;
            for &day in &[0u32, 7, 14] {
                if !pred.matches_day(day) {
                    continue;
                }
                let full = loader.frame(day).unwrap().unwrap();
                let compiled = FramePred::compile(pred, &full);
                let expected = Scan::over(&full).filter_pred(pred).count();
                assert_eq!(pruned[at].len() as u64, expected, "{pred:?} day {day}");
                // Row-for-row: the pruned frame is the full frame's
                // matching subsequence.
                let survivors: Vec<usize> = (0..full.len())
                    .filter(|&i| compiled.test(&full, i))
                    .collect();
                for (j, &i) in survivors.iter().enumerate() {
                    assert_eq!(pruned[at].uid[j], full.uid[i]);
                    assert_eq!(pruned[at].mtime[j], full.mtime[i]);
                    assert_eq!(pruned[at].depth[j], full.depth[i]);
                    assert_eq!(pruned[at].is_file[j], full.is_file[i]);
                }
                at += 1;
            }
            assert_eq!(at, pruned.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn day_range_skips_without_opening_files() {
        let (dir, store) = store_with_days("dayskip", &[0, 7, 14]);
        let loader = FrameLoader::new(&store).unwrap();
        let pred = Pred::day(7..=7);
        let frames = loader.frames_pruned(&[0, 7, 14], &pred).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].day(), 7);
        assert!(loader.frame_pruned(0, &pred).unwrap().is_none());
        // The pruned path is the non-caching one: day 7's partial frame
        // was neither looked up nor kept.
        assert_eq!(loader.cache().stats(), (0, 0, 0));
        assert!(loader.cache().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frame_at_hits_without_the_file_and_survives_a_stale_digest() {
        let (dir, store) = store_with_days("pinned", &[0]);
        let loader = FrameLoader::new(&store).unwrap();
        let digest = loader.day_digest(0).unwrap().unwrap();
        let first = loader.frame_at(0, digest).unwrap().unwrap();
        assert_eq!(loader.cache().stats(), (0, 1, 0), "first touch: one miss");
        // Resident: the hit path does not need the file at all.
        let path = dir.join("snap-00000.colf");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &loader.frame_at(0, digest).unwrap().unwrap()
        ));
        // A digest that no longer describes the bytes on disk answers
        // from the bytes on disk.
        std::fs::write(&path, &bytes).unwrap();
        let stale = loader.frame_at(0, digest ^ 1).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &stale));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_capacity_follows_the_day_count_across_rescan() {
        let (dir, mut store) = store_with_days("grow", &[0, 7]);
        let mut loader = FrameLoader::new(&store).unwrap();
        assert_eq!(loader.cache().capacity(), 2);
        store.put(&snap(14, 50)).unwrap();
        assert!(loader.rescan().unwrap());
        assert_eq!(loader.cache().capacity(), 3);
        let days = loader.days().to_vec();
        loader.frames(&days).unwrap();
        loader.frames(&days).unwrap();
        assert_eq!(
            loader.cache().stats(),
            (3, 3, 0),
            "second whole-store pass must hit every day"
        );
        // An explicit capacity stays where it was put.
        let mut pinned = FrameLoader::new(&store).unwrap().with_cache_capacity(2);
        store.put(&snap(21, 50)).unwrap();
        assert!(pinned.rescan().unwrap());
        assert_eq!(pinned.cache().capacity(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loader_shares_the_fault_injected_io_seam() {
        use spider_snapshot::faultfs::{FaultFs, FaultKind};
        use spider_snapshot::io::{OsIo, StoreIo};
        use spider_snapshot::store::RetryPolicy;

        let dir = std::env::temp_dir().join(format!("spider-loader-seam-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(0, 30)).unwrap();
        }
        let ffs = Arc::new(FaultFs::new(OsIo, 23));
        let store = SnapshotStore::open_with_io(
            &dir,
            ffs.clone() as Arc<dyn StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        // Op 0 is the open-time peek; op 1 is the loader's first read.
        ffs.plan_read(1, FaultKind::TransientEio);
        let loader = FrameLoader::new(&store).unwrap();
        let frame = loader.frame(0).unwrap().unwrap();
        assert_eq!(frame.day(), 0);
        assert_eq!(
            ffs.injected().len(),
            1,
            "fault must fire through the shared seam"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
