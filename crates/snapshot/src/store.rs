//! On-disk snapshot collections.
//!
//! OLCF accumulates daily snapshots and the study samples one per week;
//! the aggregate (8.5 TB of text) cannot live in memory, so the analysis
//! streams snapshots one at a time. `SnapshotStore` mirrors that: each
//! snapshot is a `colf` file named `snap-<day>.colf` in a directory, and
//! iteration loads at most one (the diff-based analyses hold two).
//!
//! Operational archives also *rot* — the paper's team simply skipped
//! unusable dumps and sampled the nearest good day. The store owns that
//! policy end to end:
//!
//! * all I/O goes through an injectable [`StoreIo`] seam and transient
//!   failures are **retried with exponential backoff** ([`RetryPolicy`]);
//! * [`SnapshotStore::scrub`] verifies every snapshot, moving
//!   undecodable ones to a `quarantine/` subdirectory and reporting a
//!   [`StoreHealth`] with a **substitution plan**: each lost day mapped
//!   to the nearest healthy one, exactly the paper's sampling fallback;
//! * [`SnapshotStore::open`] cross-checks each file name's day against
//!   the day stored in the colf header, so a misnamed (or misrenamed)
//!   snapshot cannot silently masquerade as a different date.

use crate::colf;
use crate::columns::FrameColumns;
use crate::io::{OsIo, StoreIo};
use crate::snapshot::Snapshot;
use spider_telemetry as telemetry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the subdirectory holding quarantined snapshot files.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (after retries were exhausted).
    Io(io::Error),
    /// A stored snapshot failed to decode.
    Colf(colf::ColfError),
    /// A snapshot for the given day already exists.
    DuplicateDay(u32),
    /// A file's name claims one day but its header records another.
    DayMismatch {
        /// Day parsed from the `snap-<day>.colf` file name.
        file_day: u32,
        /// Day stored in the colf header.
        header_day: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Colf(e) => write!(f, "store decode error: {e}"),
            StoreError::DuplicateDay(d) => write!(f, "snapshot for day {d} already stored"),
            StoreError::DayMismatch {
                file_day,
                header_day,
            } => write!(
                f,
                "file named for day {file_day} but header records day {header_day}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<colf::ColfError> for StoreError {
    fn from(e: colf::ColfError) -> Self {
        StoreError::Colf(e)
    }
}

/// How the store retries transient I/O failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further retry, up to
    /// [`RetryPolicy::max_backoff`].
    pub backoff: Duration,
    /// Ceiling on any single backoff sleep, so a generously configured
    /// attempt count cannot grow the doubling delay without bound.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// Default attempt count with no sleeping — what tests want.
    pub fn immediate() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

/// The operation kinds the store distinguishes in its retry/latency
/// telemetry. Each maps to static counter/histogram names so recording
/// needs no allocation.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    /// Whole-file and prefix reads.
    Read,
    /// Snapshot writes (tmp write + rename).
    Write,
    /// Metadata lookups (file sizes).
    Meta,
}

impl StoreOp {
    fn attempts_counter(self) -> &'static str {
        match self {
            StoreOp::Read => "store.read.attempts",
            StoreOp::Write => "store.write.attempts",
            StoreOp::Meta => "store.meta.attempts",
        }
    }

    fn retries_counter(self) -> &'static str {
        match self {
            StoreOp::Read => "store.read.retries",
            StoreOp::Write => "store.write.retries",
            StoreOp::Meta => "store.meta.retries",
        }
    }

    fn latency_histogram(self) -> &'static str {
        match self {
            StoreOp::Read => "store.read_ns",
            StoreOp::Write => "store.write_ns",
            StoreOp::Meta => "store.meta_ns",
        }
    }
}

/// A snapshot that decoded only partially: some checksummed sections
/// were lost and replaced with defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedDay {
    /// The snapshot's day.
    pub day: u32,
    /// Sections that failed their checksum and were dropped.
    pub lost_sections: Vec<&'static str>,
}

/// A snapshot that could not be decoded at all and was moved out of the
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedDay {
    /// The day the file claimed to hold.
    pub day: u32,
    /// Why it was quarantined.
    pub reason: String,
}

/// The nearest-healthy-day stand-in for a quarantined snapshot — the
/// paper's own fallback when a weekly dump was unusable (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Substitution {
    /// The day that was lost.
    pub day: u32,
    /// The nearest remaining healthy day (ties break earlier).
    pub substitute: u32,
}

/// A quarantined day that was repaired with the *genuine* bytes
/// re-fetched from a replication peer — a true heal, unlike a
/// [`Substitution`], which stands a neighbor day in for the lost one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerHeal {
    /// The day that was lost and then restored.
    pub day: u32,
    /// Where the bytes came from (e.g. `"node-2"`).
    pub source: String,
}

/// Result of a [`SnapshotStore::scrub`]: the store's verified condition
/// plus the degradation plan downstream consumers should follow.
#[derive(Debug, Clone, Default)]
pub struct StoreHealth {
    /// Days that decoded bit-perfectly.
    pub healthy_days: Vec<u32>,
    /// Days that decoded with lost sections (kept in the store).
    pub degraded: Vec<DegradedDay>,
    /// Days whose files were quarantined.
    pub quarantined: Vec<QuarantinedDay>,
    /// Replacement day for each quarantined day, when any healthy or
    /// degraded day remains.
    pub substitutions: Vec<Substitution>,
    /// Quarantined days later restored with the real bytes from a
    /// replication peer (see [`StoreHealth::record_peer_heal`]). A
    /// healed day no longer appears in [`StoreHealth::substitutions`].
    pub peer_heals: Vec<PeerHeal>,
    /// Transient I/O retries the store performed while scrubbing (and
    /// before it, since open).
    pub transient_retries: u64,
}

impl StoreHealth {
    /// True when every snapshot decoded bit-perfectly.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty() && self.quarantined.is_empty()
    }

    /// The substitute day for `day`, if it was quarantined and one exists.
    pub fn substitute_for(&self, day: u32) -> Option<u32> {
        self.substitutions
            .iter()
            .find(|s| s.day == day)
            .map(|s| s.substitute)
    }

    /// The peer that healed `day`, if it was re-fetched rather than
    /// substituted.
    pub fn peer_heal_source(&self, day: u32) -> Option<&str> {
        self.peer_heals
            .iter()
            .find(|h| h.day == day)
            .map(|h| h.source.as_str())
    }

    /// Records that `day` was restored with genuine bytes fetched from
    /// `source`, upgrading any neighbor-day substitution for it: the day
    /// leaves the substitution plan (consumers must read the real data,
    /// not the stand-in) but stays listed under `quarantined` as the
    /// record of what happened.
    pub fn record_peer_heal(&mut self, day: u32, source: impl Into<String>) {
        self.substitutions.retain(|s| s.day != day);
        self.peer_heals.push(PeerHeal {
            day,
            source: source.into(),
        });
    }
}

/// A directory of `colf` snapshots, indexed by simulation day.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    days: Vec<u32>,
    io: Arc<dyn StoreIo>,
    retry: RetryPolicy,
    retries: AtomicU64,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store at `dir` over the real
    /// filesystem, indexing any snapshots already present.
    ///
    /// Every indexed file's header day is cross-checked against its file
    /// name; a mismatch is an error (use [`SnapshotStore::scrub`] after
    /// [`SnapshotStore::open_with_io`] on a store opened leniently to
    /// quarantine instead — see `open_lenient`).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_io(dir, Arc::new(OsIo), RetryPolicy::default())
    }

    /// Opens a store routing all I/O through `io` with the given retry
    /// policy. Same day cross-check as [`SnapshotStore::open`].
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let store = Self::open_lenient(dir, io, retry)?;
        for &day in &store.days {
            if let Some(header_day) = store.peek_header_day(day)? {
                if header_day != day {
                    return Err(StoreError::DayMismatch {
                        file_day: day,
                        header_day,
                    });
                }
            }
        }
        Ok(store)
    }

    /// Opens without the day cross-check, so a damaged archive can be
    /// indexed and then healed via [`SnapshotStore::scrub`] (which
    /// quarantines mismatched files rather than refusing to open).
    pub fn open_lenient(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        retry: RetryPolicy,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let mut days = Vec::new();
        for name in io.list(&dir)? {
            if let Some(day) = Self::parse_file_name(&name) {
                days.push(day);
            }
        }
        days.sort_unstable();
        Ok(SnapshotStore {
            dir,
            days,
            io,
            retry,
            retries: AtomicU64::new(0),
        })
    }

    fn parse_file_name(name: &std::ffi::OsStr) -> Option<u32> {
        let name = name.to_str()?;
        name.strip_prefix("snap-")?
            .strip_suffix(".colf")?
            .parse()
            .ok()
    }

    fn file_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("snap-{day:05}.colf"))
    }

    /// Sidecar path for the delta landing on `new_day`. The `.delta`
    /// suffix keeps sidecars invisible to the snapshot index
    /// ([`SnapshotStore::parse_file_name`] only admits `.colf`).
    fn delta_file_path(&self, new_day: u32) -> PathBuf {
        self.dir.join(format!("snap-{new_day:05}.delta"))
    }

    /// Runs `op`, retrying transient failures per the policy. Not-found
    /// errors are permanent and returned immediately. Each attempt's
    /// latency, each retry, and each backoff sleep is recorded against
    /// `kind`'s telemetry names.
    fn with_retry<T>(&self, kind: StoreOp, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let tel = telemetry::global();
        let mut delay = self.retry.backoff;
        let mut last = None;
        for attempt in 0..self.retry.attempts.max(1) {
            tel.incr(kind.attempts_counter(), 1);
            let sw = tel.stopwatch();
            let result = op();
            if let Some(ns) = tel.elapsed_ns(sw) {
                tel.record(kind.latency_histogram(), ns);
            }
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(e),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < self.retry.attempts.max(1) {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        tel.incr(kind.retries_counter(), 1);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                            tel.record("store.backoff_ns", delay.as_nanos() as u64);
                            delay = (delay * 2).min(self.retry.max_backoff);
                        }
                    }
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Header day of the stored file for `day`, or `None` when the
    /// prefix is not parseable (deferred to decode-time diagnosis).
    fn peek_header_day(&self, day: u32) -> Result<Option<u32>, StoreError> {
        let path = self.file_path(day);
        let prefix = self.with_retry(StoreOp::Read, || {
            self.io.read_prefix(&path, colf::PEEK_PREFIX_LEN)
        })?;
        Ok(colf::peek_day(&prefix))
    }

    /// Persists a snapshot. Days must be unique. The write is atomic
    /// (tmp file + rename) and retried on transient failure, so a torn
    /// write can never leave a half-written `.colf` in the index.
    pub fn put(&mut self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let day = snapshot.day();
        if self.days.binary_search(&day).is_ok() {
            return Err(StoreError::DuplicateDay(day));
        }
        let bytes = colf::encode(snapshot);
        let path = self.file_path(day);
        let tmp = path.with_extension("colf.tmp");
        let result = self.with_retry(StoreOp::Write, || {
            self.io.write(&tmp, &bytes)?;
            self.io.rename(&tmp, &path)
        });
        if let Err(e) = result {
            // Best-effort cleanup of a torn tmp file; the store itself
            // is untouched (nothing under the snap-*.colf namespace).
            let _ = self.io.remove(&tmp);
            return Err(e.into());
        }
        let pos = self.days.partition_point(|&d| d < day);
        self.days.insert(pos, day);
        Ok(())
    }

    /// Persists pre-encoded `colf` bytes for `day` verbatim — the
    /// replication apply path, where a committed log entry carries the
    /// exact bytes every replica must hold so store digests converge
    /// byte-for-byte. The bytes are strict-decoded first (columns only —
    /// no row is built to validate) and the header day cross-checked, so
    /// a corrupt or mislabeled entry can never be admitted. Days must be
    /// unique, as in [`SnapshotStore::put`].
    pub fn put_raw(&mut self, day: u32, bytes: &[u8]) -> Result<(), StoreError> {
        if self.days.binary_search(&day).is_ok() {
            return Err(StoreError::DuplicateDay(day));
        }
        self.admit_raw(day, bytes)
    }

    /// Restores `day` from replica-fetched bytes, replacing whatever the
    /// store holds: the heal path for a day that was quarantined (or
    /// degraded) locally but survives intact on a peer. Validates like
    /// [`SnapshotStore::put_raw`], then clears any quarantined copy of
    /// the day (best effort) so the archive does not accumulate stale
    /// corpses for healed days.
    pub fn heal_raw(&mut self, day: u32, bytes: &[u8]) -> Result<(), StoreError> {
        self.admit_raw(day, bytes)?;
        let corpse = self
            .dir
            .join(QUARANTINE_DIR)
            .join(format!("snap-{day:05}.colf"));
        let _ = self.io.remove(&corpse);
        telemetry::global().incr("store.peer_heals", 1);
        Ok(())
    }

    /// Validates and atomically writes raw colf bytes for `day`,
    /// indexing it (idempotent on the index).
    fn admit_raw(&mut self, day: u32, bytes: &[u8]) -> Result<(), StoreError> {
        let header_day = FrameColumns::decode(bytes)?.day();
        if header_day != day {
            return Err(StoreError::DayMismatch {
                file_day: day,
                header_day,
            });
        }
        let path = self.file_path(day);
        let tmp = path.with_extension("colf.tmp");
        let result = self.with_retry(StoreOp::Write, || {
            self.io.write(&tmp, bytes)?;
            self.io.rename(&tmp, &path)
        });
        if let Err(e) = result {
            let _ = self.io.remove(&tmp);
            return Err(e.into());
        }
        if let Err(pos) = self.days.binary_search(&day) {
            self.days.insert(pos, day);
        }
        Ok(())
    }

    /// Persists a delta sidecar next to its landing day's `.colf` file
    /// (atomic tmp + rename, same discipline as snapshot writes).
    /// Overwrites any prior sidecar for the day: a re-put or healed day
    /// gets a fresh delta, and its digests are what consumers validate.
    pub fn put_delta(&self, delta: &crate::delta::FrameDelta) -> Result<(), StoreError> {
        let bytes = delta.encode();
        let path = self.delta_file_path(delta.new_day);
        let tmp = path.with_extension("delta.tmp");
        let result = self.with_retry(StoreOp::Write, || {
            self.io.write(&tmp, &bytes)?;
            self.io.rename(&tmp, &path)
        });
        if let Err(e) = result {
            let _ = self.io.remove(&tmp);
            return Err(e.into());
        }
        telemetry::global().incr("store.deltas_written", 1);
        Ok(())
    }

    /// Reads and decodes the delta sidecar landing on `new_day`.
    ///
    /// Returns `Ok(None)` when no sidecar exists *or* when the sidecar
    /// fails to decode (rot is counted under `store.delta_invalid` and
    /// treated as absence — the incremental layer then falls back to
    /// the full-rescan oracle rather than trusting damaged bytes).
    /// Digest-chain validation against the endpoint `.colf` files is
    /// the caller's job (`FrameLoader::delta_for`).
    pub fn read_delta(&self, new_day: u32) -> Result<Option<crate::delta::FrameDelta>, StoreError> {
        let path = self.delta_file_path(new_day);
        let bytes = match self.with_retry(StoreOp::Read, || self.io.read(&path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        match crate::delta::FrameDelta::decode(&bytes) {
            Ok(delta) => Ok(Some(delta)),
            Err(_) => {
                telemetry::global().incr("store.delta_invalid", 1);
                Ok(None)
            }
        }
    }

    /// Days that have a delta sidecar on disk, ascending. Purely
    /// presence — validity is decided at read/apply time.
    pub fn delta_days(&self) -> Result<Vec<u32>, StoreError> {
        let mut days = Vec::new();
        for name in self.io.list(&self.dir)? {
            if let Some(name) = name.to_str() {
                if let Some(day) = name
                    .strip_prefix("snap-")
                    .and_then(|n| n.strip_suffix(".delta"))
                    .and_then(|n| n.parse().ok())
                {
                    days.push(day);
                }
            }
        }
        days.sort_unstable();
        Ok(days)
    }

    /// XXH64 section digest of the raw stored bytes for `day` — the
    /// convergence fingerprint replicas compare: byte-identical files
    /// (the only thing [`SnapshotStore::put_raw`] admits) digest
    /// identically on every node.
    pub fn day_digest(&self, day: u32) -> Result<Option<u64>, StoreError> {
        Ok(self
            .read_raw(day)?
            .map(|bytes| crate::xxh::section_digest(&bytes)))
    }

    /// Reads the raw `colf` bytes for `day` without decoding, if the day
    /// is indexed — what digests and delta building read; decoding
    /// consumers go through [`SnapshotStore::decode_day`].
    pub fn read_raw(&self, day: u32) -> Result<Option<Vec<u8>>, StoreError> {
        if self.days.binary_search(&day).is_err() {
            return Ok(None);
        }
        let path = self.file_path(day);
        Ok(Some(self.with_retry(StoreOp::Read, || self.io.read(&path))?))
    }

    /// Reads `day`'s raw bytes and hands them to `decode` — the one
    /// read path under every decoding consumer (`get`, `get_lossy`,
    /// `scrub`, and `spider-core`'s `FrameLoader`). When the decode
    /// fails, the file is read once more and decoded again, which heals
    /// short reads without masking at-rest corruption; a heal is counted
    /// (`store.decode_heals`, [`SnapshotStore::transient_retries`]) only
    /// when that second decode succeeds. `Ok(None)`: day not indexed.
    pub fn decode_day<T, E: Into<StoreError>>(
        &self,
        day: u32,
        decode: impl Fn(&[u8]) -> Result<T, E>,
    ) -> Result<Option<T>, StoreError> {
        let Some(bytes) = self.read_raw(day)? else {
            return Ok(None);
        };
        if let Ok(decoded) = decode(&bytes) {
            return Ok(Some(decoded));
        }
        let Some(bytes) = self.read_raw(day)? else {
            return Ok(None);
        };
        let decoded = decode(&bytes).map_err(Into::into)?;
        self.retries.fetch_add(1, Ordering::Relaxed);
        telemetry::global().incr("store.decode_heals", 1);
        Ok(Some(decoded))
    }

    /// Loads the snapshot for `day`, if present. Strict: a failed
    /// checksum anywhere is an error.
    pub fn get(&self, day: u32) -> Result<Option<Snapshot>, StoreError> {
        self.decode_day(day, colf::decode)
    }

    /// Loads the snapshot for `day` with lossy section recovery: corrupt
    /// non-spine sections are dropped (and named) instead of failing the
    /// whole snapshot.
    pub fn get_lossy(&self, day: u32) -> Result<Option<colf::LossyDecode>, StoreError> {
        self.decode_day(day, colf::decode_lossy)
    }

    /// Verifies every stored snapshot, quarantining the unrecoverable
    /// and reporting the store's health with a substitution plan.
    ///
    /// * decodes bit-perfectly → healthy;
    /// * decodes with lost sections → degraded (file kept);
    /// * fails decode, misreports its day, or cannot be read → the file
    ///   is moved to `quarantine/` and the day mapped to the nearest
    ///   surviving day (ties break earlier), mirroring the paper's
    ///   skip-to-nearest-dump sampling.
    pub fn scrub(&mut self) -> StoreHealth {
        let _span = telemetry::global().span("scrub");
        let mut health = StoreHealth::default();
        for day in self.days.clone() {
            // Columns only: the verdict needs the header day and the
            // lost-section list, not one record per inode.
            match self.decode_day(day, FrameColumns::decode_lossy) {
                Ok(Some(cols)) => {
                    if cols.day() != day {
                        self.quarantine_day(
                            day,
                            format!(
                                "header records day {} but file is named for day {day}",
                                cols.day()
                            ),
                            &mut health,
                        );
                    } else if cols.lost_sections().is_empty() {
                        health.healthy_days.push(day);
                    } else {
                        health.degraded.push(DegradedDay {
                            day,
                            lost_sections: cols.lost_sections().to_vec(),
                        });
                    }
                }
                Ok(None) => unreachable!("scrub iterates indexed days"),
                Err(e) => self.quarantine_day(day, e.to_string(), &mut health),
            }
        }
        // Substitutions: nearest surviving day for each quarantined one.
        for q in &health.quarantined {
            if let Some(substitute) = self.nearest_day(q.day) {
                health.substitutions.push(Substitution {
                    day: q.day,
                    substitute,
                });
            }
        }
        health.transient_retries = self.retries.load(Ordering::Relaxed);
        health
    }

    /// Moves the file for `day` into `quarantine/` and drops it from the
    /// index. Never panics: if even the move fails, the file stays put
    /// but the day is still deindexed and the failure recorded.
    fn quarantine_day(&mut self, day: u32, reason: String, health: &mut StoreHealth) {
        let from = self.file_path(day);
        let qdir = self.dir.join(QUARANTINE_DIR);
        let to = qdir.join(format!("snap-{day:05}.colf"));
        let moved = self
            .io
            .create_dir_all(&qdir)
            .and_then(|()| self.io.rename(&from, &to));
        let reason = match moved {
            Ok(()) => reason,
            Err(e) => format!("{reason} (quarantine move failed: {e}; file left in place)"),
        };
        if let Ok(pos) = self.days.binary_search(&day) {
            self.days.remove(pos);
        }
        // The delta landing on this day lost its new endpoint; move the
        // sidecar alongside the corpse (best effort) so it can never be
        // mistaken for a live delta. Deltas *departing* from this day
        // stay put: their old-digest check fails at read time, which is
        // what routes consumers to the full-rescan oracle.
        let delta_from = self.delta_file_path(day);
        let delta_to = qdir.join(format!("snap-{day:05}.delta"));
        let _ = self.io.rename(&delta_from, &delta_to);
        telemetry::global().incr("store.quarantined_days", 1);
        telemetry::global().trigger("quarantine", &format!("day {day}: {reason}"));
        health.quarantined.push(QuarantinedDay { day, reason });
    }

    /// Builds any missing (or digest-stale) delta sidecars between
    /// consecutive indexed days, decoding each day's columns at most
    /// once in a rolling pair. Lossy days cannot anchor a delta and
    /// their pairs are skipped. Returns `(built, skipped)` counts;
    /// telemetry: `store.deltas_written` per sidecar.
    pub fn ensure_deltas(&self) -> Result<(u64, u64), StoreError> {
        let _span = telemetry::global().span("ensure_deltas");
        let mut built = 0u64;
        let mut skipped = 0u64;
        let mut prev: Option<(u32, u64, Option<FrameColumns>)> = None;
        for &day in &self.days {
            let Some(bytes) = self.read_raw(day)? else {
                continue;
            };
            let digest = crate::xxh::section_digest(&bytes);
            // Decode lazily: only when this pair actually needs building.
            let mut cols: Option<FrameColumns> = None;
            if let Some((old_day, old_digest, old_cols)) = prev.take() {
                let fresh = match self.read_delta(day)? {
                    Some(d) => {
                        d.old_day == old_day && d.old_digest == old_digest && d.new_digest == digest
                    }
                    None => false,
                };
                if fresh {
                    skipped += 1;
                } else {
                    let old_cols = match old_cols {
                        Some(c) => Some(c),
                        None => self
                            .read_raw(old_day)?
                            .and_then(|b| FrameColumns::decode(&b).ok()),
                    };
                    cols = FrameColumns::decode(&bytes).ok();
                    match (old_cols, cols.as_ref()) {
                        (Some(oc), Some(nc)) => {
                            match crate::delta::FrameDelta::compute(&oc, nc, old_digest, digest) {
                                Ok(delta) => {
                                    self.put_delta(&delta)?;
                                    built += 1;
                                }
                                Err(_) => skipped += 1,
                            }
                        }
                        _ => skipped += 1,
                    }
                }
            }
            prev = Some((day, digest, cols));
        }
        Ok((built, skipped))
    }

    /// Re-lists the directory and rebuilds the day index, picking up
    /// snapshots added (or removed) by other handles onto the same
    /// directory — e.g. a simulation appending days under a running
    /// query server. Returns true when the day set changed.
    pub fn rescan(&mut self) -> Result<bool, StoreError> {
        let mut days = Vec::new();
        for name in self.io.list(&self.dir)? {
            if let Some(day) = Self::parse_file_name(&name) {
                days.push(day);
            }
        }
        days.sort_unstable();
        let changed = days != self.days;
        self.days = days;
        Ok(changed)
    }

    /// The indexed day closest to `day` (itself excluded); ties break to
    /// the earlier day, matching the paper's preference for the older
    /// dump when two are equally near.
    pub fn nearest_day(&self, day: u32) -> Option<u32> {
        self.days
            .iter()
            .copied()
            .filter(|&d| d != day)
            .min_by_key(|&d| (d.abs_diff(day), d))
    }

    /// Days with stored snapshots, ascending.
    pub fn days(&self) -> &[u32] {
        &self.days
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// True if the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The I/O seam this store routes through — share it to open helper
    /// views (e.g. the prefetching reader) under the same fault regime.
    pub fn io(&self) -> Arc<dyn StoreIo> {
        Arc::clone(&self.io)
    }

    /// The store's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Transient I/O retries performed so far.
    pub fn transient_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// On-disk bytes of the snapshot for `day` (footprint accounting for
    /// the Fig. 4 conversion experiment).
    pub fn file_size(&self, day: u32) -> Result<Option<u64>, StoreError> {
        if self.days.binary_search(&day).is_err() {
            return Ok(None);
        }
        let path = self.file_path(day);
        Ok(Some(self.with_retry(StoreOp::Meta, || self.io.len(&path))?))
    }

    /// Streams snapshots in day order, loading one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Result<Snapshot, StoreError>> + '_ {
        self.days.iter().map(move |&day| {
            self.get(day)?
                .ok_or_else(|| StoreError::Io(io::Error::other(format!("day {day} vanished"))))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{FaultFs, FaultKind};
    use crate::record::SnapshotRecord;
    use std::fs;

    fn snap(day: u32, n: usize) -> Snapshot {
        let records = (0..n)
            .map(|i| SnapshotRecord {
                path: format!("/lustre/atlas1/p/f{i:04}"),
                atime: day as u64 * 86_400 + i as u64,
                ctime: 1,
                mtime: 1,
                uid: 1,
                gid: 1,
                mode: 0o100664,
                ino: i as u64 + 1,
                osts: vec![(1, 1)],
            })
            .collect();
        Snapshot::new(day, day as u64 * 86_400, records)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spider-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fault_store(dir: &Path, seed: u64) -> (SnapshotStore, Arc<FaultFs<OsIo>>) {
        let ffs = Arc::new(FaultFs::new(OsIo, seed));
        let store =
            SnapshotStore::open_with_io(dir, ffs.clone(), RetryPolicy::immediate()).unwrap();
        (store, ffs)
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut store = SnapshotStore::open(&dir).unwrap();
        let s = snap(7, 50);
        store.put(&s).unwrap();
        assert_eq!(store.get(7).unwrap().unwrap(), s);
        assert_eq!(store.get(8).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_day_rejected() {
        let dir = temp_dir("dup");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.put(&snap(7, 1)).unwrap();
        assert!(matches!(
            store.put(&snap(7, 2)),
            Err(StoreError::DuplicateDay(7))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_reindexes() {
        let dir = temp_dir("reopen");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(14, 3)).unwrap();
            store.put(&snap(0, 3)).unwrap();
            store.put(&snap(7, 3)).unwrap();
        }
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.days(), &[0, 7, 14]);
        assert_eq!(store.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn iter_streams_in_day_order() {
        let dir = temp_dir("iter");
        let mut store = SnapshotStore::open(&dir).unwrap();
        for day in [21, 0, 7, 14] {
            store.put(&snap(day, 2)).unwrap();
        }
        let days: Vec<u32> = store.iter().map(|s| s.unwrap().day()).collect();
        assert_eq!(days, vec![0, 7, 14, 21]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_size_reports_bytes() {
        let dir = temp_dir("size");
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.put(&snap(0, 100)).unwrap();
        let size = store.file_size(0).unwrap().unwrap();
        assert!(size > 0);
        assert_eq!(store.file_size(99).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_surfaces_decode_error() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snap-00003.colf"), b"definitely not colf").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.days(), &[3]);
        assert!(matches!(store.get(3), Err(StoreError::Colf(_))));
        // Streaming surfaces the same error instead of panicking.
        let first = store.iter().next().unwrap();
        assert!(first.is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrelated_files_are_ignored() {
        let dir = temp_dir("noise");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("README.txt"), "not a snapshot").unwrap();
        fs::write(dir.join("snap-abc.colf"), "bad name").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misnamed_file_is_rejected_at_open() {
        let dir = temp_dir("mismatch");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 5)).unwrap();
        }
        // Rename day 7's file to claim day 9.
        fs::rename(dir.join("snap-00007.colf"), dir.join("snap-00009.colf")).unwrap();
        match SnapshotStore::open(&dir) {
            Err(StoreError::DayMismatch {
                file_day,
                header_day,
            }) => {
                assert_eq!(file_day, 9);
                assert_eq!(header_day, 7);
            }
            other => panic!("expected DayMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_quarantines_misnamed_file() {
        let dir = temp_dir("mismatch-scrub");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 5)).unwrap();
            store.put(&snap(14, 5)).unwrap();
        }
        fs::rename(dir.join("snap-00007.colf"), dir.join("snap-00009.colf")).unwrap();
        let mut store =
            SnapshotStore::open_lenient(&dir, Arc::new(OsIo), RetryPolicy::immediate()).unwrap();
        let health = store.scrub();
        assert_eq!(health.healthy_days, vec![14]);
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].day, 9);
        assert_eq!(health.substitute_for(9), Some(14));
        assert!(dir.join(QUARANTINE_DIR).join("snap-00009.colf").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_on_clean_store_is_clean() {
        let dir = temp_dir("clean");
        let mut store = SnapshotStore::open(&dir).unwrap();
        for day in [0, 7, 14] {
            store.put(&snap(day, 10)).unwrap();
        }
        let health = store.scrub();
        assert!(health.is_clean());
        assert_eq!(health.healthy_days, vec![0, 7, 14]);
        assert!(health.substitutions.is_empty());
        assert_eq!(health.transient_retries, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_degrades_on_corrupt_osts_and_quarantines_corrupt_paths() {
        let dir = temp_dir("scrub");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            for day in [0, 7, 14, 21] {
                store.put(&snap(day, 40)).unwrap();
            }
        }
        let corrupt_section = |day: u32, section: &str| {
            let path = dir.join(format!("snap-{day:05}.colf"));
            let mut bytes = fs::read(&path).unwrap();
            let spans = colf::section_table(&bytes).unwrap();
            let span = spans.iter().find(|s| s.name == section).unwrap();
            bytes[span.offset + span.len / 2] ^= 0xFF;
            fs::write(&path, bytes).unwrap();
        };
        corrupt_section(7, "osts"); // recoverable: every other column survives
        corrupt_section(14, "paths"); // unrecoverable: the record spine

        let mut store = SnapshotStore::open(&dir).unwrap();
        let health = store.scrub();
        assert_eq!(health.healthy_days, vec![0, 21]);
        assert_eq!(
            health.degraded,
            vec![DegradedDay {
                day: 7,
                lost_sections: vec!["osts"]
            }]
        );
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].day, 14);
        // Nearest surviving day to 14: tie between 7 and 21 breaks earlier.
        assert_eq!(health.substitute_for(14), Some(7));
        assert_eq!(store.days(), &[0, 7, 21]);
        assert!(dir.join(QUARANTINE_DIR).join("snap-00014.colf").exists());
        // Day 14 is rotten at rest: re-reading it recovered nothing, so
        // it must not be reported as a healed transient error.
        assert_eq!(health.transient_retries, 0);
        // The degraded day still serves lossy reads.
        let lossy = store.get_lossy(7).unwrap().unwrap();
        assert_eq!(lossy.lost_sections, vec!["osts"]);
        assert_eq!(lossy.snapshot.len(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_read_error_is_retried() {
        let dir = temp_dir("transient");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 20)).unwrap();
        }
        let (store, ffs) = fault_store(&dir, 5);
        // Read op 0 was the open-time header peek; the get is op 1.
        ffs.plan_read(1, FaultKind::TransientEio);
        assert_eq!(store.get(7).unwrap().unwrap(), snap(7, 20));
        assert!(store.transient_retries() >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backoff_caps_at_max_and_is_recorded() {
        let dir = temp_dir("backoff-cap");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 5)).unwrap();
        }
        let ffs = Arc::new(FaultFs::new(OsIo, 5));
        let policy = RetryPolicy {
            attempts: 5,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let store = SnapshotStore::open_with_io(&dir, ffs.clone(), policy).unwrap();
        // Read op 0 was the open-time header peek; fail the get's first
        // four attempts so every backoff sleep happens.
        for op in 1..5 {
            ffs.plan_read(op, FaultKind::TransientEio);
        }
        let tel = telemetry::global();
        let backoff = tel.histogram("store.backoff_ns");
        let attempts = tel.counter("store.read.attempts");
        let retries = tel.counter("store.read.retries");
        let (count0, sum0, _) = backoff.core().totals();
        let (attempts0, retries0) = (attempts.get(), retries.get());
        tel.enable();
        let got = store.get(7);
        tel.disable();
        assert_eq!(got.unwrap().unwrap(), snap(7, 5));
        // Sleeps were 1ms, then 2ms capped: 2ms, 2ms — never 4ms/8ms.
        let (count1, sum1, max) = backoff.core().totals();
        assert_eq!(count1 - count0, 4);
        assert_eq!(sum1 - sum0, 7_000_000);
        assert_eq!(max, 2_000_000);
        assert!(attempts.get() - attempts0 >= 5);
        assert!(retries.get() - retries0 >= 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_read_is_healed_by_reread() {
        let dir = temp_dir("shortread");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 20)).unwrap();
        }
        let (store, ffs) = fault_store(&dir, 5);
        ffs.plan_read(1, FaultKind::ShortRead);
        assert_eq!(store.get(7).unwrap().unwrap(), snap(7, 20));
        assert!(store.transient_retries() >= 1, "a heal that worked counts");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_never_corrupts_the_index() {
        let dir = temp_dir("torn");
        let (mut store, ffs) = fault_store(&dir, 9);
        // Tear every attempt: the put must fail cleanly.
        for i in 0..8 {
            ffs.plan_write(i, FaultKind::TornWrite);
        }
        assert!(store.put(&snap(7, 30)).is_err());
        assert!(store.is_empty());
        // A fresh open sees no snapshot and no stray tmp artifacts
        // indexed; the next put succeeds.
        drop(store);
        let (mut store, _ffs) = fault_store(&dir, 10);
        assert!(store.is_empty());
        store.put(&snap(7, 30)).unwrap();
        assert_eq!(store.get(7).unwrap().unwrap(), snap(7, 30));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_rename_failure_does_not_panic() {
        let dir = temp_dir("qfail");
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&snap(7, 30)).unwrap();
            store.put(&snap(14, 30)).unwrap();
        }
        // Corrupt day 7's paths section so scrub must quarantine it.
        let path = dir.join("snap-00007.colf");
        let mut bytes = fs::read(&path).unwrap();
        let spans = colf::section_table(&bytes).unwrap();
        let span = spans.iter().find(|s| s.name == "paths").unwrap();
        bytes[span.offset] ^= 0xFF;
        fs::write(&path, bytes).unwrap();

        let (mut store, ffs) = fault_store(&dir, 3);
        ffs.fail_next_rename();
        let health = store.scrub();
        assert_eq!(health.quarantined.len(), 1);
        assert!(health.quarantined[0]
            .reason
            .contains("quarantine move failed"));
        // Deindexed even though the file could not be moved.
        assert_eq!(store.days(), &[14]);
        assert!(path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_raw_validates_and_digests_converge() {
        let dir = temp_dir("putraw");
        let mut store = SnapshotStore::open(&dir).unwrap();
        let s = snap(7, 30);
        let bytes = colf::encode(&s);
        store.put_raw(7, &bytes).unwrap();
        assert_eq!(store.get(7).unwrap().unwrap(), s);
        // Duplicate day rejected; wrong-day label rejected; garbage rejected.
        assert!(matches!(
            store.put_raw(7, &bytes),
            Err(StoreError::DuplicateDay(7))
        ));
        assert!(matches!(
            store.put_raw(9, &bytes),
            Err(StoreError::DayMismatch { .. })
        ));
        assert!(matches!(
            store.put_raw(9, b"not colf"),
            Err(StoreError::Colf(_))
        ));
        // Valid digests over a front-coding prefix cut mid-character.
        let hostile = include_bytes!("../tests/fixtures/hostile-v2-midchar-prefix.colf");
        assert!(matches!(
            store.put_raw(42, hostile),
            Err(StoreError::Colf(colf::ColfError::BadValue("path utf-8")))
        ));
        // The digest is a pure function of the bytes: a second store
        // admitting the same entry fingerprints identically.
        let dir2 = temp_dir("putraw-twin");
        let mut twin = SnapshotStore::open(&dir2).unwrap();
        twin.put_raw(7, &bytes).unwrap();
        assert_eq!(
            store.day_digest(7).unwrap().unwrap(),
            twin.day_digest(7).unwrap().unwrap()
        );
        assert_eq!(store.day_digest(99).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn heal_raw_restores_quarantined_day_and_clears_corpse() {
        let dir = temp_dir("healraw");
        let s = snap(7, 30);
        let bytes = colf::encode(&s);
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            store.put(&s).unwrap();
            store.put(&snap(14, 30)).unwrap();
        }
        // Smash day 7's paths section: scrub must quarantine it.
        let path = dir.join("snap-00007.colf");
        let mut damaged = fs::read(&path).unwrap();
        let spans = colf::section_table(&damaged).unwrap();
        let span = spans.iter().find(|s| s.name == "paths").unwrap();
        damaged[span.offset + 2] ^= 0xFF;
        fs::write(&path, damaged).unwrap();

        let mut store =
            SnapshotStore::open_lenient(&dir, Arc::new(OsIo), RetryPolicy::immediate()).unwrap();
        let mut health = store.scrub();
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.substitute_for(7), Some(14));
        let corpse = dir.join(QUARANTINE_DIR).join("snap-00007.colf");
        assert!(corpse.exists());

        // Heal with the genuine bytes, as a replication peer would serve.
        store.heal_raw(7, &bytes).unwrap();
        health.record_peer_heal(7, "node-2");
        assert_eq!(store.get(7).unwrap().unwrap(), s);
        assert!(!corpse.exists(), "healed day's corpse must be cleared");
        // The substitution is upgraded, not duplicated.
        assert_eq!(health.substitute_for(7), None);
        assert_eq!(health.peer_heal_source(7), Some("node-2"));
        assert_eq!(health.quarantined.len(), 1, "history preserved");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nearest_day_prefers_earlier_on_tie() {
        let dir = temp_dir("nearest");
        let mut store = SnapshotStore::open(&dir).unwrap();
        for day in [0, 7, 21] {
            store.put(&snap(day, 1)).unwrap();
        }
        assert_eq!(store.nearest_day(14), Some(7)); // 7 and 21 both 7 away
        assert_eq!(store.nearest_day(20), Some(21));
        assert_eq!(store.nearest_day(7), Some(0)); // itself excluded
        fs::remove_dir_all(&dir).unwrap();
    }
}
