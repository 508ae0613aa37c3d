//! One raft node: election, log replication, and snapshot application.
//!
//! A [`RaftNode`] is a pure tick-driven state machine. It never touches
//! a clock or a socket: time arrives as [`RaftNode::tick`] calls,
//! messages arrive via [`RaftNode::handle`], and everything it wants to
//! say accumulates in an outbox the harness drains and routes through
//! the simulated network. All randomness (election timeout jitter) is
//! drawn from a per-node stream derived from the run seed, so a cluster
//! run is a deterministic function of `(seed, fault plan)`.
//!
//! The replicated command is a snapshot day: committed entries are
//! applied to the node's own [`SnapshotStore`] through the
//! strict-validating `put_raw`/`heal_raw`, which means a replica can
//! only ever hold byte-identical colf files for a committed day —
//! convergence is checked by digest, not by trust.
//!
//! Safety posture follows raft exactly where it matters:
//!
//! * a vote is granted only after it is **persisted** (and never when
//!   the vote record is [compromised](crate::log::VoteRecord::compromised));
//! * an entry counts as committed only when a majority matches it *and*
//!   it belongs to the leader's current term;
//! * conflicting follower suffixes are truncated before appending.

use crate::log::{LogEntry, LogRecovery, RaftLog, VoteRecord};
use crate::{derive_seed, splitmix};
use spider_snapshot::store::StoreError;
use spider_snapshot::xxh::section_digest;
use spider_snapshot::{FrameColumns, RetryPolicy, SnapshotStore, StoreIo};
use spider_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Node identifier within a cluster.
pub type NodeId = u32;

/// Election timeout lower bound, in ticks.
const ELECTION_MIN: u64 = 10;
/// Election timeout upper bound, in ticks. The 2× spread plus
/// per-node seeding keeps split votes rare but still exercised.
const ELECTION_MAX: u64 = 20;
/// Leader heartbeat/replication cadence, in ticks.
const HEARTBEAT_EVERY: u64 = 3;
/// Cap on entries shipped per AppendEntries (entries carry whole colf
/// files; catch-up proceeds in bounded bites).
const MAX_APPEND_ENTRIES: usize = 4;
/// Sentinel day for the no-op entry a fresh leader appends so the
/// commit rule (which only counts current-term entries) can advance
/// over a tail inherited from deposed leaders. Never applied to the
/// store and never surfaced as a committed day.
pub const NOOP_DAY: u32 = u32::MAX;
/// Ticks between retransmits of an unanswered heal fetch (the network
/// drops and reorders; fetches carry no delivery guarantee).
const HEAL_RETRY_EVERY: u64 = 16;

/// An in-flight peer heal awaiting (or re-requesting) its `DayData`.
#[derive(Debug, Clone, Copy)]
struct PendingHeal {
    /// The committed digest the fetched bytes must hash to.
    digest: u64,
    /// The peer last asked.
    peer: NodeId,
    /// Ticks since the last `FetchDay` went out.
    age: u64,
}

/// A node's current raft role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepting entries from a leader (or waiting for one).
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Elected: the only node that accepts proposals.
    Leader,
}

/// Everything that travels between nodes. Sender identity rides on the
/// network envelope, not in the message.
#[derive(Debug, Clone)]
pub enum Message {
    /// A candidate asks for a vote in `term`.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Reply to [`Message::RequestVote`].
    VoteResponse {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted (and persisted).
        granted: bool,
    },
    /// Leader replication traffic; empty `entries` is the heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately before `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (bounded by [`MAX_APPEND_ENTRIES`]).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Reply to [`Message::AppendEntries`].
    AppendResponse {
        /// Responder's current term.
        term: u64,
        /// Whether `prev` matched and the entries persisted.
        success: bool,
        /// Highest log index the responder now knows matches the
        /// leader (on failure: its last index, as a back-off hint).
        match_index: u64,
    },
    /// Ask a peer for the raw colf bytes of a committed day (scrub
    /// found ours damaged).
    FetchDay {
        /// The day to fetch.
        day: u32,
    },
    /// Reply to [`Message::FetchDay`]; `bytes` is `None` when the peer
    /// does not hold the day either.
    DayData {
        /// The requested day.
        day: u32,
        /// The peer's stored bytes, verbatim.
        bytes: Option<Vec<u8>>,
    },
}

/// Observable state transitions, drained by the cluster harness for
/// its safety audits and metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// The node started campaigning in `term`.
    CampaignStarted {
        /// The new candidate term.
        term: u64,
    },
    /// The node won the election for `term`.
    BecameLeader {
        /// The term it leads.
        term: u64,
    },
    /// The node's current term changed.
    TermChanged {
        /// The new term.
        term: u64,
    },
    /// A log entry was committed *and applied* to this node's store.
    Committed {
        /// Raft index of the entry.
        index: u64,
        /// Term the entry was appended under.
        term: u64,
        /// The snapshot day it carries.
        day: u32,
        /// XXH64 digest of the carried bytes.
        digest: u64,
    },
    /// A scrub-quarantined day was restored with genuine bytes fetched
    /// from a peer.
    Healed {
        /// The restored day.
        day: u32,
        /// The peer that supplied the bytes.
        from: NodeId,
    },
}

/// Why a proposal was refused.
#[derive(Debug)]
pub enum ProposeError {
    /// This node is not the leader; retry against the leader (hint
    /// included when known).
    NotLeader(Option<NodeId>),
    /// The payload failed validation and was never appended.
    Rejected(String),
    /// Persisting the entry to the local log failed.
    Io(io::Error),
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProposeError::NotLeader(hint) => match hint {
                Some(l) => write!(f, "not the leader (try node-{l})"),
                None => write!(f, "not the leader (no leader known)"),
            },
            ProposeError::Rejected(why) => write!(f, "proposal rejected: {why}"),
            ProposeError::Io(e) => write!(f, "proposal not persisted: {e}"),
        }
    }
}

impl std::error::Error for ProposeError {}

/// One raft participant: persisted log + vote record, a snapshot store
/// the committed days land in, and the volatile election state.
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    role: Role,
    /// Current term; may run ahead of the persisted `vote.term` only
    /// between a failed save and the next successful one (votes are
    /// never granted off unpersisted state).
    term: u64,
    voted_for: Option<NodeId>,
    log: RaftLog,
    vote: VoteRecord,
    store: SnapshotStore,
    commit_index: u64,
    last_applied: u64,
    leader_hint: Option<NodeId>,
    rng: u64,
    ticks_to_election: u64,
    ticks_to_heartbeat: u64,
    votes_got: BTreeSet<NodeId>,
    next_index: BTreeMap<NodeId, u64>,
    match_index: BTreeMap<NodeId, u64>,
    /// Day → in-flight peer heal (expected digest, peer asked, ticks
    /// since asked — drives retransmission over the lossy network).
    pending_heals: BTreeMap<u32, PendingHeal>,
    /// The leadership no-op could not be persisted yet (I/O fault at
    /// election time); retried each tick until it lands.
    noop_pending: bool,
    outbox: Vec<(NodeId, Message)>,
    events: Vec<NodeEvent>,
    recovery: LogRecovery,
}

impl std::fmt::Debug for RaftNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaftNode")
            .field("id", &self.id)
            .field("role", &self.role)
            .field("term", &self.term)
            .field("last_index", &self.log.last_index())
            .field("commit_index", &self.commit_index)
            .finish()
    }
}

impl RaftNode {
    /// Opens (or recovers after a crash) node `id` rooted at `dir`:
    /// raft state in `dir/raft`, the snapshot store in `dir/store`,
    /// all I/O through `io`. `peers` are the *other* cluster members.
    pub fn open(
        id: NodeId,
        peers: Vec<NodeId>,
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        seed: u64,
    ) -> io::Result<RaftNode> {
        let dir = dir.into();
        let (log, mut recovery) = RaftLog::open(dir.join("raft"), Arc::clone(&io))?;
        let vote = VoteRecord::open(dir.join("raft"), Arc::clone(&io))?;
        recovery.vote_compromised = vote.compromised();
        let store = SnapshotStore::open_lenient(dir.join("store"), io, RetryPolicy::immediate())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let mut node = RaftNode {
            id,
            peers,
            role: Role::Follower,
            term: vote.term,
            voted_for: vote.voted_for,
            log,
            vote,
            store,
            commit_index: 0,
            last_applied: 0,
            leader_hint: None,
            rng: derive_seed(seed, 0x1000 + id as u64),
            ticks_to_election: 0,
            ticks_to_heartbeat: 0,
            votes_got: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            pending_heals: BTreeMap::new(),
            noop_pending: false,
            outbox: Vec::new(),
            events: Vec::new(),
            recovery,
        };
        node.reset_election_timer();
        Ok(node)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// True when this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest committed (and applied or in-application) index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Highest index applied to the local store.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// The last leader this node heard from (or itself, when leading).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// What log recovery found at open time.
    pub fn recovery(&self) -> &LogRecovery {
        &self.recovery
    }

    /// The node's snapshot store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Mutable access to the store (scrubbing is a store-side effect).
    pub fn store_mut(&mut self) -> &mut SnapshotStore {
        &mut self.store
    }

    /// The node's persisted log.
    pub fn log(&self) -> &RaftLog {
        &self.log
    }

    /// Days with a peer-heal still in flight.
    pub fn pending_heal_days(&self) -> Vec<u32> {
        self.pending_heals.keys().copied().collect()
    }

    /// Drains the outgoing messages accumulated since the last drain.
    pub fn take_outbox(&mut self) -> Vec<(NodeId, Message)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains the observable events accumulated since the last drain.
    pub fn take_events(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.events)
    }

    fn majority(&self) -> usize {
        (self.peers.len() + 1) / 2 + 1
    }

    fn reset_election_timer(&mut self) {
        self.ticks_to_election =
            ELECTION_MIN + splitmix(&mut self.rng) % (ELECTION_MAX - ELECTION_MIN + 1);
    }

    /// Advances one tick: election countdown for non-leaders, the
    /// heartbeat/replication cadence for the leader, and heal-fetch
    /// retransmission for everyone.
    pub fn tick(&mut self) {
        self.tick_pending_heals();
        if self.role == Role::Leader {
            if self.noop_pending {
                self.append_leader_noop();
            }
            if self.ticks_to_heartbeat == 0 {
                self.broadcast_append();
            } else {
                self.ticks_to_heartbeat -= 1;
            }
            return;
        }
        if self.ticks_to_election == 0 {
            self.start_election();
        } else {
            self.ticks_to_election -= 1;
        }
    }

    /// Ages in-flight heal fetches: drops the ones the store already
    /// satisfies (a competing path healed the day first) and re-sends
    /// `FetchDay` for the rest every [`HEAL_RETRY_EVERY`] ticks, since
    /// the network may have dropped either half of the exchange.
    fn tick_pending_heals(&mut self) {
        if self.pending_heals.is_empty() {
            return;
        }
        let mut resolved = Vec::new();
        let mut resend = Vec::new();
        for (&day, heal) in self.pending_heals.iter_mut() {
            if self.store.day_digest(day).ok().flatten() == Some(heal.digest) {
                resolved.push(day);
                continue;
            }
            heal.age += 1;
            if heal.age >= HEAL_RETRY_EVERY {
                heal.age = 0;
                resend.push((heal.peer, day));
            }
        }
        for day in resolved {
            self.pending_heals.remove(&day);
        }
        for (peer, day) in resend {
            self.outbox.push((peer, Message::FetchDay { day }));
        }
    }

    /// Moves to `term` as a follower. The persist is best-effort: a
    /// failed save leaves the in-memory term ahead, which is safe
    /// because votes are only granted after their own successful save.
    fn step_down(&mut self, term: u64) {
        debug_assert!(term > self.term);
        self.term = term;
        self.voted_for = None;
        self.role = Role::Follower;
        self.votes_got.clear();
        self.leader_hint = None;
        let _ = self.vote.save(term, None);
        self.events.push(NodeEvent::TermChanged { term });
        telemetry::global().incr("raft.term_changes", 1);
        self.reset_election_timer();
    }

    fn start_election(&mut self) {
        self.reset_election_timer();
        if self.vote.compromised() {
            // Never campaign off an unreadable vote record: we might
            // have already voted in the term we would campaign in.
            return;
        }
        let term = self.term + 1;
        if self.vote.save(term, Some(self.id)).is_err() {
            // Could not persist the self-vote; retry at next timeout.
            return;
        }
        self.term = term;
        self.voted_for = Some(self.id);
        self.role = Role::Candidate;
        self.leader_hint = None;
        self.votes_got = BTreeSet::from([self.id]);
        self.events.push(NodeEvent::CampaignStarted { term });
        self.events.push(NodeEvent::TermChanged { term });
        let tel = telemetry::global();
        tel.incr("raft.elections", 1);
        tel.incr("raft.term_changes", 1);
        let (last_log_index, last_log_term) = (self.log.last_index(), self.log.last_term());
        for &p in &self.peers {
            self.outbox.push((
                p,
                Message::RequestVote {
                    term,
                    last_log_index,
                    last_log_term,
                },
            ));
        }
        if self.votes_got.len() >= self.majority() {
            self.become_leader(); // single-node cluster
        }
    }

    fn become_leader(&mut self) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        let next = self.log.last_index() + 1;
        self.next_index = self.peers.iter().map(|&p| (p, next)).collect();
        self.match_index = self.peers.iter().map(|&p| (p, 0)).collect();
        self.events
            .push(NodeEvent::BecameLeader { term: self.term });
        self.append_leader_noop();
        self.broadcast_append();
        self.advance_commit();
    }

    /// Appends the term-opening no-op. Without one, a tail inherited
    /// from a deposed leader can never satisfy the current-term commit
    /// rule and the cluster wedges until a client happens to propose.
    fn append_leader_noop(&mut self) {
        let noop = LogEntry {
            term: self.term,
            day: NOOP_DAY,
            bytes: Vec::new(),
        };
        self.noop_pending = self.log.append(noop).is_err();
    }

    /// Sends each peer its next slice of the log (empty = heartbeat)
    /// and re-arms the cadence.
    fn broadcast_append(&mut self) {
        self.ticks_to_heartbeat = HEARTBEAT_EVERY;
        let mut out = Vec::with_capacity(self.peers.len());
        for &p in &self.peers {
            let next = self.next_index.get(&p).copied().unwrap_or(1).max(1);
            let prev_index = next - 1;
            let Some(prev_term) = self.log.term_at(prev_index) else {
                continue; // stale next_index beyond our log; back off happens via responses
            };
            out.push((
                p,
                Message::AppendEntries {
                    term: self.term,
                    prev_index,
                    prev_term,
                    entries: self.log.entries_from(next, MAX_APPEND_ENTRIES),
                    leader_commit: self.commit_index,
                },
            ));
        }
        self.outbox.extend(out);
    }

    /// Proposes snapshot `day` with payload `bytes` for replication.
    /// Returns the raft index it was appended at. Validation is a strict
    /// columns decode (the reader every consumer trusts; no row is
    /// built) and happens *before* the entry enters the log: garbage is
    /// rejected here, never committed.
    pub fn propose(&mut self, day: u32, bytes: Vec<u8>) -> Result<u64, ProposeError> {
        if self.role != Role::Leader {
            return Err(ProposeError::NotLeader(self.leader_hint));
        }
        let reject = |why: String| {
            telemetry::global().incr("raft.entries_rejected", 1);
            Err(ProposeError::Rejected(why))
        };
        if day == NOOP_DAY {
            return reject(format!("day {day} is reserved for leadership no-ops"));
        }
        let header_day = match FrameColumns::decode(&bytes) {
            Ok(cols) => cols.day(),
            Err(e) => return reject(format!("payload does not decode: {e}")),
        };
        if header_day != day {
            return reject(format!(
                "payload header says day {header_day}, proposed as day {day}"
            ));
        }
        let digest = section_digest(&bytes);
        for (i, e) in self.log.entries().iter().enumerate() {
            if e.day == day {
                return if e.digest() == digest {
                    Ok(i as u64 + 1) // idempotent re-proposal
                } else {
                    reject(format!("day {day} already logged with different bytes"))
                };
            }
        }
        let entry = LogEntry {
            term: self.term,
            day,
            bytes,
        };
        let index = self.log.append(entry).map_err(ProposeError::Io)?;
        self.advance_commit(); // single-node clusters commit immediately
        Ok(index)
    }

    /// Asks `peer` for the committed bytes of `day` (expected to hash
    /// to `digest`); the answer is validated in [`RaftNode::handle`].
    pub fn request_heal(&mut self, day: u32, digest: u64, peer: NodeId) {
        self.pending_heals.insert(
            day,
            PendingHeal {
                digest,
                peer,
                age: 0,
            },
        );
        self.outbox.push((peer, Message::FetchDay { day }));
        telemetry::global().incr("raft.catchup_fetches", 1);
    }

    /// Processes one delivered message from `from`.
    pub fn handle(&mut self, from: NodeId, msg: Message) {
        match msg {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term),
            Message::VoteResponse { term, granted } => self.on_vote_response(from, term, granted),
            Message::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => self.on_append(from, term, prev_index, prev_term, entries, leader_commit),
            Message::AppendResponse {
                term,
                success,
                match_index,
            } => self.on_append_response(from, term, success, match_index),
            Message::FetchDay { day } => {
                // Serve from the committed log first: entries were
                // checksum-verified at load and live in memory, so they
                // cannot rot at rest the way a store file can. The
                // store is only a fallback (e.g. the log was truncated
                // by recovery but the day was applied long ago).
                let from_log = self
                    .log
                    .entries()
                    .iter()
                    .enumerate()
                    .filter(|&(i, e)| (i as u64 + 1) <= self.commit_index && e.day == day)
                    .map(|(_, e)| e.bytes.clone())
                    .next_back();
                let bytes = from_log.or_else(|| self.store.read_raw(day).ok().flatten());
                self.outbox.push((from, Message::DayData { day, bytes }));
            }
            Message::DayData { day, bytes } => self.on_day_data(from, day, bytes),
        }
    }

    fn on_request_vote(&mut self, from: NodeId, term: u64, last_index: u64, last_term: u64) {
        if term > self.term {
            self.step_down(term);
        }
        let up_to_date = last_term > self.log.last_term()
            || (last_term == self.log.last_term() && last_index >= self.log.last_index());
        let mut granted = false;
        if term == self.term
            && !self.vote.compromised()
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from))
            && self.vote.save(self.term, Some(from)).is_ok()
        {
            self.voted_for = Some(from);
            granted = true;
            self.reset_election_timer();
        }
        self.outbox.push((
            from,
            Message::VoteResponse {
                term: self.term,
                granted,
            },
        ));
    }

    fn on_vote_response(&mut self, from: NodeId, term: u64, granted: bool) {
        if term > self.term {
            self.step_down(term);
            return;
        }
        if self.role != Role::Candidate || term != self.term || !granted {
            return;
        }
        self.votes_got.insert(from);
        if self.votes_got.len() >= self.majority() {
            self.become_leader();
        }
    }

    fn on_append(
        &mut self,
        from: NodeId,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
    ) {
        if term > self.term {
            self.step_down(term);
        }
        if term < self.term {
            self.outbox.push((
                from,
                Message::AppendResponse {
                    term: self.term,
                    success: false,
                    match_index: 0,
                },
            ));
            return;
        }
        // A current-term AppendEntries is proof of the term's leader.
        self.role = Role::Follower;
        self.leader_hint = Some(from);
        self.votes_got.clear();
        self.reset_election_timer();

        if self.log.term_at(prev_index) != Some(prev_term) {
            // Log mismatch: tell the leader how far our log reaches so
            // it can back next_index off without a linear probe.
            self.outbox.push((
                from,
                Message::AppendResponse {
                    term: self.term,
                    success: false,
                    match_index: self.log.last_index().min(prev_index.saturating_sub(1)),
                },
            ));
            return;
        }
        let mut matched = prev_index;
        for entry in entries {
            let idx = matched + 1;
            match self.log.term_at(idx) {
                Some(t) if t == entry.term => {
                    matched = idx; // already present
                    continue;
                }
                Some(_) => {
                    // Conflict: a stale-term suffix must go before the
                    // leader's entry lands.
                    if self.log.truncate_from(idx).is_err() {
                        break;
                    }
                }
                None => {}
            }
            match self.log.append(entry) {
                Ok(_) => matched = idx,
                Err(_) => break, // persist what we can; leader resends the rest
            }
        }
        self.outbox.push((
            from,
            Message::AppendResponse {
                term: self.term,
                success: true,
                match_index: matched,
            },
        ));
        let new_commit = leader_commit.min(matched).max(self.commit_index);
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
        }
        self.apply_committed();
    }

    fn on_append_response(&mut self, from: NodeId, term: u64, success: bool, match_index: u64) {
        if term > self.term {
            self.step_down(term);
            return;
        }
        if self.role != Role::Leader || term != self.term {
            return;
        }
        if success {
            self.match_index.insert(from, match_index);
            self.next_index.insert(from, match_index + 1);
            self.advance_commit();
        } else {
            let ni = self.next_index.entry(from).or_insert(1);
            *ni = (*ni).saturating_sub(1).min(match_index + 1).max(1);
        }
    }

    fn on_day_data(&mut self, from: NodeId, day: u32, bytes: Option<Vec<u8>>) {
        let Some(expected) = self.pending_heals.get(&day).map(|p| p.digest) else {
            return; // unsolicited or already healed
        };
        let Some(bytes) = bytes else {
            return; // peer lacks the day; the harness retries elsewhere
        };
        if section_digest(&bytes) != expected {
            return; // damaged or stale copy; never admit it
        }
        if self.store.heal_raw(day, &bytes).is_ok() {
            self.pending_heals.remove(&day);
            self.events.push(NodeEvent::Healed { day, from });
            telemetry::global().incr("raft.heal_from_peer", 1);
        }
    }

    /// Leader-side commit rule: the highest index replicated on a
    /// majority whose entry carries the **current** term.
    fn advance_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let majority = self.majority();
        let mut n = self.log.last_index();
        while n > self.commit_index {
            let replicas = 1 + self.match_index.values().filter(|&&m| m >= n).count();
            if replicas >= majority && self.log.term_at(n) == Some(self.term) {
                self.commit_index = n;
                break;
            }
            n -= 1;
        }
        self.apply_committed();
    }

    /// Applies entries `(last_applied, commit_index]` to the store.
    /// Application is idempotent (digest-match skips) and halts on the
    /// first I/O failure, to be retried on the next advance.
    fn apply_committed(&mut self) {
        while self.last_applied < self.commit_index {
            let idx = self.last_applied + 1;
            let entry = self
                .log
                .get(idx)
                .expect("commit_index never exceeds the log")
                .clone();
            if entry.day == NOOP_DAY {
                self.last_applied = idx;
                continue;
            }
            match self.apply_entry(&entry) {
                Ok(()) => {
                    self.last_applied = idx;
                    self.events.push(NodeEvent::Committed {
                        index: idx,
                        term: entry.term,
                        day: entry.day,
                        digest: entry.digest(),
                    });
                    telemetry::global().incr("raft.entries_committed", 1);
                }
                Err(_) => break,
            }
        }
    }

    fn apply_entry(&mut self, entry: &LogEntry) -> Result<(), StoreError> {
        match self.store.day_digest(entry.day) {
            Ok(Some(d)) if d == entry.digest() => Ok(()),
            Ok(Some(_)) => self.store.heal_raw(entry.day, &entry.bytes),
            Ok(None) => self.store.put_raw(entry.day, &entry.bytes),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_day_bytes;
    use spider_snapshot::OsIo;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spider-node-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(id: NodeId, peers: Vec<NodeId>, dir: &PathBuf) -> RaftNode {
        RaftNode::open(id, peers, dir.join(format!("n{id}")), Arc::new(OsIo), 99).unwrap()
    }

    fn tick_until<F: Fn(&RaftNode) -> bool>(node: &mut RaftNode, cond: F) {
        for _ in 0..200 {
            if cond(node) {
                return;
            }
            node.tick();
        }
        panic!("condition not reached in 200 ticks");
    }

    #[test]
    fn single_node_elects_commits_and_applies() {
        let dir = temp_dir("single");
        let mut node = open(0, vec![], &dir);
        tick_until(&mut node, |n| n.is_leader());
        let bytes = synth_day_bytes(7, 40, 1);
        let idx = node.propose(7, bytes.clone()).unwrap();
        // Index 1 is the leadership no-op; the day lands at index 2.
        assert_eq!(idx, 2);
        assert_eq!(node.commit_index(), 2);
        assert_eq!(
            node.store().day_digest(7).unwrap(),
            Some(section_digest(&bytes))
        );
        // Idempotent re-proposal, conflicting bytes rejected.
        assert_eq!(node.propose(7, bytes).unwrap(), 2);
        assert!(matches!(
            node.propose(7, synth_day_bytes(7, 41, 1)),
            Err(ProposeError::Rejected(_))
        ));
        assert!(matches!(
            node.propose(9, b"garbage".to_vec()),
            Err(ProposeError::Rejected(_))
        ));
        // Valid digests over a front-coding prefix cut mid-character.
        let hostile =
            include_bytes!("../../snapshot/tests/fixtures/hostile-v2-midchar-prefix.colf");
        match node.propose(42, hostile.to_vec()) {
            Err(ProposeError::Rejected(why)) => assert!(why.contains("path utf-8"), "{why}"),
            other => panic!("hostile payload must be rejected, got {other:?}"),
        }
        let events = node.take_events();
        assert!(events.contains(&NodeEvent::BecameLeader { term: 1 }));
        assert!(matches!(
            events
                .iter()
                .find(|e| matches!(e, NodeEvent::Committed { .. })),
            Some(NodeEvent::Committed {
                index: 2,
                day: 7,
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vote_granted_once_per_term_and_persists() {
        let dir = temp_dir("vote");
        let mut node = open(0, vec![1, 2], &dir);
        node.handle(
            1,
            Message::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let out = node.take_outbox();
        assert!(
            matches!(
                out[..],
                [(
                    1,
                    Message::VoteResponse {
                        term: 1,
                        granted: true
                    }
                )]
            ),
            "first request in term granted: {out:?}"
        );
        // A different candidate in the same term is refused...
        node.handle(
            2,
            Message::RequestVote {
                term: 1,
                last_log_index: 5,
                last_log_term: 1,
            },
        );
        let out = node.take_outbox();
        assert!(matches!(
            out[..],
            [(2, Message::VoteResponse { granted: false, .. })]
        ));
        // ...even after a crash/restart: the vote was persisted.
        drop(node);
        let mut node = open(0, vec![1, 2], &dir);
        node.handle(
            2,
            Message::RequestVote {
                term: 1,
                last_log_index: 5,
                last_log_term: 1,
            },
        );
        let out = node.take_outbox();
        assert!(matches!(
            out[..],
            [(2, Message::VoteResponse { granted: false, .. })]
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_candidate_is_refused() {
        let dir = temp_dir("stale");
        let mut node = open(0, vec![1, 2], &dir);
        // Give the follower one committed entry at term 1.
        let bytes = synth_day_bytes(3, 30, 2);
        node.handle(
            1,
            Message::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![LogEntry {
                    term: 1,
                    day: 3,
                    bytes: bytes.clone(),
                }],
                leader_commit: 1,
            },
        );
        assert_eq!(node.commit_index(), 1);
        assert_eq!(
            node.store().day_digest(3).unwrap(),
            Some(section_digest(&bytes))
        );
        node.take_outbox();
        // A term-2 candidate with an empty log must be refused.
        node.handle(
            2,
            Message::RequestVote {
                term: 2,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let out = node.take_outbox();
        assert!(matches!(
            out[..],
            [(
                2,
                Message::VoteResponse {
                    term: 2,
                    granted: false
                }
            )]
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follower_truncates_conflicting_suffix() {
        let dir = temp_dir("conflict");
        let mut node = open(0, vec![1, 2], &dir);
        let stale = synth_day_bytes(5, 20, 3);
        // Uncommitted entry from a term-1 leader that then vanished.
        node.handle(
            1,
            Message::AppendEntries {
                term: 1,
                prev_index: 0,
                prev_term: 0,
                entries: vec![LogEntry {
                    term: 1,
                    day: 5,
                    bytes: stale,
                }],
                leader_commit: 0,
            },
        );
        node.take_outbox();
        assert_eq!(node.log().last_index(), 1);
        // The term-2 leader replicates a different entry at index 1.
        let fresh = synth_day_bytes(6, 20, 3);
        node.handle(
            2,
            Message::AppendEntries {
                term: 2,
                prev_index: 0,
                prev_term: 0,
                entries: vec![LogEntry {
                    term: 2,
                    day: 6,
                    bytes: fresh.clone(),
                }],
                leader_commit: 1,
            },
        );
        let out = node.take_outbox();
        assert!(matches!(
            out[..],
            [(
                2,
                Message::AppendResponse {
                    success: true,
                    match_index: 1,
                    ..
                }
            )]
        ));
        assert_eq!(node.log().last_index(), 1);
        assert_eq!(node.log().get(1).unwrap().day, 6);
        assert_eq!(
            node.store().day_digest(6).unwrap(),
            Some(section_digest(&fresh))
        );
        assert_eq!(node.store().day_digest(5).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_day_serves_stored_bytes_and_heal_validates_digest() {
        let dir = temp_dir("fetch");
        let mut server = open(0, vec![1], &dir);
        tick_until(&mut server, |n| n.role() == Role::Candidate);
        let bytes = synth_day_bytes(11, 25, 4);
        server.store_mut().put_raw(11, &bytes).unwrap();
        server.handle(1, Message::FetchDay { day: 11 });
        let out = server.take_outbox();
        let served = out
            .iter()
            .find_map(|(to, m)| match m {
                Message::DayData { day: 11, bytes } if *to == 1 => bytes.clone(),
                _ => None,
            })
            .expect("served the day");
        assert_eq!(served, bytes);

        let mut client = open(1, vec![0], &dir);
        client.request_heal(11, section_digest(&bytes), 0);
        // A corrupt reply is refused; the pending heal stays armed.
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        client.handle(
            0,
            Message::DayData {
                day: 11,
                bytes: Some(bad),
            },
        );
        assert_eq!(client.pending_heal_days(), vec![11]);
        assert_eq!(client.store().day_digest(11).unwrap(), None);
        // The genuine bytes heal.
        client.handle(
            0,
            Message::DayData {
                day: 11,
                bytes: Some(bytes.clone()),
            },
        );
        assert!(client.pending_heal_days().is_empty());
        assert_eq!(
            client.store().day_digest(11).unwrap(),
            Some(section_digest(&bytes))
        );
        assert!(client
            .take_events()
            .contains(&NodeEvent::Healed { day: 11, from: 0 }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
