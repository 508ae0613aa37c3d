//! The deterministic cluster harness.
//!
//! [`Cluster`] owns N [`RaftNode`]s, one [`SimNet`], and the shared
//! [`StoreIo`] everything persists through. Each [`Cluster::step`] is
//! one tick: the network delivers what is due, every live node ticks,
//! outboxes are routed, and every observable event is audited against
//! the raft safety invariants *continuously* — not just at the end of a
//! run:
//!
//! * **Election safety** — at most one leader per term.
//! * **Leader completeness** — a newly elected leader's log contains
//!   every entry the cluster has ever committed.
//! * **Commit immutability** — no index or day is ever committed twice
//!   with different contents.
//!
//! Violations are collected, never panicked, so a soak run reports
//! everything it saw. Crash (`crash`/`restart`) drops a node's volatile
//! state while its persisted log, vote record, and store survive on
//! disk; partitions are delegated to the network.
//!
//! [`Cluster::scrub_and_heal`] is the integration the crate exists for:
//! a node whose scrub quarantined a *committed* day asks a live peer
//! for the genuine bytes (validated by committed digest) instead of
//! substituting a neighbor day.

use crate::node::{NodeEvent, NodeId, ProposeError, RaftNode, Role};
use crate::simnet::{NetConfig, SimNet};
use crate::{derive_seed, log::LogRecovery};
use spider_snapshot::{SnapshotStore, StoreHealth, StoreIo};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cluster shape and determinism knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (ids `0..nodes`).
    pub nodes: u32,
    /// Run seed: all election jitter and network randomness derives
    /// from this.
    pub seed: u64,
    /// Simulated network tunables.
    pub net: NetConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            seed: 42,
            net: NetConfig::default(),
        }
    }
}

/// Counters aggregated across the whole cluster run (also mirrored to
/// the global telemetry registry under `raft.*` by the nodes).
#[derive(Debug, Clone, Default)]
pub struct RaftMetrics {
    /// Elections started (campaigns, not necessarily won).
    pub elections: u64,
    /// Term changes observed across all nodes.
    pub term_changes: u64,
    /// Distinct log entries committed cluster-wide.
    pub committed: u64,
    /// Proposals rejected by validation.
    pub rejected: u64,
    /// Peer fetches requested for quarantined committed days.
    pub catchup_fetches: u64,
    /// Quarantined days restored with genuine bytes from a peer.
    pub heal_from_peer: u64,
    /// Messages the network delivered.
    pub msgs_delivered: u64,
    /// Messages the network dropped (partitions + seeded loss).
    pub msgs_dropped: u64,
}

/// Per-node line of a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// True when the node is currently crashed.
    pub crashed: bool,
    /// Role at report time (`None` while crashed).
    pub role: Option<Role>,
    /// Current term (0 while crashed).
    pub term: u64,
    /// Commit index (0 while crashed).
    pub commit_index: u64,
    /// Days present in the node's store.
    pub store_days: usize,
    /// Days substituted with a neighbor (scrub fallback, paper §2.2).
    pub substitutions: Vec<(u32, u32)>,
    /// Days healed with genuine bytes from a peer `(day, source)`.
    pub peer_heals: Vec<(u32, String)>,
    /// Days still quarantined without a heal.
    pub quarantined: Vec<u32>,
    /// True when every committed day's stored digest matches the
    /// committed digest.
    pub digests_match: bool,
}

/// Snapshot of a cluster run: convergence, safety, per-node health.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Ticks elapsed.
    pub ticks: u64,
    /// The live leader (highest term wins if a stale one lingers).
    pub leader: Option<NodeId>,
    /// Distinct committed entries.
    pub committed_entries: usize,
    /// True when every live node holds byte-identical bytes for every
    /// committed day.
    pub converged: bool,
    /// Safety violations observed (must be empty).
    pub violations: Vec<String>,
    /// Aggregated counters.
    pub metrics: RaftMetrics,
    /// One line per node.
    pub nodes: Vec<NodeReport>,
}

/// N raft nodes, a seeded network, and the safety auditor.
pub struct Cluster {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
    seed: u64,
    net: SimNet,
    nodes: BTreeMap<NodeId, RaftNode>,
    crashed: BTreeSet<NodeId>,
    all_ids: Vec<NodeId>,
    leaders_by_term: BTreeMap<u64, BTreeSet<NodeId>>,
    /// index → (term, day, digest) for every entry ever committed.
    committed: BTreeMap<u64, (u64, u32, u64)>,
    /// day → digest, the convergence target.
    committed_days: BTreeMap<u32, u64>,
    metrics: RaftMetrics,
    health: BTreeMap<NodeId, StoreHealth>,
    violations: Vec<String>,
    /// Rotates peer choice across successive anti-entropy passes, so a
    /// heal that failed against one peer (its copy rotted too) retries
    /// against a different one next round.
    heal_round: usize,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.all_ids.len())
            .field("crashed", &self.crashed)
            .field("ticks", &self.net.now())
            .field("committed", &self.committed.len())
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster of `cfg.nodes` nodes rooted at `dir` (node `i`
    /// persists under `dir/n<i>`), all I/O through `io` — pass a
    /// seeded `FaultFs` to run the whole cluster under injected faults.
    pub fn new(
        dir: impl Into<PathBuf>,
        io: Arc<dyn StoreIo>,
        cfg: ClusterConfig,
    ) -> io::Result<Cluster> {
        let dir = dir.into();
        let all_ids: Vec<NodeId> = (0..cfg.nodes).collect();
        let mut nodes = BTreeMap::new();
        for &id in &all_ids {
            nodes.insert(id, Self::open_node(&dir, &io, &all_ids, id, cfg.seed)?);
        }
        Ok(Cluster {
            dir,
            io,
            seed: cfg.seed,
            net: SimNet::new(cfg.net, derive_seed(cfg.seed, 0x4E7)),
            nodes,
            crashed: BTreeSet::new(),
            all_ids,
            leaders_by_term: BTreeMap::new(),
            committed: BTreeMap::new(),
            committed_days: BTreeMap::new(),
            metrics: RaftMetrics::default(),
            health: BTreeMap::new(),
            violations: Vec::new(),
            heal_round: 0,
        })
    }

    fn open_node(
        dir: &Path,
        io: &Arc<dyn StoreIo>,
        all_ids: &[NodeId],
        id: NodeId,
        seed: u64,
    ) -> io::Result<RaftNode> {
        let peers = all_ids.iter().copied().filter(|&p| p != id).collect();
        RaftNode::open(id, peers, dir.join(format!("n{id}")), Arc::clone(io), seed)
    }

    /// Current tick.
    pub fn ticks(&self) -> u64 {
        self.net.now()
    }

    /// The node ids, live or crashed.
    pub fn ids(&self) -> &[NodeId] {
        &self.all_ids
    }

    /// A live node by id.
    pub fn node(&self, id: NodeId) -> Option<&RaftNode> {
        self.nodes.get(&id)
    }

    /// The simulated network (for partition orchestration).
    pub fn net_mut(&mut self) -> &mut SimNet {
        &mut self.net
    }

    /// Safety violations observed so far. A healthy run keeps this
    /// empty forever.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Aggregated counters (network stats folded in).
    pub fn metrics(&self) -> RaftMetrics {
        let mut m = self.metrics.clone();
        m.msgs_delivered = self.net.delivered();
        m.msgs_dropped = self.net.dropped();
        m
    }

    /// `day → digest` for every committed day.
    pub fn committed_days(&self) -> &BTreeMap<u32, u64> {
        &self.committed_days
    }

    /// The live leader; when a deposed leader lingers across a
    /// partition, the one with the highest term is the real one.
    pub fn leader(&self) -> Option<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.is_leader())
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// One tick: deliver due messages, tick every live node, route
    /// outboxes, audit events.
    pub fn step(&mut self) {
        for env in self.net.advance() {
            if let Some(node) = self.nodes.get_mut(&env.to) {
                node.handle(env.from, env.msg);
            }
        }
        for node in self.nodes.values_mut() {
            node.tick();
        }
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let (outbox, events) = {
                let node = self.nodes.get_mut(&id).expect("live node");
                (node.take_outbox(), node.take_events())
            };
            for (to, msg) in outbox {
                self.net.send(id, to, msg);
            }
            for event in events {
                self.audit(id, event);
            }
        }
    }

    /// Runs `ticks` steps.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Steps until [`Cluster::converged`] or `max_ticks` elapse;
    /// returns whether convergence was reached.
    pub fn run_until_converged(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            if self.converged() {
                return true;
            }
            self.step();
        }
        self.converged()
    }

    fn audit(&mut self, id: NodeId, event: NodeEvent) {
        match event {
            NodeEvent::CampaignStarted { .. } => self.metrics.elections += 1,
            NodeEvent::TermChanged { .. } => self.metrics.term_changes += 1,
            NodeEvent::BecameLeader { term } => {
                let winners = self.leaders_by_term.entry(term).or_default();
                winners.insert(id);
                if winners.len() > 1 {
                    self.violations.push(format!(
                        "election safety violated: term {term} has leaders {winners:?}"
                    ));
                }
                // Leader completeness: every committed entry must be in
                // the new leader's log, bit for bit.
                if let Some(node) = self.nodes.get(&id) {
                    for (&index, &(term, day, digest)) in &self.committed {
                        let ok = node.log().get(index).is_some_and(|e| {
                            e.term == term && e.day == day && e.digest() == digest
                        });
                        if !ok {
                            self.violations.push(format!(
                                "leader completeness violated: node {id} leads without \
                                 committed entry {index} (day {day})"
                            ));
                        }
                    }
                }
            }
            NodeEvent::Committed {
                index,
                term,
                day,
                digest,
            } => match self.committed.get(&index) {
                Some(&prev) if prev != (term, day, digest) => {
                    self.violations.push(format!(
                        "commit immutability violated: index {index} committed as \
                             {prev:?} and ({term}, {day}, {digest:#x})"
                    ));
                }
                Some(_) => {}
                None => {
                    self.committed.insert(index, (term, day, digest));
                    self.metrics.committed += 1;
                    match self.committed_days.get(&day) {
                        Some(&d) if d != digest => self.violations.push(format!(
                            "commit immutability violated: day {day} committed with \
                                 two digests {d:#x} and {digest:#x}"
                        )),
                        Some(_) => {}
                        None => {
                            self.committed_days.insert(day, digest);
                        }
                    }
                }
            },
            NodeEvent::Healed { day, from } => {
                self.metrics.heal_from_peer += 1;
                if let Some(health) = self.health.get_mut(&id) {
                    health.record_peer_heal(day, format!("node-{from}"));
                }
            }
        }
    }

    /// Proposes `day` to the current leader. `None` means no leader
    /// was willing (none elected, or mid-failover) — step and retry.
    /// Validation rejections also return `None` and are counted.
    pub fn propose(&mut self, day: u32, bytes: &[u8]) -> Option<u64> {
        let leader = self.leader()?;
        let node = self.nodes.get_mut(&leader)?;
        match node.propose(day, bytes.to_vec()) {
            Ok(index) => {
                let events = node.take_events();
                for e in events {
                    self.audit(leader, e);
                }
                Some(index)
            }
            Err(ProposeError::Rejected(_)) => {
                self.metrics.rejected += 1;
                None
            }
            Err(_) => None,
        }
    }

    /// Crashes node `id`: volatile state is gone; the persisted log,
    /// vote record, and store stay on disk for [`Cluster::restart`].
    pub fn crash(&mut self, id: NodeId) {
        if self.nodes.remove(&id).is_some() {
            self.crashed.insert(id);
        }
    }

    /// Restarts a crashed node from its persisted state; returns what
    /// log recovery found (how much survived, what was truncated).
    pub fn restart(&mut self, id: NodeId) -> io::Result<LogRecovery> {
        if !self.crashed.contains(&id) {
            return Err(io::Error::other(format!("node {id} is not crashed")));
        }
        let node = Self::open_node(&self.dir, &self.io, &self.all_ids, id, self.seed)?;
        let recovery = node.recovery().clone();
        self.crashed.remove(&id);
        self.nodes.insert(id, node);
        Ok(recovery)
    }

    /// Scrubs node `id`'s store and runs anti-entropy against the
    /// committed history: every committed day whose local bytes are
    /// quarantined, missing, or digest-divergent (silent at-rest rot
    /// the scrub downgraded rather than quarantined) is re-fetched
    /// from a live peer, validated against the committed digest before
    /// admission — instead of settling for the scrub's neighbor-day
    /// substitution. Returns the scrub's health; peer heals land
    /// asynchronously as the fetches complete (watch
    /// [`Cluster::health`]).
    pub fn scrub_and_heal(&mut self, id: NodeId) -> Option<StoreHealth> {
        // Traced: a heal run on a request thread (say, by a loader over
        // `replica()`) inherits that request's trace id, so the heal
        // shows up attributed in chrome traces.
        let _span = spider_telemetry::global().span("raft.scrub_and_heal");
        let peers: Vec<NodeId> = self.nodes.keys().copied().filter(|&p| p != id).collect();
        let node = self.nodes.get_mut(&id)?;
        let health = node.store_mut().scrub();
        let damaged: Vec<u32> = self
            .committed_days
            .iter()
            .filter(|&(&day, &digest)| node.store().day_digest(day).ok().flatten() != Some(digest))
            .map(|(&day, _)| day)
            .collect();
        self.heal_round = self.heal_round.wrapping_add(1);
        for (i, day) in damaged.into_iter().enumerate() {
            if peers.is_empty() {
                continue;
            }
            let digest = self.committed_days[&day];
            let peer = peers[(i + self.heal_round) % peers.len()];
            node.request_heal(day, digest, peer);
            self.metrics.catchup_fetches += 1;
        }
        self.health.insert(id, health.clone());
        Some(health)
    }

    /// The most recent scrub health for `id` (updated in place as peer
    /// heals complete).
    pub fn health(&self, id: NodeId) -> Option<&StoreHealth> {
        self.health.get(&id)
    }

    /// The read-side store: the leader's, else the lowest live id's.
    /// `None` only when every node is crashed.
    pub fn replica(&self) -> Option<&SnapshotStore> {
        let id = self
            .leader()
            .or_else(|| self.nodes.keys().next().copied())?;
        Some(self.nodes[&id].store())
    }

    /// `day → stored digest` over committed days for node `id`.
    pub fn store_digests(&self, id: NodeId) -> BTreeMap<u32, Option<u64>> {
        let mut out = BTreeMap::new();
        if let Some(node) = self.nodes.get(&id) {
            for &day in self.committed_days.keys() {
                out.insert(day, node.store().day_digest(day).ok().flatten());
            }
        }
        out
    }

    /// True when every *live* node stores byte-identical bytes (by
    /// digest) for every committed day, with no heal still in flight.
    pub fn converged(&self) -> bool {
        !self.committed_days.is_empty()
            && self.nodes.values().all(|node| {
                node.pending_heal_days().is_empty()
                    && self.committed_days.iter().all(|(&day, &digest)| {
                        node.store().day_digest(day).ok().flatten() == Some(digest)
                    })
            })
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> ClusterReport {
        let nodes = self
            .all_ids
            .iter()
            .map(|&id| {
                let health = self.health.get(&id);
                let substitutions = health
                    .map(|h| {
                        h.substitutions
                            .iter()
                            .map(|s| (s.day, s.substitute))
                            .collect()
                    })
                    .unwrap_or_default();
                let peer_heals: Vec<(u32, String)> = health
                    .map(|h| {
                        h.peer_heals
                            .iter()
                            .map(|p| (p.day, p.source.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                let quarantined = health
                    .map(|h| {
                        h.quarantined
                            .iter()
                            .map(|q| q.day)
                            .filter(|d| {
                                h.peer_heal_source(*d).is_none() && h.substitute_for(*d).is_none()
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                match self.nodes.get(&id) {
                    Some(node) => NodeReport {
                        id,
                        crashed: false,
                        role: Some(node.role()),
                        term: node.term(),
                        commit_index: node.commit_index(),
                        store_days: node.store().len(),
                        substitutions,
                        peer_heals,
                        quarantined,
                        digests_match: self.committed_days.iter().all(|(&day, &digest)| {
                            node.store().day_digest(day).ok().flatten() == Some(digest)
                        }),
                    },
                    None => NodeReport {
                        id,
                        crashed: true,
                        role: None,
                        term: 0,
                        commit_index: 0,
                        store_days: 0,
                        substitutions,
                        peer_heals,
                        quarantined,
                        digests_match: false,
                    },
                }
            })
            .collect();
        ClusterReport {
            ticks: self.net.now(),
            leader: self.leader(),
            committed_entries: self.committed.len(),
            converged: self.converged(),
            violations: self.violations.clone(),
            metrics: self.metrics(),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_day_bytes;
    use spider_snapshot::xxh::section_digest;
    use spider_snapshot::OsIo;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spider-cluster-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cluster(dir: &PathBuf, nodes: u32, seed: u64) -> Cluster {
        Cluster::new(
            dir,
            Arc::new(OsIo),
            ClusterConfig {
                nodes,
                seed,
                net: NetConfig::default(),
            },
        )
        .unwrap()
    }

    fn propose_until(c: &mut Cluster, day: u32, bytes: &[u8]) {
        for _ in 0..2000 {
            if c.propose(day, bytes).is_some() {
                return;
            }
            c.step();
        }
        panic!("no leader accepted day {day}");
    }

    /// Proposes `day` and steps until the auditor records its commit
    /// (convergence only tracks days already known committed).
    fn commit_day(c: &mut Cluster, day: u32, bytes: &[u8]) {
        propose_until(c, day, bytes);
        for _ in 0..2000 {
            if c.committed_days().contains_key(&day) {
                return;
            }
            c.step();
        }
        panic!("day {day} proposed but never committed");
    }

    #[test]
    fn three_nodes_elect_and_converge() {
        let dir = temp_dir("elect");
        let mut c = cluster(&dir, 3, 7);
        for day in [0u32, 7, 14] {
            commit_day(&mut c, day, &synth_day_bytes(day, 30, 7));
        }
        assert!(c.run_until_converged(3000), "cluster must converge");
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.committed_days().len(), 3);
        for id in 0..3 {
            let digests = c.store_digests(id);
            for (&day, &want) in c.committed_days() {
                assert_eq!(digests[&day], Some(want), "node {id} day {day}");
            }
        }
        let report = c.report();
        assert!(report.converged);
        assert!(report.nodes.iter().all(|n| n.digests_match));
        assert!(report.metrics.committed >= 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leader_crash_failover_preserves_committed_entries() {
        let dir = temp_dir("failover");
        let mut c = cluster(&dir, 3, 21);
        commit_day(&mut c, 0, &synth_day_bytes(0, 30, 21));
        assert!(c.run_until_converged(3000));
        let old = c.leader().unwrap();
        c.crash(old);
        commit_day(&mut c, 7, &synth_day_bytes(7, 30, 21));
        let new = c.leader().unwrap();
        assert_ne!(new, old, "a different node must take over");
        c.restart(old).unwrap();
        assert!(c.run_until_converged(3000));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.committed_days().len(), 2);
        for (&day, &digest) in c.committed_days() {
            assert_eq!(
                c.node(old).unwrap().store().day_digest(day).unwrap(),
                Some(digest),
                "restarted node must hold committed day {day}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let dir = temp_dir("partition");
        let mut c = cluster(&dir, 3, 33);
        commit_day(&mut c, 0, &synth_day_bytes(0, 30, 33));
        assert!(c.run_until_converged(3000));
        let old = c.leader().unwrap();
        let others: Vec<NodeId> = (0..3).filter(|&i| i != old).collect();
        c.net_mut().partition(&[&[old], &others]);
        // The stranded leader may accept a proposal but can never
        // commit it; the majority side elects a fresh leader.
        let stranded = c.node(old).unwrap().commit_index();
        let _ = c.propose(99, &synth_day_bytes(99, 30, 33));
        c.run(300);
        assert_eq!(
            c.node(old).unwrap().commit_index(),
            stranded,
            "minority leader must not commit"
        );
        assert!(!c.committed_days().contains_key(&99));
        c.net_mut().heal();
        // Re-propose through the surviving majority's leader.
        commit_day(&mut c, 7, &synth_day_bytes(7, 30, 33));
        assert!(c.run_until_converged(3000));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert!(c.committed_days().contains_key(&7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_committed_day_heals_from_peer_not_neighbor() {
        let dir = temp_dir("heal");
        let mut c = cluster(&dir, 3, 55);
        let days = [0u32, 7, 14];
        for day in days {
            commit_day(&mut c, day, &synth_day_bytes(day, 30, 55));
        }
        assert!(c.run_until_converged(3000));
        // Truncate day 7 in node 0's store to an undecodable stump —
        // spine damage, which scrub quarantines (column damage would
        // merely degrade).
        let victim = dir.join("n0/store/snap-00007.colf");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..16]).unwrap();

        let health = c.scrub_and_heal(0).unwrap();
        assert_eq!(health.quarantined.len(), 1);
        assert_eq!(health.quarantined[0].day, 7);
        // The scrub's own plan is the paper's neighbor substitution...
        assert!(health.substitute_for(7).is_some());
        c.run(200);
        // ...but replication upgrades it to the genuine bytes.
        let healed = c.health(0).unwrap();
        assert!(
            healed.peer_heal_source(7).is_some(),
            "day 7 must heal from a peer: {healed:?}"
        );
        assert_eq!(healed.substitute_for(7), None, "substitution upgraded");
        let want = section_digest(&synth_day_bytes(7, 30, 55));
        assert_eq!(
            c.node(0).unwrap().store().day_digest(7).unwrap(),
            Some(want)
        );
        assert!(c.converged());
        let metrics = c.metrics();
        assert_eq!(metrics.catchup_fetches, 1);
        assert_eq!(metrics.heal_from_peer, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
