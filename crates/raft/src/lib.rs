//! # spider-raft
//!
//! Replicated snapshot ingestion: the write path that turns the
//! single-directory [`spider_snapshot::SnapshotStore`] into a
//! quorum-replicated archive. The paper's 500-day corpus exists only
//! because one filesystem on one site survived long enough to be
//! scanned daily; this crate removes that single point of failure for
//! our own store.
//!
//! The design is raft-shaped and entirely **in-process and
//! deterministic**:
//!
//! * Snapshot days are proposed to the elected leader as log entries
//!   carrying the exact `colf` bytes every replica must hold
//!   ([`LogEntry`]).
//! * Nodes persist their log as checksummed segments (`*.rlog`, one
//!   XXH64 word per entry) plus a double-slotted vote record, all
//!   through the store's [`spider_snapshot::StoreIo`] seam — so the
//!   `FaultFs` injector corrupts raft state exactly as it corrupts
//!   snapshots ([`log`]).
//! * All traffic flows over a seedable simulated network
//!   ([`simnet::SimNet`]): per-message delay jitter (which reorders),
//!   probabilistic drops, named partitions, and node crash/restart.
//!   Same seed, same schedule, same outcome — a failing soak seed
//!   replays exactly.
//! * Committed entries are applied to each node's own `SnapshotStore`
//!   via the strict-validating `put_raw`, so replica digests converge
//!   byte-for-byte ([`node`]).
//! * Scrub integrates with catch-up: a node whose scrub quarantined a
//!   committed day re-fetches the *genuine bytes* from a peer
//!   ([`cluster::Cluster::scrub_and_heal`]) instead of substituting a
//!   neighbor day — the replication upgrade of the paper's
//!   skip-to-nearest-dump fallback.
//!
//! [`cluster::Cluster`] is the harness gluing these together: it steps
//! the network tick by tick, audits the safety invariants continuously
//! (one leader per term, committed entries never rewritten), and
//! reports per-node [`spider_snapshot::StoreHealth`] convergence. The
//! CLI `cluster` subcommand and the seeded soak/property suites drive
//! it; a `spider-core` loader over [`cluster::Cluster::replica`] reads it.

#![warn(missing_docs)]

pub mod cluster;
pub mod log;
pub mod node;
pub mod simnet;
pub mod synth;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, NodeReport, RaftMetrics};
pub use log::{LogEntry, RaftLog, VoteRecord};
pub use node::{Message, NodeId, RaftNode, Role};
pub use simnet::{NetConfig, SimNet};

/// Seed-mixing constant for raft's own SplitMix64 streams (distinct
/// from the faultfs stream so co-seeded runs do not correlate).
const RAFT_SEED_MIX: u64 = 0x5AF7_10D5_0F5E_ED01;

/// The SplitMix64 step used for every random choice in this crate:
/// election jitter, network delays, drop decisions. One u64 of state,
/// fully determined by the seed.
#[inline]
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent deterministic stream for `purpose` from a
/// run seed (so e.g. node 2's election jitter does not perturb the
/// network's drop decisions).
pub(crate) fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut s = seed ^ RAFT_SEED_MIX;
    let _ = splitmix(&mut s);
    s ^= purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix(&mut s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_separates_purposes() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }
}
