//! A frame loader opened over a cluster's read replica serves the same
//! frames after the leader fails: committed days are byte-identical on
//! every replica (the cluster admits them by digest), so a loader
//! re-opened against a surviving replica decodes identical frames, and
//! since a frame's cache key is its bytes' digest, a shared cache stays
//! valid across the switch.

use spider_core::FrameLoader;
use spider_raft::synth::synth_day_bytes;
use spider_raft::{Cluster, ClusterConfig};
use spider_snapshot::io::OsIo;
use std::sync::Arc;

#[test]
fn replicated_loader_survives_leader_failover() {
    let dir = std::env::temp_dir().join(format!("spider-loader-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = Cluster::new(&dir, Arc::new(OsIo), ClusterConfig::default()).unwrap();
    for day in [0u32, 7] {
        let bytes = synth_day_bytes(day, 60, 5);
        for _ in 0..2000 {
            if cluster.propose(day, &bytes).is_some() {
                break;
            }
            cluster.step();
        }
        // Wait for the commit to be audited before the next day.
        for _ in 0..2000 {
            if cluster.committed_days().contains_key(&day) {
                break;
            }
            cluster.step();
        }
    }
    assert!(cluster.run_until_converged(3000));

    let before = FrameLoader::new(cluster.replica().unwrap()).unwrap();
    let frames: Vec<_> = [0u32, 7]
        .iter()
        .map(|&d| before.frame(d).unwrap().unwrap())
        .collect();

    // Kill the leader; a loader re-opened against the surviving read
    // replica serves identical frames.
    let old_leader = cluster
        .ids()
        .iter()
        .copied()
        .find(|&id| cluster.node(id).is_some_and(|n| n.is_leader()))
        .expect("a leader exists after convergence");
    cluster.crash(old_leader);
    let after = FrameLoader::new(cluster.replica().expect("a live replica")).unwrap();
    for (i, &day) in [0u32, 7].iter().enumerate() {
        let frame = after.frame(day).unwrap().unwrap();
        assert_eq!(*frame, *frames[i], "day {day} across failover");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
