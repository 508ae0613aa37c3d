//! Directory fan-out: files per directory.
//!
//! Observation 2's second half — "many domains create a large number of
//! files in a small number of directories, which again emphasizes the
//! metadata management challenge" — is about *fan-out*: how many entries
//! a single directory must hold. This analysis computes the per-directory
//! child-count distribution of one snapshot (wide directories are the
//! stress case for MDS design, one of the §5 Spider III sizing inputs).

use crate::engine::Engine;
use rustc_hash::FxHashMap;
use spider_snapshot::Snapshot;
use spider_stats::{EmpiricalCdf, LogHistogram, Quantiles};

/// Fan-out distribution of one snapshot.
#[derive(Debug, Clone)]
pub struct FanoutReport {
    /// CDF of entries per directory (over directories with ≥1 entry).
    pub entries_per_dir: EmpiricalCdf,
    /// Median entries per non-empty directory.
    pub median: f64,
    /// The widest directory's entry count.
    pub max: u64,
    /// Path of the widest directory.
    pub widest_dir: String,
    /// Number of non-empty directories.
    pub populated_dirs: u64,
    /// Number of empty directories (purge leaves these behind — the
    /// paper notes users are responsible for cleaning them up).
    pub empty_dirs: u64,
    /// Base-2 log-binned fan-out profile: bucket `2^k` counts directories
    /// holding `[2^k, 2^(k+1))` entries — the MDS sizing histogram.
    pub log_profile: LogHistogram,
}

/// Computes the fan-out distribution of a snapshot (parallel engine).
///
/// A directory's fan-out counts its *direct* children (files and
/// subdirectories), derived from each entry's parent path.
pub fn fanout_distribution(snapshot: &Snapshot) -> FanoutReport {
    fanout_distribution_with_engine(snapshot, Engine::Parallel)
}

/// Computes the fan-out distribution with an explicit engine: one fused
/// group-count of records by parent path, one fused count of empty
/// directories.
pub fn fanout_distribution_with_engine(snapshot: &Snapshot, engine: Engine) -> FanoutReport {
    let records = snapshot.records();
    let children: FxHashMap<&str, u64> = engine.group_fold(
        records.len(),
        |i| {
            let path = records[i].path.as_str();
            match path.rfind('/') {
                Some(idx) if idx > 0 => Some(&path[..idx]),
                _ => None,
            }
        },
        |acc: &mut u64, run| *acc += run.len() as u64,
        |a, b| *a += b,
    );
    let all_dirs: Vec<&str> = records
        .iter()
        .filter(|r| r.is_dir())
        .map(|r| r.path.as_str())
        .collect();
    let (mut max, mut widest) = (0u64, "");
    for (&dir, &count) in &children {
        if count > max || (count == max && dir < widest) {
            max = count;
            widest = dir;
        }
    }
    let mut log_profile = LogHistogram::new();
    for &c in children.values() {
        log_profile.push(c);
    }
    let counts: Vec<f64> = children.values().map(|&c| c as f64).collect();
    let median = Quantiles::new(counts.clone()).median().unwrap_or(0.0);
    let empty_dirs = engine.count_where(all_dirs.len(), |i| !children.contains_key(all_dirs[i]));
    FanoutReport {
        entries_per_dir: EmpiricalCdf::new(counts),
        median,
        max,
        widest_dir: widest.to_string(),
        populated_dirs: children.len() as u64,
        empty_dirs,
        log_profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_snapshot::SnapshotRecord;

    fn rec(path: &str, mode: u32) -> SnapshotRecord {
        SnapshotRecord {
            path: path.to_string(),
            atime: 1,
            ctime: 1,
            mtime: 1,
            uid: 1,
            gid: 1,
            mode,
            ino: 1,
            osts: vec![],
        }
    }

    #[test]
    fn counts_direct_children() {
        let snap = Snapshot::new(
            0,
            0,
            vec![
                rec("/p", 0o040770),
                rec("/p/a", 0o100664),
                rec("/p/b", 0o100664),
                rec("/p/sub", 0o040770),
                rec("/p/sub/c", 0o100664),
                rec("/q", 0o040770), // empty dir
            ],
        );
        let report = fanout_distribution(&snap);
        // "/p" holds a, b, sub (3); "/p/sub" holds c (1).
        assert_eq!(report.max, 3);
        assert_eq!(report.widest_dir, "/p");
        assert_eq!(report.populated_dirs, 2);
        assert_eq!(report.empty_dirs, 1);
        assert_eq!(report.median, 2.0);
    }

    #[test]
    fn wide_flat_directory() {
        let mut records = vec![rec("/flat", 0o040770)];
        for i in 0..500 {
            records.push(rec(&format!("/flat/f{i:04}"), 0o100664));
        }
        let snap = Snapshot::new(0, 0, records);
        let report = fanout_distribution(&snap);
        assert_eq!(report.max, 500);
        assert_eq!(report.widest_dir, "/flat");
        // The CDF sees a single wide directory.
        assert_eq!(report.entries_per_dir.len(), 1);
        // The log profile puts it in the [256, 512) bucket.
        assert_eq!(report.log_profile.buckets(), vec![(256, 1)]);
    }

    #[test]
    fn empty_snapshot() {
        let report = fanout_distribution(&Snapshot::new(0, 0, vec![]));
        assert_eq!(report.max, 0);
        assert_eq!(report.populated_dirs, 0);
        assert_eq!(report.median, 0.0);
        assert!(report.entries_per_dir.is_empty());
    }

    #[test]
    fn root_level_entries_count_toward_no_directory() {
        // Entries directly under "/" have no countable parent (idx == 0).
        let snap = Snapshot::new(0, 0, vec![rec("/a", 0o100664), rec("/b", 0o100664)]);
        let report = fanout_distribution(&snap);
        assert_eq!(report.populated_dirs, 0);
    }
}
