//! Burstiness of file operations (§4.2.4, Fig. 17, Table 1 `c_v`).
//!
//! For each weekly snapshot pair and each project:
//!
//! * **write burstiness** — the `c_v` of the *mtime* offsets (seconds
//!   since the previous snapshot) of the week's *new* files;
//! * **read burstiness** — the `c_v` of the *atime* offsets of the
//!   week's *readonly* files.
//!
//! Projects with fewer than [`BurstinessAnalysis::min_files`] files in
//! the category that week are excluded (the paper excluded projects with
//! fewer than 100 files in a weekly snapshot, which is why Table 1 has
//! missing entries). Each surviving `(project, week)` sample contributes
//! one `c_v` to its domain's distribution; Fig. 17 plots the five-number
//! summary of those distributions, with *lower `c_v` = burstier*.

use crate::context::AnalysisContext;
use crate::engine::Engine;
use crate::pipeline::{SnapshotVisitor, VisitCtx};
use rustc_hash::FxHashMap;
use spider_stats::{FiveNumber, Quantiles, StreamingMoments};
use spider_workload::{ScienceDomain, ALL_DOMAINS};

/// Streaming burstiness analysis.
pub struct BurstinessAnalysis {
    ctx: AnalysisContext,
    engine: Engine,
    /// Minimum files per (project, week, category) for inclusion.
    pub min_files: usize,
    write_samples: Vec<Vec<f64>>,
    read_samples: Vec<Vec<f64>>,
}

/// Finalized per-domain burstiness summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstinessReport {
    /// Write (`mtime`) `c_v` five-number summaries per domain with data.
    pub write: Vec<(ScienceDomain, FiveNumber)>,
    /// Read (`atime`) `c_v` five-number summaries per domain with data.
    pub read: Vec<(ScienceDomain, FiveNumber)>,
}

impl BurstinessAnalysis {
    /// Creates the analysis with the paper's ≥100-file filter.
    pub fn new(ctx: AnalysisContext) -> Self {
        Self::with_min_files(ctx, 100)
    }

    /// Creates the analysis with a custom inclusion threshold (scaled-down
    /// simulations use smaller ones).
    pub fn with_min_files(ctx: AnalysisContext, min_files: usize) -> Self {
        Self::with_engine(ctx, min_files, Engine::Parallel)
    }

    /// Creates the analysis with an explicit engine.
    pub fn with_engine(ctx: AnalysisContext, min_files: usize, engine: Engine) -> Self {
        BurstinessAnalysis {
            ctx,
            engine,
            min_files,
            write_samples: vec![Vec::new(); ALL_DOMAINS.len()],
            read_samples: vec![Vec::new(); ALL_DOMAINS.len()],
        }
    }

    /// Median write `c_v` for a domain (the Table 1 `Write (c_v)` column).
    pub fn median_write_cv(&self, domain: ScienceDomain) -> Option<f64> {
        Quantiles::new(self.write_samples[domain.index()].clone()).median()
    }

    /// Median read `c_v` for a domain (the Table 1 `Read (c_v)` column).
    pub fn median_read_cv(&self, domain: ScienceDomain) -> Option<f64> {
        Quantiles::new(self.read_samples[domain.index()].clone()).median()
    }

    /// Finalizes the Fig. 17 report.
    pub fn finish(&self) -> BurstinessReport {
        let summarize = |samples: &[Vec<f64>]| {
            ALL_DOMAINS
                .iter()
                .enumerate()
                .filter_map(|(i, &d)| {
                    Quantiles::new(samples[i].clone())
                        .five_number()
                        .map(|f| (d, f))
                })
                .collect()
        };
        BurstinessReport {
            write: summarize(&self.write_samples),
            read: summarize(&self.read_samples),
        }
    }
}

impl SnapshotVisitor for BurstinessAnalysis {
    fn visit(&mut self, ctx: &VisitCtx<'_>) {
        let Some(diff) = ctx.diff else { return };
        let Some((prev_snapshot, _)) = ctx.prev else {
            return;
        };
        let base = prev_snapshot.taken_at();
        let records = ctx.snapshot.records();

        // Offsets per project, grouped by one fused pass over each diff
        // index list. Appending morsel vectors up the fixed tree keeps the
        // offsets in diff order for both engines.
        let group_offsets = |indexes: &[u32],
                             time_of: &(dyn Fn(&spider_snapshot::SnapshotRecord) -> u64 + Sync)|
         -> FxHashMap<u32, Vec<f64>> {
            self.engine.group_fold(
                indexes.len(),
                |j| Some(records[indexes[j] as usize].gid),
                |acc: &mut Vec<f64>, run| {
                    acc.extend(run.map(|j| {
                        let r = &records[indexes[j] as usize];
                        time_of(r).saturating_sub(base) as f64
                    }));
                },
                |a, b| a.extend(b),
            )
        };
        // New files carry the week's writes; readonly files its reads.
        let write_offsets = group_offsets(&diff.new, &|r| r.mtime);
        let read_offsets = group_offsets(&diff.readonly, &|r| r.atime);

        for (samples, offsets) in [
            (&mut self.write_samples, write_offsets),
            (&mut self.read_samples, read_offsets),
        ] {
            for (gid, values) in offsets {
                if values.len() < self.min_files {
                    continue;
                }
                let Some(domain) = self.ctx.domain_of_gid(gid) else {
                    continue;
                };
                if let Some(cv) = StreamingMoments::from_slice(&values).coefficient_of_variation() {
                    samples[domain.index()].push(cv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::stream_snapshots;
    use spider_snapshot::{Snapshot, SnapshotRecord};
    use spider_workload::{Population, PopulationConfig};

    fn rec(path: &str, gid: u32, atime: u64, mtime: u64) -> SnapshotRecord {
        SnapshotRecord {
            path: path.to_string(),
            atime,
            ctime: mtime,
            mtime,
            uid: 1,
            gid,
            mode: 0o100664,
            ino: 1,
            osts: vec![],
        }
    }

    fn setup() -> (AnalysisContext, u32, u32) {
        let pop = Population::generate(&PopulationConfig::default());
        let cli = pop.domain_projects(ScienceDomain::Cli).next().unwrap().gid;
        let aph = pop.domain_projects(ScienceDomain::Aph).next().unwrap().gid;
        (AnalysisContext::new(&pop), cli, aph)
    }

    #[test]
    fn write_cv_separates_bursty_from_dispersed() {
        let (ctx, cli, aph) = setup();
        let week_secs = 7 * 86_400u64;
        let week0 = Snapshot::new(0, 1_000_000, vec![rec("/seed", cli, 1, 1)]);
        // cli: new files spread across the whole week (dispersed writes).
        // aph: new files packed into one hour (bursty writes).
        let mut records = vec![rec("/seed", cli, 1, 1)];
        for i in 0..50u64 {
            let t = 1_000_000 + (i + 1) * week_secs / 52;
            records.push(rec(&format!("/cli{i:02}"), cli, t, t));
        }
        for i in 0..50u64 {
            let t = 1_000_000 + week_secs / 2 + i * 60;
            records.push(rec(&format!("/aph{i:02}"), aph, t, t));
        }
        let week1 = Snapshot::new(7, 1_000_000 + week_secs, records);
        let mut analysis = BurstinessAnalysis::with_min_files(ctx, 10);
        stream_snapshots(&[week0, week1], &mut [&mut analysis]);

        let cli_cv = analysis.median_write_cv(ScienceDomain::Cli).unwrap();
        let aph_cv = analysis.median_write_cv(ScienceDomain::Aph).unwrap();
        assert!(
            aph_cv < cli_cv / 10.0,
            "bursty {aph_cv} vs dispersed {cli_cv}"
        );
    }

    #[test]
    fn read_cv_uses_readonly_files() {
        let (ctx, cli, _) = setup();
        let week_secs = 7 * 86_400u64;
        let base = 1_000_000u64;
        // Week 0: 20 files exist. Week 1: same files, atime moved to a
        // tight session (readonly).
        let mk_week = |day: u32, taken: u64, atimes: &dyn Fn(u64) -> u64| {
            let records = (0..20u64)
                .map(|i| rec(&format!("/f{i:02}"), cli, atimes(i), 500))
                .collect();
            Snapshot::new(day, taken, records)
        };
        let week0 = mk_week(0, base, &|_| 600);
        let session = base + 3 * 86_400;
        let week1 = mk_week(7, base + week_secs, &|i| session + i * 30);
        let mut analysis = BurstinessAnalysis::with_min_files(ctx, 10);
        stream_snapshots(&[week0, week1], &mut [&mut analysis]);
        let read_cv = analysis.median_read_cv(ScienceDomain::Cli).unwrap();
        assert!(read_cv < 0.01, "read cv {read_cv}");
        // No new files -> no write samples.
        assert_eq!(analysis.median_write_cv(ScienceDomain::Cli), None);
    }

    #[test]
    fn threshold_excludes_small_projects() {
        let (ctx, cli, _) = setup();
        let week0 = Snapshot::new(0, 1_000, vec![rec("/seed", cli, 1, 1)]);
        let week1 = Snapshot::new(
            7,
            1_000 + 7 * 86_400,
            vec![
                rec("/seed", cli, 1, 1),
                rec("/new1", cli, 2_000, 2_000),
                rec("/new2", cli, 3_000, 3_000),
            ],
        );
        let mut analysis = BurstinessAnalysis::with_min_files(ctx, 100);
        stream_snapshots(&[week0, week1], &mut [&mut analysis]);
        // 2 new files < 100 threshold: the domain has no entry, like the
        // paper's missing Table 1 rows.
        assert_eq!(analysis.median_write_cv(ScienceDomain::Cli), None);
        assert!(analysis.finish().write.is_empty());
    }
}
