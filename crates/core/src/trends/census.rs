//! The one-pass unique-entry census.
//!
//! Several §4.1 analyses count *unique* files and directories across the
//! whole 500-day window ("due to deleted files, the aggregated count of
//! unique files can be larger than the peak file count"). A single global
//! path-hash set attributes each path on first sight:
//!
//! * per-domain unique file/directory counts — Fig. 7(a,b) and the
//!   Table 1 `# Entries` column;
//! * per-user and per-project unique file counts — Fig. 8(b);
//! * per-domain and global extension popularity — Table 2;
//! * programming-language counts by extension — Figs. 11 and 12.
//!
//! One `u64` hash per unique path is the whole memory bill; at the
//! default 1/1000 scale that is a few million entries.
//!
//! Execution is split in two: the first-sight dedup (a global mutable
//! hash set) runs sequentially, marking which rows are fresh; everything
//! downstream — domain attribution, file/dir tallies, per-uid/gid counts,
//! extension popularity — is **one fused [`Scan::group_agg`]** keyed by
//! domain, with a [`CensusShard`] accumulator per domain merged up the
//! engine's deterministic morsel tree.

use crate::context::AnalysisContext;
use crate::engine::Engine;
use crate::frame::{path_hash, ExtId, EXT_NONE};
use crate::pipeline::{SnapshotVisitor, VisitCtx};
use crate::query::Scan;
use rustc_hash::{FxHashMap, FxHashSet};
use spider_workload::languages::language_of_extension;
use spider_workload::ScienceDomain;

/// Group key for rows whose gid maps to no registered project.
const UNATTRIBUTED: u8 = u8::MAX;

/// Per-domain accumulator of one fused census scan (per-frame state; ext
/// ids are only meaningful within the frame that interned them).
#[derive(Debug, Default)]
struct CensusShard {
    files: u64,
    dirs: u64,
    files_per_uid: FxHashMap<u32, u64>,
    files_per_gid: FxHashMap<u32, u64>,
    ext_files: FxHashMap<ExtId, u64>,
    files_without_extension: u64,
}

impl CensusShard {
    fn fold(&mut self, frame: &crate::frame::SnapshotFrame, i: usize) {
        if frame.is_file[i] {
            self.files += 1;
            *self.files_per_uid.entry(frame.uid[i]).or_insert(0) += 1;
            *self.files_per_gid.entry(frame.gid[i]).or_insert(0) += 1;
            if frame.ext[i] == EXT_NONE {
                self.files_without_extension += 1;
            } else {
                *self.ext_files.entry(frame.ext[i]).or_insert(0) += 1;
            }
        } else {
            self.dirs += 1;
        }
    }

    fn merge(&mut self, other: CensusShard) {
        self.files += other.files;
        self.dirs += other.dirs;
        self.files_without_extension += other.files_without_extension;
        for (k, v) in other.files_per_uid {
            *self.files_per_uid.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.files_per_gid {
            *self.files_per_gid.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.ext_files {
            *self.ext_files.entry(k).or_insert(0) += v;
        }
    }
}

/// Per-domain unique-entry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainEntryCounts {
    /// Unique regular files attributed to the domain.
    pub files: u64,
    /// Unique directories attributed to the domain.
    pub dirs: u64,
}

impl DomainEntryCounts {
    /// Total unique entries.
    pub fn total(&self) -> u64 {
        self.files + self.dirs
    }

    /// Directory share of entries (Fig. 7b).
    pub fn dir_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.dirs as f64 / self.total() as f64
        }
    }
}

/// The streaming census visitor.
pub struct UniqueCensus {
    ctx: AnalysisContext,
    engine: Engine,
    seen: FxHashSet<u64>,
    /// Domain index → file/dir counts.
    by_domain: Vec<DomainEntryCounts>,
    /// Unknown-gid entries (should stay zero in a healthy run).
    pub unattributed: u64,
    /// uid → unique file count.
    files_per_uid: FxHashMap<u32, u64>,
    /// gid → unique file count.
    files_per_gid: FxHashMap<u32, u64>,
    /// (domain index, extension) → unique file count.
    ext_by_domain: FxHashMap<(u8, Box<str>), u64>,
    /// extension → unique file count (global).
    ext_global: FxHashMap<Box<str>, u64>,
    /// Files with no extension.
    pub files_without_extension: u64,
}

impl UniqueCensus {
    /// Creates an empty census (parallel engine).
    pub fn new(ctx: AnalysisContext) -> Self {
        Self::with_engine(ctx, Engine::Parallel)
    }

    /// Creates an empty census with an explicit engine.
    pub fn with_engine(ctx: AnalysisContext, engine: Engine) -> Self {
        UniqueCensus {
            ctx,
            engine,
            seen: FxHashSet::default(),
            by_domain: vec![DomainEntryCounts::default(); spider_workload::ALL_DOMAINS.len()],
            unattributed: 0,
            files_per_uid: FxHashMap::default(),
            files_per_gid: FxHashMap::default(),
            ext_by_domain: FxHashMap::default(),
            ext_global: FxHashMap::default(),
            files_without_extension: 0,
        }
    }

    /// Total unique entries seen.
    pub fn unique_entries(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Unique files + dirs per domain (Fig. 7 / Table 1 `# Entries`).
    pub fn domain_counts(&self, domain: ScienceDomain) -> DomainEntryCounts {
        self.by_domain[domain.index()]
    }

    /// Global unique file count.
    pub fn unique_files(&self) -> u64 {
        self.by_domain.iter().map(|c| c.files).sum()
    }

    /// Global unique directory count.
    pub fn unique_dirs(&self) -> u64 {
        self.by_domain.iter().map(|c| c.dirs).sum()
    }

    /// Unique file counts per user (Fig. 8b).
    pub fn files_per_user(&self) -> &FxHashMap<u32, u64> {
        &self.files_per_uid
    }

    /// Unique file counts per project (Fig. 8b).
    pub fn files_per_project(&self) -> &FxHashMap<u32, u64> {
        &self.files_per_gid
    }

    /// Top-`k` extensions of a domain with popularity percentages
    /// relative to the domain's unique files (Table 2).
    pub fn top_extensions(&self, domain: ScienceDomain, k: usize) -> Vec<(String, f64)> {
        let total = self.by_domain[domain.index()].files.max(1) as f64;
        let mut entries: Vec<(String, u64)> = self
            .ext_by_domain
            .iter()
            .filter(|((d, _), _)| *d == domain.index() as u8)
            .map(|((_, e), &c)| (e.to_string(), c))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(e, c)| (e, 100.0 * c as f64 / total))
            .collect()
    }

    /// Global top-`k` extensions with popularity percentages relative to
    /// all unique files (feeds Fig. 10's top-20 list).
    pub fn top_extensions_global(&self, k: usize) -> Vec<(String, f64)> {
        let total = self.unique_files().max(1) as f64;
        let mut entries: Vec<(&Box<str>, u64)> =
            self.ext_global.iter().map(|(e, &c)| (e, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(e, c)| (e.to_string(), 100.0 * c as f64 / total))
            .collect()
    }

    /// Language popularity: language → unique source-file count, sorted
    /// descending (Fig. 11). Shell is included; callers exclude it when
    /// reproducing Table 1's column.
    pub fn language_ranking(&self) -> Vec<(&'static str, u64)> {
        let mut counts: FxHashMap<&'static str, u64> = FxHashMap::default();
        for ((_, ext), &c) in &self.ext_by_domain {
            if let Some(lang) = language_of_extension(ext) {
                *counts.entry(lang).or_insert(0) += c;
            }
        }
        let mut ranking: Vec<(&'static str, u64)> = counts.into_iter().collect();
        ranking.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranking
    }

    /// Per-domain language popularity (Fig. 12 / Table 1 `Prog. Lang.`),
    /// excluding shell scripts as the paper does.
    pub fn domain_languages(&self, domain: ScienceDomain) -> Vec<(&'static str, u64)> {
        let mut counts: FxHashMap<&'static str, u64> = FxHashMap::default();
        for ((d, ext), &c) in &self.ext_by_domain {
            if *d == domain.index() as u8 {
                if let Some(lang) = language_of_extension(ext) {
                    if !spider_workload::languages::is_shell(lang) {
                        *counts.entry(lang).or_insert(0) += c;
                    }
                }
            }
        }
        let mut ranking: Vec<(&'static str, u64)> = counts.into_iter().collect();
        ranking.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranking
    }
}

impl SnapshotVisitor for UniqueCensus {
    fn visit(&mut self, ctx: &VisitCtx<'_>) {
        let frame = ctx.frame;
        let records = ctx.snapshot.records();
        // Phase 1 (sequential by nature): global first-sight dedup.
        let fresh: Vec<bool> = records
            .iter()
            .map(|r| self.seen.insert(path_hash(&r.path)))
            .collect();

        // Phase 2: one scan — filter on freshness, group by domain,
        // fold every census statistic into one shard per domain.
        let analysis_ctx = &self.ctx;
        let shards: FxHashMap<u8, CensusShard> = Scan::with_engine(frame, self.engine)
            .filter(|_, i| fresh[i])
            .group_agg(
                |f, i| {
                    Some(match analysis_ctx.domain_of_gid(f.gid[i]) {
                        Some(domain) => domain.index() as u8,
                        None => UNATTRIBUTED,
                    })
                },
                |acc: &mut CensusShard, f, i| acc.fold(f, i),
                CensusShard::merge,
            );

        // Phase 3: merge per-frame shards into the running census,
        // translating interned extension ids while the frame is at hand.
        for (key, shard) in shards {
            if key == UNATTRIBUTED {
                self.unattributed += shard.files + shard.dirs;
                continue;
            }
            let counts = &mut self.by_domain[key as usize];
            counts.files += shard.files;
            counts.dirs += shard.dirs;
            self.files_without_extension += shard.files_without_extension;
            for (uid, n) in shard.files_per_uid {
                *self.files_per_uid.entry(uid).or_insert(0) += n;
            }
            for (gid, n) in shard.files_per_gid {
                *self.files_per_gid.entry(gid).or_insert(0) += n;
            }
            for (ext_id, n) in shard.ext_files {
                let ext = frame.extension_str(ext_id).expect("interned extension");
                *self.ext_by_domain.entry((key, ext.into())).or_insert(0) += n;
                *self.ext_global.entry(ext.into()).or_insert(0) += n;
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

    fn test_ctx() -> (AnalysisContext, u32, u32) {
        let pop = Population::generate(&PopulationConfig {
            project_scale: 1.0,
            ..PopulationConfig::default()
        });
        let ctx = AnalysisContext::new(&pop);
        // A cli project gid and an aph project gid for attribution.
        let cli_gid = pop.domain_projects(ScienceDomain::Cli).next().unwrap().gid;
        let aph_gid = pop.domain_projects(ScienceDomain::Aph).next().unwrap().gid;
        (ctx, cli_gid, aph_gid)
    }

    fn rec(path: &str, mode: u32, uid: u32, gid: u32) -> SnapshotRecord {
        SnapshotRecord {
            path: path.to_string(),
            atime: 1,
            ctime: 1,
            mtime: 1,
            uid,
            gid,
            mode,
            ino: 1,
            osts: vec![],
        }
    }

    #[test]
    fn census_counts_unique_entries_once() {
        let (ctx, cli, aph) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let week0 = Snapshot::new(
            0,
            0,
            vec![
                rec("/p/d1", 0o040770, 1, cli),
                rec("/p/d1/a.nc", 0o100664, 10_000, cli),
                rec("/p/d1/b.m", 0o100664, 10_000, cli),
                rec("/q/x.py", 0o100664, 10_001, aph),
            ],
        );
        // Week 1: a.nc persists, b.m deleted, c.nc new.
        let week1 = Snapshot::new(
            7,
            7,
            vec![
                rec("/p/d1", 0o040770, 1, cli),
                rec("/p/d1/a.nc", 0o100664, 10_000, cli),
                rec("/p/d1/c.nc", 0o100664, 10_000, cli),
                rec("/q/x.py", 0o100664, 10_001, aph),
            ],
        );
        stream_snapshots(&[week0, week1], &mut [&mut census]);

        let cli_counts = census.domain_counts(ScienceDomain::Cli);
        assert_eq!(cli_counts.files, 3); // a.nc, b.m, c.nc
        assert_eq!(cli_counts.dirs, 1);
        assert!((cli_counts.dir_fraction() - 0.25).abs() < 1e-12);
        let aph_counts = census.domain_counts(ScienceDomain::Aph);
        assert_eq!(aph_counts.files, 1);
        assert_eq!(census.unique_entries(), 5);
        assert_eq!(census.unattributed, 0);
    }

    #[test]
    fn ownership_counts() {
        let (ctx, cli, aph) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let snap = Snapshot::new(
            0,
            0,
            vec![
                rec("/a", 0o100664, 10_000, cli),
                rec("/b", 0o100664, 10_000, cli),
                rec("/c", 0o100664, 10_001, aph),
            ],
        );
        stream_snapshots(&[snap], &mut [&mut census]);
        assert_eq!(census.files_per_user()[&10_000], 2);
        assert_eq!(census.files_per_user()[&10_001], 1);
        assert_eq!(census.files_per_project()[&cli], 2);
        assert_eq!(census.files_per_project()[&aph], 1);
    }

    #[test]
    fn extension_popularity_per_domain() {
        let (ctx, cli, _) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let records: Vec<SnapshotRecord> = (0..10)
            .map(|i| {
                let ext = if i < 6 {
                    "nc"
                } else if i < 9 {
                    "mat"
                } else {
                    "txt"
                };
                rec(&format!("/p/f{i}.{ext}"), 0o100664, 10_000, cli)
            })
            .collect();
        stream_snapshots(&[Snapshot::new(0, 0, records)], &mut [&mut census]);
        let top = census.top_extensions(ScienceDomain::Cli, 2);
        assert_eq!(top[0].0, "nc");
        assert!((top[0].1 - 60.0).abs() < 1e-9);
        assert_eq!(top[1].0, "mat");
        assert!((top[1].1 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn language_rankings() {
        let (ctx, cli, aph) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let snap = Snapshot::new(
            0,
            0,
            vec![
                rec("/s/a.c", 0o100664, 1, cli),
                rec("/s/b.c", 0o100664, 1, cli),
                rec("/s/c.py", 0o100664, 1, cli),
                rec("/s/d.sh", 0o100664, 1, cli),
                rec("/s/e.f90", 0o100664, 1, aph),
                rec("/s/data.nc", 0o100664, 1, cli),
            ],
        );
        stream_snapshots(&[snap], &mut [&mut census]);
        let ranking = census.language_ranking();
        assert_eq!(ranking[0], ("C", 2));
        assert!(ranking.contains(&("Shell", 1)));
        assert!(ranking.contains(&("Fortran", 1)));
        // Domain view excludes shell.
        let cli_langs = census.domain_languages(ScienceDomain::Cli);
        assert_eq!(cli_langs[0], ("C", 2));
        assert!(!cli_langs.iter().any(|(l, _)| *l == "Shell"));
        let aph_langs = census.domain_languages(ScienceDomain::Aph);
        assert_eq!(aph_langs, vec![("Fortran", 1)]);
    }

    #[test]
    fn extensionless_files_are_tallied() {
        let (ctx, cli, _) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let snap = Snapshot::new(
            0,
            0,
            vec![
                rec("/s/RESTART", 0o100664, 1, cli),
                rec("/s/f.nc", 0o100664, 1, cli),
            ],
        );
        stream_snapshots(&[snap], &mut [&mut census]);
        assert_eq!(census.files_without_extension, 1);
    }

    #[test]
    fn unknown_gid_is_unattributed() {
        let (ctx, _, _) = test_ctx();
        let mut census = UniqueCensus::new(ctx);
        let snap = Snapshot::new(0, 0, vec![rec("/s/a", 0o100664, 1, 1)]);
        stream_snapshots(&[snap], &mut [&mut census]);
        assert_eq!(census.unattributed, 1);
        assert_eq!(census.unique_files(), 0);
    }
}
