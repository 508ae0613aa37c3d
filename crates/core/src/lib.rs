//! # spider-core
//!
//! The analysis pipeline of *"Scientific User Behavior and Data-Sharing
//! Trends in a Petascale File System"* (SC '17) as a reusable library.
//!
//! The original study ran SparkSQL over Parquet-converted LustreDU
//! snapshots on a 32-node cluster; this crate provides the equivalent
//! shared-memory machinery and every analysis of §4, organized along the
//! paper's three dimensions (Fig. 3):
//!
//! * [`trends`] — **project file trends** (§4.1): active users and
//!   organizations, user/project participation CDFs, unique file and
//!   directory censuses, directory depth, file-type popularity, and
//!   programming-language rankings;
//! * [`behavior`] — **user behavior and patterns** (§4.2): OST stripe
//!   usage, namespace growth, weekly access-pattern breakdowns, file age
//!   vs. the purge window, and the burstiness (`c_v`) of file operations;
//! * [`sharing`] — **data-sharing trends** (§4.3): the file-generation
//!   network, its degree distribution and power-law fit, connected
//!   components, diameter/centrality, and pairwise collaboration.
//!
//! The machinery below the analyses:
//!
//! * [`frame::SnapshotFrame`] — a columnar view of one snapshot
//!   (timestamps, ids, depths, stripe counts in dense arrays; extensions
//!   resolved once), the in-memory analogue of the study's Parquet tables;
//! * [`engine`] — morsel-driven parallel fold/reduce over columns with a
//!   deterministic reduction tree, so the sequential oracle mode is
//!   bit-identical to the parallel default;
//! * [`loader::FrameLoader`] — the columnar fast path from disk to
//!   frame: raw `colf` bytes decode straight into
//!   [`spider_snapshot::FrameColumns`] (no row materialization), days
//!   load in parallel on the fork-join pool under a bounded batch
//!   budget, and decoded frames persist in a checksum-keyed LRU
//!   [`loader::FrameCache`];
//! * [`incremental::IncrementalPipeline`] — mergeable, retractable
//!   aggregate state maintained day-over-day from
//!   [`spider_snapshot::FrameDelta`] sidecars, so appending one day
//!   costs O(changed rows) instead of a full-store refold; the full
//!   rescan survives as the cross-check oracle
//!   ([`incremental::IncrementalPipeline::rescan`]);
//! * [`query::Scan`] — the query surface: each filter narrows a
//!   column-at-a-time selection bitmap, terminals read it (a count is a
//!   popcount, a group-by one morsel-driven pass over the selected
//!   rows), and [`agg::MultiAgg`] computes several named aggregates in a
//!   single pass. Typed [`spider_snapshot::Pred`] filters
//!   ([`query::Scan::filter_pred`]) additionally push down through
//!   [`loader::FrameLoader::frames_pruned`], skipping whole days and
//!   colf v3 zones before any column bytes are decoded;
//! * [`pipeline`] — a streaming driver that loads each stored snapshot
//!   once (plus its predecessor for diff-based analyses) and feeds any
//!   number of [`pipeline::SnapshotVisitor`]s, so a full multi-gigabyte
//!   store is analyzed in one pass, just like the nightly OLCF pipeline;
//! * [`context::AnalysisContext`] — the stand-in for the OLCF user
//!   accounts database: uid → user/organization and gid → project/domain
//!   joins.
//!
//! The [`summary`] module assembles the paper's Table 1 from the three
//! dimensions.

#![warn(missing_docs)]

pub mod agg;
pub mod behavior;
pub mod context;
pub mod engine;
pub mod frame;
pub mod incremental;
pub mod loader;
pub mod pipeline;
pub mod query;
pub mod sharing;
pub mod summary;
pub mod trends;

pub use agg::{AggState, AggValue, MultiAgg, MultiAggResult, Retraction};
pub use context::AnalysisContext;
pub use engine::Engine;
pub use frame::SnapshotFrame;
pub use incremental::{Applied, GidAggregate, IncrError, IncrementalPipeline, TrendPoint};
pub use loader::{
    FrameCache, FrameLoader, LoadedDay, TenantAttribution, TenantCacheStats, TenantId, UNTENANTED,
};
pub use pipeline::{stream_loader, stream_snapshots, stream_store, SnapshotVisitor, VisitCtx};
pub use query::{FramePred, Scan};
pub use spider_snapshot::Pred;
pub use summary::{domain_frame_stats, DomainScanStats, DomainSummaryRow, SummaryTable};
