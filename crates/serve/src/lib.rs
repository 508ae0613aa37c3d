//! # spider-serve
//!
//! A concurrent, multi-tenant query service over the snapshot store —
//! the "live" counterpart to the batch pipeline. The SC '17 study ran
//! its SparkSQL analyses as offline jobs; this crate models the other
//! operating point: many analysts issuing small aggregate queries
//! against the same petascale metadata snapshots, with the operator
//! concerns that come with it.
//!
//! * [`proto`] — a versioned line-delimited JSON wire protocol: a
//!   query is a typed [`spider_snapshot::Pred`] tree plus an
//!   aggregate spec; a response carries the result, staleness marker,
//!   degradation notes, and per-query telemetry.
//! * [`admission`] — per-tenant scan budgets (one token per day
//!   scanned) with manual or per-second refill.
//! * [`engine`] — query execution over a scrubbed store from resident
//!   full frames (one per day in the shared
//!   [`spider_core::FrameCache`], selected and folded in place), with
//!   a response cache whose rendered bytes back the shed path.
//! * [`server`] — the admission state machine and std-thread worker
//!   pool (no async runtime): budget → shed-if-cached → bounded
//!   queue → typed rejection. Graceful degradation means a stale
//!   cached answer beats queueing, and a typed `queue_full` beats an
//!   unbounded backlog.
//! * [`loadgen`] — a seeded closed+open-loop load generator producing
//!   the throughput / latency-quantile curves in `BENCH_serve.json`.
//!
//! Multi-tenancy reaches all the way down: the server attributes each
//! query's frame loads to its tenant via
//! [`spider_core::FrameCache::attribute`], and the cache's
//! fairness-aware eviction keeps one tenant's cold sweep from
//! flushing everyone else's hot days.

#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod json;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use admission::{Admission, Refill};
pub use engine::{CachedAnswer, EngineConfig, ExecResult, QueryEngine, RefreshStats};
pub use loadgen::{
    render_bench_json, run_load, sample_query, scrape_metrics, synth_snapshot, synth_store,
    Arrival, BenchLevel, LoadReport, LoadSpec, QueryPort, TcpPort,
};
pub use proto::{
    parse_metrics_request, trace_from_hex, trace_to_hex, AggSpec, ErrorCode, GroupBy,
    ParsedResponse, ProtoError, Query, QueryCost, METRICS_VERSION, PROTOCOL_VERSION,
};
pub use server::{Client, OutcomeCounts, Server, ServerConfig};
