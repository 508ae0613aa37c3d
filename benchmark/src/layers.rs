//! The per-layer metrics: name and unit, in `BENCHMARK.json` order.
//!
//! Layers are the crate modules. `raft`, `obs` and `cli` are bypassed on
//! purpose (library calls, single store) and carry no metrics yet. Every
//! traced run prints every name; a layer the workload never enters reads
//! 0. README.md says which workload measures which and which end-to-end
//! metric each should move.

/// Name and unit of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 63] = [
    // simulate — repro_batch
    ("simulate.generate_s", "s"),
    ("simulate.capture_s", "s"),
    ("simulate.rows_captured", "count"),
    // snapshot writers and scrub — repro_batch
    ("snapshot.psv_encode_mb_s", "MB/s"),
    ("snapshot.scrub_s", "s"),
    // snapshot ingest — set-up of the read workloads
    ("snapshot.psv_parse_mb_s", "MB/s"),
    ("snapshot.colf_encode_mrows_s", "Mrows/s"),
    ("snapshot.store_put_ms", "ms"),
    ("snapshot.ensure_deltas_ms", "ms"),
    // snapshot sizes — every workload
    ("snapshot.colf_bytes_per_row", "B"),
    ("snapshot.delta_bytes_per_row", "B"),
    ("snapshot.colf_bytes_per_psv_byte", "ratio"),
    // cold read path — scan_cold
    ("snapshot.store_read_mb_s", "MB/s"),
    ("snapshot.decode_full_mrows_s", "Mrows/s"),
    ("core.frame_build_mrows_s", "Mrows/s"),
    ("core.loader_cold_full_ms", "ms"),
    ("snapshot.decode_pruned_ms", "ms"),
    ("core.loader_cold_pruned_ms", "ms"),
    ("snapshot.zones_skipped_share", "share"),
    ("snapshot.rows_pruned_share", "share"),
    // frame cache — scan_warm
    ("core.loader_hit_ms", "ms"),
    ("core.cache_hit_share", "share"),
    ("core.cache_evictions", "count"),
    // scan kernel — scan_warm
    ("core.scan_count_mrows_s", "Mrows/s"),
    ("core.scan_group_mrows_s", "Mrows/s"),
    ("core.scan_closure_mrows_s", "Mrows/s"),
    ("core.scan_selected_share", "share"),
    ("core.scan_multiagg_mrows_s", "Mrows/s"),
    ("core.multiagg_over_singles", "ratio"),
    // incremental aggregates — set-up and repro_batch
    ("core.incremental_advance_ms", "ms"),
    ("core.incremental_rescan_s", "s"),
    ("core.incremental_rows_applied", "count"),
    ("core.incremental_full_rebuilds", "count"),
    // experiments, graph, report — repro_batch
    ("experiments.prepare_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.checks_passed", "count"),
    ("experiments.checks_total", "count"),
    ("graph.sharing_s", "s"),
    ("report.render_s", "s"),
    // serve — serve_closed
    ("serve.parse_us", "us"),
    ("serve.execute_ms", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.prune_share", "share"),
    ("serve.decode_share", "share"),
    ("serve.fold_share", "share"),
    ("serve.render_share", "share"),
    ("serve.wire_overhead_ms", "ms"),
    ("serve.rows_per_query", "count"),
    ("serve.decode_bytes_per_query", "B"),
    ("serve.frame_cache_hit_share", "share"),
    ("serve.frame_cache_evictions", "count"),
    ("serve.zones_skipped_per_query", "count"),
    ("serve.shed_share", "share"),
    ("serve.refresh_ms", "ms"),
    // telemetry — scan_warm
    ("telemetry.on_off_ratio", "ratio"),
    // the benchmark itself — every workload
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.coverage", "share"),
    ("bench.calib_ms", "ms"),
    ("bench.round_spread", "ratio"),
    ("bench.pooled_ops_per_s", "1/s"),
    ("bench.warmup_s", "s"),
    ("bench.peak_rss_mb", "MB"),
];
