#!/usr/bin/env bash
# Offline workspace gate: compile every crate and run its tests with
# plain rustc against the API stubs in scripts/offline/ (see the README
# there). Used when the crates registry is unreachable; with registry
# access, prefer scripts/check.sh.
#
# Usage:
#   bash scripts/offline_check.sh            # everything
#   bash scripts/offline_check.sh snapshot   # crates matching "snapshot"
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"
OUT=target/offline
DEPS="$OUT/deps"
mkdir -p "$DEPS"

EDITION=2021
RUSTC="rustc --edition $EDITION -O -A warnings --out-dir $DEPS -L $DEPS"

say() { printf '\n\033[1m== %s\033[0m\n' "$*"; }

# ---- stubs ----------------------------------------------------------------
say "stubs"
rustc --edition $EDITION -O -A warnings --crate-type proc-macro \
    --crate-name serde_derive scripts/offline/serde_derive.rs --out-dir "$DEPS"
for stub in serde bytes rand rayon rustc_hash; do
    $RUSTC --crate-type rlib --crate-name $stub scripts/offline/$stub.rs \
        $( [ $stub = serde ] && echo "--extern serde_derive=$DEPS/libserde_derive.so" )
done
$RUSTC --crate-type rlib --crate-name serde_json scripts/offline/serde_json.rs

ext() { echo "--extern $1=$DEPS/lib$1.rlib"; }

# Workspace crates in dependency order: "name:lib_path:deps"
CRATES=(
    "spider_stats:crates/stats/src/lib.rs:serde"
    "spider_telemetry:crates/telemetry/src/lib.rs:spider_stats serde"
    "spider_obs:crates/obs/src/lib.rs:spider_telemetry"
    "spider_fsmeta:crates/fsmeta/src/lib.rs:rustc_hash serde"
    "spider_snapshot:crates/snapshot/src/lib.rs:spider_fsmeta spider_telemetry bytes rayon rustc_hash serde"
    "spider_raft:crates/raft/src/lib.rs:spider_snapshot spider_telemetry"
    "spider_workload:crates/workload/src/lib.rs:spider_stats spider_fsmeta rand rustc_hash serde"
    "spider_graph:crates/graph/src/lib.rs:spider_stats rayon rustc_hash"
    "spider_core:crates/core/src/lib.rs:spider_stats spider_telemetry spider_fsmeta spider_snapshot spider_raft spider_graph spider_workload rayon rustc_hash serde"
    "spider_serve:crates/serve/src/lib.rs:spider_snapshot spider_core spider_telemetry rustc_hash"
    "spider_sim:crates/simulate/src/lib.rs:spider_fsmeta spider_snapshot spider_telemetry spider_workload spider_core rand rustc_hash serde"
    "spider_report:crates/report/src/lib.rs:serde serde_json"
    "spider_experiments:crates/experiments/src/lib.rs:spider_stats spider_telemetry spider_fsmeta spider_snapshot spider_graph spider_workload spider_sim spider_core spider_report rand rayon rustc_hash serde serde_json"
)

# Integration tests runnable offline (no proptest/criterion):
# "test_name:path:deps"
ITESTS=(
    "fault_matrix:crates/snapshot/tests/fault_matrix.rs:spider_snapshot spider_fsmeta"
    "cluster_soak:crates/raft/tests/cluster_soak.rs:spider_raft spider_snapshot"
    "golden_fixtures:crates/snapshot/tests/golden_fixtures.rs:spider_snapshot"
    "frame_equivalence:crates/core/tests/frame_equivalence.rs:spider_core spider_snapshot spider_fsmeta"
    "pushdown_equivalence:crates/core/tests/pushdown_equivalence.rs:spider_core spider_snapshot spider_fsmeta spider_telemetry"
    "cache_fairness:crates/core/tests/cache_fairness.rs:spider_core spider_snapshot spider_fsmeta spider_telemetry spider_obs"
    "incremental_equivalence:crates/core/tests/incremental_equivalence.rs:spider_core spider_snapshot spider_fsmeta spider_telemetry spider_obs"
    "degraded_serve:crates/serve/tests/degraded_serve.rs:spider_serve spider_snapshot spider_core spider_fsmeta"
    "epoch_cache:crates/serve/tests/epoch_cache.rs:spider_serve spider_snapshot spider_core spider_fsmeta"
    "fold_equivalence:crates/serve/tests/fold_equivalence.rs:spider_serve spider_snapshot spider_core spider_fsmeta"
    "serve_soak:crates/serve/tests/serve_soak.rs:spider_serve spider_snapshot spider_core spider_telemetry"
    "pipeline_end_to_end:tests/pipeline_end_to_end.rs:spider_experiments spider_sim spider_snapshot spider_core spider_graph spider_report spider_workload spider_fsmeta spider_stats serde_json"
    "determinism:tests/determinism.rs:spider_experiments spider_sim spider_snapshot spider_core spider_graph spider_report spider_workload spider_fsmeta spider_stats serde_json"
    "experiment_shapes:tests/experiment_shapes.rs:spider_experiments spider_sim spider_snapshot spider_core spider_graph spider_report spider_workload spider_fsmeta spider_stats serde_json"
    "calibration_targets:tests/calibration_targets.rs:spider_experiments spider_sim spider_snapshot spider_core spider_graph spider_report spider_workload spider_fsmeta spider_stats serde_json"
)

build_crate() {
    local name=$1 path=$2 deps=$3 externs=""
    for d in $deps; do externs+=" $(ext $d)"; done
    say "build $name"
    $RUSTC --crate-type rlib --crate-name "$name" "$path" $externs \
        --extern serde_derive="$DEPS/libserde_derive.so"
}

# Tests that assert on behaviour the stubs deliberately do not
# reproduce (real serde_json rendering, real rand streams). Skipped
# offline; they run under the full cargo gate.
stub_sensitive_skips() {
    case $1 in
        spider_report) echo "--skip json_emission" ;;
        *) echo "" ;;
    esac
}

test_crate() {
    local name=$1 path=$2 deps=$3 externs=""
    for d in $deps; do externs+=" $(ext $d)"; done
    say "test $name"
    $RUSTC --test --crate-name "${name}_tests" "$path" $externs \
        --extern serde_derive="$DEPS/libserde_derive.so" \
        -o "$OUT/${name}_tests"
    "$OUT/${name}_tests" --test-threads=4 -q $(stub_sensitive_skips "$name")
}

for entry in "${CRATES[@]}"; do
    IFS=: read -r name path deps <<<"$entry"
    if [ -n "$FILTER" ] && [[ "$name" != *"$FILTER"* ]]; then
        # Still build (later crates need the rlib), just skip its tests.
        build_crate "$name" "$path" "$deps"
        continue
    fi
    build_crate "$name" "$path" "$deps"
    test_crate "$name" "$path" "$deps"
done

# CLI binary (library deps of spider_experiments plus itself).
if [ -z "$FILTER" ] || [[ "spider_cli" == *"$FILTER"* ]]; then
    say "build spider-metalab binary"
    CLI_DEPS="spider_fsmeta spider_snapshot spider_raft spider_telemetry spider_obs spider_workload spider_sim spider_core spider_serve spider_graph spider_report spider_experiments spider_stats serde_json"
    externs=""
    for d in $CLI_DEPS; do externs+=" $(ext $d)"; done
    $RUSTC --crate-name spider_metalab crates/cli/src/main.rs $externs \
        -o "$OUT/spider-metalab"

    say "test cli_smoke"
    # env!("CARGO_BIN_EXE_spider-metalab") is read at *compile* time; the
    # variable name contains a dash, so it needs env(1) to set.
    env "CARGO_BIN_EXE_spider-metalab=$PWD/$OUT/spider-metalab" \
        $RUSTC --test --crate-name cli_smoke_tests crates/cli/tests/cli_smoke.rs \
        $externs -o "$OUT/cli_smoke_tests"
    "$OUT/cli_smoke_tests" --test-threads=2 -q

    # Instrumented pipeline run; --check validates the exported snapshot
    # (schema version, span sums cover children, no unaccounted pipeline
    # bucket over 10%).
    say "telemetry smoke"
    rm -rf "$OUT/telemetry-smoke"
    "$OUT/spider-metalab" telemetry --dir "$OUT/telemetry-smoke" --quick \
        --scale 0.00005 --days 28 --json --check >/dev/null
fi

# Serve load-generator smoke: synthesize a tiny store, run a 3-level
# in-process sweep (including an overload level), and require zero
# protocol errors and zero dropped requests.
if [ -z "$FILTER" ] || [[ "serve_load" == *"$FILTER"* ]]; then
    say "serve loadgen smoke"
    rm -rf "$OUT/serve-smoke"
    "$OUT/spider-metalab" loadgen --dir "$OUT/serve-smoke" --synth-days 4 \
        --synth-rows 400 --seed 660942 --sweep --analysts 8 --tenants 3 \
        --threads 4 --queries 40 --out "$OUT/BENCH_serve_smoke.json" >/dev/null
fi

# Observability smoke: a seeded loadgen run with --trace must produce a
# chrome trace that validates (well-formed trace_event JSON, spans,
# flow starts/finishes paired, child spans inside their parents), and
# the flightrec subcommand must dump a ring whose trace carries >=1
# cross-thread flow pair, while its two
# bracketing metrics scrapes report deltas equal to the counters'
# actual movement. Span-sum consistency of the underlying stream is
# covered by the telemetry smoke above (`telemetry --check`).
if [ -z "$FILTER" ] || [[ "obs_smoke" == *"$FILTER"* ]]; then
    say "obs smoke"
    rm -rf "$OUT/obs-smoke" "$OUT/obs-smoke-trace.json"
    "$OUT/spider-metalab" loadgen --dir "$OUT/obs-smoke" --synth-days 3 \
        --synth-rows 300 --seed 660942 --analysts 4 --tenants 2 --threads 2 \
        --queries 10 --trace="$OUT/obs-smoke-trace.json" >/dev/null
    "$OUT/spider-metalab" flightrec --check "$OUT/obs-smoke-trace.json"
    "$OUT/spider-metalab" flightrec --dir "$OUT/obs-smoke" --validate >/dev/null
fi

# Columnar fast-path benchmark smoke: tiny run, asserts internally that
# rows-then-`build` and `from_columns` fingerprint alike (sequential under the
# rayon stub, so timings here are not representative — see BENCH notes).
if [ -z "$FILTER" ] || [[ "frame_path" == *"$FILTER"* ]]; then
    say "build + smoke frame_path bench"
    BENCH_DEPS="spider_core spider_snapshot spider_telemetry spider_obs spider_fsmeta rustc_hash"
    externs=""
    for d in $BENCH_DEPS; do externs+=" $(ext $d)"; done
    $RUSTC --crate-name frame_path crates/bench/src/bin/frame_path.rs $externs \
        -o "$OUT/frame_path"
    "$OUT/frame_path" "$OUT/BENCH_frame_path_smoke.json" --days 2 --rows 2000 --reps 1 >/dev/null
fi

# Incremental aggregation benchmark smoke: small warm store, one
# appended day; asserts the delta-applied state fingerprints identical
# to the full-rescan oracle and that the fault cells fall back cleanly.
# (Speedup is asserted inside the bin; a small store keeps it honest —
# the committed BENCH_incremental.json comes from the full-size run.)
if [ -z "$FILTER" ] || [[ "incremental_bench" == *"$FILTER"* ]]; then
    say "build + smoke incremental bench"
    BENCH_DEPS="spider_core spider_snapshot spider_telemetry spider_obs spider_fsmeta rustc_hash"
    externs=""
    for d in $BENCH_DEPS; do externs+=" $(ext $d)"; done
    $RUSTC --crate-name incremental_bench crates/bench/src/bin/incremental_bench.rs $externs \
        -o "$OUT/incremental_bench"
    "$OUT/incremental_bench" "$OUT/BENCH_incremental_smoke.json" --days 65 --rows 1500 --reps 2 >/dev/null
fi

for entry in "${ITESTS[@]}"; do
    IFS=: read -r name path deps <<<"$entry"
    [ -f "$path" ] || continue
    if [ -n "$FILTER" ] && [[ "$name" != *"$FILTER"* ]]; then continue; fi
    externs=""
    for d in $deps; do externs+=" $(ext $d)"; done
    say "itest $name"
    $RUSTC --test --crate-name "it_${name}" "$path" $externs \
        --extern serde_derive="$DEPS/libserde_derive.so" \
        -o "$OUT/it_${name}"
    "$OUT/it_${name}" --test-threads=4 -q
done

say "offline gate: PASS"
