#!/usr/bin/env bash
# The full gate, fail-fast: the tier-1 build and test, then the seeded
# reruns and smokes, then lint and format.
#
# Needs no network: the committed Cargo.lock pins every third-party
# crate to its in-repo stand-in (see scripts/offline/README.md), and
# `--locked` fails the gate if the lock has drifted from the manifests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --locked"
cargo build --release --locked
echo "== cargo test -q --locked"
cargo test -q --locked
# The analysis engine builds without the replication crate: raft's
# tests read frames through spider-core, never the reverse.
echo "== spider-core does not depend on spider-raft"
core_deps="$(cargo tree --offline --locked -p spider-core -e normal)"
if grep -q spider-raft <<<"$core_deps"; then
    echo "spider-core depends on spider-raft again" >&2
    exit 1
fi
# The fork-join pool every parallel scan runs on: joins, maps,
# panics on either side, nested joins from workers and four OS
# threads forking at once, rerun so a rare race is a named failure.
echo "== fork-join pool stress (20 runs)"
for run in $(seq 20); do
    cargo test -q --locked -p spider-stats --test par_pool
done
# The corruption harness again under three pinned seeds (decimal for
# 0xA11CE, 0xB0B51ED5, 0xC0FFEE42), so the fault plans CI exercises
# never drift with the defaults.
echo "== fault matrix (pinned seeds)"
for seed in 660942 2964594389 3237998146; do
    echo "   -- SPIDER_FAULT_SEED=$seed"
    SPIDER_FAULT_SEED=$seed cargo test -q --locked -p spider-snapshot --test fault_matrix
done
# There is one colf parser; its kernels must equal their slow
# oracles, and the two frame constructors must agree on it
# (`SnapshotFrame::build` over derived rows ≡ `from_columns`),
# including under corruption; run the dedicated suites explicitly so
# a failure names them.
echo "== decode kernels + frame equivalence (deterministic + property suites)"
cargo test -q --locked -p spider-snapshot --test decode_kernels
cargo test -q --locked -p spider-core --test frame_equivalence
cargo test -q --locked -p spider-core --test prop_frame
# The group fold folds a run of equal keys at a time; it must equal
# its row-at-a-time oracle bit for bit, on long runs across morsel
# edges and on keys that never repeat, and the per-stage scan counters
# must count each passed row once. Every `Scan` terminal must equal a
# materialized reference (row list, then per-filter `retain`) under
# both engines, and a closure filter must see each selected row once.
echo "== group runs + scan counters"
cargo test -q --locked -p spider-core --test group_runs
cargo test -q --locked -p spider-core --test scan_counters
cargo test -q --locked -p spider-core --test prop_query
# Predicate pushdown must return exactly the rows the closure path
# keeps, including under injected zone-map corruption; the golden
# fixtures pin the v2/v3 encoders byte-for-byte, keep the frozen v1
# file readable, and hold the hostile fixtures rejected.
echo "== pushdown equivalence (deterministic + property suites)"
cargo test -q --locked -p spider-core --test pushdown_equivalence
cargo test -q --locked -p spider-core --test prop_pushdown
cargo test -q --locked -p spider-snapshot --test golden_fixtures
# Instrumented pipeline run; --check validates the exported snapshot
# (schema version, span sums cover children, no unaccounted pipeline
# bucket over 10%).
echo "== telemetry smoke"
rm -rf target/telemetry-smoke
cargo run --release -q --locked -p spider-cli --bin spider-metalab -- \
    telemetry --dir target/telemetry-smoke --quick --scale 0.00005 \
    --days 28 --json --check >/dev/null
# The replicated write path under the same three pinned seeds:
# elections, partitions, crash/restart with log rot, at-rest store
# rot — every committed day must end byte-identical on every
# replica, with quarantined days healed from peers.
echo "== raft cluster soak (pinned seeds)"
for seed in 660942 2964594389 3237998146; do
    echo "   -- SPIDER_FAULT_SEED=$seed"
    SPIDER_FAULT_SEED=$seed cargo test -q --locked -p spider-raft --test cluster_soak
done
echo "== raft property suite (random network schedules)"
cargo test -q --locked -p spider-raft --test prop_raft
# The query service under the same three pinned seeds: seeded
# steady + overload soak (zero drops, zero protocol errors, shed
# answers byte-identical to cached originals, each day decoded
# once), the served select-then-fold byte-identical to its row-wise
# oracle, cache fairness under concurrent tenants, and serving from
# every degraded-store cell class with substitution notes.
echo "== serve soak + fold equivalence + fairness + degraded serve (pinned seeds)"
for seed in 660942 2964594389 3237998146; do
    echo "   -- SPIDER_SERVE_SEED=$seed"
    SPIDER_SERVE_SEED=$seed cargo test -q --locked -p spider-serve --test serve_soak
    SPIDER_SERVE_SEED=$seed cargo test -q --locked -p spider-serve --test fold_equivalence
    SPIDER_SERVE_SEED=$seed cargo test -q --locked -p spider-core --test cache_fairness
done
cargo test -q --locked -p spider-serve --test degraded_serve
# Incremental aggregation must stay fingerprint-identical to the
# full-rescan oracle under a random day-lifecycle storm (appends,
# quarantines, degrades, heals), per pinned seed; the epoch-keyed
# response cache must never surface answers from a stale day set
# or from a day's stale bytes.
echo "== incremental equivalence (pinned seeds) + epoch cache"
for seed in 660942 2964594389 3237998146; do
    echo "   -- SPIDER_INCR_SEED=$seed"
    SPIDER_INCR_SEED=$seed cargo test -q --locked -p spider-core --test incremental_equivalence
done
cargo test -q --locked -p spider-serve --test epoch_cache
echo "== serve loadgen sweep smoke"
rm -rf target/serve-smoke
cargo run --release -q --locked -p spider-cli --bin spider-metalab -- \
    loadgen --dir target/serve-smoke --synth-days 4 --synth-rows 400 \
    --seed 660942 --sweep --analysts 8 --tenants 3 --threads 4 \
    --queries 40 --out target/BENCH_serve_smoke.json >/dev/null
# A seeded loadgen run under --trace must export a chrome trace that
# validates (well-formed trace_event JSON, spans, flow starts/
# finishes paired, child spans inside their parents); flightrec must
# dump a ring whose trace carries >=1 cross-thread flow pair, with
# its two metrics scrapes reporting deltas equal to the counters'
# actual movement.
echo "== obs smoke (chrome trace + flight recorder + metrics deltas)"
rm -rf target/obs-smoke target/obs-smoke-trace.json
cargo run --release -q --locked -p spider-cli --bin spider-metalab -- \
    loadgen --dir target/obs-smoke --synth-days 3 --synth-rows 300 \
    --seed 660942 --analysts 4 --tenants 2 --threads 2 --queries 10 \
    --trace=target/obs-smoke-trace.json >/dev/null
cargo run --release -q --locked -p spider-cli --bin spider-metalab -- \
    flightrec --check target/obs-smoke-trace.json
cargo run --release -q --locked -p spider-cli --bin spider-metalab -- \
    flightrec --dir target/obs-smoke --validate >/dev/null
echo "== cargo clippy --all-targets (deny warnings)"
cargo clippy --locked --all-targets -- -D warnings
echo "== cargo fmt --check"
cargo fmt --all -- --check
echo "full gate: PASS"
