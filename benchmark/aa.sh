#!/usr/bin/env bash
# A/A check: two interleaved sets of full runs of the *same* build, on
# disjoint seed blocks. For every workload x end-to-end metric it prints
# both medians and quartiles, each set's spread (distance between the
# quartiles over the median, as Python's statistics.quantiles(n=4) gives
# them) and the relative difference of the medians against the metric's
# bound from BENCHMARK.json. Exits non-zero when a difference exceeds its
# bound, or a spread other than setup_s's does.
#
# The sandbox has minutes-long episodes in which everything runs slower.
# Every run times a fixed reference kernel before and after itself (its
# `# calib_ms` line); a run around which the kernel read more than 15 %
# above the median reading of the whole session was made in such an
# episode and is repeated with the same seed, in up to two passes. The
# bounds stay tight; the slow runs are named and dropped. (Not the
# fastest reading: what the kernel reads on a quiet machine itself moves
# between 122 and 145 ms from hour to hour.)
#
#   bash benchmark/aa.sh [RUNS_PER_SET] > benchmark/AA.md
#
# RUNS_PER_SET defaults to 10 (never fewer than 5). One traced run per
# workload is added at the end for bench.round_spread.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
AA_EXE="$(bash "$here/build.sh")"
export AA_EXE AA_SPEC="$here/../BENCHMARK.json" AA_RUNS="${1:-10}"
exec python3 - <<'PY'
import json, os, re, statistics, subprocess, sys

spec = json.load(open(os.environ["AA_SPEC"]))
runs = max(5, int(os.environ["AA_RUNS"]))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
DRIFT = 1.15  # reference kernel this far above the session's median: repeat
PASSES = 2


def run(workload, seed, trace):
    """One run: (result object, mean of the two reference-kernel readings)."""
    out = subprocess.run(
        [os.environ["AA_EXE"], "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}, failed {result['failed']}")
    calib = next(l for l in lines if l.startswith("# calib_ms"))
    before, after = (float(x) for x in re.findall(r"[\d.]+", calib))
    shown = " ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()) if not trace else ""
    print(f"{workload} seed {seed} calib {(before + after) / 2:.1f} ms {shown}", file=sys.stderr)
    return result, (before + after) / 2


# Interleaved: A, B, A, B, ... so drift of the machine hits both sets.
plan = [(w, s, base + i) for i in range(runs) for w in workloads
        for s, base in (("A", 1000), ("B", 2000))]
done = {}
for n, key in enumerate(plan):
    print(f"run {n + 1}/{len(plan)}", file=sys.stderr)
    done[key] = run(key[0], key[2], 0)


def usual():
    return statistics.median(calib for _, calib in done.values())


repeated = []
for _ in range(PASSES):
    slow = [key for key in plan if done[key][1] > DRIFT * usual()]
    if not slow:
        break
    for key in slow:
        repeated.append(f"{key[0]} seed {key[2]} ({done[key][1]:.0f} ms)")
        print("repeat", file=sys.stderr)
        done[key] = run(key[0], key[2], 0)
still_slow = [f"{k[0]} seed {k[2]}" for k in plan if done[k][1] > DRIFT * usual()]


def quartiles(v):
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3, (q3 - q1) / q2


bad = []
print("# A/A: two sets of runs of one build\n")
print(f"{runs} runs per set, seeds 1000.. (A) and 2000.. (B), interleaved; "
      f"`--seconds {spec['run_seconds']}`. Spread = (q3 - q1) / median; "
      "difference = how much worse B's median is than A's, in the metric's own direction.\n")
print(f"Reference kernel: median reading {usual():.1f} ms. Runs repeated because it read more than "
      f"{DRIFT - 1:.0%} above that: {', '.join(repeated) or 'none'}. "
      f"Still above after {PASSES} passes (kept): {', '.join(still_slow) or 'none'}.\n")
for workload in workloads:
    values = {(s, m["name"]): [done[k][0]["metrics"][m["name"]]["value"]
                               for k in plan if k[0] == workload and k[1] == s]
              for s in "AB" for m in metrics}
    attempted = sorted({done[k][0]["attempted"] for k in plan if k[0] == workload})
    print(f"## {workload}\n")
    print(f"`attempted` per run: {attempted}\n")
    print("| metric | unit | A q1 / median / q3 | A spread | B q1 / median / q3 | B spread | B worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in metrics:
        a = quartiles(values["A", m["name"]])
        b = quartiles(values["B", m["name"]])
        worse = (b[1] - a[1]) / a[1] * (1 if m["better"] == "lower" else -1)
        ok = worse <= m["bound"] and -worse <= m["bound"]
        if m["name"] != "setup_s":
            ok = ok and a[3] <= m["bound"] and b[3] <= m["bound"]
        if not ok:
            bad.append(f"{workload}/{m['name']}")
        print(f"| {m['name']} | {m['unit']} | {a[0]:.4g} / {a[1]:.4g} / {a[2]:.4g} | {a[3]:.2%} "
              f"| {b[0]:.4g} / {b[1]:.4g} / {b[2]:.4g} | {b[3]:.2%} | {worse:+.2%} | {m['bound']:.0%} "
              f"| {'ok' if ok else 'EXCEEDS'} |")
    traced = run(workload, 3000, 1)[0]["metrics"]
    print(f"\nTraced run (seed 3000): `bench.round_spread` {traced['bench.round_spread']['value']:.4f}, "
          f"`bench.coverage` {traced['bench.coverage']['value']:.4f}, "
          f"`bench.trace_overhead_ratio` {traced['bench.trace_overhead_ratio']['value']:.4f}, "
          f"`bench.calib_ms` {traced['bench.calib_ms']['value']:.1f}.\n")
if bad:
    print("**Exceeded:** " + ", ".join(bad))
    sys.exit(1)
print("Every difference of medians and every spread is within its bound.")
PY
