//! `spider-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! spider-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! spider-benchmark --selfcheck
//! ```
//!
//! Without `--workload` all four run, one after the other. `--seconds` is
//! what the driver passes from `BENCHMARK.json`'s `run_seconds`; it is
//! read and not used, because a run is fixed work ([`ROUNDS`] rounds of a
//! fixed op list sized for `run_seconds`), not fixed time. Prints every
//! metric by name with its unit, then — as the last line of a workload's
//! output — one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a check
//! failed or the run could not complete.

use spider_benchmark::workloads::{self, scan_cold, scan_warm, serve_closed};
use spider_benchmark::{layers, refstore, stats, BenchError, Ctx, Report, ROUNDS, TRACED_ROUNDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    traced: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args = Args {
        workload: None,
        seed: 1,
        traced: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => {
                value()?.parse::<u64>()?;
            }
            "--trace" => args.traced = value()?.parse::<u8>()? != 0,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok(args)
}

/// Scratch root: `bench-work` in the target directory the executable was
/// built into (`<target>/release/spider-benchmark`), so every byte a run
/// writes stays under the build's own, git-ignored directory.
fn work_root() -> Result<PathBuf, BenchError> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory above it")?;
    Ok(target.join("bench-work"))
}

/// The build's fingerprint, written by `build.sh` beside the executable.
fn fingerprint() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| std::fs::read_to_string(exe.with_file_name("fingerprint.json")).ok())
        .map_or_else(|| "{}".to_string(), |s| s.trim().to_string())
}

fn json_line(report: &Report, traced: bool) -> String {
    let metrics: Vec<String> = report
        .metrics(traced)
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs one workload in a scratch directory of its own and removes it.
fn run_one(workload: &str, seed: u64, traced: bool, work: &Path) -> Result<Report, BenchError> {
    let ctx = Ctx {
        seed,
        traced,
        work: work.join(format!("{workload}-{}", std::process::id())),
        trace_dir: work.join("traces"),
    };
    std::fs::create_dir_all(&ctx.work)?;
    let result = workloads::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

/// Runs `--workload`, or all four when none is named, printing one block
/// per workload.
fn run(args: &Args) -> Result<bool, BenchError> {
    let rounds = if args.traced { TRACED_ROUNDS } else { ROUNDS };
    let names = match args.workload.as_deref() {
        Some(name) => vec![name],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    for workload in names {
        eprintln!(
            "spider-benchmark: workload {workload}, seed {}, {rounds} rounds{}",
            args.seed,
            if args.traced { ", traced" } else { "" }
        );
        let report = run_one(workload, args.seed, args.traced, &work_root()?)?;
        println!(
            "# workload {workload} seed {} rounds {rounds} traced {}",
            args.seed, args.traced
        );
        println!("# env {}", fingerprint());
        for m in report.metrics(args.traced) {
            println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("# round walls (s) {:.3?}", report.round_walls_s);
        println!(
            "# calib_ms {:.1} before, {:.1} after",
            report.calib_ms.0, report.calib_ms.1
        );
        for (name, n) in &report.counted {
            println!("# counted {name} = {n}");
        }
        for why in &report.failures {
            println!("# FAILED {why}");
        }
        println!("# attempted {} failed {}", report.attempted, report.failed);
        println!("{}", json_line(&report, args.traced));
        ok &= report.failed == 0;
    }
    Ok(ok)
}

/// Asserts the rules that make runs repeat, on three seeds.
fn selfcheck(work: &Path) -> Result<bool, BenchError> {
    let seeds = [11u64, 12, 13];
    let mut ok = true;
    let mut expect = |what: String, holds: bool| {
        println!("{} {what}", if holds { "ok  " } else { "FAIL" });
        ok &= holds;
    };

    // Slot counts support the percentiles the workloads report.
    for (name, slots) in [
        ("scan_cold", scan_cold::plan(seeds[0]).ops.len()),
        ("scan_warm", scan_warm::plan(seeds[0]).ops.len()),
        (
            "serve_closed",
            serve_closed::CLIENTS * serve_closed::PER_CLIENT,
        ),
    ] {
        expect(
            format!("{name}: {slots} slots support op_p90_ms"),
            slots >= 100 && stats::supports_percentile(slots, 0.90),
        );
    }

    // The per-round multiset of query shapes is the same for every seed.
    let shapes = serve_closed::round_shapes(seeds[0]);
    expect(
        "serve_closed: same multiset of (shape, p1, p2) for every seed".into(),
        seeds
            .iter()
            .all(|&s| serve_closed::round_shapes(s) == shapes),
    );

    // The generator makes the same amounts whatever the seed.
    for &seed in &seeds {
        let rows = refstore::day_records(seed, refstore::DAYS - 1).len();
        expect(
            format!("reference store: {rows} rows a day at seed {seed}"),
            rows == refstore::ROWS_PER_DAY,
        );
    }

    // Counted work agrees within 1 % across seeds, and the spans cover
    // at least 90 % of every op.
    for workload in workloads::NAMES {
        let mut counted: Vec<Report> = Vec::new();
        for &seed in &seeds {
            let report = run_one(workload, seed, true, work)?;
            let coverage = report.values.get("bench.coverage").copied().unwrap_or(0.0);
            expect(
                format!("{workload} seed {seed}: bench.coverage {coverage:.3} >= 0.9"),
                coverage >= 0.9,
            );
            expect(
                format!(
                    "{workload} seed {seed}: {} of {} ops failed",
                    report.failed, report.attempted
                ),
                report.failed == 0,
            );
            let missing: Vec<&str> = layers::PER_LAYER
                .iter()
                .map(|&(name, _)| name)
                .filter(|name| name.starts_with("bench.") && !report.values.contains_key(name))
                .collect();
            expect(
                format!("{workload} seed {seed}: bench.* metrics present"),
                missing.is_empty(),
            );
            counted.push(report);
        }
        let names: Vec<&str> = counted[0].counted.keys().copied().collect();
        for name in names {
            let values: Vec<f64> = counted.iter().map(|r| r.counted[name] as f64).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            expect(
                format!("{workload}: counted {name} {values:?} within 1 % across seeds"),
                hi <= lo * 1.01,
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.selfcheck {
            selfcheck(&work_root()?)
        } else {
            run(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spider-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
