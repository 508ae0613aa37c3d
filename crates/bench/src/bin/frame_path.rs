//! Standalone frame-loading benchmark (plain `std::time`, no criterion):
//! builds a multi-day on-disk `colf` store and times the three ways of
//! getting a `SnapshotFrame` out of it —
//!
//! 1. **row path** — `store.get` (bytes → `SnapshotRecord` rows) then
//!    `SnapshotFrame::build` (rows → columns), the pre-fast-path shape;
//! 2. **fast path, cold** — `FrameLoader` (bytes → `FrameColumns` →
//!    `from_columns`), rayon-parallel across days, cache cleared first;
//! 3. **fast path, cached** — the same loader with a warm checksum-keyed
//!    cache, i.e. the steady state of repeated experiments.
//!
//! Single-day and whole-store variants of each, plus a **selective
//! scan** section — the same typed predicate answered by a cold pruned
//! load (`frames_pruned`, colf v3 zone maps skipping whole zones), a
//! cold unpruned load (full decode then `filter_pred`), and a warm
//! scan (`filter_pred` over cached full frames; pruned frames are never
//! cached) — written to `BENCH_frame_path.json` (or the path given
//! as the first argument). Every pairing cross-checks a fingerprint
//! over all frame columns (selective cases over the surviving rows), so
//! a speedup can never come from computing a different answer. A
//! non-timed corrupt-section case asserts the salvage equivalence too.
//!
//! The whole run executes with the flight-recorder ring installed as
//! the event sink — armed but quiet, the always-on observability
//! posture — so the medians double as proof that carrying the recorder
//! costs the hot path nothing measurable. A final instrumented pass
//! (registry on) embeds stage attribution; `--trace FILE` exports that
//! pass as a chrome trace.
//!
//! Usage: `frame_path [OUT.json] [--days N] [--rows N] [--reps N] [--trace FILE]`

use spider_core::query::RowPred;
use spider_core::{FrameLoader, FramePred, Pred, Scan, SnapshotFrame};
use spider_snapshot::colf::{self, section_table};
use spider_snapshot::columns::FrameColumns;
use spider_snapshot::{Snapshot, SnapshotRecord, SnapshotStore};
use std::time::Instant;

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn str_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn synthetic_snapshot(day: u32, rows: usize) -> Snapshot {
    let mut records = Vec::with_capacity(rows);
    let dirs = 64.min(rows);
    for d in 0..dirs as u64 {
        records.push(SnapshotRecord {
            path: format!("/d{d:02}"),
            atime: 1,
            ctime: 1,
            mtime: 1,
            uid: 1,
            gid: d as u32 % 16,
            mode: 0o040770,
            ino: d,
            osts: vec![],
        });
    }
    for i in dirs as u64..rows as u64 {
        // Deterministic scramble; the day folds in so every file differs
        // between snapshots (front-coding still sees shared prefixes).
        let h = (i + day as u64 * 0x5bd1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        records.push(SnapshotRecord {
            path: format!(
                "/d{:02}/f{i}.{}",
                i % 64,
                ["nc", "h5", "dat", "txt"][(h % 4) as usize]
            ),
            atime: 1_000_000 + (h >> 20) % 500_000,
            ctime: 1_000_000,
            mtime: 1_000_000 + (h >> 8) % 400_000,
            uid: (h % 97) as u32,
            // gid equals the directory index: paths sort into per-dir
            // runs, so zone maps see tight gid ranges — the clustered
            // shape real project trees have, and what makes gid
            // predicates prunable.
            gid: (i % 64) as u32,
            mode: 0o100664,
            ino: i,
            osts: (0..(1 + h % 8)).map(|s| (s as u16, s as u32)).collect(),
        });
    }
    Snapshot::new(day, day as u64 * 86_400, records)
}

/// Order-sensitive fingerprint over every column a frame exposes, with
/// extensions resolved to strings so intern-id assignment is irrelevant.
fn frame_fingerprint(frame: &SnapshotFrame) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    frame.day().hash(&mut h);
    frame.taken_at().hash(&mut h);
    frame.len().hash(&mut h);
    frame.is_file.hash(&mut h);
    frame.atime.hash(&mut h);
    frame.ctime.hash(&mut h);
    frame.mtime.hash(&mut h);
    frame.uid.hash(&mut h);
    frame.gid.hash(&mut h);
    frame.stripe_count.hash(&mut h);
    frame.depth.hash(&mut h);
    for i in 0..frame.len() {
        frame.extension_str(frame.ext[i]).hash(&mut h);
    }
    h.finish()
}

/// Order-sensitive fingerprint over the given rows of a frame; the
/// selective-scan twin of [`frame_fingerprint`], so a pruned frame and
/// the matching rows of a full frame hash identically.
fn selected_fingerprint(frame: &SnapshotFrame, rows: impl Iterator<Item = usize>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    frame.day().hash(&mut h);
    frame.taken_at().hash(&mut h);
    let mut n = 0u64;
    for i in rows {
        frame.is_file[i].hash(&mut h);
        frame.atime[i].hash(&mut h);
        frame.ctime[i].hash(&mut h);
        frame.mtime[i].hash(&mut h);
        frame.uid[i].hash(&mut h);
        frame.gid[i].hash(&mut h);
        frame.stripe_count[i].hash(&mut h);
        frame.depth[i].hash(&mut h);
        frame.extension_str(frame.ext[i]).hash(&mut h);
        n += 1;
    }
    n.hash(&mut h);
    h.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_frame_path.json".to_string());
    let days = flag(&args, "--days", 8);
    let rows = flag(&args, "--rows", 1 << 17);
    let reps = flag(&args, "--reps", 5);

    // Always-on posture: every timed case below runs with the bounded
    // ring installed as the event sink. The registry stays disabled
    // while timing — the armed-but-quiet state every command now runs
    // in — so the medians prove the recorder's presence costs the hot
    // path exactly one relaxed load per would-be event.
    let tel = spider_telemetry::global();
    let recorder = std::sync::Arc::new(spider_obs::FlightRecorder::new());
    let trace_out = str_flag(&args, "--trace");
    if trace_out.is_some() {
        recorder.start_collecting();
    }
    spider_obs::install_panic_hook(recorder.clone());
    tel.install_sink(recorder.clone());

    let dir = std::env::temp_dir().join(format!("spider-bench-frame-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open(&dir).expect("open bench store");
    eprintln!(
        "writing {days} day(s) x {rows} rows to {} ...",
        dir.display()
    );
    for day in 0..days as u32 {
        store
            .put(&synthetic_snapshot(day * 7, rows))
            .expect("persist bench snapshot");
    }
    let all_days: Vec<u32> = store.days().to_vec();
    let last_day = *all_days.last().expect("non-empty");

    // Times `f` `reps` times, returns (median ns, last fingerprint).
    let time = |f: &mut dyn FnMut() -> u64| {
        let mut samples = Vec::with_capacity(reps);
        let mut last = 0;
        for _ in 0..reps {
            let t = Instant::now();
            last = std::hint::black_box(f());
            samples.push(t.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        (samples[reps / 2], last)
    };

    let loader = FrameLoader::new(&store).expect("open loader");
    // (name, rows scanned, median ns, fingerprint)
    let mut cases: Vec<(&str, usize, u64, u64)> = Vec::new();

    // --- single day ---
    let (ns, row_fp) = time(&mut || {
        let snapshot = store.get(last_day).unwrap().unwrap();
        frame_fingerprint(&SnapshotFrame::build(&snapshot))
    });
    cases.push(("row_path_single_day", rows, ns, row_fp));

    let (ns, fast_fp) = time(&mut || {
        loader.cache().clear();
        frame_fingerprint(&loader.frame(last_day).unwrap().unwrap())
    });
    assert_eq!(fast_fp, row_fp, "single-day fast path diverged");
    cases.push(("fast_path_single_day_cold", rows, ns, fast_fp));

    loader.cache().clear();
    let _ = loader.frame(last_day).unwrap(); // warm
    let (ns, cached_fp) =
        time(&mut || frame_fingerprint(&loader.frame(last_day).unwrap().unwrap()));
    assert_eq!(cached_fp, row_fp, "cached frame diverged");
    cases.push(("fast_path_single_day_cached", rows, ns, cached_fp));

    // --- whole store ---
    let total = rows * days;
    let (ns, row_fp) = time(&mut || {
        all_days
            .iter()
            .map(|&d| {
                let snapshot = store.get(d).unwrap().unwrap();
                frame_fingerprint(&SnapshotFrame::build(&snapshot))
            })
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    cases.push(("row_path_multi_day", total, ns, row_fp));

    let (ns, fast_fp) = time(&mut || {
        loader.cache().clear();
        loader
            .frames(&all_days)
            .unwrap()
            .iter()
            .map(|f| frame_fingerprint(f))
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    assert_eq!(fast_fp, row_fp, "multi-day fast path diverged");
    cases.push(("fast_path_multi_day_cold", total, ns, fast_fp));

    loader.cache().clear();
    let _ = loader.frames(&all_days).unwrap(); // warm
    let (ns, cached_fp) = time(&mut || {
        loader
            .frames(&all_days)
            .unwrap()
            .iter()
            .map(|f| frame_fingerprint(f))
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    assert_eq!(cached_fp, row_fp, "multi-day cached reload diverged");
    cases.push(("fast_path_multi_day_cached", total, ns, cached_fp));

    // --- selective scan: predicate pushdown vs decode-then-filter ---
    // One project's files (gid clusters with the directory layout, so
    // zone maps can prune) on the most recent half of the store — the
    // shape of most of the paper's analyses.
    let pred = Pred::and(vec![Pred::gid(5..=5), Pred::day(all_days[days / 2]..)]);
    let (ns, unpruned_fp) = time(&mut || {
        loader.cache().clear();
        loader
            .frames(&all_days)
            .unwrap()
            .iter()
            // The baseline decodes every day in full; only the fold
            // mirrors the pruned load's day-range skip, so the two
            // sides fingerprint the same surviving frames.
            .filter(|f| pred.matches_day(f.day()))
            .map(|f| {
                let compiled = FramePred::compile(&pred, f);
                selected_fingerprint(f, (0..f.len()).filter(|&i| compiled.test(f, i)))
            })
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    cases.push(("selective_scan_cold_unpruned", total, ns, unpruned_fp));

    // Pruned loads bypass the cache: every one is cold.
    let (ns, pruned_fp) = time(&mut || {
        loader
            .frames_pruned(&all_days, &pred)
            .unwrap()
            .iter()
            .map(|f| selected_fingerprint(f, 0..f.len()))
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    assert_eq!(pruned_fp, unpruned_fp, "selective pruned scan diverged");
    cases.push(("selective_scan_cold_pruned", total, ns, pruned_fp));

    let _ = loader.frames(&all_days).unwrap(); // warm
    let (ns, warm_fp) = time(&mut || {
        loader
            .frames(&all_days)
            .unwrap()
            .iter()
            .filter(|f| pred.matches_day(f.day()))
            .map(|f| {
                let rows = Scan::over(f).filter_pred(&pred).column(|_, i| i);
                selected_fingerprint(f, rows.into_iter())
            })
            .fold(0u64, |a, fp| a ^ fp.rotate_left(17))
    });
    assert_eq!(warm_fp, unpruned_fp, "warm selective scan diverged");
    cases.push(("selective_scan_warm", total, ns, warm_fp));

    // --- non-timed: corrupt-section salvage equivalence ---
    {
        let bytes = std::fs::read(dir.join(format!("snap-{last_day:05}.colf"))).unwrap();
        let spans = section_table(&bytes).unwrap();
        let osts = spans.iter().find(|s| s.name == "osts").unwrap();
        let mut corrupted = bytes.clone();
        corrupted[osts.offset + osts.len / 2] ^= 0xFF;
        let row = colf::decode_lossy(&corrupted).expect("osts is not the spine");
        let col = FrameColumns::decode_lossy(&corrupted).expect("osts is not the spine");
        assert_eq!(row.lost_sections, col.lost_sections());
        assert_eq!(
            frame_fingerprint(&SnapshotFrame::build(&row.snapshot)),
            frame_fingerprint(&SnapshotFrame::from_columns(&col)),
            "corrupt-section salvage diverged"
        );
        eprintln!(
            "corrupt-section cross-check passed (lost {:?})",
            col.lost_sections()
        );
    }

    // --- non-timed: one instrumented cold + cached pass ---
    // All timed cases above ran with the registry disabled (ring armed
    // but quiet), so the headline numbers measure the production hot
    // path. This extra pass switches the registry on and re-runs the
    // multi-day workload, giving perf PRs per-stage attribution (decode
    // latency, cache hit/miss/eviction, batch occupancy) alongside the
    // medians — and feeding the ring and the `--trace` collector.
    tel.enable();
    loader.cache().clear();
    let _ = loader.frames(&all_days).unwrap(); // cold: decodes every day
    let _ = loader.frames(&all_days).unwrap(); // cached: hits every day
    let _ = loader.frames_pruned(&all_days, &pred).unwrap(); // pushdown counters
    tel.disable();
    let telemetry = spider_telemetry::TelemetrySnapshot::capture(tel).to_json();

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"rows\": {rows},\n  \"days\": {days},\n  \"reps\": {reps},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, (name, scanned, ns, check)) in cases.iter().enumerate() {
        let mrows_s = *scanned as f64 / (*ns as f64 / 1e9) / 1e6;
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ns\": {ns}, \"mrows_per_s\": {mrows_s:.1}, \"check\": {check}}}{}\n",
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"telemetry\": {}\n", telemetry.trim_end()));
    json.push_str("}\n");
    std::fs::write(&out, &json).expect("write benchmark json");
    let _ = std::fs::remove_dir_all(&dir);
    tel.clear_sink();
    if let Some(path) = trace_out {
        let trace = spider_obs::render_chrome_trace(&recorder.take_collected());
        std::fs::write(&path, trace).expect("write chrome trace");
        eprintln!("wrote chrome trace {path}");
    }
    eprintln!("wrote {out}");
    print!("{json}");
}
