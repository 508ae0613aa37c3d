//! Tests of the harness itself: the estimators, the sampler, the
//! reference-store generator and the tables `BENCHMARK.json` repeats.

use spider_benchmark::refstore::{self, Level, Rng, DAYS, ROWS_PER_DAY};
use spider_benchmark::scanops::{stratified, uid_stratum};
use spider_benchmark::stats::{median, percentile, quiet, supports_percentile, RoundTimes};
use spider_benchmark::trace::{coverage, Tracer, OP};
use spider_benchmark::workloads::{self, scan_cold, scan_warm, serve_closed};
use spider_benchmark::{layers, END_TO_END};
use spider_serve::json::{self, Json};
use spider_snapshot::{colf, psv, FrameColumns, Pred, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Estimators
// ---------------------------------------------------------------------------

#[test]
fn percentile_needs_ten_samples_beyond() {
    assert!(supports_percentile(100, 0.90));
    assert!(!supports_percentile(99, 0.90));
    assert!(supports_percentile(20, 0.50));
    assert!(!supports_percentile(19, 0.50));
    assert!(!supports_percentile(100, 0.95));
    assert!(supports_percentile(1000, 0.99));

    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.90), 90.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

/// Seven rounds of 100 slots: slot `i` takes `(1 + i)` ms, a round 5.05 s.
fn clean_rounds() -> RoundTimes {
    let op_ns: Vec<u64> = (0..100).map(|i| (1 + i) * 1_000_000).collect();
    RoundTimes {
        wall_ns: vec![op_ns.iter().sum(); 7],
        op_ns: vec![op_ns; 7],
        lanes: 1,
    }
}

#[test]
fn bursts_in_all_rounds_but_two_move_no_metric() {
    let clean = clean_rounds().summary();
    assert_eq!(clean.op_p50_ms, 50.0);
    assert_eq!(clean.op_p90_ms, 90.0);
    assert!((clean.ops_per_s - 100.0 / 5.05).abs() < 1e-9);

    // A noisy neighbour: 20x on a fifth of the slots in five of the seven
    // rounds, and on slot 7 in the same five.
    let mut noisy = clean_rounds();
    for round in [0, 1, 3, 4, 6] {
        for slot in (10..30).chain([7]) {
            noisy.op_ns[round][slot] *= 20;
        }
        noisy.wall_ns[round] = noisy.op_ns[round].iter().sum();
    }
    assert_eq!(
        noisy.summary(),
        clean,
        "the second-fastest timing absorbs them"
    );
    assert!(
        noisy.pooled_ops_per_s() < 0.5 * clean.ops_per_s,
        "the pooled mean does not"
    );
    assert!(noisy.round_spread() > 0.5);

    // One more disturbed round and the slots are gone.
    for slot in 10..30 {
        noisy.op_ns[2][slot] *= 20;
    }
    noisy.wall_ns[2] = noisy.op_ns[2].iter().sum();
    let disturbed = noisy.summary();
    assert!(disturbed.ops_per_s < clean.ops_per_s);
    assert!(disturbed.op_p90_ms > clean.op_p90_ms);
}

#[test]
fn throughput_counts_the_time_outside_the_slots() {
    // Two clients side by side, 50 slots each of 10 and of 20 ms, and a
    // round-start cost of 0.2 s that belongs to no slot: the round takes
    // 0.2 s + the slower client's 1 s.
    let op_ns: Vec<u64> = (0..100)
        .map(|i| if i < 50 { 10 } else { 20 } * 1_000_000)
        .collect();
    let mut times = RoundTimes {
        wall_ns: vec![1_200_000_000; 7],
        op_ns: vec![op_ns; 7],
        lanes: 2,
    };
    assert!((times.quiet_round_s() - 1.2).abs() < 1e-9);
    assert!((times.summary().ops_per_s - 100.0 / 1.2).abs() < 1e-9);

    // A stall between the ops of five rounds moves nothing; the sixth does.
    for round in 0..5 {
        times.wall_ns[round] += 3_000_000_000;
    }
    assert!((times.quiet_round_s() - 1.2).abs() < 1e-9);
    times.wall_ns[5] += 3_000_000_000;
    assert!((times.quiet_round_s() - 4.2).abs() < 1e-9);
}

#[test]
fn a_single_slot_workload_repeats_its_time_as_the_tail() {
    let times = RoundTimes {
        op_ns: (1..=7).map(|r| vec![r * 1_000_000]).collect(),
        wall_ns: (1..=7).map(|r| r * 1_000_000).collect(),
        lanes: 1,
    };
    let s = times.summary();
    assert_eq!(
        (s.op_p50_ms, s.op_p90_ms),
        (2.0, 2.0),
        "the second-fastest round"
    );
    assert!((s.ops_per_s - 500.0).abs() < 1e-9);
    assert_eq!(quiet(&[5.0]), 5.0);
}

#[test]
fn self_time_and_coverage_follow_the_span_tree() {
    let mut t = Tracer::on(Instant::now(), 1);
    t.begin(OP);
    t.span("layer.outer", || {
        std::thread::sleep(std::time::Duration::from_millis(4));
    });
    std::thread::sleep(std::time::Duration::from_millis(1));
    t.end();
    let totals = t.totals();
    let own = t.self_time_ns();
    assert_eq!(totals[OP].1, 1);
    assert_eq!(own[OP], totals[OP].0 - totals["layer.outer"].0);
    assert_eq!(own["layer.outer"], totals["layer.outer"].0);
    let c = coverage(&[&t]);
    assert!(c > 0.5 && c < 0.95, "coverage {c}");
    assert!(Tracer::render_chrome(&[&t]).contains("\"name\":\"layer.outer\""));

    let mut off = Tracer::off();
    off.span("ignored", || ());
    assert!(off.spans().is_empty());
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

#[test]
fn stratified_picks_use_every_member_before_repeating() {
    let stratum: Vec<u32> = (0..8).collect();
    for seed in [1, 2, 3] {
        let picks = stratified(&mut Rng::new(seed, 0), &stratum, 20);
        assert_eq!(picks.len(), 20);
        for pass in picks.chunks(8) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), pass.len(), "a pass repeats no member");
        }
    }
    let a = stratified(&mut Rng::new(1, 0), &stratum, 8);
    let b = stratified(&mut Rng::new(2, 0), &stratum, 8);
    assert_ne!(a, b, "the seed decides the order");
}

#[test]
fn plans_pin_the_multiset_and_let_the_seed_pick_members() {
    let kinds = |seed: u64| {
        let plan = scan_warm::plan(seed);
        let mut v: Vec<String> = plan
            .ops
            .iter()
            .map(|op| {
                let kind = format!("{:?}", op.kind);
                kind.split('(').next().unwrap_or_default().to_string()
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(kinds(1), kinds(2));
    assert_eq!(kinds(1).len(), 600);

    let cold = |seed: u64| {
        let plan = scan_cold::plan(seed);
        (
            plan.ops.len(),
            plan.ops.iter().filter(|op| op.selective).count(),
            plan.ops.iter().map(|op| op.days.len()).sum::<usize>(),
        )
    };
    assert_eq!(cold(1), (100, 80, 200));
    assert_eq!(cold(1), cold(2));
    assert_ne!(scan_cold::plan(1).ops, scan_cold::plan(2).ops);
}

#[test]
fn serve_draws_decode_to_the_pinned_shapes() {
    for shape in 0..12 {
        for p1 in 0..4 {
            for p2 in 0..3 {
                for week in 0..DAYS as u64 {
                    let d = serve_closed::draw_for(shape, p1, p2, week);
                    assert_eq!(
                        (d % 12, (d >> 8) % 4, (d >> 16) % 3, (d >> 24) % DAYS as u64),
                        (shape, p1, p2, week)
                    );
                }
            }
        }
    }
    let shapes = serve_closed::round_shapes;
    assert_eq!(shapes(1), shapes(2));
    assert_eq!(
        shapes(1).len(),
        serve_closed::CLIENTS * serve_closed::PER_CLIENT
    );
    let mut distinct = shapes(1);
    distinct.dedup();
    assert!(distinct.len() >= 12, "all twelve shapes are in a round");
}

// ---------------------------------------------------------------------------
// Reference store
// ---------------------------------------------------------------------------

#[test]
fn every_day_has_exactly_the_pinned_rows_in_path_order() {
    let layout = refstore::layout();
    let rows: usize = layout.iter().map(|u| u.level.rows()).sum();
    assert_eq!(rows + refstore::PROJECTS, ROWS_PER_DAY);
    for d in [0, DAYS / 2, DAYS - 1] {
        let records = refstore::day_records(7, d);
        assert_eq!(records.len(), ROWS_PER_DAY);
        let day = refstore::day_number(d);
        Snapshot::from_sorted(day, refstore::taken_at(d), records.clone())
            .expect("strictly path-sorted");
        let text = refstore::render_psv(day, refstore::taken_at(d), &records);
        let parsed = psv::read_psv(text.as_bytes()).expect("the product parses the PSV");
        assert_eq!(parsed.records(), &records[..]);
        assert_eq!(parsed.day(), day);
    }
}

#[test]
fn uid_is_fixed_per_user_directory_and_gid_per_project() {
    let records = refstore::day_records(7, 3);
    let mut by_user_dir: BTreeMap<String, u32> = BTreeMap::new();
    let mut by_project: BTreeMap<String, u32> = BTreeMap::new();
    for r in &records {
        let parts: Vec<&str> = r.path.split('/').collect();
        // "", "lustre", "atlas1", "projNN", "uNNN", ...
        let project = parts[3].to_string();
        assert_eq!(
            *by_project.entry(project).or_insert(r.gid),
            r.gid,
            "{}",
            r.path
        );
        if parts.len() > 4 {
            let user_dir = parts[..5].join("/");
            assert_eq!(
                *by_user_dir.entry(user_dir).or_insert(r.uid),
                r.uid,
                "{}",
                r.path
            );
        }
    }
    assert_eq!(by_project.len(), refstore::PROJECTS);
    assert_eq!(by_user_dir.len(), refstore::layout().len());
}

/// Per-uid, per-extension and per-stripe-count row counts of a day.
fn amounts(
    seed: u64,
    d: usize,
) -> (
    BTreeMap<u32, usize>,
    BTreeMap<String, usize>,
    BTreeMap<u32, usize>,
) {
    let (mut uid, mut ext, mut stripes) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
    for r in refstore::day_records(seed, d) {
        *uid.entry(r.uid).or_insert(0) += 1;
        *ext.entry(r.extension().unwrap_or("").to_string())
            .or_insert(0) += 1;
        *stripes.entry(r.stripe_count()).or_insert(0) += 1;
    }
    (uid, ext, stripes)
}

#[test]
fn the_seed_changes_values_never_amounts() {
    for d in [0, DAYS - 1] {
        let (uid_a, ext_a, stripes_a) = amounts(1, d);
        let (uid_b, ext_b, stripes_b) = amounts(2, d);
        assert_eq!(uid_a, uid_b, "rows per uid are pinned");
        assert_eq!(stripes_a, stripes_b, "rows per stripe count are pinned");
        assert_eq!(
            ext_a.keys().collect::<Vec<_>>(),
            ext_b.keys().collect::<Vec<_>>()
        );
        for (ext, &a) in &ext_a {
            let b = ext_b[ext];
            let off = (a as f64 - b as f64).abs() / a as f64;
            assert!(off <= 0.01, "extension {ext:?}: {a} vs {b} rows");
        }
    }
    assert_ne!(refstore::day_records(1, 0), refstore::day_records(2, 0));
    assert_eq!(refstore::day_records(1, 0), refstore::day_records(1, 0));
}

#[test]
fn a_tenth_of_the_rows_change_from_day_to_day() {
    let index = |d: usize| -> BTreeMap<String, (u64, u64)> {
        refstore::day_records(5, d)
            .into_iter()
            .map(|r| (r.path, (r.atime, r.mtime)))
            .collect()
    };
    let (old, new) = (index(2), index(3));
    let gone = old.keys().filter(|p| !new.contains_key(*p)).count();
    let changed = old
        .iter()
        .filter(|(p, v)| new.get(*p).is_some_and(|n| n != *v))
        .count();
    let share = (2 * gone + changed) as f64 / ROWS_PER_DAY as f64;
    assert!((0.07..=0.13).contains(&share), "churn share {share}");
}

#[test]
fn an_mtime_window_holds_the_same_rows_whatever_the_seed() {
    let (lo, hi) = refstore::lattice_window(100, scan_cold::MTIME_CELLS);
    let matched = |seed: u64| {
        refstore::day_records(seed, 0)
            .iter()
            .filter(|r| r.is_file() && (lo..=hi).contains(&r.mtime))
            .count()
    };
    let (a, b) = (matched(1), matched(2));
    assert!(a > 1000 && a < 1311, "≈1.9 % of a day, got {a}");
    assert!((a as f64 - b as f64).abs() / a as f64 <= 0.03, "{a} vs {b}");
}

#[test]
fn a_single_uid_predicate_skips_zones() {
    let records = refstore::day_records(7, 0);
    let bytes = colf::encode(&Snapshot::new(0, refstore::taken_at(0), records.clone()));
    for level in [Level::C, Level::D] {
        let uid = uid_stratum(level)[0];
        let pred = Pred::uid(uid..=uid);
        let tel = spider_telemetry::global();
        tel.reset();
        tel.enable();
        let cols = FrameColumns::decode_pruned(&bytes, &pred).expect("pruned decode");
        tel.disable();
        let skipped = tel
            .counter_values()
            .into_iter()
            .find(|(name, _)| *name == "pushdown.zones_skipped")
            .map_or(0, |(_, n)| n);
        assert!(skipped >= 1, "uid {uid}: no zone skipped");
        assert_eq!(
            cols.len(),
            level.rows(),
            "the whole user directory and nothing else"
        );
        let oracle = records.iter().filter(|r| pred.matches_record(r, 0)).count();
        assert_eq!(cols.len(), oracle);
    }
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs("end_to_end"), own(&END_TO_END));
    assert_eq!(pairs("per_layer"), own(&layers::PER_LAYER));
    let named: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(named, workloads::NAMES);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_u64), Some(14));
}
