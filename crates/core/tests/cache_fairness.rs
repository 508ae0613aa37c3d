//! FrameCache fairness under concurrent multi-tenant access.
//!
//! Seeded randomized interleavings (plain splitmix schedules, so the
//! suite runs under the offline harness where proptest cannot): many
//! threads hammer one cache under different tenant attributions, then
//! the accounting must reconcile exactly and the pinned-fairness
//! invariant — an eviction never drops a within-budget tenant to zero
//! residents while another tenant holds more than its budget — must
//! hold, as witnessed by the cache's own continuous audit counter.
//!
//! Seeds come from `SPIDER_SERVE_SEED` when set (CI pins one per job),
//! else the three defaults below all run.

use spider_core::{FrameCache, SnapshotFrame};
use spider_snapshot::{Snapshot, SnapshotRecord};
use std::sync::Arc;

fn seeds() -> Vec<u64> {
    match std::env::var("SPIDER_SERVE_SEED") {
        Ok(s) => vec![s.parse().expect("SPIDER_SERVE_SEED must be a u64")],
        Err(_) => vec![660_942, 2_964_594_389, 3_237_998_146],
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tiny_frame(day: u32) -> Arc<SnapshotFrame> {
    let records = vec![SnapshotRecord {
        path: format!("/lustre/atlas1/proj01/u001/f{day}.dat"),
        atime: 1_420_000_000,
        ctime: 1_420_000_000,
        mtime: 1_420_000_000,
        uid: 10_000,
        gid: 2_000,
        mode: 0o100_664,
        ino: day as u64,
        osts: vec![(0u16, day)],
    }];
    Arc::new(SnapshotFrame::build(&Snapshot::new(
        day,
        1_420_000_000,
        records,
    )))
}

/// Many tenants, many threads, random get/insert traffic: every
/// counter must reconcile and the fairness audit must stay at zero.
#[test]
fn concurrent_multi_tenant_accounting_reconciles() {
    const CAPACITY: usize = 8;
    const THREADS: usize = 8;
    const OPS: usize = 2_000;
    const KEYS: u32 = 32;

    for seed in seeds() {
        let cache = Arc::new(FrameCache::new(CAPACITY));
        // Tenant 1 roomy, tenant 2 tight, tenant 3 pinned-singleton,
        // tenant 4 unconstrained (defaults to the whole capacity).
        cache.set_tenant_budget(1, 4);
        cache.set_tenant_budget(2, 2);
        cache.set_tenant_budget(3, 1);
        let frames: Vec<Arc<SnapshotFrame>> = (0..KEYS).map(tiny_frame).collect();

        let mut total_gets = 0u64;
        let mut total_inserts = 0u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let frames = &frames;
                    scope.spawn(move || {
                        let mut rng = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let mut gets = 0u64;
                        let mut inserts = 0u64;
                        for _ in 0..OPS {
                            let draw = splitmix(&mut rng);
                            let tenant = (draw % 4 + 1) as u32;
                            let key_day = (draw >> 8) as u32 % KEYS;
                            let key = (key_day, 0u64);
                            let _attr = FrameCache::attribute(tenant);
                            gets += 1;
                            if cache.get(key).is_none() {
                                inserts += 1;
                                cache.insert(key, Arc::clone(&frames[key_day as usize]));
                            }
                        }
                        (gets, inserts)
                    })
                })
                .collect();
            for handle in handles {
                let (gets, inserts) = handle.join().unwrap();
                total_gets += gets;
                total_inserts += inserts;
            }
        });

        let (hits, misses, evictions) = cache.stats();
        assert_eq!(
            hits + misses,
            total_gets,
            "seed {seed}: every get is a hit or a miss"
        );
        assert_eq!(cache.inserts(), total_inserts, "seed {seed}: insert count");
        assert!(cache.len() <= CAPACITY, "seed {seed}: capacity bound");
        // Overwrites (two threads racing the same missed key) insert
        // without evicting, so resident + evicted can only fall short
        // of inserts, never exceed it.
        assert!(
            cache.len() as u64 + evictions <= total_inserts,
            "seed {seed}: len {} + evictions {evictions} vs inserts {total_inserts}",
            cache.len()
        );

        let per_tenant = cache.tenant_stats();
        let sum = |f: fn(&spider_core::TenantCacheStats) -> u64| -> u64 {
            per_tenant.iter().map(|(_, s)| f(s)).sum()
        };
        assert_eq!(
            sum(|s| s.hits),
            hits,
            "seed {seed}: per-tenant hits cover global"
        );
        assert_eq!(
            sum(|s| s.misses),
            misses,
            "seed {seed}: per-tenant misses cover global"
        );
        assert_eq!(
            sum(|s| s.inserts),
            total_inserts,
            "seed {seed}: per-tenant inserts cover global"
        );
        assert_eq!(
            sum(|s| s.evictions),
            evictions,
            "seed {seed}: per-tenant evictions cover global"
        );
        assert_eq!(
            per_tenant.iter().map(|(_, s)| s.resident).sum::<usize>(),
            cache.len(),
            "seed {seed}: resident counts cover the map"
        );
        assert_eq!(
            cache.fairness_violations(),
            0,
            "seed {seed}: fairness audit"
        );
    }
}

/// The pinned-fairness scenario, concurrently: one tenant's single hot
/// frame (budget 1) must survive another tenant's long cold sweep.
#[test]
fn hot_singleton_survives_concurrent_cold_sweep() {
    const CAPACITY: usize = 4;
    const SWEEP: u32 = 500;

    for seed in seeds() {
        let cache = Arc::new(FrameCache::new(CAPACITY));
        cache.set_tenant_budget(1, 2); // the sweeper
        cache.set_tenant_budget(2, 1); // the pinned singleton
        let hot = tiny_frame(100_000);
        let hot_key = (100_000u32, 0u64);

        std::thread::scope(|scope| {
            let sweeper = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let _attr = FrameCache::attribute(1);
                    let mut rng = seed;
                    for i in 0..SWEEP {
                        let day = (splitmix(&mut rng) % 10_000) as u32 + i;
                        let key = (day, 1);
                        if cache.get(key).is_none() {
                            cache.insert(key, tiny_frame(day));
                        }
                    }
                })
            };
            let pinned = {
                let cache = Arc::clone(&cache);
                let hot = Arc::clone(&hot);
                scope.spawn(move || {
                    let _attr = FrameCache::attribute(2);
                    for _ in 0..SWEEP {
                        if cache.get(hot_key).is_none() {
                            cache.insert(hot_key, Arc::clone(&hot));
                        }
                        std::hint::spin_loop();
                    }
                })
            };
            sweeper.join().unwrap();
            pinned.join().unwrap();
        });

        // Once resident, the singleton can never be the victim: the
        // sweeper is the only over-budget tenant (pass 1), and pass 2
        // spares single-frame within-budget owners.
        let _attr = FrameCache::attribute(2);
        assert!(
            cache.get(hot_key).is_some(),
            "seed {seed}: pinned tenant's hot frame was evicted"
        );
        let residents: Vec<(u32, usize)> = cache
            .tenant_stats()
            .iter()
            .map(|&(t, s)| (t, s.resident))
            .collect();
        assert!(
            residents.contains(&(2, 1)),
            "seed {seed}: tenant 2 should hold exactly its one frame, got {residents:?}"
        );
        assert_eq!(
            cache.fairness_violations(),
            0,
            "seed {seed}: fairness audit"
        );
        let (_, _, evictions) = cache.stats();
        assert!(evictions > 0, "seed {seed}: the sweep must actually churn");
    }
}

/// Budgets survive `clear()`, and a cleared cache reconciles from zero.
#[test]
fn clear_resets_accounting_but_keeps_budgets() {
    let cache = FrameCache::new(2);
    cache.set_tenant_budget(7, 1);
    {
        let _attr = FrameCache::attribute(7);
        cache.insert((1, 0), tiny_frame(1));
        cache.insert((2, 0), tiny_frame(2));
        cache.insert((3, 0), tiny_frame(3));
    }
    assert!(cache.inserts() > 0);
    cache.clear();
    assert_eq!(cache.len(), 0);
    assert_eq!(cache.stats(), (0, 0, 0));
    assert_eq!(cache.inserts(), 0);
    assert!(cache.tenant_stats().is_empty());
    // The budget persists: tenant 7 over-budget entries evict first.
    {
        let _attr = FrameCache::attribute(7);
        cache.insert((4, 0), tiny_frame(4));
        cache.insert((5, 0), tiny_frame(5));
    }
    let _attr = FrameCache::attribute(8);
    cache.insert((6, 0), tiny_frame(6));
    let survivors: Vec<u32> = [(4u32, 0u64), (5, 0), (6, 0)]
        .into_iter()
        .filter(|&k| cache.get(k).is_some())
        .map(|k| k.0)
        .collect();
    assert_eq!(
        survivors,
        vec![5, 6],
        "tenant 7's LRU over-budget entry goes first"
    );
}

/// A fairness violation must freeze the flight recorder. The real
/// eviction audit is unreachable by construction (that is the point of
/// the policy), so this drives the same counter + trigger path through
/// the cache's test hook and asserts the dump lands with the violation
/// detail and the traffic that preceded it.
#[test]
fn flight_recorder_dumps_on_fairness_violation() {
    let dumps = std::env::temp_dir().join(format!("spider-fairness-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dumps);
    let cache = FrameCache::new(4);

    let tel = spider_telemetry::global();
    tel.enable();
    let rec = Arc::new(spider_obs::FlightRecorder::new().with_dump_dir(&dumps));
    tel.install_sink(rec.clone());

    // Ordinary traffic first, so the ring has moments to freeze.
    {
        let _attr = FrameCache::attribute(3);
        cache.insert((1, 0), tiny_frame(1));
        let _ = cache.get((1, 0));
    }
    cache.record_fairness_violation("tenant 3 evicted to zero residents within budget");
    tel.clear_sink();

    assert_eq!(
        cache.fairness_violations(),
        1,
        "the hook counts like the audit"
    );
    assert!(rec.dump_count() >= 1, "the violation must dump the ring");
    let tail = std::fs::read_to_string(dumps.join("flight-fairness-violation-0.tail.json"))
        .expect("tail dump exists");
    assert!(
        tail.contains("\"kind\":\"fairness_violation\""),
        "tail must name the trigger: {tail}"
    );
    assert!(
        tail.contains("tenant 3 evicted to zero residents"),
        "tail must carry the violation detail: {tail}"
    );
    std::fs::remove_dir_all(&dumps).expect("cleanup");
}
