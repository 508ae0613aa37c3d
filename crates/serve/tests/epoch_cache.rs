//! The store-epoch component of the response-cache key.
//!
//! Regression: the response cache used to be keyed by query
//! fingerprint alone, so a day appended (or removed) after an answer
//! was cached could be served a stale answer computed over the old day
//! set. The key now carries an epoch — a digest of the scannable days
//! *and their bytes* — so any change to the store makes every cold
//! cached answer unreachable, and `refresh` advances hot accumulator
//! states by folding in just the new days.

use spider_serve::proto::Query;
use spider_serve::{EngineConfig, QueryEngine};
use spider_snapshot::{Snapshot, SnapshotRecord, SnapshotStore};
use std::fs;
use std::path::{Path, PathBuf};

const ROWS: usize = 40;

fn sample_snapshot(day: u32) -> Snapshot {
    let records: Vec<SnapshotRecord> = (0..ROWS)
        .map(|i| SnapshotRecord {
            path: format!("/lustre/atlas1/proj{:02}/d{day}/f.{i:06}", i % 5),
            atime: 1_420_000_000 + day as u64 * 86_400 + i as u64 * 31,
            ctime: 1_420_000_000 + i as u64 * 17,
            mtime: 1_420_000_000 + i as u64 * 19,
            uid: 10_000 + (i % 23) as u32,
            gid: 2_000 + (i % 7) as u32,
            mode: if i % 9 == 0 { 0o040_770 } else { 0o100_664 },
            ino: day as u64 * 1_000_000 + i as u64,
            osts: (0..(i % 4) as u16).map(|k| (k * 97, i as u32)).collect(),
        })
        .collect();
    Snapshot::new(day, 1_420_000_000 + day as u64 * 86_400, records)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spider-epoch-cache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seed_store(dir: &Path, days: &[u32]) {
    let mut store = SnapshotStore::open(dir).expect("open store");
    for &day in days {
        store.put(&sample_snapshot(day)).expect("put snapshot");
    }
}

fn append_day(dir: &Path, day: u32) {
    let mut store = SnapshotStore::open(dir).expect("reopen store");
    store.put(&sample_snapshot(day)).expect("append snapshot");
}

fn query(line: &str) -> Query {
    Query::parse(line).expect("parse query")
}

const Q_ALL: &str = r#"{"v":1,"id":1,"tenant":"ops","agg":"count"}"#;

#[test]
fn stale_epoch_answers_are_unreachable_after_day_set_change() {
    let dir = temp_dir("cold");
    seed_store(&dir, &[0, 7, 14]);
    // hot_states: 0 isolates the pure invalidation path — no hot
    // refresh can repopulate the cache for us.
    let engine = QueryEngine::open(
        &dir,
        EngineConfig {
            hot_states: 0,
            ..Default::default()
        },
    )
    .expect("open engine");
    let q = query(Q_ALL);
    let fp = q.fingerprint();

    let fresh = engine
        .execute(spider_core::UNTENANTED, &q)
        .expect("execute");
    assert_eq!(fresh.result, format!("{{\"count\":{}}}", 3 * ROWS));
    assert_eq!(engine.cached(fp).expect("cached").result, fresh.result);

    // A day lands after the answer was cached. Until refresh the
    // engine still serves the old epoch — refresh is the one
    // reconciliation point.
    append_day(&dir, 21);
    assert!(engine.cached(fp).is_some());

    let before = engine.epoch();
    let stats = engine.refresh().expect("refresh");
    assert_eq!(stats.added, vec![21]);
    assert!(stats.removed.is_empty());
    assert_ne!(stats.epoch, before, "day-set change must move the epoch");

    // The regression: this used to return the 3-day answer.
    assert!(
        engine.cached(fp).is_none(),
        "stale answer served across a day-set change"
    );
    let fresh = engine
        .execute(spider_core::UNTENANTED, &q)
        .expect("re-execute");
    assert_eq!(fresh.result, format!("{{\"count\":{}}}", 4 * ROWS));
    assert_eq!(fresh.days_scanned, 4);
    assert_eq!(engine.cached(fp).expect("recached").result, fresh.result);

    // A refresh with nothing changed keeps the epoch (and the cache).
    let stats = engine.refresh().expect("no-op refresh");
    assert!(stats.added.is_empty() && stats.removed.is_empty());
    assert_eq!(stats.epoch, engine.epoch());
    assert!(engine.cached(fp).is_some());

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn refresh_folds_new_days_into_hot_answers() {
    let dir = temp_dir("hot");
    seed_store(&dir, &[0, 7, 14]);
    let engine = QueryEngine::open(&dir, EngineConfig::default()).expect("open engine");

    // Two live answers with different shapes; one day-windowed query
    // that day 21 cannot touch.
    let q_all = query(Q_ALL);
    let q_groups = query(
        r#"{"v":1,"id":2,"tenant":"ops","agg":{"group_count":{"by":"gid","top":3}},"days":[0,40]}"#,
    );
    let q_window = query(r#"{"v":1,"id":3,"tenant":"ops","agg":"count","days":[0,7]}"#);
    for q in [&q_all, &q_groups, &q_window] {
        engine.execute(spider_core::UNTENANTED, q).expect("warm");
    }
    let groups_3day = engine.cached(q_groups.fingerprint()).unwrap();

    append_day(&dir, 21);
    let stats = engine.refresh().expect("refresh");
    assert_eq!(stats.added, vec![21]);
    assert_eq!(
        stats.hot_updated, 2,
        "both day-21-matching answers advance; the [0,7] window does not"
    );
    assert_eq!(stats.hot_dropped, 0);

    // The refreshed answers are served from cache at the new epoch —
    // no re-execution — and match a from-scratch execution exactly.
    let hot_all = engine.cached(q_all.fingerprint()).expect("hot count");
    assert_eq!(hot_all.result, format!("{{\"count\":{}}}", 4 * ROWS));
    assert_eq!(hot_all.days_scanned, 4);
    let hot_groups = engine.cached(q_groups.fingerprint()).expect("hot groups");
    assert_ne!(hot_groups.result, groups_3day.result);
    let oracle = engine
        .execute(spider_core::UNTENANTED, &q_groups)
        .expect("oracle execute");
    assert_eq!(
        hot_groups.result, oracle.result,
        "hot-folded groups must be byte-identical to a fresh fold"
    );

    // The untouched window was not re-cached under the new epoch
    // (nothing changed inside it, but its old answer belongs to the
    // old epoch — it recomputes on next ask).
    assert!(engine.cached(q_window.fingerprint()).is_none());

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn vanished_days_drop_hot_states_instead_of_reusing_them() {
    let dir = temp_dir("vanish");
    seed_store(&dir, &[0, 7, 14]);
    let engine = QueryEngine::open(&dir, EngineConfig::default()).expect("open engine");
    let q = query(Q_ALL);
    engine.execute(spider_core::UNTENANTED, &q).expect("warm");

    fs::remove_file(dir.join("snap-00014.colf")).expect("remove day 14");
    let stats = engine.refresh().expect("refresh");
    assert_eq!(stats.removed, vec![14]);
    assert_eq!(stats.hot_dropped, 1, "counts cannot retract a vanished day");
    assert_eq!(stats.hot_updated, 0);

    assert!(engine.cached(q.fingerprint()).is_none());
    let fresh = engine
        .execute(spider_core::UNTENANTED, &q)
        .expect("re-execute");
    assert_eq!(fresh.result, format!("{{\"count\":{}}}", 2 * ROWS));

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_day_rewritten_in_place_moves_the_epoch() {
    // Regression: the epoch used to digest day *numbers* only, and
    // `refresh` returned early on an unchanged day set — so a day whose
    // bytes were replaced (peer heal, re-simulation) kept its stale
    // rendered answer reachable and its hot state alive.
    let dir = temp_dir("rewrite");
    seed_store(&dir, &[0, 7, 14]);
    let engine = QueryEngine::open(&dir, EngineConfig::default()).expect("open engine");
    let q = query(Q_ALL);
    let q_untouched = query(r#"{"v":1,"id":2,"tenant":"ops","agg":"count","days":[14,14]}"#);
    for q in [&q, &q_untouched] {
        engine.execute(spider_core::UNTENANTED, q).expect("warm");
    }

    let full = sample_snapshot(7);
    let half = Snapshot::new(7, full.taken_at(), full.records()[..ROWS / 2].to_vec());
    fs::write(
        dir.join("snap-00007.colf"),
        spider_snapshot::colf::encode(&half),
    )
    .expect("rewrite day 7");
    assert!(
        engine.cached(q.fingerprint()).is_some(),
        "refresh is the one freshness point"
    );

    let before = engine.epoch();
    let stats = engine.refresh().expect("refresh");
    assert!(stats.added.is_empty() && stats.removed.is_empty());
    assert_eq!(stats.rewritten, vec![7]);
    assert_ne!(stats.epoch, before, "changed bytes must move the epoch");
    assert_eq!(
        (stats.hot_dropped, stats.hot_updated),
        (1, 0),
        "only the state whose window covers day 7 goes"
    );

    assert!(
        engine.cached(q.fingerprint()).is_none(),
        "stale answer served across an in-place rewrite"
    );
    let again = engine
        .execute(spider_core::UNTENANTED, &q)
        .expect("re-execute");
    let fresh = QueryEngine::open(&dir, EngineConfig::default())
        .expect("fresh engine")
        .execute(spider_core::UNTENANTED, &q)
        .expect("fresh execute");
    assert_eq!(again.result, fresh.result);
    assert_eq!(
        again.result,
        format!("{{\"count\":{}}}", 2 * ROWS + ROWS / 2)
    );

    fs::remove_dir_all(&dir).unwrap();
}
