//! The streaming analysis driver.
//!
//! The study's snapshot corpus (8.5 TB of text) cannot be held resident;
//! OLCF streamed it through SparkSQL. Our equivalent loads each stored
//! snapshot exactly once, in day order, keeps the previous snapshot alive
//! for diff-based analyses (Figs. 13 and 17), and fans each
//! `(prev, current)` pair out to every registered [`SnapshotVisitor`].
//! Running all analyses in one pass over the store is what makes the
//! full 72-snapshot reproduction a single-digit-minutes job.

use crate::frame::SnapshotFrame;
use crate::loader::{FrameLoader, LoadedDay};
use spider_snapshot::store::StoreError;
use spider_snapshot::{Snapshot, SnapshotDiff, SnapshotStore};
use std::sync::Arc;

/// Everything a visitor may inspect for one snapshot step.
pub struct VisitCtx<'a> {
    /// The current snapshot (records sorted by path).
    pub snapshot: &'a Snapshot,
    /// Columnar view of the current snapshot.
    pub frame: &'a SnapshotFrame,
    /// The previous snapshot and its frame, if any.
    pub prev: Option<(&'a Snapshot, &'a SnapshotFrame)>,
    /// The diff against the previous snapshot, if any.
    pub diff: Option<&'a SnapshotDiff>,
}

/// An analysis that accumulates over streamed snapshots.
pub trait SnapshotVisitor {
    /// Called once per snapshot, in day order.
    fn visit(&mut self, ctx: &VisitCtx<'_>);
}

/// Streams in-memory snapshots (tests and examples) through `visitors`.
pub fn stream_snapshots(snapshots: &[Snapshot], visitors: &mut [&mut dyn SnapshotVisitor]) -> u32 {
    let mut prev: Option<(&Snapshot, SnapshotFrame)> = None;
    for snapshot in snapshots {
        let frame = SnapshotFrame::build(snapshot);
        let diff = prev
            .as_ref()
            .map(|(ps, _)| SnapshotDiff::compute(ps, snapshot));
        let ctx = VisitCtx {
            snapshot,
            frame: &frame,
            prev: prev.as_ref().map(|(s, f)| (*s, f)),
            diff: diff.as_ref(),
        };
        for v in visitors.iter_mut() {
            v.visit(&ctx);
        }
        prev = Some((snapshot, frame));
    }
    snapshots.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_snapshot::SnapshotRecord;

    fn snap(day: u32, paths: &[&str]) -> Snapshot {
        let records = paths
            .iter()
            .map(|p| SnapshotRecord {
                path: p.to_string(),
                atime: day as u64,
                ctime: 1,
                mtime: 1,
                uid: 1,
                gid: 1,
                mode: 0o100664,
                ino: 1,
                osts: vec![],
            })
            .collect();
        Snapshot::new(day, day as u64 * 86_400, records)
    }

    #[derive(Default)]
    struct Probe {
        days: Vec<u32>,
        had_prev: Vec<bool>,
        new_counts: Vec<u64>,
    }

    impl SnapshotVisitor for Probe {
        fn visit(&mut self, ctx: &VisitCtx<'_>) {
            self.days.push(ctx.snapshot.day());
            self.had_prev.push(ctx.prev.is_some());
            self.new_counts
                .push(ctx.diff.map(|d| d.breakdown().new).unwrap_or(0));
            assert_eq!(ctx.frame.len(), ctx.snapshot.len());
        }
    }

    #[test]
    fn streams_in_order_with_diffs() {
        let snaps = vec![
            snap(0, &["/a"]),
            snap(7, &["/a", "/b"]),
            snap(14, &["/a", "/b", "/c", "/d"]),
        ];
        let mut probe = Probe::default();
        let steps = stream_snapshots(&snaps, &mut [&mut probe]);
        assert_eq!(steps, 3);
        assert_eq!(probe.days, vec![0, 7, 14]);
        assert_eq!(probe.had_prev, vec![false, true, true]);
        assert_eq!(probe.new_counts, vec![0, 1, 2]);
    }

    #[test]
    fn multiple_visitors_see_the_same_stream() {
        let snaps = vec![snap(0, &["/a"]), snap(7, &["/b"])];
        let mut p1 = Probe::default();
        let mut p2 = Probe::default();
        stream_snapshots(&snaps, &mut [&mut p1, &mut p2]);
        assert_eq!(p1.days, p2.days);
        assert_eq!(p1.new_counts, p2.new_counts);
    }

    #[test]
    fn store_streaming_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spider-pipe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir).unwrap();
        store.put(&snap(7, &["/a", "/b"])).unwrap();
        store.put(&snap(0, &["/a"])).unwrap();
        let mut probe = Probe::default();
        let steps = stream_store(&store, &mut [&mut probe]).unwrap();
        assert_eq!(steps, 2);
        assert_eq!(probe.days, vec![0, 7]); // day order, not insert order
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Streams every snapshot in `store` through `visitors`:
/// [`stream_loader`] with a loader derived from `store`. Decoding is
/// lossy, so degraded-but-salvageable days stream through instead of
/// aborting the pass — the same semantics `scrub()` promises when it
/// keeps a degraded file in the index.
pub fn stream_store(
    store: &SnapshotStore,
    visitors: &mut [&mut dyn SnapshotVisitor],
) -> Result<u32, StoreError> {
    stream_loader(&FrameLoader::new(store)?, visitors)
}

/// Streams every day of `loader`'s store through `visitors`, loading
/// and decoding the next day on a producer thread while the visitors
/// process the current one — pipeline parallelism over the I/O + decode
/// stage.
///
/// The producer runs the columnar fast path per day
/// ([`FrameLoader::load_with_rows`]): one raw read, one decode that
/// yields the row snapshot (for diffs) *and* the frame, with the frame
/// cache consulted first — so a second pass over the same loader skips
/// every frame build. Memory high-water stays two snapshots plus two
/// frames (plus whatever the cache retains), independent of store size.
pub fn stream_loader(
    loader: &FrameLoader,
    visitors: &mut [&mut dyn SnapshotVisitor],
) -> Result<u32, StoreError> {
    let days: Vec<u32> = loader.days().to_vec();
    let mut steps = 0;
    let mut result = Ok(());
    // The producer runs on its own thread, so its span is attached under
    // the consumer's current span path explicitly and flagged concurrent
    // (it overlaps the visitors' wall-clock instead of nesting inside it).
    let span_parent = spider_telemetry::global().current_path();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<LoadedDay, StoreError>>(1);
        let span_parent = &span_parent;
        scope.spawn(move || {
            let _load = spider_telemetry::global().span_at(span_parent, "load");
            for day in days {
                let item = loader.load_with_rows(day).and_then(|opt| {
                    opt.ok_or_else(|| {
                        StoreError::Io(std::io::Error::other(format!(
                            "day {day} vanished during analysis"
                        )))
                    })
                });
                if tx.send(item).is_err() {
                    return; // consumer bailed on an error
                }
            }
        });

        let mut prev: Option<(Snapshot, Arc<SnapshotFrame>)> = None;
        for item in rx.iter() {
            let loaded = match item {
                Ok(l) => l,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            let diff = prev
                .as_ref()
                .map(|(ps, _)| SnapshotDiff::compute(ps, &loaded.snapshot));
            let ctx = VisitCtx {
                snapshot: &loaded.snapshot,
                frame: &loaded.frame,
                prev: prev.as_ref().map(|(s, f)| (s, &**f)),
                diff: diff.as_ref(),
            };
            for v in visitors.iter_mut() {
                v.visit(&ctx);
            }
            prev = Some((loaded.snapshot, loaded.frame));
            steps += 1;
        }
        // rx drops here; a still-running producer unblocks on the closed
        // channel and exits before the scope joins it.
    });
    result.map(|()| steps)
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use spider_snapshot::SnapshotRecord;

    fn snap(day: u32, n: usize) -> Snapshot {
        let records = (0..n)
            .map(|i| SnapshotRecord {
                path: format!("/p/f{i:04}"),
                atime: day as u64 + i as u64,
                ctime: 1,
                mtime: 1,
                uid: 1,
                gid: 1,
                mode: 0o100664,
                ino: i as u64 + 1,
                osts: vec![(1, 1)],
            })
            .collect();
        Snapshot::new(day, day as u64 * 86_400, records)
    }

    #[derive(Default)]
    struct Collector {
        days: Vec<u32>,
        new_counts: Vec<u64>,
    }

    impl SnapshotVisitor for Collector {
        fn visit(&mut self, ctx: &VisitCtx<'_>) {
            self.days.push(ctx.snapshot.day());
            self.new_counts
                .push(ctx.diff.map(|d| d.breakdown().new).unwrap_or(0));
        }
    }

    #[test]
    fn store_streaming_matches_in_memory_streaming() {
        let dir = std::env::temp_dir().join(format!("spider-prefetch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir).unwrap();
        let snaps: Vec<Snapshot> = [0u32, 7, 14, 21]
            .iter()
            .map(|&day| snap(day, 10 + day as usize))
            .collect();
        for s in &snaps {
            store.put(s).unwrap();
        }
        let mut plain = Collector::default();
        let plain_steps = stream_snapshots(&snaps, &mut [&mut plain]);
        let mut fetched = Collector::default();
        let fetched_steps = stream_store(&store, &mut [&mut fetched]).unwrap();
        assert_eq!(plain_steps, fetched_steps);
        assert_eq!(plain.days, fetched.days);
        assert_eq!(plain.new_counts, fetched.new_counts);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefetch_shares_the_fault_injected_io_seam() {
        use spider_snapshot::faultfs::{FaultFs, FaultKind};
        use spider_snapshot::io::OsIo;
        use spider_snapshot::store::RetryPolicy;
        use std::sync::Arc;

        let dir =
            std::env::temp_dir().join(format!("spider-prefetch-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = SnapshotStore::open(&dir).unwrap();
            for day in [0u32, 7, 14] {
                store.put(&snap(day, 20)).unwrap();
            }
        }
        let ffs = Arc::new(FaultFs::new(OsIo, 17));
        let store = SnapshotStore::open_with_io(
            &dir,
            ffs.clone() as Arc<dyn spider_snapshot::io::StoreIo>,
            RetryPolicy::immediate(),
        )
        .unwrap();
        // Ops 0..=2 were the open-time peeks; fault the producer thread's
        // second snapshot read. If the producer opened its own OsIo
        // handle instead of sharing the seam, this fault would never
        // fire and the assertion on the log below would fail.
        ffs.plan_read(4, FaultKind::TransientEio);
        let mut fetched = Collector::default();
        let steps = stream_store(&store, &mut [&mut fetched]).unwrap();
        assert_eq!(steps, 3);
        assert_eq!(fetched.days, vec![0, 7, 14]);
        assert_eq!(
            ffs.injected().len(),
            1,
            "fault must fire through the shared seam"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_loader_pass_reuses_cached_frames() {
        use crate::loader::FrameLoader;
        let dir =
            std::env::temp_dir().join(format!("spider-prefetch-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir).unwrap();
        for day in [0u32, 7, 14] {
            store.put(&snap(day, 25)).unwrap();
        }
        let loader = FrameLoader::new(&store).unwrap();
        let mut first = Collector::default();
        let mut second = Collector::default();
        stream_loader(&loader, &mut [&mut first]).unwrap();
        stream_loader(&loader, &mut [&mut second]).unwrap();
        assert_eq!(first.days, second.days);
        assert_eq!(first.new_counts, second.new_counts);
        let (hits, misses, evictions) = loader.cache().stats();
        assert_eq!(misses, 3, "cold pass decodes every day once");
        assert_eq!(hits, 3, "warm pass serves every frame from cache");
        assert_eq!(evictions, 0, "default capacity never evicts here");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefetch_on_empty_store() {
        let dir =
            std::env::temp_dir().join(format!("spider-prefetch-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let steps = stream_store(&store, &mut []).unwrap();
        assert_eq!(steps, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
