//! The LustreDU scanner: walks a live file system and emits a snapshot.
//!
//! The real LustreDU walks up to a billion inodes per night; ours walks the
//! in-memory substrate. The scan is the hot path of the simulation driver
//! (executed per snapshot day): one pass over the inode table, in its
//! unspecified order, then a sort of the records by path
//! ([`Snapshot::new`]). Each row's path is rebuilt from scratch by
//! `fs.path()`, which walks every level up to the root (one lookup and one
//! `Vec` push per level) and then allocates the `String`, so a row costs
//! O(depth) — and the simulated namespace reaches depths past 2,000.

use crate::record::SnapshotRecord;
use crate::snapshot::Snapshot;
use spider_fsmeta::FileSystem;

/// Scans every live inode (the mount root itself is excluded — LustreDU
/// lists the contents of the file system, and the analysis treats
/// `/lustre/atlas1` as the origin, not as data).
pub fn scan(fs: &FileSystem, day: u32) -> Snapshot {
    let root = fs.root();
    let mut records = Vec::with_capacity(fs.entry_count() as usize);
    for inode in fs.iter() {
        if inode.ino == root {
            continue;
        }
        let path = fs.path(inode.ino).expect("live inode has a path");
        records.push(SnapshotRecord {
            path,
            atime: inode.atime,
            ctime: inode.ctime,
            mtime: inode.mtime,
            uid: inode.uid.0,
            gid: inode.gid.0,
            mode: inode.mode().0,
            ino: inode.ino.0,
            osts: inode
                .stripes
                .as_ref()
                .map(|s| {
                    s.osts
                        .iter()
                        .zip(s.objects.iter())
                        .map(|(o, &obj)| (o.0, obj))
                        .collect()
                })
                .unwrap_or_default(),
        });
    }
    Snapshot::new(day, fs.now(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_fsmeta::{Gid, OstPool, SimClock, Uid};

    fn build_fs() -> FileSystem {
        let mut fs = FileSystem::with_parts(SimClock::new(), OstPool::new(16));
        let root = fs.root();
        let proj = fs.mkdir(root, "bip001", Uid(0), Gid(100)).unwrap();
        let user = fs.mkdir(proj, "u17", Uid(17), Gid(100)).unwrap();
        fs.create(user, "traj.bz2", Uid(17), Gid(100), None)
            .unwrap();
        fs.create(user, "traj.xyz", Uid(17), Gid(100), Some(8))
            .unwrap();
        fs
    }

    #[test]
    fn scan_captures_all_entries_except_root() {
        let fs = build_fs();
        let snap = scan(&fs, 0);
        assert_eq!(snap.len(), 4); // 2 dirs + 2 files
        assert_eq!(snap.file_count(), 2);
        assert_eq!(snap.dir_count(), 2);
        assert!(snap.find("/lustre/atlas1").is_none());
    }

    #[test]
    fn records_carry_metadata_faithfully() {
        let fs = build_fs();
        let snap = scan(&fs, 5);
        let r = snap.find("/lustre/atlas1/bip001/u17/traj.xyz").unwrap();
        assert_eq!(r.uid, 17);
        assert_eq!(r.gid, 100);
        assert!(r.is_file());
        assert_eq!(r.stripe_count(), 8);
        assert_eq!(r.extension(), Some("xyz"));
        assert_eq!(r.atime, fs.now());
        assert_eq!(snap.day(), 5);
        assert_eq!(snap.taken_at(), fs.now());

        let d = snap.find("/lustre/atlas1/bip001/u17").unwrap();
        assert!(d.is_dir());
        assert_eq!(d.stripe_count(), 0);
        assert_eq!(d.depth(), 5);
    }

    #[test]
    fn scan_is_deterministic() {
        let fs = build_fs();
        assert_eq!(scan(&fs, 0), scan(&fs, 0));
    }

    #[test]
    fn scan_reflects_deletions() {
        let mut fs = build_fs();
        let user = {
            let proj = fs.lookup(fs.root(), "bip001").unwrap().unwrap();
            fs.lookup(proj, "u17").unwrap().unwrap()
        };
        let f = fs.lookup(user, "traj.bz2").unwrap().unwrap();
        fs.unlink(f).unwrap();
        let snap = scan(&fs, 1);
        assert!(snap.find("/lustre/atlas1/bip001/u17/traj.bz2").is_none());
        assert_eq!(snap.file_count(), 1);
    }

    #[test]
    fn empty_fs_scans_to_empty_snapshot() {
        let fs = FileSystem::with_parts(SimClock::new(), OstPool::new(4));
        let snap = scan(&fs, 0);
        assert!(snap.is_empty());
    }
}
