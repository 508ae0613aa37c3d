//! The reference store: the one data set behind the three read workloads.
//!
//! 8 weekly days of exactly 65,536 rows each (16 colf zones of 4,096),
//! shaped like Spider: rows come out path-sorted, every user directory
//! has one uid and every project directory one gid, so colf v3 zone maps
//! can prune uid and gid predicates (`loadgen::synth_snapshot` draws uid
//! and gid independently of the path, so there they never do).
//!
//! **The seed changes values, never amounts.** The directory layout, the
//! row count of every directory, the extension shares, the stripe-count
//! shares and the share of rows that churn day over day are constants of
//! this file. `seed` only moves hashes: timestamps inside their cells,
//! inode numbers, OST ids, which extension a file ordinal lands on, which
//! run directory sits in which mtime cell.
//!
//! Value ranges line up with `spider_serve::sample_query`'s hard-wired
//! parameters (uids from 10,000, gids from 2,000, day 0 at 1,420,000,000,
//! weekly days), so that query family is meaningful against this store.

use spider_snapshot::SnapshotRecord;
use std::fmt::Write as _;

/// Days in the reference store.
pub const DAYS: usize = 8;
/// Rows in every day.
pub const ROWS_PER_DAY: usize = 65_536;
/// Distance between stored days (weekly snapshots, as in the paper).
pub const DAY_STRIDE: u32 = 7;
/// Scan time of day 0.
pub const BASE_TIME: u64 = 1_420_000_000;
/// First uid; user directory `k` is owned by `UID_BASE + k % UIDS`.
pub const UID_BASE: u32 = 10_000;
/// Distinct uids.
pub const UIDS: u32 = 97;
/// First gid; project `p` is `GID_BASE + p`.
pub const GID_BASE: u32 = 2_000;
/// Projects.
pub const PROJECTS: usize = 16;
/// Files a full run directory holds.
pub const FILES_PER_RUN: usize = 31;

const DAY_SECS: u64 = 86_400;
/// The mtime lattice spans this long before day 0.
const LATTICE_SPAN_SECS: u64 = 200 * DAY_SECS;
/// Files of one run were written within this long of each other.
const BURST_SECS: u64 = 7_200;

/// The extension palette: 100 slots, skewed. `None` is an extension-less
/// name. The four rare extensions hold 2 slots each, so an extension
/// predicate on one of them selects 2 % of the files.
pub const PALETTE: [(Option<&str>, usize); 13] = [
    (Some("dat"), 28),
    (Some("h5"), 14),
    (Some("nc"), 12),
    (Some("txt"), 10),
    (None, 8),
    (Some("log"), 6),
    (Some("c"), 5),
    (Some("py"), 5),
    (Some("out"), 4),
    (Some("xyz"), 2),
    (Some("csv"), 2),
    (Some("sh"), 2),
    (Some("inp"), 2),
];
/// The rare extensions of [`PALETTE`].
pub const RARE_EXTS: [&str; 4] = ["xyz", "csv", "sh", "inp"];

/// Stripe counts by file ordinal modulo 16: mostly the Lustre default of
/// four, a few narrow and a few wide files.
const STRIPES: [u16; 16] = [4, 4, 4, 1, 4, 4, 2, 4, 4, 8, 4, 4, 1, 4, 16, 4];

/// Size class of a user directory. Rows per directory (its own row
/// included) are pinned per level, so any two directories of a level are
/// interchangeable for a predicate: the seed can pick either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// 3,977 rows (6.1 % of a day, about one zone).
    A,
    /// 1,489 rows (2.3 %).
    B,
    /// 496 rows (0.76 %).
    C,
    /// 248 rows (0.38 %).
    D,
}

impl Level {
    /// Rows of one user directory of this level, its own row included.
    pub const fn rows(self) -> usize {
        match self {
            Level::A => 3_977,
            Level::B => 1_489,
            Level::C => 496,
            Level::D => 248,
        }
    }
}

use Level::{A, B, C, D};
const LARGE: [Level; 12] = [A, B, B, B, C, C, C, C, D, D, D, D];
const MEDIUM: [Level; 8] = [C, C, C, C, D, D, D, D];
const SMALL: [Level; 4] = [D, D, D, D];

/// User directories of project `p`: four large projects, four medium,
/// eight small (each small project is 993 rows, 1.5 % of a day).
pub fn project_levels(p: usize) -> &'static [Level] {
    match p {
        0..=3 => &LARGE,
        4..=7 => &MEDIUM,
        _ => &SMALL,
    }
}

/// One user directory of the pinned layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserDir {
    /// Index over all user directories, in project order.
    pub k: usize,
    /// Project index.
    pub project: usize,
    /// Owner of the directory and of everything below it.
    pub uid: u32,
    /// Group of the project.
    pub gid: u32,
    /// Size class.
    pub level: Level,
    /// Global index of the directory's first run.
    pub first_run: usize,
}

impl UserDir {
    /// Run directories below this user directory.
    pub fn runs(&self) -> usize {
        (self.level.rows() - 1).div_ceil(FILES_PER_RUN + 1)
    }

    /// Files in run `r` (the last run takes the remainder).
    pub fn files_in_run(&self, r: usize) -> usize {
        let inner = self.level.rows() - 1;
        let runs = self.runs();
        let files = inner - runs;
        if r + 1 < runs {
            FILES_PER_RUN
        } else {
            files - FILES_PER_RUN * (runs - 1)
        }
    }
}

/// The pinned directory layout, in project order.
pub fn layout() -> Vec<UserDir> {
    let mut dirs = Vec::new();
    let mut first_run = 0;
    for project in 0..PROJECTS {
        for &level in project_levels(project) {
            let k = dirs.len();
            let dir = UserDir {
                k,
                project,
                uid: UID_BASE + k as u32 % UIDS,
                gid: GID_BASE + project as u32,
                level,
                first_run,
            };
            first_run += dir.runs();
            dirs.push(dir);
        }
    }
    dirs
}

/// Total run directories of the layout (the mtime lattice has one cell
/// per run).
pub fn total_runs() -> usize {
    layout().iter().map(UserDir::runs).sum()
}

/// Width of one mtime lattice cell.
pub fn lattice_step() -> u64 {
    LATTICE_SPAN_SECS / total_runs() as u64
}

/// The mtime range covering lattice cells `first..first + cells`: exactly
/// `cells` run directories have their day-0 files inside it, whatever the
/// seed.
pub fn lattice_window(first: usize, cells: usize) -> (u64, u64) {
    let step = lattice_step();
    let hi = BASE_TIME - DAY_SECS - first as u64 * step - 1;
    let lo = BASE_TIME - DAY_SECS - (first + cells) as u64 * step;
    (lo, hi)
}

/// Stored day number of day index `d`.
pub fn day_number(d: usize) -> u32 {
    d as u32 * DAY_STRIDE
}

/// Scan time of day index `d`.
pub fn taken_at(d: usize) -> u64 {
    BASE_TIME + day_number(d) as u64 * DAY_SECS
}

/// SplitMix64 finalizer over a seed and two coordinates.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(31);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for shuffles and picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream, 0x5EED))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0, 0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Day index on which sliding-window position `seq` first holds a file,
/// for a run of `n` files: the window starts at `3d/2` on day `d`, so a
/// run replaces one or two of its files every day (~4.8 % of them).
fn window_start(d: usize) -> usize {
    3 * d / 2
}

fn entered_on(seq: usize, n: usize) -> usize {
    (0..DAYS)
        .find(|&d| window_start(d) + n > seq)
        .expect("seq lies in some day's window")
}

/// Seed-dependent constants of one store.
struct Phases {
    /// Offset into the extension palette cycle.
    ext: usize,
    /// Multiplier and offset of the run → mtime-cell permutation.
    cell_mult: u64,
    cell_off: u64,
    /// The 100-slot palette cycle, seed-shuffled.
    cycle: Vec<Option<&'static str>>,
    /// Cells of the mtime lattice (one per run) and their width.
    cells: u64,
    step: u64,
}

impl Phases {
    fn new(seed: u64) -> Phases {
        let runs = total_runs() as u64;
        let mut rng = Rng::new(seed, 1);
        let mut cell_mult = (rng.next_u64() % runs) | 1;
        while gcd(cell_mult, runs) != 1 {
            cell_mult += 2;
        }
        let mut cycle: Vec<Option<&'static str>> = PALETTE
            .iter()
            .flat_map(|&(ext, slots)| std::iter::repeat_n(ext, slots))
            .collect();
        rng.shuffle(&mut cycle);
        Phases {
            ext: rng.below(cycle.len()),
            cell_mult,
            cell_off: rng.next_u64() % runs,
            cycle,
            cells: runs,
            step: lattice_step(),
        }
    }

    fn run_time(&self, run: usize) -> u64 {
        let cell = (run as u64 * self.cell_mult + self.cell_off) % self.cells;
        BASE_TIME - DAY_SECS - (cell + 1) * self.step
    }
}

const DIR_MODE: u32 = 0o040_770;
const FILE_MODE: u32 = 0o100_664;

fn dir_record(path: String, uid: u32, gid: u32, time: u64, ino: u64) -> SnapshotRecord {
    SnapshotRecord {
        path,
        atime: time,
        ctime: time,
        mtime: time,
        uid,
        gid,
        mode: DIR_MODE,
        ino,
        osts: Vec::new(),
    }
}

/// The rows of day index `d`, path-sorted.
pub fn day_records(seed: u64, d: usize) -> Vec<SnapshotRecord> {
    assert!(d < DAYS, "day index {d} out of range");
    let phases = Phases::new(seed);
    let dirs = layout();
    let mut out = Vec::with_capacity(ROWS_PER_DAY);
    for project in 0..PROJECTS {
        let mut members: Vec<&UserDir> = dirs.iter().filter(|u| u.project == project).collect();
        // Path order inside a project is by uid; `k` order differs only
        // where `k % UIDS` wraps.
        members.sort_by_key(|u| u.uid);
        let gid = GID_BASE + project as u32;
        let project_path = format!("/lustre/atlas1/proj{project:02}");
        out.push(dir_record(
            project_path.clone(),
            members[0].uid,
            gid,
            BASE_TIME - 300 * DAY_SECS,
            100 + project as u64,
        ));
        for user in members {
            let user_path = format!("{project_path}/u{:03}", user.uid - UID_BASE);
            out.push(dir_record(
                user_path.clone(),
                user.uid,
                gid,
                BASE_TIME - 250 * DAY_SECS,
                1_000 + user.k as u64,
            ));
            for r in 0..user.runs() {
                let run = user.first_run + r;
                let run_time = phases.run_time(run);
                let run_path = format!("{user_path}/run{r:03}");
                out.push(dir_record(
                    run_path.clone(),
                    user.uid,
                    gid,
                    run_time,
                    500_000 + run as u64,
                ));
                let n = user.files_in_run(r);
                let touch_off = mix(seed, run as u64, 0x70) as usize;
                for seq in window_start(d)..window_start(d) + n {
                    let ordinal = run * FILES_PER_RUN + seq;
                    let h = mix(seed, run as u64, seq as u64);
                    let mtime = if seq < n {
                        run_time + h % BURST_SECS
                    } else {
                        taken_at(entered_on(seq, n)) - 1 - (h >> 8) % 40_000
                    };
                    // Every file is read again on one day in twenty.
                    let touched = (20 - (seq + touch_off) % 20) % 20;
                    let atime = if (1..=d).contains(&touched) {
                        taken_at(touched) - 1 - (h >> 24) % 3_600
                    } else {
                        (mtime + (h >> 16) % 1_000_000)
                            .min(BASE_TIME - 1)
                            .max(mtime)
                    };
                    let mut path = format!("{run_path}/f{seq:06}");
                    if let Some(ext) = phases.cycle[(ordinal + phases.ext) % phases.cycle.len()] {
                        path.push('.');
                        path.push_str(ext);
                    }
                    let stripes = STRIPES[ordinal % STRIPES.len()];
                    out.push(SnapshotRecord {
                        path,
                        atime,
                        ctime: mtime,
                        mtime,
                        uid: user.uid,
                        gid,
                        mode: FILE_MODE,
                        ino: 1_000_000 + run as u64 * 1_000 + seq as u64,
                        osts: (0..stripes)
                            .map(|s| {
                                let o = mix(h, s as u64, 0x057);
                                ((o % 2_016) as u16, (o >> 32) as u32)
                            })
                            .collect(),
                    });
                }
            }
        }
    }
    out
}

/// Renders rows as LustreDU PSV text for stored day `day`, header line
/// included.
pub fn render_psv(day: u32, taken_at: u64, records: &[SnapshotRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 128);
    let _ = writeln!(out, "#{day}|{taken_at}");
    for r in records {
        let _ = write!(
            out,
            "{}|{}|{}|{}|{}|{}|{:o}|{}|",
            r.path, r.atime, r.ctime, r.mtime, r.uid, r.gid, r.mode, r.ino
        );
        for (i, (ost, obj)) in r.osts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ost}:{obj:x}");
        }
        out.push('\n');
    }
    out
}
