//! The analyst questions of the two scan workloads, and the row oracle
//! that checks their answers.
//!
//! Every question is "rows matching a typed [`Pred`], grouped by a key,
//! folded to one value". The product answers it through `FrameLoader` and
//! `Scan`; the oracle answers it from the generator's own records with
//! [`Pred::matches_record`], never touching colf, frames or the scan
//! engine.

use crate::refstore::{self, Level, Rng, DAYS, PALETTE};
use spider_core::{Pred, Scan, SnapshotFrame};
use spider_snapshot::SnapshotRecord;
use std::collections::BTreeMap;
use std::ops::Range;

/// Group key of a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// No grouping: one group, key 0.
    All,
    /// By project.
    Gid,
    /// By owner.
    Uid,
    /// By extension, as its index in [`PALETTE`].
    Ext,
}

/// What is folded per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// `COUNT(*)`.
    Count = 0,
    /// `SUM(stripe_count)`.
    SumStripes = 1,
    /// `MIN(mtime)`.
    MinMtime = 2,
    /// `MAX(atime)`.
    MaxAtime = 3,
}

/// Group key → folded value.
pub type Answer = BTreeMap<u32, u64>;

/// Index of an extension in [`PALETTE`].
pub fn ext_key(ext: Option<&str>) -> u32 {
    PALETTE
        .iter()
        .position(|&(e, _)| e == ext)
        .expect("every generated extension is in the palette") as u32
}

/// One oracle question: a predicate and a group key. The oracle keeps all
/// four [`Value`]s per group, so ops that differ only in the value share
/// an entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Row filter.
    pub pred: Pred,
    /// Group key.
    pub key: Key,
}

/// The row oracle: per question and day, per group, all four values.
pub struct Oracle {
    per_day: Vec<Vec<BTreeMap<u32, [u64; 4]>>>,
}

impl Oracle {
    /// An oracle with no day folded in yet.
    pub fn new(questions: usize) -> Oracle {
        Oracle {
            per_day: vec![vec![BTreeMap::new(); DAYS]; questions],
        }
    }

    /// Folds the rows of day index `d` into every question.
    pub fn add_day(&mut self, questions: &[Question], d: usize, records: &[SnapshotRecord]) {
        let day = refstore::day_number(d);
        for record in records {
            for (q, question) in questions.iter().enumerate() {
                if !question.pred.matches_record(record, day) {
                    continue;
                }
                let key = match question.key {
                    Key::All => 0,
                    Key::Gid => record.gid,
                    Key::Uid => record.uid,
                    Key::Ext => ext_key(record.extension()),
                };
                let e = self.per_day[q][d].entry(key).or_insert([0, 0, u64::MAX, 0]);
                e[0] += 1;
                e[1] += record.stripe_count() as u64;
                e[2] = e[2].min(record.mtime);
                e[3] = e[3].max(record.atime);
            }
        }
    }

    /// The expected answer of `question` over day indices `days`.
    pub fn answer(&self, question: usize, days: Range<usize>, value: Value) -> Answer {
        let mut out = Answer::new();
        for d in days {
            for (&key, stats) in &self.per_day[question][d] {
                merge_value(&mut out, key, stats[value as usize], value);
            }
        }
        out
    }

    /// Rows `question` matches over `days`.
    pub fn matched(&self, question: usize, days: Range<usize>) -> u64 {
        self.answer(question, days, Value::Count).values().sum()
    }
}

fn merge_value(into: &mut Answer, key: u32, v: u64, value: Value) {
    match value {
        Value::Count | Value::SumStripes => *into.entry(key).or_insert(0) += v,
        Value::MinMtime => {
            let e = into.entry(key).or_insert(u64::MAX);
            *e = (*e).min(v);
        }
        Value::MaxAtime => {
            let e = into.entry(key).or_insert(0);
            *e = (*e).max(v);
        }
    }
}

/// Folds one frame's groups into `into`, translating frame-local
/// extension ids to palette indices.
pub fn merge_frame(
    into: &mut Answer,
    frame: &SnapshotFrame,
    key: Key,
    value: Value,
    groups: impl IntoIterator<Item = (u32, u64)>,
) {
    for (k, v) in groups {
        let k = match key {
            Key::Ext => ext_key(frame.extension_str(k)),
            _ => k,
        };
        merge_value(into, k, v, value);
    }
}

/// The key function of `key` over a frame.
pub fn key_of(key: Key) -> impl Fn(&SnapshotFrame, usize) -> Option<u32> + Sync + Send + Copy {
    move |f: &SnapshotFrame, i: usize| {
        Some(match key {
            Key::All => 0,
            Key::Gid => f.gid[i],
            Key::Uid => f.uid[i],
            Key::Ext => f.ext[i],
        })
    }
}

/// `COUNT(*) GROUP BY key` over the rows of `frame` matching `pred`.
pub fn pred_group_count(into: &mut Answer, frame: &SnapshotFrame, pred: &Pred, key: Key) {
    let scan = Scan::over(frame).filter_pred(pred);
    if key == Key::All {
        merge_value(into, 0, scan.count(), Value::Count);
    } else {
        merge_frame(
            into,
            frame,
            key,
            Value::Count,
            scan.group_count(key_of(key)),
        );
    }
}

// ---------------------------------------------------------------------------
// Stratified picks
// ---------------------------------------------------------------------------

/// User directories of `level` whose uid owns no second directory, so a
/// single-uid predicate on any of them matches exactly `level.rows()`
/// rows per day: the stratum the seed picks from.
pub fn uid_stratum(level: Level) -> Vec<u32> {
    let layout = refstore::layout();
    layout
        .iter()
        .filter(|u| u.level == level && layout.iter().filter(|o| o.uid == u.uid).count() == 1)
        .map(|u| u.uid)
        .collect()
}

/// Gids of the small projects (993 rows a day each).
pub fn small_project_gids() -> Vec<u32> {
    (8..refstore::PROJECTS as u32)
        .map(|p| refstore::GID_BASE + p)
        .collect()
}

/// Gids of the large projects (17.4 % of a day each).
pub fn large_project_gids() -> Vec<u32> {
    (0..4).map(|p| refstore::GID_BASE + p).collect()
}

/// Draws `n` picks from `stratum`: whole shuffled passes, so every member
/// is used before any repeats and the multiset of *strata* is pinned
/// while the seed decides the members.
pub fn stratified<T: Copy>(rng: &mut Rng, stratum: &[T], n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    let mut pass: Vec<T> = Vec::new();
    while out.len() < n {
        if pass.is_empty() {
            pass = stratum.to_vec();
            rng.shuffle(&mut pass);
        }
        out.push(pass.pop().expect("pass refilled above"));
    }
    out
}

/// Interns `question`, returning its index.
pub fn intern(questions: &mut Vec<Question>, question: Question) -> usize {
    match questions.iter().position(|q| *q == question) {
        Some(i) => i,
        None => {
            questions.push(question);
            questions.len() - 1
        }
    }
}
