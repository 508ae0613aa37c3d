//! Zero-rehydration column views over `colf` bytes — **the** colf
//! reader, including **predicate pushdown**.
//!
//! Materializing one [`crate::SnapshotRecord`] per inode (a heap
//! `String` path plus a per-row stripe `Vec`) only for the analysis
//! layer to re-transpose those rows into dense columns is the eager-row
//! anti-pattern the study's Parquet conversion exists to avoid (§2.2):
//! at a billion inodes you never rehydrate rows you don't need. So
//! section payloads are parsed here and nowhere else; callers that do
//! need rows ([`crate::colf::decode`], the diff-based analyses) derive
//! them from this decode with [`FrameColumns::into_snapshot`], and the
//! write-path validators (`SnapshotStore::scrub`, `put_raw`/`heal_raw`,
//! `RaftNode::propose`) read only the verdict, day and lost sections.
//!
//! [`FrameColumns`] decodes a `colf` buffer (v1, v2, or v3) straight
//! into column vectors in a single parse:
//!
//! * **paths** land in one contiguous byte **arena** plus an offset
//!   table — no per-row `String`, no per-row clone of the front-coding
//!   predecessor; row `i`'s path is `arena[offsets[i]..offsets[i+1]]`;
//! * integer columns decode directly into `Vec<u64>` / `Vec<u32>`;
//! * the `osts` section is reduced to a **stripe-count column** while it
//!   is parsed — the per-row `(ost, object)` lists are retained only
//!   when rows will actually be needed ([`FrameColumns::decode_lossy_with_rows`]),
//!   in which case [`FrameColumns::into_snapshot`] materializes records
//!   from the same single parse.
//!
//! [`FrameColumns::decode_pruned`] goes further: given a typed
//! [`Pred`], a v3 decode tests each zone's min/max statistics first and
//! **skips every column blob of a pruned zone without touching its
//! bytes**; surviving zones evaluate the predicate on just the columns
//! it references (extension equality compares one dictionary code per
//! row) and **late-materialize** only the surviving rows into the
//! output columns. The invariant, enforced by the equivalence suites:
//! `decode_pruned(buf, p)` holds exactly the rows `i` of
//! `decode_lossy(buf)` for which the predicate matches — under any
//! corruption the lossy decode itself survives. Zone maps are advisory:
//! a lost `zonemap`/`extc` section, or a predicate column whose section
//! was lost, disables the corresponding pruning and falls back to row
//! evaluation on the same defaults the full decode reports. v1/v2
//! buffers have no zones; `decode_pruned` decodes fully and filters.
//!
//! Corruption semantics: strict decoding fails on any checksum
//! mismatch, lossy decoding salvages every intact section and reports
//! the rest in [`FrameColumns::lost_sections`] (paths remain the
//! unrecoverable spine). Correctness is pinned by round trips against
//! the original [`Snapshot`], the committed golden fixtures, and the
//! [`Pred::matches_record`] row oracle for pushdown.

use crate::colf::{
    parse_anchored, parse_layout, parse_plain_u32, parse_zonemap, split_zone_blobs, version_of,
    ColfError, Layout, OstColumn, ZoneMap, ZoneStats, SECTION_NAMES_V3, VERSION_V1, VERSION_V2,
    VERSION_V3, ZONE_U16_CAP,
};
use crate::pred::Pred;
use crate::record::SnapshotRecord;
use crate::snapshot::Snapshot;
use crate::varint::get_uvarint;
use bytes::Buf;

/// Decoded columns of one snapshot, never materialized as rows.
#[derive(Debug, Clone)]
pub struct FrameColumns {
    day: u32,
    taken_at: u64,
    len: usize,
    /// All paths, concatenated; see `path_offsets`.
    path_arena: Vec<u8>,
    /// `len + 1` offsets into the arena; path `i` spans
    /// `path_arena[path_offsets[i]..path_offsets[i + 1]]`.
    path_offsets: Vec<u32>,
    /// Last-access times.
    pub atime: Vec<u64>,
    /// Status-change times.
    pub ctime: Vec<u64>,
    /// Modification times.
    pub mtime: Vec<u64>,
    /// Inode numbers.
    pub ino: Vec<u64>,
    /// Owner uids.
    pub uid: Vec<u32>,
    /// Owner gids.
    pub gid: Vec<u32>,
    /// Full mode words.
    pub mode: Vec<u32>,
    /// Stripe counts (0 for directories), derived while the `osts`
    /// section is parsed — the pair lists themselves are not retained
    /// unless rows were requested.
    pub stripe_count: Vec<u32>,
    /// Full `(ost, object)` lists, present only for
    /// [`FrameColumns::decode_lossy_with_rows`].
    osts: Option<OstColumn>,
    /// Per-row extension dictionary codes from a v3 `extc` section
    /// (0 = no extension, `k` = `ext_dict[k-1]`); `None` for v1/v2
    /// buffers or when `extc`/`zonemap` could not be recovered.
    ext_code: Option<Vec<u32>>,
    /// Sorted distinct-extension dictionary (v3, exact dictionaries
    /// only); empty whenever `ext_code` is `None`.
    ext_dict: Vec<String>,
    /// Sections dropped by a lossy decode (empty = full recovery).
    lost_sections: Vec<&'static str>,
}

impl FrameColumns {
    /// Strictly decodes a `colf` buffer (v1, v2, or v3) into column
    /// views. Any corrupt or truncated section is an error.
    pub fn decode(buf: &[u8]) -> Result<FrameColumns, ColfError> {
        decode_columns(buf, false, false, None)
    }

    /// Lossy decode: salvages every checksummed section that verifies,
    /// defaulting the rest (zeros / zero stripes) and naming them in
    /// [`FrameColumns::lost_sections`]. Paths are the spine — without
    /// them the decode fails, lossy or not. v1 files carry no checksums
    /// and decode strictly.
    pub fn decode_lossy(buf: &[u8]) -> Result<FrameColumns, ColfError> {
        decode_columns(buf, true, false, None)
    }

    /// Like [`FrameColumns::decode_lossy`], but additionally retains the
    /// full per-row stripe lists so [`FrameColumns::into_snapshot`] can
    /// materialize exact records from this same single parse. Use this
    /// when a consumer needs rows (diff-based analyses) *and* the frame;
    /// use the plain variants when only columns are needed.
    pub fn decode_lossy_with_rows(buf: &[u8]) -> Result<FrameColumns, ColfError> {
        decode_columns(buf, true, true, None)
    }

    /// Lossy decode that pushes `pred` down into the parse and keeps
    /// only matching rows — **late materialization**. On v3 buffers,
    /// zones whose statistics prove no row can match are skipped without
    /// decoding any of their column bytes; v1/v2 buffers (no zones)
    /// decode fully and filter. Row-for-row equivalent to
    /// [`FrameColumns::decode_lossy`] followed by keeping rows where
    /// [`FrameColumns::pred_matches`] holds, including on degraded
    /// buffers. Stripe lists are never retained on this path.
    pub fn decode_pruned(buf: &[u8], pred: &Pred) -> Result<FrameColumns, ColfError> {
        decode_columns(buf, true, false, Some(pred))
    }

    /// Observation day from the header.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Scan time from the header.
    pub fn taken_at(&self) -> u64 {
        self.taken_at
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s path, borrowed from the arena.
    pub fn path(&self, i: usize) -> &str {
        let span = self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize;
        std::str::from_utf8(&self.path_arena[span]).expect("arena validated at decode")
    }

    /// All paths in row order, borrowed from the arena.
    pub fn paths(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len).map(move |i| self.path(i))
    }

    /// Total bytes of the path arena (diagnostics and benchmarks).
    pub fn path_arena_len(&self) -> usize {
        self.path_arena.len()
    }

    /// Sections a lossy decode could not recover (empty = clean).
    pub fn lost_sections(&self) -> &[&'static str] {
        &self.lost_sections
    }

    /// True when the full stripe lists were retained, i.e. the columns
    /// came from [`FrameColumns::decode_lossy_with_rows`].
    pub fn has_rows(&self) -> bool {
        self.osts.is_some()
    }

    /// Per-row extension dictionary codes, when this decode recovered
    /// both the v3 `extc` and `zonemap` sections (codes are meaningless
    /// without the dictionary). 0 = no extension.
    pub fn ext_code(&self) -> Option<&[u32]> {
        self.ext_code.as_deref()
    }

    /// The sorted distinct-extension dictionary behind
    /// [`FrameColumns::ext_code`] (empty when codes are absent).
    pub fn ext_dict(&self) -> &[String] {
        &self.ext_dict
    }

    /// Row `i`'s extension under the study's §4.1.3 rule: one
    /// dictionary-code lookup when codes are present, otherwise derived
    /// from the path suffix. The encoder writes codes from the same
    /// rule, so the two agree on any encoder-produced file.
    pub fn ext(&self, i: usize) -> Option<&str> {
        if let Some(codes) = &self.ext_code {
            return match codes[i] {
                0 => None,
                k => Some(&self.ext_dict[k as usize - 1]),
            };
        }
        ext_of_path(self.path(i))
    }

    /// Evaluates a typed predicate against row `i` — the columns-level
    /// reference semantics every pushdown shortcut must reproduce:
    /// inclusive ranges, u16-saturated depth and stripe count, lost
    /// sections observed at their decoded defaults (zeros).
    pub fn pred_matches(&self, pred: &Pred, i: usize) -> bool {
        match pred {
            Pred::Day { lo, hi } => (*lo..=*hi).contains(&self.day),
            Pred::Uid { lo, hi } => (*lo..=*hi).contains(&self.uid[i]),
            Pred::Gid { lo, hi } => (*lo..=*hi).contains(&self.gid[i]),
            Pred::Depth { lo, hi } => {
                (*lo..=*hi).contains(&depth_of_path(self.path(i)).min(ZONE_U16_CAP))
            }
            Pred::Stripes { lo, hi } => {
                (*lo..=*hi).contains(&self.stripe_count[i].min(ZONE_U16_CAP))
            }
            Pred::Mtime { lo, hi } => (*lo..=*hi).contains(&self.mtime[i]),
            Pred::Atime { lo, hi } => (*lo..=*hi).contains(&self.atime[i]),
            Pred::ExtIn(names) => match self.ext(i) {
                Some(e) => names.iter().any(|n| n == e),
                None => false,
            },
            Pred::ExtNone => self.ext(i).is_none(),
            Pred::And(ps) => ps.iter().all(|p| self.pred_matches(p, i)),
            Pred::Or(ps) => ps.iter().any(|p| self.pred_matches(p, i)),
        }
    }

    /// Keeps only rows matching `pred` — the v1/v2 fallback behind
    /// [`FrameColumns::decode_pruned`] (no zones to skip, so: decode
    /// fully, filter, compact).
    fn retain_matching(self, pred: &Pred) -> FrameColumns {
        let sel: Vec<usize> = (0..self.len)
            .filter(|&i| self.pred_matches(pred, i))
            .collect();
        spider_telemetry::global().incr("pushdown.rows_pruned", (self.len - sel.len()) as u64);
        if sel.len() == self.len {
            return self;
        }
        let take32 = |col: &[u32]| sel.iter().map(|&i| col[i]).collect::<Vec<u32>>();
        let take64 = |col: &[u64]| sel.iter().map(|&i| col[i]).collect::<Vec<u64>>();
        let mut path_arena = Vec::new();
        let mut path_offsets = Vec::with_capacity(sel.len() + 1);
        path_offsets.push(0u32);
        for &i in &sel {
            let span = self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize;
            path_arena.extend_from_slice(&self.path_arena[span]);
            path_offsets.push(path_arena.len() as u32);
        }
        FrameColumns {
            day: self.day,
            taken_at: self.taken_at,
            len: sel.len(),
            path_arena,
            path_offsets,
            atime: take64(&self.atime),
            ctime: take64(&self.ctime),
            mtime: take64(&self.mtime),
            ino: take64(&self.ino),
            uid: take32(&self.uid),
            gid: take32(&self.gid),
            mode: take32(&self.mode),
            stripe_count: take32(&self.stripe_count),
            osts: self
                .osts
                .as_ref()
                .map(|lists| sel.iter().map(|&i| lists[i].clone()).collect()),
            ext_code: self.ext_code.as_ref().map(|codes| take32(codes)),
            ext_dict: self.ext_dict,
            lost_sections: self.lost_sections,
        }
    }

    /// Materializes row records from the decoded columns — the single
    /// parse already happened, so this is pure assembly.
    ///
    /// # Panics
    ///
    /// Panics if the columns were decoded without stripe lists (use
    /// [`FrameColumns::decode_lossy_with_rows`]); reconstructing records
    /// with silently emptied stripes would corrupt diff results.
    pub fn into_snapshot(self) -> Result<Snapshot, ColfError> {
        let mut osts = self
            .osts
            .expect("into_snapshot requires decode_lossy_with_rows");
        let records: Vec<SnapshotRecord> = (0..self.len)
            .map(|i| {
                let span = self.path_offsets[i] as usize..self.path_offsets[i + 1] as usize;
                SnapshotRecord {
                    path: std::str::from_utf8(&self.path_arena[span])
                        .expect("arena validated at decode")
                        .to_string(),
                    atime: self.atime[i],
                    ctime: self.ctime[i],
                    mtime: self.mtime[i],
                    uid: self.uid[i],
                    gid: self.gid[i],
                    mode: self.mode[i],
                    ino: self.ino[i],
                    osts: std::mem::take(&mut osts[i]),
                }
            })
            .collect();
        Snapshot::from_sorted(self.day, self.taken_at, records).map_err(ColfError::Unsorted)
    }

    fn empty(day: u32, taken_at: u64, count: usize, keep_rows: bool) -> FrameColumns {
        FrameColumns {
            day,
            taken_at,
            len: count,
            path_arena: Vec::new(),
            path_offsets: vec![0; count + 1],
            atime: vec![0; count],
            ctime: vec![0; count],
            mtime: vec![0; count],
            ino: vec![0; count],
            uid: vec![0; count],
            gid: vec![0; count],
            mode: vec![0; count],
            stripe_count: vec![0; count],
            osts: keep_rows.then(|| vec![Vec::new(); count]),
            ext_code: None,
            ext_dict: Vec::new(),
            lost_sections: Vec::new(),
        }
    }
}

/// Path depth under the paper's counting convention — identical to
/// `SnapshotRecord::depth`.
fn depth_of_path(path: &str) -> u32 {
    path.split('/').filter(|c| !c.is_empty()).count() as u32 + 1
}

/// Extension of a path's final component — identical to
/// `SnapshotRecord::extension`.
fn ext_of_path(path: &str) -> Option<&str> {
    let name = path.rsplit('/').next().unwrap_or(path);
    spider_fsmeta::inode::extension_of(name)
}

// ---- the one decode entry ------------------------------------------------

/// Every colf read lands here: the four public `FrameColumns` decodes
/// and the row projections [`crate::colf::decode`] /
/// [`crate::colf::decode_lossy`]. `keep_rows` retains the stripe lists
/// [`FrameColumns::into_snapshot`] needs; `pred` keeps only matching
/// rows (v3 prunes by zone; v1/v2 have no zones, so decode fully and
/// filter). v1 carries no checksums, so `lossy` cannot apply to it.
///
/// Telemetry: a fully recovered decode is charged to
/// `frame.decode.strict_ok` or `frame.decode.lossy_clean`, one with
/// lost sections to `frame.decode.lossy_degraded` plus one
/// `colf.lost.*` counter per section.
pub(crate) fn decode_columns(
    buf: &[u8],
    lossy: bool,
    keep_rows: bool,
    pred: Option<&Pred>,
) -> Result<FrameColumns, ColfError> {
    let filtered = |fc: FrameColumns| match pred {
        Some(pred) => fc.retain_matching(pred),
        None => fc,
    };
    let result = version_of(buf).and_then(|v| match v {
        VERSION_V1 => decode_v1_columns(&buf[5..], keep_rows).map(filtered),
        VERSION_V2 => decode_v2_columns(buf, lossy, keep_rows).map(filtered),
        VERSION_V3 => decode_v3_columns(buf, lossy, keep_rows, pred),
        v => Err(ColfError::BadVersion(v)),
    });
    let tel = spider_telemetry::global();
    let clean = if lossy {
        "frame.decode.lossy_clean"
    } else {
        "frame.decode.strict_ok"
    };
    match &result {
        Ok(fc) => {
            if fc.lost_sections.is_empty() {
                tel.incr(clean, 1);
            } else {
                tel.incr("frame.decode.lossy_degraded", 1);
                for name in &fc.lost_sections {
                    tel.incr(crate::colf::lost_section_counter(name), 1);
                }
            }
            tel.incr("frame.decode.bytes", buf.len() as u64);
            tel.incr("frame.decode.rows", fc.len as u64);
        }
        Err(_) => tel.incr("frame.decode.failed", 1),
    }
    result
}

// ---- shared path-arena parsing -------------------------------------------

/// Incremental builder for the output path arena. Front-coding state is
/// per zone (the encoder restarts `prev = ""` at every zone boundary);
/// the sorted-path invariant is checked across everything appended,
/// mirroring `Snapshot::from_sorted`.
struct PathAppender {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    /// Start of the last appended path (it always ends at `arena.len()`
    /// because appends are contiguous); valid only when `have_prev`.
    prev_start: usize,
    have_prev: bool,
}

impl PathAppender {
    fn new(capacity_rows: usize) -> PathAppender {
        let mut offsets = Vec::with_capacity(capacity_rows + 1);
        offsets.push(0u32);
        PathAppender {
            arena: Vec::with_capacity(capacity_rows * 16),
            offsets,
            prev_start: 0,
            have_prev: false,
        }
    }

    fn unsorted(&self) -> ColfError {
        ColfError::Unsorted(format!(
            "path at record {} is not greater than its predecessor",
            self.offsets.len() - 1
        ))
    }

    /// Parses one front-coded run of `rows` paths, appending every row.
    ///
    /// The per-row work is two varints, one `extend_from_within` for the
    /// shared prefix and one `extend_from_slice` for the suffix — no
    /// `String` and no clone of the predecessor. Validation: prefix
    /// length bounded by the previous path, suffix must be UTF-8, and
    /// the shared prefix must end on a character boundary of the
    /// predecessor so every arena span is valid UTF-8.
    fn parse_run(&mut self, buf: &mut &[u8], rows: usize) -> Result<(), ColfError> {
        let mut fc_prev: Option<usize> = None;
        for _ in 0..rows {
            let shared = get_uvarint(buf).ok_or(ColfError::Truncated("path prefix"))? as usize;
            let suffix_len =
                get_uvarint(buf).ok_or(ColfError::Truncated("path suffix len"))? as usize;
            let start = self.arena.len();
            let (fc_start, fc_len) = match fc_prev {
                Some(s) => (s, start - s),
                None => (start, 0),
            };
            if shared > fc_len {
                return Err(ColfError::BadValue("path prefix length"));
            }
            if buf.remaining() < suffix_len {
                return Err(ColfError::Truncated("path suffix"));
            }
            std::str::from_utf8(&buf[..suffix_len])
                .map_err(|_| ColfError::BadValue("path utf-8"))?;
            // A prefix of valid UTF-8 cut at a character boundary is
            // valid UTF-8; a cut mid-character would start the new path
            // with a continuation byte.
            if shared < fc_len && (self.arena[fc_start + shared] & 0xC0) == 0x80 {
                return Err(ColfError::BadValue("path utf-8"));
            }
            self.arena.extend_from_within(fc_start..fc_start + shared);
            self.arena.extend_from_slice(&buf[..suffix_len]);
            buf.advance(suffix_len);
            if self.have_prev {
                let (head, cur) = self.arena.split_at(start);
                if &head[self.prev_start..] >= cur {
                    return Err(self.unsorted());
                }
            }
            self.prev_start = start;
            self.have_prev = true;
            fc_prev = Some(start);
            let end = u32::try_from(self.arena.len())
                .map_err(|_| ColfError::BadValue("path arena size"))?;
            self.offsets.push(end);
        }
        Ok(())
    }

    /// Appends the selected rows of a zone-local scratch arena. The
    /// surviving subsequence of a sorted file is sorted, so the
    /// cross-row check still holds (and still rejects crafted input).
    fn append_selected(
        &mut self,
        scratch_arena: &[u8],
        scratch_offsets: &[u32],
        sel: &[u32],
    ) -> Result<(), ColfError> {
        for &r in sel {
            let span =
                scratch_offsets[r as usize] as usize..scratch_offsets[r as usize + 1] as usize;
            let bytes = &scratch_arena[span];
            if self.have_prev && &self.arena[self.prev_start..] >= bytes {
                return Err(self.unsorted());
            }
            let start = self.arena.len();
            self.arena.extend_from_slice(bytes);
            self.prev_start = start;
            self.have_prev = true;
            let end = u32::try_from(self.arena.len())
                .map_err(|_| ColfError::BadValue("path arena size"))?;
            self.offsets.push(end);
        }
        Ok(())
    }
}

/// Parses the front-coded path section into `(arena, offsets)` — the
/// whole-column entry used by the v1/v2 decoders.
fn parse_paths_arena(buf: &mut &[u8], count: usize) -> Result<(Vec<u8>, Vec<u32>), ColfError> {
    let mut pa = PathAppender::new(count);
    pa.parse_run(buf, count)?;
    Ok((pa.arena, pa.offsets))
}

/// Parses the `osts` section into a stripe-count column, optionally
/// retaining the pair lists.
fn parse_ost_counts(
    buf: &mut &[u8],
    count: usize,
    keep: bool,
) -> Result<(Vec<u32>, Option<OstColumn>), ColfError> {
    let mut counts = Vec::with_capacity(count);
    let mut lists = keep.then(|| Vec::with_capacity(count));
    for _ in 0..count {
        let n = get_uvarint(buf).ok_or(ColfError::Truncated("ost count"))? as usize;
        if n > buf.remaining() + 1 {
            return Err(ColfError::BadValue("ost count"));
        }
        let mut osts = keep.then(|| Vec::with_capacity(n));
        for _ in 0..n {
            let ost = get_uvarint(buf).ok_or(ColfError::Truncated("ost id"))?;
            let obj = get_uvarint(buf).ok_or(ColfError::Truncated("ost object"))?;
            let pair = (
                u16::try_from(ost).map_err(|_| ColfError::BadValue("ost id"))?,
                u32::try_from(obj).map_err(|_| ColfError::BadValue("ost object"))?,
            );
            if let Some(list) = osts.as_mut() {
                list.push(pair);
            }
        }
        // Same wrap as `SnapshotRecord::stripe_count` (`len() as u32`).
        counts.push(n as u32);
        if let (Some(lists), Some(osts)) = (lists.as_mut(), osts) {
            lists.push(osts);
        }
    }
    Ok((counts, lists))
}

enum ParsedColumns {
    Paths(Vec<u8>, Vec<u32>),
    U64(Vec<u64>),
    U32(Vec<u32>),
    Osts(Vec<u32>, Option<OstColumn>),
}

fn parse_section_columns(
    name: &str,
    mut payload: &[u8],
    count: usize,
    keep_rows: bool,
) -> Result<ParsedColumns, ColfError> {
    let buf = &mut payload;
    let parsed = match name {
        "paths" => {
            let (arena, offsets) = parse_paths_arena(buf, count)?;
            ParsedColumns::Paths(arena, offsets)
        }
        "atime" | "ctime" | "mtime" | "ino" => {
            ParsedColumns::U64(parse_anchored(buf, count, "anchored column")?)
        }
        "uid" | "gid" | "mode" => ParsedColumns::U32(parse_plain_u32(buf, count, "plain column")?),
        "osts" => {
            let (counts, lists) = parse_ost_counts(buf, count, keep_rows)?;
            ParsedColumns::Osts(counts, lists)
        }
        _ => unreachable!("unknown section {name}"),
    };
    if buf.has_remaining() {
        // A section that decodes but leaves bytes behind is misaligned
        // with the header's record count — corrupt, not just odd.
        return Err(ColfError::BadValue("section length"));
    }
    Ok(parsed)
}

fn store_parsed(fc: &mut FrameColumns, name: &'static str, parsed: ParsedColumns) {
    match parsed {
        ParsedColumns::Paths(arena, offsets) => {
            fc.path_arena = arena;
            fc.path_offsets = offsets;
        }
        ParsedColumns::U64(col) => match name {
            "atime" => fc.atime = col,
            "ctime" => fc.ctime = col,
            "mtime" => fc.mtime = col,
            _ => fc.ino = col,
        },
        ParsedColumns::U32(col) => match name {
            "uid" => fc.uid = col,
            "gid" => fc.gid = col,
            _ => fc.mode = col,
        },
        ParsedColumns::Osts(counts, lists) => {
            fc.stripe_count = counts;
            if lists.is_some() {
                fc.osts = lists;
            }
        }
    }
}

fn decode_v2_columns(full: &[u8], lossy: bool, keep_rows: bool) -> Result<FrameColumns, ColfError> {
    let layout = parse_layout(full)?;
    let mut fc = FrameColumns::empty(layout.day, layout.taken_at, layout.count, keep_rows);
    let mut have_paths = false;
    for section in &layout.sections {
        let name = section.span.name;
        let parsed = section
            .verified()
            .and_then(|payload| parse_section_columns(name, payload, layout.count, keep_rows));
        match parsed {
            Ok(parsed) => {
                have_paths |= matches!(parsed, ParsedColumns::Paths(..));
                store_parsed(&mut fc, name, parsed);
            }
            Err(e) if !lossy => return Err(e),
            Err(_) => fc.lost_sections.push(name),
        }
    }
    if !have_paths {
        return Err(paths_lost(&layout));
    }
    Ok(fc)
}

/// Paths are the record spine: without them there is nothing to hang the
/// other columns on, lossy or not.
fn paths_lost(layout: &Layout<'_>) -> ColfError {
    ColfError::Corrupt {
        section: "paths",
        offset: layout.sections.first().map_or(0, |s| s.span.offset),
    }
}

fn decode_v1_columns(mut buf: &[u8], keep_rows: bool) -> Result<FrameColumns, ColfError> {
    if buf.remaining() < 4 {
        return Err(ColfError::Truncated("header"));
    }
    let day = buf.get_u32_le();
    let taken_at = get_uvarint(&mut buf).ok_or(ColfError::Truncated("taken_at"))?;
    let count = get_uvarint(&mut buf).ok_or(ColfError::Truncated("count"))? as usize;
    // Defensive preallocation bound: every record costs at least two
    // bytes in the path column alone, so a `count` beyond the remaining
    // byte budget is corrupt — without this, a hostile header could
    // demand a terabyte-sized Vec before the first field fails to parse.
    if count > buf.remaining() / 2 + 1 {
        return Err(ColfError::BadValue("record count"));
    }
    let mut fc = FrameColumns::empty(day, taken_at, count, keep_rows);
    let (arena, offsets) = parse_paths_arena(&mut buf, count)?;
    fc.path_arena = arena;
    fc.path_offsets = offsets;
    fc.atime = parse_anchored(&mut buf, count, "atime")?;
    fc.ctime = parse_anchored(&mut buf, count, "ctime")?;
    fc.mtime = parse_anchored(&mut buf, count, "mtime")?;
    fc.ino = parse_anchored(&mut buf, count, "ino")?;
    fc.uid = parse_plain_u32(&mut buf, count, "uid")?;
    fc.gid = parse_plain_u32(&mut buf, count, "gid")?;
    fc.mode = parse_plain_u32(&mut buf, count, "mode")?;
    let (counts, lists) = parse_ost_counts(&mut buf, count, keep_rows)?;
    fc.stripe_count = counts;
    if lists.is_some() {
        fc.osts = lists;
    }
    Ok(fc)
}

// ---- v3 decoding: zones, zone maps, pushdown ------------------------------

/// Per-zone blob parsers. Each consumes exactly one zone's blob and
/// appends `rows` values; a blob with slack bytes is misaligned with
/// the header's counts — corrupt, not just odd.
fn parse_anchored_zone(
    mut blob: &[u8],
    rows: usize,
    what: &'static str,
    out: &mut Vec<u64>,
) -> Result<(), ColfError> {
    let buf = &mut blob;
    let min = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
    for _ in 0..rows {
        let delta = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
        out.push(
            min.checked_add(delta)
                .ok_or(ColfError::BadValue("anchored overflow"))?,
        );
    }
    if buf.has_remaining() {
        return Err(ColfError::BadValue("section length"));
    }
    Ok(())
}

fn parse_plain_u32_zone(
    mut blob: &[u8],
    rows: usize,
    what: &'static str,
    out: &mut Vec<u32>,
) -> Result<(), ColfError> {
    let buf = &mut blob;
    for _ in 0..rows {
        let v = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
        out.push(u32::try_from(v).map_err(|_| ColfError::BadValue(what))?);
    }
    if buf.has_remaining() {
        return Err(ColfError::BadValue("section length"));
    }
    Ok(())
}

fn parse_codes_zone(
    mut blob: &[u8],
    rows: usize,
    dict_len: usize,
    out: &mut Vec<u32>,
) -> Result<(), ColfError> {
    let buf = &mut blob;
    for _ in 0..rows {
        let v = get_uvarint(buf).ok_or(ColfError::Truncated("extc"))?;
        if v as usize > dict_len {
            return Err(ColfError::BadValue("extc code"));
        }
        out.push(v as u32);
    }
    if buf.has_remaining() {
        return Err(ColfError::BadValue("section length"));
    }
    Ok(())
}

fn parse_ost_zone(
    mut blob: &[u8],
    rows: usize,
    keep: bool,
    out_counts: &mut Vec<u32>,
    out_lists: &mut Option<OstColumn>,
) -> Result<(), ColfError> {
    let buf = &mut blob;
    let (counts, lists) = parse_ost_counts(buf, rows, keep)?;
    if buf.has_remaining() {
        return Err(ColfError::BadValue("section length"));
    }
    out_counts.extend_from_slice(&counts);
    if let (Some(out), Some(lists)) = (out_lists.as_mut(), lists) {
        out.extend(lists);
    }
    Ok(())
}

/// `extc` payload framing: a presence flag, then (when present) the
/// usual zone length table + blobs.
fn parse_extc_framing<'a>(
    payload: &'a [u8],
    n_zones: usize,
) -> Result<Option<Vec<&'a [u8]>>, ColfError> {
    let Some((&flag, rest)) = payload.split_first() else {
        return Err(ColfError::Truncated("extc"));
    };
    match flag {
        0 => {
            if !rest.is_empty() {
                return Err(ColfError::BadValue("section length"));
            }
            Ok(None)
        }
        1 => split_zone_blobs(rest, n_zones, "extc").map(Some),
        _ => Err(ColfError::BadValue("extc flags")),
    }
}

/// Which sections a prepared predicate needs decoded before it can be
/// evaluated row-by-row.
#[derive(Default, Clone, Copy)]
struct Needed {
    paths: bool,
    atime: bool,
    mtime: bool,
    uid: bool,
    gid: bool,
    stripes: bool,
    codes: bool,
}

/// Which zone statistics can legally prune. A lost column section
/// decodes to zeros, so its true min/max would prune rows the full
/// decode (and the closure path) still returns — the trust mask turns
/// those leaves into "may match" at the zone level while row evaluation
/// sees the same zeros the full decode reports. Depth and extension
/// derive from paths (the intact spine), so they only need the zone map
/// itself to be intact.
#[derive(Clone, Copy)]
struct Trust {
    uid: bool,
    gid: bool,
    mtime: bool,
    atime: bool,
    stripes: bool,
}

/// A [`Pred`] compiled against one v3 file: the `Day` leaf folds to a
/// constant, extension leaves resolve to dictionary codes when the
/// dictionary is exact, and every leaf knows how to test a zone's
/// statistics and a single row.
enum PrepPred {
    Const(bool),
    Uid(u32, u32),
    Gid(u32, u32),
    Depth(u32, u32),
    Stripes(u32, u32),
    Mtime(u64, u64),
    Atime(u64, u64),
    /// Row-evaluated on dictionary codes (sorted, 1-based).
    ExtCode(Vec<u32>),
    /// Row-evaluated on path-derived extensions; `prune` carries the
    /// resolved codes for zone-bitmap pruning when the dictionary is
    /// exact even though per-row codes are unavailable.
    ExtName {
        names: Vec<String>,
        prune: Option<Vec<u32>>,
    },
    ExtNone {
        use_codes: bool,
    },
    And(Vec<PrepPred>),
    Or(Vec<PrepPred>),
}

fn prepare(
    pred: &Pred,
    day: u32,
    dict: Option<&ZoneMap>,
    use_codes: bool,
    need: &mut Needed,
) -> PrepPred {
    match pred {
        Pred::Day { lo, hi } => PrepPred::Const((*lo..=*hi).contains(&day)),
        Pred::Uid { lo, hi } => {
            need.uid = true;
            PrepPred::Uid(*lo, *hi)
        }
        Pred::Gid { lo, hi } => {
            need.gid = true;
            PrepPred::Gid(*lo, *hi)
        }
        Pred::Depth { lo, hi } => {
            need.paths = true;
            PrepPred::Depth(*lo, *hi)
        }
        Pred::Stripes { lo, hi } => {
            need.stripes = true;
            PrepPred::Stripes(*lo, *hi)
        }
        Pred::Mtime { lo, hi } => {
            need.mtime = true;
            PrepPred::Mtime(*lo, *hi)
        }
        Pred::Atime { lo, hi } => {
            need.atime = true;
            PrepPred::Atime(*lo, *hi)
        }
        Pred::ExtIn(names) => {
            // Sorted input names against the sorted dictionary produce
            // ascending codes, so row evaluation can binary-search.
            let resolved = dict.map(|zm| {
                names
                    .iter()
                    .filter_map(|n| zm.code_of(n))
                    .collect::<Vec<u32>>()
            });
            // An exact dictionary lists every extension in the file: if
            // none of the wanted names resolved, no row can match.
            if resolved.as_ref().is_some_and(|codes| codes.is_empty()) {
                return PrepPred::Const(false);
            }
            if use_codes {
                need.codes = true;
                PrepPred::ExtCode(resolved.expect("use_codes implies exact dictionary"))
            } else {
                need.paths = true;
                PrepPred::ExtName {
                    names: names.clone(),
                    prune: resolved,
                }
            }
        }
        Pred::ExtNone => {
            if use_codes {
                need.codes = true;
            } else {
                need.paths = true;
            }
            PrepPred::ExtNone { use_codes }
        }
        Pred::And(ps) => PrepPred::And(
            ps.iter()
                .map(|p| prepare(p, day, dict, use_codes, need))
                .collect(),
        ),
        Pred::Or(ps) => PrepPred::Or(
            ps.iter()
                .map(|p| prepare(p, day, dict, use_codes, need))
                .collect(),
        ),
    }
}

fn overlaps32(lo: u32, hi: u32, range: (u32, u32)) -> bool {
    lo <= range.1 && hi >= range.0
}

fn overlaps64(lo: u64, hi: u64, range: (u64, u64)) -> bool {
    lo <= range.1 && hi >= range.0
}

/// Conservative zone test: false only when the statistics *prove* no
/// row in the zone can match.
fn zone_may_match(p: &PrepPred, z: &ZoneStats, t: Trust) -> bool {
    match p {
        PrepPred::Const(b) => *b,
        PrepPred::Uid(lo, hi) => !t.uid || overlaps32(*lo, *hi, z.uid),
        PrepPred::Gid(lo, hi) => !t.gid || overlaps32(*lo, *hi, z.gid),
        PrepPred::Depth(lo, hi) => overlaps32(*lo, *hi, z.depth),
        PrepPred::Stripes(lo, hi) => !t.stripes || overlaps32(*lo, *hi, z.stripes),
        PrepPred::Mtime(lo, hi) => !t.mtime || overlaps64(*lo, *hi, z.mtime),
        PrepPred::Atime(lo, hi) => !t.atime || overlaps64(*lo, *hi, z.atime),
        PrepPred::ExtCode(codes) => codes.iter().any(|&c| z.has_ext_code(c)),
        PrepPred::ExtName { prune, .. } => prune
            .as_ref()
            .is_none_or(|codes| codes.iter().any(|&c| z.has_ext_code(c))),
        PrepPred::ExtNone { .. } => z.has_ext_none,
        PrepPred::And(ps) => ps.iter().all(|p| zone_may_match(p, z, t)),
        PrepPred::Or(ps) => ps.iter().any(|p| zone_may_match(p, z, t)),
    }
}

/// One zone's decoded eval columns. Lost sections stay empty and read
/// as zero — the same defaults the full decode reports.
#[derive(Default)]
struct ZoneScratch {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    have_paths: bool,
    atime: Vec<u64>,
    ctime: Vec<u64>,
    mtime: Vec<u64>,
    ino: Vec<u64>,
    uid: Vec<u32>,
    gid: Vec<u32>,
    mode: Vec<u32>,
    stripes: Vec<u32>,
    codes: Vec<u32>,
}

impl ZoneScratch {
    fn clear(&mut self) {
        self.arena.clear();
        self.offsets.clear();
        self.have_paths = false;
        self.atime.clear();
        self.ctime.clear();
        self.mtime.clear();
        self.ino.clear();
        self.uid.clear();
        self.gid.clear();
        self.mode.clear();
        self.stripes.clear();
        self.codes.clear();
    }

    fn path(&self, i: usize) -> &str {
        let span = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        std::str::from_utf8(&self.arena[span]).expect("scratch arena validated at parse")
    }

    fn get32(col: &[u32], i: usize) -> u32 {
        col.get(i).copied().unwrap_or(0)
    }

    fn get64(col: &[u64], i: usize) -> u64 {
        col.get(i).copied().unwrap_or(0)
    }
}

fn eval_row(p: &PrepPred, s: &ZoneScratch, i: usize) -> bool {
    match p {
        PrepPred::Const(b) => *b,
        PrepPred::Uid(lo, hi) => (*lo..=*hi).contains(&ZoneScratch::get32(&s.uid, i)),
        PrepPred::Gid(lo, hi) => (*lo..=*hi).contains(&ZoneScratch::get32(&s.gid, i)),
        PrepPred::Depth(lo, hi) => {
            (*lo..=*hi).contains(&depth_of_path(s.path(i)).min(ZONE_U16_CAP))
        }
        PrepPred::Stripes(lo, hi) => {
            (*lo..=*hi).contains(&ZoneScratch::get32(&s.stripes, i).min(ZONE_U16_CAP))
        }
        PrepPred::Mtime(lo, hi) => (*lo..=*hi).contains(&ZoneScratch::get64(&s.mtime, i)),
        PrepPred::Atime(lo, hi) => (*lo..=*hi).contains(&ZoneScratch::get64(&s.atime, i)),
        PrepPred::ExtCode(codes) => codes.binary_search(&s.codes[i]).is_ok(),
        PrepPred::ExtName { names, .. } => match ext_of_path(s.path(i)) {
            Some(e) => names.iter().any(|n| n == e),
            None => false,
        },
        PrepPred::ExtNone { use_codes } => {
            if *use_codes {
                s.codes[i] == 0
            } else {
                ext_of_path(s.path(i)).is_none()
            }
        }
        PrepPred::And(ps) => ps.iter().all(|p| eval_row(p, s, i)),
        PrepPred::Or(ps) => ps.iter().any(|p| eval_row(p, s, i)),
    }
}

/// The v3 decoder: integrity-scans all sections, then walks zones. With
/// a predicate, zones are pruned against the zone map and surviving
/// rows late-materialize; without one, every zone appends directly into
/// the output columns.
///
/// Unlike v2 (where a checksum-valid section that fails to *parse* is
/// recoverable per-section), a v3 zone blob that fails to parse aborts
/// the decode even in lossy mode: blobs parse interleaved with output
/// assembly, and an intact checksum over malformed content is encoder
/// error or craft, not line corruption — single-byte corruption can
/// never reach this path past the digests.
pub(crate) fn decode_v3_columns(
    full: &[u8],
    lossy: bool,
    keep_rows: bool,
    pred: Option<&Pred>,
) -> Result<FrameColumns, ColfError> {
    debug_assert!(
        pred.is_none() || !keep_rows,
        "pruned decode never keeps rows"
    );
    let layout = parse_layout(full)?;
    debug_assert_eq!(layout.version, VERSION_V3);
    let count = layout.count;
    let n_zones = layout.n_zones();
    let zone_rows = layout.zone_rows;
    let rows_of = |z: usize| {
        if z + 1 < n_zones {
            zone_rows
        } else {
            count - zone_rows * (n_zones - 1)
        }
    };

    // Integrity scan: verify every section digest, split intact column
    // sections into zone blobs, parse the zone map. Strict mode fails
    // on the first problem; lossy mode records losses and carries on.
    let mut lost: Vec<&'static str> = Vec::new();
    let mut col_zones: Vec<Option<Vec<&[u8]>>> = (0..9).map(|_| None).collect();
    let mut extc_zones: Option<Vec<&[u8]>> = None;
    let mut zonemap: Option<ZoneMap> = None;
    for (idx, section) in layout.sections.iter().enumerate() {
        let name = section.span.name;
        let parsed = section.verified().and_then(|p| match name {
            "extc" => parse_extc_framing(p, n_zones).map(|z| extc_zones = z),
            "zonemap" => parse_zonemap(p, n_zones).map(|zm| zonemap = Some(zm)),
            _ => split_zone_blobs(p, n_zones, name).map(|z| col_zones[idx] = Some(z)),
        });
        if let Err(e) = parsed {
            if !lossy {
                return Err(e);
            }
            lost.push(name);
        }
    }
    if col_zones[0].is_none() {
        return Err(paths_lost(&layout));
    }

    // Codes are only usable alongside the (exact) dictionary. An exact=0
    // zone map with a present extc section is not something the encoder
    // produces; strict mode rejects the contradiction.
    let use_codes = matches!((&extc_zones, &zonemap), (Some(_), Some(zm)) if zm.exact);
    if !lossy && extc_zones.is_some() && zonemap.as_ref().is_some_and(|zm| !zm.exact) {
        return Err(ColfError::BadValue("extc flags"));
    }
    let dict_len = zonemap.as_ref().map_or(0, |zm| zm.dict.len());

    let mut fc = FrameColumns {
        day: layout.day,
        taken_at: layout.taken_at,
        len: 0,
        path_arena: Vec::new(),
        path_offsets: vec![0],
        atime: Vec::new(),
        ctime: Vec::new(),
        mtime: Vec::new(),
        ino: Vec::new(),
        uid: Vec::new(),
        gid: Vec::new(),
        mode: Vec::new(),
        stripe_count: Vec::new(),
        osts: None,
        ext_code: None,
        ext_dict: if use_codes {
            zonemap
                .as_ref()
                .expect("use_codes implies map")
                .dict
                .clone()
        } else {
            Vec::new()
        },
        lost_sections: lost,
    };

    match pred {
        None => decode_v3_full(
            &mut fc,
            &col_zones,
            &extc_zones,
            use_codes,
            dict_len,
            count,
            n_zones,
            rows_of,
            keep_rows,
        )?,
        Some(pred) => decode_v3_pruned(
            &mut fc,
            &col_zones,
            &extc_zones,
            zonemap.as_ref(),
            use_codes,
            dict_len,
            count,
            n_zones,
            rows_of,
            pred,
        )?,
    }
    Ok(fc)
}

/// Full (non-pruned) v3 decode: append every zone of every intact
/// section straight into the output columns; lost sections default.
#[allow(clippy::too_many_arguments)]
fn decode_v3_full(
    fc: &mut FrameColumns,
    col_zones: &[Option<Vec<&[u8]>>],
    extc_zones: &Option<Vec<&[u8]>>,
    use_codes: bool,
    dict_len: usize,
    count: usize,
    n_zones: usize,
    rows_of: impl Fn(usize) -> usize,
    keep_rows: bool,
) -> Result<(), ColfError> {
    let mut pa = PathAppender::new(count);
    for (z, blob) in col_zones[0]
        .as_ref()
        .expect("paths checked")
        .iter()
        .enumerate()
    {
        let mut b = *blob;
        pa.parse_run(&mut b, rows_of(z))?;
        if b.has_remaining() {
            return Err(ColfError::BadValue("section length"));
        }
    }
    fc.path_arena = pa.arena;
    fc.path_offsets = pa.offsets;

    let build_u64 = |zones: &Option<Vec<&[u8]>>, what| -> Result<Vec<u64>, ColfError> {
        match zones {
            Some(blobs) => {
                let mut out = Vec::with_capacity(count);
                for (z, blob) in blobs.iter().enumerate() {
                    parse_anchored_zone(blob, rows_of(z), what, &mut out)?;
                }
                Ok(out)
            }
            None => Ok(vec![0; count]),
        }
    };
    fc.atime = build_u64(&col_zones[1], "atime")?;
    fc.ctime = build_u64(&col_zones[2], "ctime")?;
    fc.mtime = build_u64(&col_zones[3], "mtime")?;
    fc.ino = build_u64(&col_zones[4], "ino")?;

    let build_u32 = |zones: &Option<Vec<&[u8]>>, what| -> Result<Vec<u32>, ColfError> {
        match zones {
            Some(blobs) => {
                let mut out = Vec::with_capacity(count);
                for (z, blob) in blobs.iter().enumerate() {
                    parse_plain_u32_zone(blob, rows_of(z), what, &mut out)?;
                }
                Ok(out)
            }
            None => Ok(vec![0; count]),
        }
    };
    fc.uid = build_u32(&col_zones[5], "uid")?;
    fc.gid = build_u32(&col_zones[6], "gid")?;
    fc.mode = build_u32(&col_zones[7], "mode")?;

    let mut counts = Vec::with_capacity(count);
    let mut lists = keep_rows.then(Vec::new);
    match &col_zones[8] {
        Some(blobs) => {
            for (z, blob) in blobs.iter().enumerate() {
                parse_ost_zone(blob, rows_of(z), keep_rows, &mut counts, &mut lists)?;
            }
        }
        None => {
            counts = vec![0; count];
            lists = keep_rows.then(|| vec![Vec::new(); count]);
        }
    }
    fc.stripe_count = counts;
    fc.osts = lists;

    if use_codes {
        let blobs = extc_zones.as_ref().expect("use_codes implies extc");
        let mut codes = Vec::with_capacity(count);
        for (z, blob) in blobs.iter().enumerate() {
            parse_codes_zone(blob, rows_of(z), dict_len, &mut codes)?;
        }
        fc.ext_code = Some(codes);
    }
    debug_assert!(n_zones > 0 || count == 0);
    fc.len = count;
    Ok(())
}

/// Pruned v3 decode: test each zone against the zone map, evaluate the
/// predicate on surviving zones' eval columns, append only matching
/// rows. Column blobs of pruned zones — and of all non-eval columns in
/// zones where nothing matched — are never decoded.
#[allow(clippy::too_many_arguments)]
fn decode_v3_pruned(
    fc: &mut FrameColumns,
    col_zones: &[Option<Vec<&[u8]>>],
    extc_zones: &Option<Vec<&[u8]>>,
    zonemap: Option<&ZoneMap>,
    use_codes: bool,
    dict_len: usize,
    count: usize,
    n_zones: usize,
    rows_of: impl Fn(usize) -> usize,
    pred: &Pred,
) -> Result<(), ColfError> {
    let mut need = Needed::default();
    let dict_for_codes = zonemap.filter(|zm| zm.exact);
    let prep = prepare(pred, fc.day, dict_for_codes, use_codes, &mut need);
    let trust = Trust {
        uid: col_zones[5].is_some(),
        gid: col_zones[6].is_some(),
        mtime: col_zones[3].is_some(),
        atime: col_zones[1].is_some(),
        stripes: col_zones[8].is_some(),
    };
    // Blobs a full decode would have parsed: every intact column section
    // plus extc when its codes are in use.
    let blobs_per_zone = col_zones.iter().filter(|z| z.is_some()).count() + usize::from(use_codes);

    let mut pa = PathAppender::new(count.min(1024));
    let mut out_codes: Vec<u32> = Vec::new();
    let mut scratch = ZoneScratch::default();
    let mut sel: Vec<u32> = Vec::new();
    let mut zones_skipped = 0u64;
    let mut sections_skipped = 0u64;

    for z in 0..n_zones {
        let rows = rows_of(z);
        // Zone-map pruning: sound only while the zone map itself is
        // intact; a lost map means no zone is ever skipped.
        if let Some(zm) = zonemap {
            if !zone_may_match(&prep, &zm.zones[z], trust) {
                zones_skipped += 1;
                sections_skipped += blobs_per_zone as u64;
                continue;
            }
        }

        scratch.clear();
        let mut parsed_blobs = 0usize;
        let mut parse_paths_scratch =
            |s: &mut ZoneScratch, parsed: &mut usize| -> Result<(), ColfError> {
                if !s.have_paths {
                    let blob = col_zones[0].as_ref().expect("paths checked")[z];
                    let mut b = blob;
                    let mut zpa = PathAppender::new(rows);
                    zpa.parse_run(&mut b, rows)?;
                    if b.has_remaining() {
                        return Err(ColfError::BadValue("section length"));
                    }
                    s.arena = std::mem::take(&mut zpa.arena);
                    s.offsets = std::mem::take(&mut zpa.offsets);
                    s.have_paths = true;
                    *parsed += 1;
                }
                Ok(())
            };

        // Decode just the columns the predicate reads, evaluate, select.
        if need.paths {
            parse_paths_scratch(&mut scratch, &mut parsed_blobs)?;
        }
        if need.atime {
            if let Some(blobs) = &col_zones[1] {
                parse_anchored_zone(blobs[z], rows, "atime", &mut scratch.atime)?;
                parsed_blobs += 1;
            }
        }
        if need.mtime {
            if let Some(blobs) = &col_zones[3] {
                parse_anchored_zone(blobs[z], rows, "mtime", &mut scratch.mtime)?;
                parsed_blobs += 1;
            }
        }
        if need.uid {
            if let Some(blobs) = &col_zones[5] {
                parse_plain_u32_zone(blobs[z], rows, "uid", &mut scratch.uid)?;
                parsed_blobs += 1;
            }
        }
        if need.gid {
            if let Some(blobs) = &col_zones[6] {
                parse_plain_u32_zone(blobs[z], rows, "gid", &mut scratch.gid)?;
                parsed_blobs += 1;
            }
        }
        if need.stripes {
            if let Some(blobs) = &col_zones[8] {
                let mut none = None;
                parse_ost_zone(blobs[z], rows, false, &mut scratch.stripes, &mut none)?;
                parsed_blobs += 1;
            }
        }
        if need.codes {
            let blobs = extc_zones.as_ref().expect("need.codes implies use_codes");
            parse_codes_zone(blobs[z], rows, dict_len, &mut scratch.codes)?;
            parsed_blobs += 1;
        }

        sel.clear();
        sel.extend((0..rows as u32).filter(|&i| eval_row(&prep, &scratch, i as usize)));
        if sel.is_empty() {
            sections_skipped += (blobs_per_zone - parsed_blobs) as u64;
            continue;
        }

        // Late materialization: decode the remaining columns of this
        // zone and append only the surviving rows.
        parse_paths_scratch(&mut scratch, &mut parsed_blobs)?;
        if scratch.atime.is_empty() {
            if let Some(blobs) = &col_zones[1] {
                parse_anchored_zone(blobs[z], rows, "atime", &mut scratch.atime)?;
            }
        }
        if let Some(blobs) = &col_zones[2] {
            parse_anchored_zone(blobs[z], rows, "ctime", &mut scratch.ctime)?;
        }
        if scratch.mtime.is_empty() {
            if let Some(blobs) = &col_zones[3] {
                parse_anchored_zone(blobs[z], rows, "mtime", &mut scratch.mtime)?;
            }
        }
        if let Some(blobs) = &col_zones[4] {
            parse_anchored_zone(blobs[z], rows, "ino", &mut scratch.ino)?;
        }
        if scratch.uid.is_empty() {
            if let Some(blobs) = &col_zones[5] {
                parse_plain_u32_zone(blobs[z], rows, "uid", &mut scratch.uid)?;
            }
        }
        if scratch.gid.is_empty() {
            if let Some(blobs) = &col_zones[6] {
                parse_plain_u32_zone(blobs[z], rows, "gid", &mut scratch.gid)?;
            }
        }
        if let Some(blobs) = &col_zones[7] {
            parse_plain_u32_zone(blobs[z], rows, "mode", &mut scratch.mode)?;
        }
        if scratch.stripes.is_empty() {
            if let Some(blobs) = &col_zones[8] {
                let mut none = None;
                parse_ost_zone(blobs[z], rows, false, &mut scratch.stripes, &mut none)?;
            }
        }
        if use_codes && scratch.codes.is_empty() {
            let blobs = extc_zones.as_ref().expect("use_codes implies extc");
            parse_codes_zone(blobs[z], rows, dict_len, &mut scratch.codes)?;
        }

        pa.append_selected(&scratch.arena, &scratch.offsets, &sel)?;
        for &r in &sel {
            let i = r as usize;
            fc.atime.push(ZoneScratch::get64(&scratch.atime, i));
            fc.ctime.push(ZoneScratch::get64(&scratch.ctime, i));
            fc.mtime.push(ZoneScratch::get64(&scratch.mtime, i));
            fc.ino.push(ZoneScratch::get64(&scratch.ino, i));
            fc.uid.push(ZoneScratch::get32(&scratch.uid, i));
            fc.gid.push(ZoneScratch::get32(&scratch.gid, i));
            fc.mode.push(ZoneScratch::get32(&scratch.mode, i));
            fc.stripe_count
                .push(ZoneScratch::get32(&scratch.stripes, i));
            if use_codes {
                out_codes.push(scratch.codes[i]);
            }
        }
    }

    fc.len = pa.offsets.len() - 1;
    fc.path_arena = pa.arena;
    fc.path_offsets = pa.offsets;
    if use_codes {
        fc.ext_code = Some(out_codes);
    }
    let tel = spider_telemetry::global();
    tel.incr("pushdown.zones_skipped", zones_skipped);
    tel.incr("pushdown.sections_skipped", sections_skipped);
    tel.incr("pushdown.rows_pruned", (count - fc.len) as u64);
    Ok(())
}

// Referenced by the module docs and kept as a compile-time guarantee
// that the v3 integrity scan's fixed indices line up with the format.
const _: () = assert!(SECTION_NAMES_V3.len() == 11);

/// Convenience twin of [`crate::colf::section_table`] re-exported here so fast
/// path consumers can target test corruption without importing `colf`.
pub use crate::colf::section_table;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colf::{encode, encode_v2, encode_with_zone_rows};

    /// The frozen v1 golden (nothing writes v1 any more); its content
    /// is pinned by `golden_fixtures::v1_fixture_still_decodes`.
    const V1_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/tiny-v1.colf");

    fn sample_snapshot(n: usize) -> Snapshot {
        let records: Vec<SnapshotRecord> = (0..n)
            .map(|i| SnapshotRecord {
                path: format!("/lustre/atlas1/proj{:03}/αβ{:02}/f.{:06}", i % 5, i % 11, i),
                atime: 1_460_000_000 + i as u64 * 31,
                ctime: 1_450_000_000 + i as u64 * 7,
                mtime: 1_450_000_000 + i as u64 * 17,
                uid: 10_000 + (i % 40) as u32,
                gid: 2_000 + (i % 16) as u32,
                mode: if i % 9 == 0 { 0o040770 } else { 0o100664 },
                ino: 5_000_000 + i as u64,
                osts: if i % 9 == 0 {
                    vec![]
                } else {
                    (0..(i % 5)).map(|k| (k as u16, (i + k) as u32)).collect()
                },
            })
            .collect();
        Snapshot::new(21, 1_423_000_000, records)
    }

    fn assert_matches_rows(cols: &FrameColumns, snap: &Snapshot) {
        assert_eq!(cols.day(), snap.day());
        assert_eq!(cols.taken_at(), snap.taken_at());
        assert_eq!(cols.len(), snap.len());
        for (i, r) in snap.records().iter().enumerate() {
            assert_eq!(cols.path(i), r.path, "row {i}");
            assert_eq!(cols.atime[i], r.atime);
            assert_eq!(cols.ctime[i], r.ctime);
            assert_eq!(cols.mtime[i], r.mtime);
            assert_eq!(cols.ino[i], r.ino);
            assert_eq!(cols.uid[i], r.uid);
            assert_eq!(cols.gid[i], r.gid);
            assert_eq!(cols.mode[i], r.mode);
            assert_eq!(cols.stripe_count[i], r.stripe_count());
        }
    }

    #[test]
    fn columns_match_rows_v3() {
        let snap = sample_snapshot(200);
        let bytes = encode(&snap);
        let cols = FrameColumns::decode(&bytes).unwrap();
        assert_matches_rows(&cols, &snap);
        assert!(cols.lost_sections().is_empty());
        assert!(!cols.has_rows());
        assert!(cols.ext_code().is_some());
    }

    #[test]
    fn columns_match_rows_v2() {
        let snap = sample_snapshot(200);
        let bytes = encode_v2(&snap);
        let cols = FrameColumns::decode(&bytes).unwrap();
        assert_matches_rows(&cols, &snap);
        assert!(cols.lost_sections().is_empty());
        assert!(cols.ext_code().is_none());
    }

    #[test]
    fn columns_match_rows_v1() {
        let cols = FrameColumns::decode(V1_FIXTURE).unwrap();
        assert_eq!((cols.day(), cols.len()), (42, 4));
        assert_eq!(cols.path(3), "/lustre/atlas1/xyz202/σμβ/out.αβ");
        assert_eq!(cols.uid, [10_001, 10_001, 10_001, 10_002]);
        assert_eq!(cols.stripe_count, [0, 3, 1, 1]);
        assert!(!cols.has_rows());
    }

    #[test]
    fn empty_snapshot_decodes() {
        let snap = Snapshot::new(0, 0, vec![]);
        let cols = FrameColumns::decode(&encode(&snap)).unwrap();
        assert!(cols.is_empty());
        assert_eq!(cols.paths().count(), 0);
    }

    #[test]
    fn arena_is_front_coded_not_cloned() {
        // The arena holds full paths (offsets are per-path spans), so its
        // size equals the sum of path lengths — not the compressed size —
        // but with zero per-row allocations.
        let snap = sample_snapshot(50);
        let cols = FrameColumns::decode(&encode(&snap)).unwrap();
        let total: usize = snap.records().iter().map(|r| r.path.len()).sum();
        assert_eq!(cols.path_arena_len(), total);
    }

    #[test]
    fn into_snapshot_roundtrips_exactly() {
        let snap = sample_snapshot(120);
        for bytes in [encode(&snap), encode_v2(&snap)] {
            let cols = FrameColumns::decode_lossy_with_rows(&bytes).unwrap();
            assert!(cols.has_rows());
            assert_eq!(cols.into_snapshot().unwrap(), snap);
        }
    }

    #[test]
    #[should_panic(expected = "into_snapshot requires decode_lossy_with_rows")]
    fn into_snapshot_without_rows_panics() {
        let bytes = encode(&sample_snapshot(3));
        let cols = FrameColumns::decode(&bytes).unwrap();
        let _ = cols.into_snapshot();
    }

    #[test]
    fn lossy_corrupt_osts_defaults_stripes() {
        let snap = sample_snapshot(60);
        for bytes in [encode(&snap), encode_v2(&snap)] {
            let spans = section_table(&bytes).unwrap();
            let osts = spans.iter().find(|s| s.name == "osts").unwrap();
            let mut corrupted = bytes.clone();
            corrupted[osts.offset + osts.len / 2] ^= 0xFF;

            assert!(matches!(
                FrameColumns::decode(&corrupted),
                Err(ColfError::Corrupt {
                    section: "osts",
                    ..
                })
            ));
            let cols = FrameColumns::decode_lossy(&corrupted).unwrap();
            assert_eq!(cols.lost_sections(), ["osts"]);
            assert!(cols.stripe_count.iter().all(|&c| c == 0));
            // Everything else is salvaged exactly.
            assert_eq!(cols.len(), snap.len());
            for (i, r) in snap.records().iter().enumerate() {
                assert_eq!(cols.path(i), r.path);
                assert_eq!(cols.atime[i], r.atime);
                assert_eq!(cols.mode[i], r.mode);
            }
        }
    }

    #[test]
    fn corrupt_paths_is_unrecoverable() {
        let snap = sample_snapshot(30);
        for bytes in [encode(&snap), encode_v2(&snap)] {
            let spans = section_table(&bytes).unwrap();
            let paths = spans.iter().find(|s| s.name == "paths").unwrap();
            let mut corrupted = bytes.clone();
            corrupted[paths.offset + 2] ^= 0xFF;
            assert!(FrameColumns::decode(&corrupted).is_err());
            assert!(FrameColumns::decode_lossy(&corrupted).is_err());
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        for bytes in [
            encode(&sample_snapshot(20)),
            encode_v2(&sample_snapshot(20)),
            V1_FIXTURE.to_vec(),
        ] {
            for cut in 0..bytes.len() {
                assert!(
                    FrameColumns::decode(&bytes[..cut]).is_err(),
                    "cut at {cut} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn mutated_buffers_never_panic_and_strict_implies_clean_lossy() {
        let snap = sample_snapshot(30);
        for bytes in [encode(&snap), encode_v2(&snap)] {
            for pos in (0..bytes.len()).step_by(3) {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 0x41;
                let strict = FrameColumns::decode(&mutated);
                let lossy = FrameColumns::decode_lossy(&mutated);
                if strict.is_ok() {
                    assert!(
                        lossy.unwrap().lost_sections().is_empty(),
                        "strict accepted what lossy degraded at byte {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsorted_paths_rejected() {
        // Hand-roll a v1 buffer with out-of-order paths (the encoders
        // can't produce one — `Snapshot::new` sorts): the arena parser
        // must reject it like `Snapshot::from_sorted` does.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"COLF");
        buf.push(crate::colf::VERSION_V1);
        buf.extend_from_slice(&0u32.to_le_bytes()); // day
        buf.push(0); // taken_at
        buf.push(2); // count
        for path in ["/b", "/a"] {
            buf.push(0); // shared
            buf.push(path.len() as u8);
            buf.extend_from_slice(path.as_bytes());
        }
        // The parser fails on ordering before reaching later columns.
        assert!(matches!(
            FrameColumns::decode(&buf),
            Err(ColfError::Unsorted(_))
        ));
    }

    // ---- pushdown / late materialization ---------------------------------

    fn sample_preds() -> Vec<Pred> {
        vec![
            Pred::uid(10_000..=10_009),
            Pred::and(vec![
                Pred::gid(2_000..=2_003),
                Pred::mtime(..=1_450_001_000u64),
            ]),
            Pred::or(vec![Pred::ext("000003"), Pred::ext_none()]),
            Pred::and(vec![Pred::day(21..=21), Pred::stripes(1..)]),
            Pred::day(0..=5), // prunes the whole file
            Pred::depth(..=4),
            Pred::ext_in(["000001", "000007", "nope"]),
            Pred::or(vec![]),  // matches nothing
            Pred::and(vec![]), // matches everything
        ]
    }

    fn assert_pruned_equals_filtered(bytes: &[u8], pred: &Pred) {
        let full = FrameColumns::decode_lossy(bytes).unwrap();
        let pruned = FrameColumns::decode_pruned(bytes, pred).unwrap();
        let expect: Vec<usize> = (0..full.len())
            .filter(|&i| full.pred_matches(pred, i))
            .collect();
        assert_eq!(pruned.len(), expect.len(), "{pred:?}");
        for (j, &i) in expect.iter().enumerate() {
            assert_eq!(pruned.path(j), full.path(i), "{pred:?} row {j}");
            assert_eq!(pruned.atime[j], full.atime[i]);
            assert_eq!(pruned.ctime[j], full.ctime[i]);
            assert_eq!(pruned.mtime[j], full.mtime[i]);
            assert_eq!(pruned.ino[j], full.ino[i]);
            assert_eq!(pruned.uid[j], full.uid[i]);
            assert_eq!(pruned.gid[j], full.gid[i]);
            assert_eq!(pruned.mode[j], full.mode[i]);
            assert_eq!(pruned.stripe_count[j], full.stripe_count[i]);
            assert_eq!(pruned.ext(j), full.ext(i));
        }
    }

    #[test]
    fn pushdown_matches_row_filter_across_versions() {
        let snap = sample_snapshot(150);
        let encodings = [
            encode_with_zone_rows(&snap, 16),
            encode(&snap),
            encode_v2(&snap),
            V1_FIXTURE.to_vec(),
        ];
        for bytes in &encodings {
            for pred in sample_preds() {
                assert_pruned_equals_filtered(bytes, &pred);
            }
        }
        // The columns evaluator agrees with the record-level oracle.
        let full = FrameColumns::decode_lossy(&encodings[0]).unwrap();
        for pred in sample_preds() {
            for (i, r) in snap.records().iter().enumerate() {
                assert_eq!(
                    full.pred_matches(&pred, i),
                    pred.matches_record(r, snap.day()),
                    "{pred:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn pruned_decode_is_right_under_any_single_section_corruption() {
        // Zone maps are advisory: whatever sections corruption takes
        // out, a pruned decode must return exactly the filtered rows of
        // the (equally degraded) full decode — never a wrong answer.
        let snap = sample_snapshot(150);
        let bytes = encode_with_zone_rows(&snap, 16);
        let spans = section_table(&bytes).unwrap();
        for span in &spans {
            if matches!(span.name, "header" | "section-table" | "paths") {
                continue;
            }
            let mut corrupted = bytes.clone();
            corrupted[span.offset + span.len / 2] ^= 0xFF;
            assert!(FrameColumns::decode_lossy(&corrupted).is_ok());
            for pred in sample_preds() {
                assert_pruned_equals_filtered(&corrupted, &pred);
            }
        }
    }

    #[test]
    fn ext_codes_agree_with_path_derivation() {
        let snap = sample_snapshot(90);
        let cols = FrameColumns::decode(&encode(&snap)).unwrap();
        assert!(cols.ext_code().is_some());
        assert!(!cols.ext_dict().is_empty());
        for (i, r) in snap.records().iter().enumerate() {
            assert_eq!(cols.ext(i), r.extension(), "row {i}");
        }
    }
}
