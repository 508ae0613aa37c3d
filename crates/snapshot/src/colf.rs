//! `colf` — **col**umn **f**ile, the Parquet stand-in of the pipeline.
//!
//! The study converts each 119 GB PSV snapshot into a columnar, compressed
//! binary format (Parquet), cutting the footprint to ~28 GB and making
//! column scans fast (Fig. 4). `colf` reproduces the two properties that
//! matter for that result:
//!
//! * **columnar layout** — each attribute is stored contiguously, so an
//!   analysis touching only `mtime` never deserializes paths;
//! * **lightweight encodings** — the path column is *front-coded* (records
//!   are sorted by path, so consecutive paths share long prefixes) and
//!   every integer column is stored as min-anchored LEB128 varints
//!   (timestamps cluster within the 500-day window, so deltas are small).
//!
//! Version 2 adds what 500 days of real operational dumps demand
//! (paper §2.2: snapshots arrive truncated, torn, or flipped, and the
//! study simply skips to the nearest usable day): **per-section XXH64
//! checksums** and a **section-skipping reader**. Every column lives in
//! its own length-prefixed, checksummed section, so a bad `osts` column
//! still yields every other column, and corruption is always *detected*
//! — never silently wrong numbers.
//!
//! v2 layout (all integers varint unless noted):
//!
//! ```text
//! magic "COLF" | version u8 = 2
//! header_len | header | xxh64(header) u64-LE
//!   header: day u32-LE | taken_at | count
//! table: n_sections u8 | n x (id u8, len, xxh64(payload) u64-LE)
//!        | xxh64(table entries) u64-LE
//! payloads, concatenated in table order:
//!   paths:  count x (shared_prefix_len, suffix_len, suffix bytes)
//!   atime:  min, count x delta     (likewise ctime, mtime, ino)
//!   uid:    count x value          (likewise gid, mode)
//!   osts:   count x (n, n x (ost, object))
//! ```
//!
//! Version 3 adds **predicate pushdown support**: every column section
//! is chunked into fixed-row *zones* (a varint length table followed by
//! the per-zone blobs, each encoded exactly like a v2 column over only
//! that zone's rows), and two new sections appear:
//!
//! * `extc` — per-row extension dictionary codes (one varint per row,
//!   `0` = no extension, `k` = the k-1'th entry of the sorted distinct
//!   extension dictionary), so extension equality compares one integer
//!   instead of a string per row;
//! * `zonemap` — the extension dictionary plus per-zone min/max
//!   statistics (uid, gid, depth, stripe count, mtime, atime) and a
//!   per-zone extension presence bitmap. A selective decode tests its
//!   predicate against these statistics and skips whole zones — in
//!   every column section — without touching their bytes.
//!
//! Zone framing costs a handful of bytes per 4096 rows; the zone map is
//! ~30 bytes per zone. Both are checksummed like any other section, and
//! both are *advisory*: a corrupt `zonemap` or `extc` section degrades
//! to a full-section decode (reported in `lost_sections`), never to a
//! wrong answer.
//!
//! v1 and v2 files (no checksums / no zones) remain readable, but only
//! v2 and v3 are written.
//!
//! This module owns the format constants, the encoders, the v2/v3
//! skeleton walker ([`parse_layout`]) and the zone-map parser. Section
//! payloads are parsed in exactly one place, [`crate::columns`];
//! [`decode`] and [`decode_lossy`] materialize rows from that decode.

use crate::record::SnapshotRecord;
use crate::snapshot::Snapshot;
use crate::varint::{get_uvarint, put_uvarint, MAX_VARINT_LEN};
use crate::xxh::section_digest;
use bytes::Buf;

const MAGIC: &[u8; 4] = b"COLF";
pub(crate) const VERSION_V1: u8 = 1;
pub(crate) const VERSION_V2: u8 = 2;
pub(crate) const VERSION_V3: u8 = 3;

/// Column sections of a v2 file, in storage order. Index + 1 is the
/// on-disk section id.
pub const SECTION_NAMES: [&str; 9] = [
    "paths", "atime", "ctime", "mtime", "ino", "uid", "gid", "mode", "osts",
];

/// Column sections of a v3 file, in storage order. The first nine match
/// v2; `extc` (per-row extension dictionary codes) and `zonemap`
/// (dictionary + per-zone statistics) are new.
pub const SECTION_NAMES_V3: [&str; 11] = [
    "paths", "atime", "ctime", "mtime", "ino", "uid", "gid", "mode", "osts", "extc", "zonemap",
];

/// Rows per zone written by [`encode`]. Small enough that a selective
/// scan skips most of a day's bytes, large enough that front-coding
/// restarts and per-zone anchors cost well under 1% of the payload.
pub const DEFAULT_ZONE_ROWS: usize = 4096;

/// Hard cap on the extension dictionary. A snapshot with more distinct
/// extensions than this (pathological for a real file system — the
/// paper's Fig. 9 operates on a few dozen classes) is written with an
/// *inexact* dictionary: `extc` is absent and extension predicates fall
/// back to evaluating path suffixes.
pub(crate) const MAX_EXT_DICT: usize = 1024;

/// Errors from decoding a `colf` buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum ColfError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ended prematurely or contained an invalid varint.
    Truncated(&'static str),
    /// A decoded value was out of range for its field.
    BadValue(&'static str),
    /// Decoded records violated the sorted-path invariant.
    Unsorted(String),
    /// A checksummed region failed verification. `offset` is the byte
    /// offset of the region within the buffer.
    Corrupt {
        /// The section (or `"header"` / `"section-table"`) that failed.
        section: &'static str,
        /// Absolute byte offset of the corrupt region's start.
        offset: usize,
    },
}

impl std::fmt::Display for ColfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColfError::BadMagic => write!(f, "not a colf buffer (bad magic)"),
            ColfError::BadVersion(v) => write!(f, "unsupported colf version {v}"),
            ColfError::Truncated(what) => write!(f, "truncated colf buffer in {what}"),
            ColfError::BadValue(what) => write!(f, "invalid value in {what}"),
            ColfError::Unsorted(msg) => write!(f, "colf records unsorted: {msg}"),
            ColfError::Corrupt { section, offset } => {
                write!(f, "checksum mismatch in {section} section at byte {offset}")
            }
        }
    }
}

impl std::error::Error for ColfError {}

fn shared_prefix_len(a: &str, b: &str) -> usize {
    // Byte-wise common prefix, trimmed back to a UTF-8 boundary of `b`.
    let max = a.len().min(b.len());
    let bytes_a = a.as_bytes();
    let bytes_b = b.as_bytes();
    let mut n = 0;
    while n < max && bytes_a[n] == bytes_b[n] {
        n += 1;
    }
    while n > 0 && !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

// ---- column encoders -----------------------------------------------------

fn encode_paths(records: &[SnapshotRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * 16);
    let mut prev = "";
    for r in records {
        let shared = shared_prefix_len(prev, &r.path);
        put_uvarint(&mut buf, shared as u64);
        let suffix = &r.path.as_bytes()[shared..];
        put_uvarint(&mut buf, suffix.len() as u64);
        buf.extend_from_slice(suffix);
        prev = &r.path;
    }
    buf
}

fn encode_anchored(records: &[SnapshotRecord], field: impl Fn(&SnapshotRecord) -> u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * 3 + MAX_VARINT_LEN);
    let min = records.iter().map(&field).min().unwrap_or(0);
    put_uvarint(&mut buf, min);
    for r in records {
        put_uvarint(&mut buf, field(r) - min);
    }
    buf
}

fn encode_plain(records: &[SnapshotRecord], field: impl Fn(&SnapshotRecord) -> u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * 2);
    for r in records {
        put_uvarint(&mut buf, field(r));
    }
    buf
}

fn encode_osts(records: &[SnapshotRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * 4);
    for r in records {
        put_uvarint(&mut buf, r.osts.len() as u64);
        for &(ost, obj) in &r.osts {
            put_uvarint(&mut buf, ost as u64);
            put_uvarint(&mut buf, obj as u64);
        }
    }
    buf
}

fn column_payloads(records: &[SnapshotRecord]) -> [Vec<u8>; 9] {
    [
        encode_paths(records),
        encode_anchored(records, |r| r.atime),
        encode_anchored(records, |r| r.ctime),
        encode_anchored(records, |r| r.mtime),
        encode_anchored(records, |r| r.ino),
        encode_plain(records, |r| r.uid as u64),
        encode_plain(records, |r| r.gid as u64),
        encode_plain(records, |r| r.mode as u64),
        encode_osts(records),
    ]
}

// ---- v3 zone machinery ---------------------------------------------------

/// Saturation bound shared with the frame's u16 columns; zone statistics
/// store the saturated values so pushdown agrees with frame evaluation.
pub(crate) const ZONE_U16_CAP: u32 = u16::MAX as u32;

/// The sorted distinct-extension dictionary of one snapshot. `exact`
/// is false when the snapshot overflowed [`MAX_EXT_DICT`], in which
/// case `names` is empty and extension pushdown is disabled.
pub(crate) struct ExtDict {
    pub(crate) names: Vec<String>,
    pub(crate) exact: bool,
}

fn build_ext_dict(records: &[SnapshotRecord]) -> ExtDict {
    let mut set = std::collections::BTreeSet::new();
    for r in records {
        if let Some(e) = r.extension() {
            if !set.contains(e) {
                if set.len() == MAX_EXT_DICT {
                    return ExtDict {
                        names: Vec::new(),
                        exact: false,
                    };
                }
                set.insert(e.to_string());
            }
        }
    }
    ExtDict {
        names: set.into_iter().collect(),
        exact: true,
    }
}

impl ExtDict {
    /// 1-based dictionary code of `ext`; 0 = no extension.
    fn code_of(&self, ext: Option<&str>) -> u64 {
        match ext {
            Some(e) => match self.names.binary_search_by(|n| n.as_str().cmp(e)) {
                Ok(i) => i as u64 + 1,
                Err(_) => 0,
            },
            None => 0,
        }
    }
}

/// Chunks `records` into `zone_rows`-sized zones, encodes each with
/// `enc`, and frames them as a varint length table + concatenated blobs.
fn zone_framed(
    records: &[SnapshotRecord],
    zone_rows: usize,
    enc: impl Fn(&[SnapshotRecord]) -> Vec<u8>,
) -> Vec<u8> {
    let blobs: Vec<Vec<u8>> = records.chunks(zone_rows).map(|z| enc(z)).collect();
    let mut out = Vec::with_capacity(blobs.iter().map(|b| b.len() + 2).sum());
    for b in &blobs {
        put_uvarint(&mut out, b.len() as u64);
    }
    for b in &blobs {
        out.extend_from_slice(b);
    }
    out
}

fn encode_extc(records: &[SnapshotRecord], zone_rows: usize, dict: &ExtDict) -> Vec<u8> {
    if !dict.exact {
        return vec![0];
    }
    let mut out = vec![1u8];
    let framed = zone_framed(records, zone_rows, |zone| {
        let mut blob = Vec::with_capacity(zone.len());
        for r in zone {
            put_uvarint(&mut blob, dict.code_of(r.extension()));
        }
        blob
    });
    out.extend_from_slice(&framed);
    out
}

fn encode_zonemap(records: &[SnapshotRecord], zone_rows: usize, dict: &ExtDict) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + records.len() / zone_rows.max(1) * 36);
    out.push(dict.exact as u8);
    put_uvarint(&mut out, dict.names.len() as u64);
    for n in &dict.names {
        put_uvarint(&mut out, n.len() as u64);
        out.extend_from_slice(n.as_bytes());
    }
    let n_zones = if records.is_empty() {
        0
    } else {
        (records.len() - 1) / zone_rows + 1
    };
    put_uvarint(&mut out, n_zones as u64);
    let bitmap_len = dict.names.len().div_euclid(8) + usize::from(dict.names.len() % 8 != 0);
    for zone in records.chunks(zone_rows) {
        let mut uid = (u32::MAX, 0u32);
        let mut gid = (u32::MAX, 0u32);
        let mut depth = (u32::MAX, 0u32);
        let mut stripes = (u32::MAX, 0u32);
        let mut mtime = (u64::MAX, 0u64);
        let mut atime = (u64::MAX, 0u64);
        let mut has_ext_none = false;
        let mut bitmap = vec![0u8; bitmap_len];
        for r in zone {
            uid = (uid.0.min(r.uid), uid.1.max(r.uid));
            gid = (gid.0.min(r.gid), gid.1.max(r.gid));
            let d = r.depth().min(ZONE_U16_CAP);
            depth = (depth.0.min(d), depth.1.max(d));
            let s = r.stripe_count().min(ZONE_U16_CAP);
            stripes = (stripes.0.min(s), stripes.1.max(s));
            mtime = (mtime.0.min(r.mtime), mtime.1.max(r.mtime));
            atime = (atime.0.min(r.atime), atime.1.max(r.atime));
            match dict.code_of(r.extension()) {
                0 => has_ext_none = true,
                code => {
                    let k = code as usize - 1;
                    bitmap[k / 8] |= 1 << (k % 8);
                }
            }
        }
        for v in [
            uid.0, uid.1, gid.0, gid.1, depth.0, depth.1, stripes.0, stripes.1,
        ] {
            put_uvarint(&mut out, v as u64);
        }
        for v in [mtime.0, mtime.1, atime.0, atime.1] {
            put_uvarint(&mut out, v);
        }
        out.push(has_ext_none as u8);
        if dict.exact {
            out.extend_from_slice(&bitmap);
        }
    }
    out
}

/// Serializes a snapshot to `colf` v3 bytes (checksummed zone-chunked
/// sections with zone maps) at [`DEFAULT_ZONE_ROWS`] rows per zone.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    encode_with_zone_rows(snapshot, DEFAULT_ZONE_ROWS)
}

/// [`encode`] with an explicit zone size — exposed so tests and
/// benchmarks can exercise many-zone files without millions of rows.
pub fn encode_with_zone_rows(snapshot: &Snapshot, zone_rows: usize) -> Vec<u8> {
    let zone_rows = zone_rows.max(1);
    let records = snapshot.records();
    let dict = build_ext_dict(records);

    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(SECTION_NAMES_V3.len());
    payloads.push(zone_framed(records, zone_rows, encode_paths));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_anchored(z, |r| r.atime)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_anchored(z, |r| r.ctime)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_anchored(z, |r| r.mtime)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_anchored(z, |r| r.ino)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_plain(z, |r| r.uid as u64)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_plain(z, |r| r.gid as u64)
    }));
    payloads.push(zone_framed(records, zone_rows, |z| {
        encode_plain(z, |r| r.mode as u64)
    }));
    payloads.push(zone_framed(records, zone_rows, encode_osts));
    payloads.push(encode_extc(records, zone_rows, &dict));
    payloads.push(encode_zonemap(records, zone_rows, &dict));

    let mut header = Vec::with_capacity(20);
    header.extend_from_slice(&snapshot.day().to_le_bytes());
    put_uvarint(&mut header, snapshot.taken_at());
    put_uvarint(&mut header, records.len() as u64);
    put_uvarint(&mut header, zone_rows as u64);

    assemble_sections(VERSION_V3, &header, &payloads)
}

/// Serializes a snapshot to `colf` v2 bytes (checksummed sections, no
/// zones). Kept so compatibility tests and fixtures can regenerate
/// previous-format files.
pub fn encode_v2(snapshot: &Snapshot) -> Vec<u8> {
    let records = snapshot.records();
    let payloads = column_payloads(records);

    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&snapshot.day().to_le_bytes());
    put_uvarint(&mut header, snapshot.taken_at());
    put_uvarint(&mut header, records.len() as u64);

    assemble_sections(VERSION_V2, &header, &payloads)
}

fn assemble_sections(version: u8, header: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut table = Vec::with_capacity(payloads.len() * 12);
    for (i, payload) in payloads.iter().enumerate() {
        table.push(i as u8 + 1);
        put_uvarint(&mut table, payload.len() as u64);
        table.extend_from_slice(&section_digest(payload).to_le_bytes());
    }

    let total: usize = payloads.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(5 + header.len() + table.len() + total + 32);
    buf.extend_from_slice(MAGIC);
    buf.push(version);
    put_uvarint(&mut buf, header.len() as u64);
    buf.extend_from_slice(header);
    buf.extend_from_slice(&section_digest(header).to_le_bytes());
    buf.push(payloads.len() as u8);
    buf.extend_from_slice(&table);
    buf.extend_from_slice(&section_digest(&table).to_le_bytes());
    for payload in payloads {
        buf.extend_from_slice(payload);
    }
    buf
}

// ---- whole-column parsers (v1 and v2 sections; driven by `columns`) -------

pub(crate) fn parse_anchored(
    buf: &mut &[u8],
    count: usize,
    what: &'static str,
) -> Result<Vec<u64>, ColfError> {
    let min = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
    let mut col = Vec::with_capacity(count);
    for _ in 0..count {
        let delta = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
        col.push(
            min.checked_add(delta)
                .ok_or(ColfError::BadValue("anchored overflow"))?,
        );
    }
    Ok(col)
}

pub(crate) fn parse_plain_u32(
    buf: &mut &[u8],
    count: usize,
    what: &'static str,
) -> Result<Vec<u32>, ColfError> {
    let mut col = Vec::with_capacity(count);
    for _ in 0..count {
        let v = get_uvarint(buf).ok_or(ColfError::Truncated(what))?;
        col.push(u32::try_from(v).map_err(|_| ColfError::BadValue(what))?);
    }
    Ok(col)
}

pub(crate) type OstColumn = Vec<Vec<(u16, u32)>>;

// ---- v2/v3 skeleton: header + section table ------------------------------

/// One section's location within a v2/v3 buffer, as reported by
/// [`section_table`]. Offsets are absolute, so test harnesses (and the
/// fault-matrix suite) can target corruption at specific sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSpan {
    /// Section name (one of [`SECTION_NAMES_V3`], `"header"`, or
    /// `"section-table"`).
    pub name: &'static str,
    /// Absolute byte offset of the section payload within the buffer.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// One column section as located by [`parse_layout`].
pub(crate) struct Section<'a> {
    /// Where the table says the payload lives.
    pub(crate) span: SectionSpan,
    /// `None` when the file is too short for this section.
    payload: Option<&'a [u8]>,
    digest: u64,
}

impl<'a> Section<'a> {
    /// The payload, once it is present and its digest verifies — the
    /// error otherwise is what a strict decode reports.
    pub(crate) fn verified(&self) -> Result<&'a [u8], ColfError> {
        match self.payload {
            None => Err(ColfError::Truncated(self.span.name)),
            Some(p) if section_digest(p) != self.digest => Err(ColfError::Corrupt {
                section: self.span.name,
                offset: self.span.offset,
            }),
            Some(p) => Ok(p),
        }
    }
}

/// Parsed v2/v3 skeleton: header fields plus the located sections. The
/// only walker of the header and section table; [`crate::columns`]
/// decodes the payloads it locates.
pub(crate) struct Layout<'a> {
    pub(crate) version: u8,
    pub(crate) day: u32,
    pub(crate) taken_at: u64,
    pub(crate) count: usize,
    /// Rows per zone (v3 only; 0 for v2, which has no zones).
    pub(crate) zone_rows: usize,
    /// The checksummed header and section-table entry regions.
    header: SectionSpan,
    table: SectionSpan,
    pub(crate) sections: Vec<Section<'a>>,
}

impl Layout<'_> {
    /// Zone count implied by the header (v3).
    pub(crate) fn n_zones(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            (self.count - 1) / self.zone_rows + 1
        }
    }
}

fn read_digest(buf: &mut &[u8], what: &'static str) -> Result<u64, ColfError> {
    if buf.remaining() < 8 {
        return Err(ColfError::Truncated(what));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&buf[..8]);
    buf.advance(8);
    Ok(u64::from_le_bytes(raw))
}

fn section_names_of(version: u8) -> Result<&'static [&'static str], ColfError> {
    match version {
        VERSION_V2 => Ok(&SECTION_NAMES),
        VERSION_V3 => Ok(&SECTION_NAMES_V3),
        v => Err(ColfError::BadVersion(v)),
    }
}

/// Parses the v2/v3 header and section table (both checksummed); does
/// not verify or parse section payloads.
pub(crate) fn parse_layout(full: &[u8]) -> Result<Layout<'_>, ColfError> {
    let version = version_of(full)?;
    let names = section_names_of(version)?;
    let mut buf = &full[5..]; // past magic + version
    let header_len = get_uvarint(&mut buf).ok_or(ColfError::Truncated("header"))? as usize;
    let header_off = full.len() - buf.remaining();
    if buf.remaining() < header_len {
        return Err(ColfError::Truncated("header"));
    }
    let header = &buf[..header_len];
    buf.advance(header_len);
    let stored = read_digest(&mut buf, "header")?;
    if section_digest(header) != stored {
        return Err(ColfError::Corrupt {
            section: "header",
            offset: header_off,
        });
    }

    let mut h = header;
    if h.remaining() < 4 {
        return Err(ColfError::Truncated("header"));
    }
    let day = h.get_u32_le();
    let taken_at = get_uvarint(&mut h).ok_or(ColfError::Truncated("taken_at"))?;
    let count = get_uvarint(&mut h).ok_or(ColfError::Truncated("count"))? as usize;
    let zone_rows = if version == VERSION_V3 {
        let zr = get_uvarint(&mut h).ok_or(ColfError::Truncated("zone rows"))? as usize;
        if zr == 0 {
            return Err(ColfError::BadValue("zone rows"));
        }
        zr
    } else {
        0
    };
    if h.has_remaining() {
        return Err(ColfError::BadValue("header"));
    }
    // Same preallocation bound as v1: a record is never smaller than two
    // bytes of path column.
    if count > full.len() / 2 + 1 {
        return Err(ColfError::BadValue("record count"));
    }

    if !buf.has_remaining() {
        return Err(ColfError::Truncated("section-table"));
    }
    let n_sections = buf.get_u8() as usize;
    if n_sections != names.len() {
        return Err(ColfError::BadValue("section table"));
    }
    let table_off = full.len() - buf.remaining();
    let mut entries = Vec::with_capacity(n_sections);
    for expected_id in 1..=n_sections as u8 {
        if !buf.has_remaining() {
            return Err(ColfError::Truncated("section-table"));
        }
        let id = buf.get_u8();
        if id != expected_id {
            return Err(ColfError::BadValue("section table"));
        }
        let len = get_uvarint(&mut buf).ok_or(ColfError::Truncated("section-table"))? as usize;
        let digest = read_digest(&mut buf, "section-table")?;
        entries.push((names[id as usize - 1], len, digest));
    }
    let table_end = full.len() - buf.remaining();
    let stored = read_digest(&mut buf, "section-table")?;
    if section_digest(&full[table_off..table_end]) != stored {
        return Err(ColfError::Corrupt {
            section: "section-table",
            offset: table_off,
        });
    }

    // Locate payloads. A truncated file can cut sections off the tail;
    // record those as absent rather than failing here, so the lossy
    // reader can still recover the intact prefix. Lengths come straight
    // from varints, so the running offset is checked.
    let mut offset = full.len() - buf.remaining();
    let mut sections = Vec::with_capacity(n_sections);
    for (name, len, digest) in entries {
        let end = offset
            .checked_add(len)
            .ok_or(ColfError::BadValue("section table"))?;
        sections.push(Section {
            span: SectionSpan { name, offset, len },
            payload: full.get(offset..end),
            digest,
        });
        offset = end;
    }
    Ok(Layout {
        version,
        day,
        taken_at,
        count,
        zone_rows,
        header: SectionSpan {
            name: "header",
            offset: header_off,
            len: header_len,
        },
        table: SectionSpan {
            name: "section-table",
            offset: table_off,
            len: table_end - table_off,
        },
        sections,
    })
}

// ---- v3 zone parsing (shared with `crate::columns`) ----------------------

/// Splits a zone-framed section payload (varint length table +
/// concatenated blobs) into exactly `n_zones` per-zone slices. The
/// payload must be fully covered — slack bytes mean the section is
/// misaligned with the header's zone count.
pub(crate) fn split_zone_blobs<'a>(
    mut payload: &'a [u8],
    n_zones: usize,
    what: &'static str,
) -> Result<Vec<&'a [u8]>, ColfError> {
    let buf = &mut payload;
    let mut lens = Vec::with_capacity(n_zones);
    for _ in 0..n_zones {
        lens.push(get_uvarint(buf).ok_or(ColfError::Truncated(what))? as usize);
    }
    let mut rest: &[u8] = buf;
    let mut blobs = Vec::with_capacity(n_zones);
    for len in lens {
        if rest.len() < len {
            return Err(ColfError::Truncated(what));
        }
        blobs.push(&rest[..len]);
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(ColfError::BadValue("section length"));
    }
    Ok(blobs)
}

/// Per-zone statistics from the `zonemap` section. Min/max pairs are
/// inclusive; `depth` and `stripes` are u16-saturated (matching the
/// frame columns and [`crate::pred::Pred`] semantics).
pub(crate) struct ZoneStats {
    pub(crate) uid: (u32, u32),
    pub(crate) gid: (u32, u32),
    pub(crate) depth: (u32, u32),
    pub(crate) stripes: (u32, u32),
    pub(crate) mtime: (u64, u64),
    pub(crate) atime: (u64, u64),
    pub(crate) has_ext_none: bool,
    /// Extension presence bitmap over the dictionary (empty when the
    /// dictionary is inexact).
    ext_bits: Vec<u8>,
}

impl ZoneStats {
    /// Whether the 1-based dictionary code occurs in this zone.
    pub(crate) fn has_ext_code(&self, code: u32) -> bool {
        let k = code as usize - 1;
        self.ext_bits
            .get(k / 8)
            .is_some_and(|byte| byte & (1 << (k % 8)) != 0)
    }
}

/// The decoded `zonemap` section: extension dictionary + per-zone stats.
pub(crate) struct ZoneMap {
    /// False when the encoder's dictionary overflowed; extension
    /// pushdown is then disabled and `dict` is empty.
    pub(crate) exact: bool,
    /// Sorted distinct extensions (1-based codes index into this).
    pub(crate) dict: Vec<String>,
    pub(crate) zones: Vec<ZoneStats>,
}

impl ZoneMap {
    /// 1-based code of `ext`, if the dictionary is exact and holds it.
    pub(crate) fn code_of(&self, ext: &str) -> Option<u32> {
        if !self.exact {
            return None;
        }
        self.dict
            .binary_search_by(|n| n.as_str().cmp(ext))
            .ok()
            .map(|i| i as u32 + 1)
    }
}

pub(crate) fn parse_zonemap(mut payload: &[u8], n_zones: usize) -> Result<ZoneMap, ColfError> {
    let buf = &mut payload;
    if !buf.has_remaining() {
        return Err(ColfError::Truncated("zonemap"));
    }
    let exact = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(ColfError::BadValue("zonemap flags")),
    };
    let dict_len = get_uvarint(buf).ok_or(ColfError::Truncated("zonemap"))? as usize;
    if dict_len > MAX_EXT_DICT || (!exact && dict_len != 0) {
        return Err(ColfError::BadValue("zonemap dictionary"));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let len = get_uvarint(buf).ok_or(ColfError::Truncated("zonemap"))? as usize;
        if buf.remaining() < len {
            return Err(ColfError::Truncated("zonemap"));
        }
        let name = std::str::from_utf8(&buf[..len])
            .map_err(|_| ColfError::BadValue("zonemap dictionary"))?
            .to_string();
        buf.advance(len);
        if dict.last().is_some_and(|prev: &String| *prev >= name) {
            // Codes binary-search the dictionary; it must be strictly
            // sorted or lookups would silently miss entries.
            return Err(ColfError::BadValue("zonemap dictionary"));
        }
        dict.push(name);
    }
    let stored_zones = get_uvarint(buf).ok_or(ColfError::Truncated("zonemap"))? as usize;
    if stored_zones != n_zones {
        return Err(ColfError::BadValue("zonemap zone count"));
    }
    let bitmap_len = dict_len.div_euclid(8) + usize::from(dict_len % 8 != 0);
    let mut zones = Vec::with_capacity(n_zones);
    for _ in 0..n_zones {
        let mut u32s = [0u32; 8];
        for v in &mut u32s {
            let raw = get_uvarint(buf).ok_or(ColfError::Truncated("zonemap"))?;
            *v = u32::try_from(raw).map_err(|_| ColfError::BadValue("zonemap stats"))?;
        }
        let mut u64s = [0u64; 4];
        for v in &mut u64s {
            *v = get_uvarint(buf).ok_or(ColfError::Truncated("zonemap"))?;
        }
        if !buf.has_remaining() {
            return Err(ColfError::Truncated("zonemap"));
        }
        let has_ext_none = match buf.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(ColfError::BadValue("zonemap flags")),
        };
        let ext_bits = if exact {
            if buf.remaining() < bitmap_len {
                return Err(ColfError::Truncated("zonemap"));
            }
            let bits = buf[..bitmap_len].to_vec();
            buf.advance(bitmap_len);
            bits
        } else {
            Vec::new()
        };
        zones.push(ZoneStats {
            uid: (u32s[0], u32s[1]),
            gid: (u32s[2], u32s[3]),
            depth: (u32s[4], u32s[5]),
            stripes: (u32s[6], u32s[7]),
            mtime: (u64s[0], u64s[1]),
            atime: (u64s[2], u64s[3]),
            has_ext_none,
            ext_bits,
        });
    }
    if buf.has_remaining() {
        return Err(ColfError::BadValue("section length"));
    }
    Ok(ZoneMap { exact, dict, zones })
}

/// Outcome of a lossy decode: the snapshot assembled from every intact
/// section, plus the names of sections that were corrupt or missing and
/// got replaced with defaults (zeros / empty stripe lists).
#[derive(Debug)]
pub struct LossyDecode {
    /// The reconstructed snapshot.
    pub snapshot: Snapshot,
    /// Sections that could not be recovered (empty = full recovery).
    pub lost_sections: Vec<&'static str>,
}

// ---- public decode entry points ------------------------------------------

pub(crate) fn version_of(buf: &[u8]) -> Result<u8, ColfError> {
    if buf.len() < 5 || &buf[..4] != MAGIC {
        return Err(ColfError::BadMagic);
    }
    Ok(buf[4])
}

/// The telemetry counter charged when section `name` is lost by a lossy
/// decode. Static per section so recording allocates nothing.
pub(crate) fn lost_section_counter(name: &str) -> &'static str {
    match name {
        "paths" => "colf.lost.paths",
        "atime" => "colf.lost.atime",
        "ctime" => "colf.lost.ctime",
        "mtime" => "colf.lost.mtime",
        "ino" => "colf.lost.ino",
        "uid" => "colf.lost.uid",
        "gid" => "colf.lost.gid",
        "mode" => "colf.lost.mode",
        "osts" => "colf.lost.osts",
        "extc" => "colf.lost.extc",
        "zonemap" => "colf.lost.zonemap",
        _ => "colf.lost.other",
    }
}

/// Deserializes a `colf` buffer (v1, v2, or v3) back into a snapshot.
/// Strict: any corrupt or truncated section is an error.
pub fn decode(buf: &[u8]) -> Result<Snapshot, ColfError> {
    crate::columns::decode_columns(buf, false, true, None)?.into_snapshot()
}

/// Lossy deserialization: recovers everything the checksums vouch for,
/// replacing corrupt non-spine sections with defaults and reporting
/// them. v1 files carry no checksums, so they decode strictly (a v1
/// success is a full recovery).
pub fn decode_lossy(buf: &[u8]) -> Result<LossyDecode, ColfError> {
    let cols = crate::columns::decode_columns(buf, true, true, None)?;
    Ok(LossyDecode {
        lost_sections: cols.lost_sections().to_vec(),
        snapshot: cols.into_snapshot()?,
    })
}

/// Locations of all checksummed regions in a v2/v3 buffer: `"header"`,
/// `"section-table"`, then one span per column section. Fault-injection
/// tests use this to target corruption precisely.
pub fn section_table(full: &[u8]) -> Result<Vec<SectionSpan>, ColfError> {
    let layout = parse_layout(full)?;
    let sections = layout.sections.into_iter().map(|s| s.span);
    Ok([layout.header, layout.table]
        .into_iter()
        .chain(sections)
        .collect())
}

/// Reads the `day` field from a file prefix without decoding the body —
/// the store's open-time cross-check against the `snap-<day>.colf` file
/// name. Returns `None` when the prefix is not a recognizable colf
/// header (corruption is diagnosed later, at decode time).
pub fn peek_day(prefix: &[u8]) -> Option<u32> {
    if prefix.len() < 5 || &prefix[..4] != MAGIC {
        return None;
    }
    match prefix[4] {
        VERSION_V1 => prefix
            .get(5..9)
            .map(|raw| u32::from_le_bytes(raw.try_into().expect("4-byte slice"))),
        VERSION_V2 | VERSION_V3 => {
            let mut buf = &prefix[5..];
            let header_len = get_uvarint(&mut buf)? as usize;
            if header_len < 4 || buf.remaining() < 4 {
                return None;
            }
            Some((&buf[..4]).get_u32_le())
        }
        _ => None,
    }
}

/// How many bytes of file prefix [`peek_day`] needs in the worst case.
pub const PEEK_PREFIX_LEN: usize = 5 + MAX_VARINT_LEN + 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(n: usize) -> Snapshot {
        let records: Vec<SnapshotRecord> = (0..n)
            .map(|i| SnapshotRecord {
                path: format!(
                    "/lustre/atlas1/proj{:03}/user{:02}/run{}/f.{:08}",
                    i % 7,
                    i % 13,
                    i % 3,
                    i
                ),
                atime: 1_460_000_000 + i as u64 * 37,
                ctime: 1_450_000_000 + i as u64 * 11,
                mtime: 1_450_000_000 + i as u64 * 13,
                uid: 10_000 + (i % 50) as u32,
                gid: 2_000 + (i % 20) as u32,
                mode: if i % 10 == 0 { 0o040770 } else { 0o100664 },
                ino: 1_000_000 + i as u64,
                osts: if i % 10 == 0 {
                    vec![]
                } else {
                    (0..4)
                        .map(|k| ((i * 4 + k) as u16 % 2016, (i * 7 + k) as u32))
                        .collect()
                },
            })
            .collect();
        Snapshot::new(14, 1_421_625_600, records)
    }

    #[test]
    fn roundtrip_small() {
        let snap = sample_snapshot(100);
        let bytes = encode(&snap);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn roundtrip_empty() {
        let snap = Snapshot::new(0, 0, vec![]);
        let decoded = decode(&encode(&snap)).unwrap();
        assert_eq!(decoded, snap);
    }

    /// The frozen v1 golden (nothing writes v1 any more); its content
    /// is pinned by `golden_fixtures::v1_fixture_still_decodes`.
    const V1_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/tiny-v1.colf");

    #[test]
    fn v1_files_remain_readable() {
        assert_eq!(V1_FIXTURE[4], 1);
        let snap = decode(V1_FIXTURE).unwrap();
        assert_eq!(snap.day(), 42);
        assert_eq!(snap.len(), 4);
        let lossy = decode_lossy(V1_FIXTURE).unwrap();
        assert_eq!(lossy.snapshot, snap);
        assert!(lossy.lost_sections.is_empty());
    }

    #[test]
    fn v2_files_remain_readable() {
        let snap = sample_snapshot(64);
        let v2 = encode_v2(&snap);
        assert_eq!(v2[4], 2);
        assert_eq!(decode(&v2).unwrap(), snap);
        let lossy = decode_lossy(&v2).unwrap();
        assert_eq!(lossy.snapshot, snap);
        assert!(lossy.lost_sections.is_empty());
    }

    #[test]
    fn multi_zone_roundtrip() {
        // Zone framing must be invisible to the row reader, whatever the
        // zone size (including a zone boundary landing exactly on the
        // last row, and single-row zones).
        let snap = sample_snapshot(100);
        for zone_rows in [1, 3, 25, 99, 100, 101, 4096] {
            let bytes = encode_with_zone_rows(&snap, zone_rows);
            assert_eq!(bytes[4], 3);
            assert_eq!(
                decode(&bytes).unwrap(),
                snap,
                "zone_rows={zone_rows} changed the decode"
            );
        }
    }

    #[test]
    fn corrupt_zonemap_degrades_without_wrong_answers() {
        // The zone map is advisory: losing it costs pruning, never rows.
        let snap = sample_snapshot(80);
        let bytes = encode_with_zone_rows(&snap, 16);
        let spans = section_table(&bytes).unwrap();
        for target in ["zonemap", "extc"] {
            let span = spans.iter().find(|s| s.name == target).unwrap();
            let mut corrupted = bytes.clone();
            corrupted[span.offset + span.len / 2] ^= 0xFF;
            assert!(decode(&corrupted).is_err(), "strict must reject {target}");
            let lossy = decode_lossy(&corrupted).unwrap();
            assert_eq!(lossy.lost_sections, vec![target]);
            assert_eq!(lossy.snapshot, snap, "{target} loss altered records");
        }
    }

    #[test]
    fn colf_is_smaller_than_psv() {
        // The paper's whole point of the Parquet conversion: a substantial
        // footprint reduction (119 GB -> 28 GB, about 4.2x). Our encodings
        // differ, but front-coding + varints must beat text clearly even
        // with v2's per-section checksum overhead (~130 bytes/file).
        let snap = sample_snapshot(5_000);
        let mut psv = Vec::new();
        crate::psv::write_psv(&snap, &mut psv).unwrap();
        let colf = encode(&snap);
        let ratio = psv.len() as f64 / colf.len() as f64;
        assert!(ratio > 2.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"JUNK\x01rest"), Err(ColfError::BadMagic));
        assert_eq!(decode(b""), Err(ColfError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&sample_snapshot(1));
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(ColfError::BadVersion(99)));
    }

    #[test]
    fn hostile_record_count_is_rejected_without_allocating() {
        // A v1 header claiming ~10^12 records with a near-empty body must
        // be rejected up front (found by the prop_codecs fuzz test).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"COLF\x01");
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(0); // taken_at = 0
        crate::varint::put_uvarint(&mut bytes, 1_000_000_000_000u64);
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode(&bytes), Err(ColfError::BadValue("record count")));
    }

    #[test]
    fn overflowing_section_length_is_rejected() {
        // A correctly digested header and section table whose first
        // length sits just under u64::MAX: the running payload offset
        // must not wrap (or, in debug builds, panic).
        let mut header = 7u32.to_le_bytes().to_vec();
        header.extend_from_slice(&[0, 0]); // taken_at = 0, count = 0
        let mut table = Vec::new();
        for id in 1..=SECTION_NAMES.len() as u8 {
            table.push(id);
            put_uvarint(&mut table, if id == 1 { u64::MAX - 8 } else { 0 });
            table.extend_from_slice(&section_digest(&[]).to_le_bytes());
        }
        let mut bytes = b"COLF\x02".to_vec();
        put_uvarint(&mut bytes, header.len() as u64);
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&section_digest(&header).to_le_bytes());
        bytes.push(SECTION_NAMES.len() as u8);
        bytes.extend_from_slice(&table);
        bytes.extend_from_slice(&section_digest(&table).to_le_bytes());
        let bad = ColfError::BadValue("section table");
        assert_eq!(decode(&bytes).unwrap_err(), bad);
        assert_eq!(decode_lossy(&bytes).unwrap_err(), bad);
        assert_eq!(section_table(&bytes).unwrap_err(), bad);
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        for bytes in [encode(&sample_snapshot(20)), V1_FIXTURE.to_vec()] {
            for cut in 0..bytes.len() {
                let result = decode(&bytes[..cut]);
                assert!(result.is_err(), "cut at {cut} decoded successfully");
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected_or_harmless() {
        // The checksum guarantee, exhaustively: flipping any byte of a v2
        // buffer yields a decode error or (for flips that cannot matter,
        // like a version byte flipped to another supported version over a
        // compatible body) the identical record set — never a *different*
        // successful decode. Mirrors the prop_codecs property; this
        // variant is deterministic and runs without proptest.
        let snap = sample_snapshot(40);
        let bytes = encode(&snap);
        for pos in 0..bytes.len() {
            for pattern in [0xFFu8, 0x01, 0x80] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= pattern;
                match decode(&mutated) {
                    Err(_) => {}
                    Ok(decoded) => assert_eq!(
                        decoded.records(),
                        snap.records(),
                        "byte {pos} ^ {pattern:#x} changed the decode"
                    ),
                }
            }
        }
    }

    #[test]
    fn lossy_mutation_reports_what_it_lost() {
        // Deterministic twin of the prop_codecs lossy property: when a
        // mutated buffer still lossy-decodes, every section NOT reported
        // lost must match the original exactly.
        let snap = sample_snapshot(40);
        let bytes = encode(&snap);
        for pos in 0..bytes.len() {
            for pattern in [0xFFu8, 0x01, 0x80] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= pattern;
                let Ok(lossy) = decode_lossy(&mutated) else {
                    continue;
                };
                assert_eq!(lossy.snapshot.len(), snap.len());
                let lost = &lossy.lost_sections;
                for (got, orig) in lossy.snapshot.records().iter().zip(snap.records()) {
                    assert_eq!(got.path, orig.path, "paths are never lossy");
                    if !lost.contains(&"atime") {
                        assert_eq!(got.atime, orig.atime);
                    }
                    if !lost.contains(&"ctime") {
                        assert_eq!(got.ctime, orig.ctime);
                    }
                    if !lost.contains(&"mtime") {
                        assert_eq!(got.mtime, orig.mtime);
                    }
                    if !lost.contains(&"ino") {
                        assert_eq!(got.ino, orig.ino);
                    }
                    if !lost.contains(&"uid") {
                        assert_eq!(got.uid, orig.uid);
                    }
                    if !lost.contains(&"gid") {
                        assert_eq!(got.gid, orig.gid);
                    }
                    if !lost.contains(&"mode") {
                        assert_eq!(got.mode, orig.mode);
                    }
                    if !lost.contains(&"osts") {
                        assert_eq!(got.osts, orig.osts);
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_osts_section_still_yields_other_columns() {
        let snap = sample_snapshot(50);
        let bytes = encode(&snap);
        let spans = section_table(&bytes).unwrap();
        let osts = spans.iter().find(|s| s.name == "osts").unwrap();
        let mut corrupted = bytes.clone();
        corrupted[osts.offset + osts.len / 2] ^= 0xFF;

        // Strict decode refuses.
        assert!(matches!(
            decode(&corrupted),
            Err(ColfError::Corrupt {
                section: "osts",
                ..
            })
        ));

        // Lossy decode recovers every other column bit-exactly.
        let lossy = decode_lossy(&corrupted).unwrap();
        assert_eq!(lossy.lost_sections, vec!["osts"]);
        assert_eq!(lossy.snapshot.len(), snap.len());
        for (got, want) in lossy.snapshot.records().iter().zip(snap.records()) {
            assert_eq!(got.path, want.path);
            assert_eq!(got.atime, want.atime);
            assert_eq!(got.ctime, want.ctime);
            assert_eq!(got.mtime, want.mtime);
            assert_eq!(got.uid, want.uid);
            assert_eq!(got.mode, want.mode);
            assert!(got.osts.is_empty());
        }
    }

    #[test]
    fn corrupt_paths_section_is_unrecoverable() {
        let snap = sample_snapshot(30);
        let bytes = encode(&snap);
        let spans = section_table(&bytes).unwrap();
        let paths = spans.iter().find(|s| s.name == "paths").unwrap();
        let mut corrupted = bytes.clone();
        corrupted[paths.offset + 3] ^= 0xFF;
        assert!(decode(&corrupted).is_err());
        assert!(decode_lossy(&corrupted).is_err());
    }

    #[test]
    fn corrupt_header_reports_offset() {
        let snap = sample_snapshot(10);
        let bytes = encode(&snap);
        let spans = section_table(&bytes).unwrap();
        let header = spans.iter().find(|s| s.name == "header").unwrap();
        let mut corrupted = bytes.clone();
        corrupted[header.offset] ^= 0x10;
        match decode(&corrupted) {
            Err(ColfError::Corrupt { section, offset }) => {
                assert_eq!(section, "header");
                assert_eq!(offset, header.offset);
            }
            other => panic!("expected header corruption, got {other:?}"),
        }
    }

    #[test]
    fn section_table_covers_the_whole_payload() {
        let snap = sample_snapshot(25);
        let bytes = encode(&snap);
        let spans = section_table(&bytes).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names[..2], ["header", "section-table"]);
        assert_eq!(&names[2..], &SECTION_NAMES_V3);
        // Payload sections tile the buffer tail exactly.
        let last = spans.last().unwrap();
        assert_eq!(last.offset + last.len, bytes.len());
        for pair in spans[2..].windows(2) {
            assert_eq!(pair[0].offset + pair[0].len, pair[1].offset);
        }
    }

    #[test]
    fn truncated_tail_recovers_leading_sections() {
        // Cut the file inside the osts section: the table is intact, so
        // lossy decode salvages every earlier column; osts and both
        // trailing v3 sections are gone.
        let snap = sample_snapshot(40);
        let bytes = encode(&snap);
        let spans = section_table(&bytes).unwrap();
        let osts = spans.iter().find(|s| s.name == "osts").unwrap();
        let cut = &bytes[..osts.offset + 1];
        assert!(decode(cut).is_err());
        let lossy = decode_lossy(cut).unwrap();
        assert_eq!(lossy.lost_sections, vec!["osts", "extc", "zonemap"]);
        assert_eq!(lossy.snapshot.len(), snap.len());
    }

    #[test]
    fn peek_day_reads_all_versions() {
        let snap = sample_snapshot(5);
        let v3 = encode(&snap);
        let v2 = encode_v2(&snap);
        assert_eq!(peek_day(&v3[..PEEK_PREFIX_LEN.min(v3.len())]), Some(14));
        assert_eq!(peek_day(&v2[..PEEK_PREFIX_LEN.min(v2.len())]), Some(14));
        assert_eq!(peek_day(&V1_FIXTURE[..PEEK_PREFIX_LEN]), Some(42));
        assert_eq!(peek_day(b"JUNK"), None);
        assert_eq!(peek_day(b"COLF\x02"), None);
        assert_eq!(peek_day(b"COLF\x03"), None);
    }

    #[test]
    fn front_coding_exploits_shared_prefixes() {
        // Deep sibling files share almost their entire path.
        let records: Vec<SnapshotRecord> = (0..1000)
            .map(|i| SnapshotRecord {
                path: format!("/lustre/atlas1/cmb104/u9/deep/run/output/f.{i:08}"),
                atime: 1_460_000_000,
                ctime: 1_460_000_000,
                mtime: 1_460_000_000,
                uid: 1,
                gid: 1,
                mode: 0o100664,
                ino: i as u64 + 1,
                osts: vec![],
            })
            .collect();
        let snap = Snapshot::new(0, 0, records);
        let colf = encode(&snap);
        // ~50-byte paths front-code to ~12 bytes of suffix + overhead.
        let per_record = colf.len() / 1000;
        assert!(per_record < 30, "{per_record} bytes/record");
        assert_eq!(decode(&colf).unwrap(), snap);
    }

    #[test]
    fn utf8_paths_survive() {
        let records = vec![
            SnapshotRecord {
                path: "/lustre/atlas1/αβγ/データ.nc".to_string(),
                atime: 1,
                ctime: 1,
                mtime: 1,
                uid: 1,
                gid: 1,
                mode: 0o100664,
                ino: 1,
                osts: vec![(1, 2)],
            },
            SnapshotRecord {
                path: "/lustre/atlas1/αβγ/データ2.nc".to_string(),
                atime: 2,
                ctime: 2,
                mtime: 2,
                uid: 2,
                gid: 2,
                mode: 0o100664,
                ino: 2,
                osts: vec![],
            },
        ];
        let snap = Snapshot::new(0, 0, records);
        assert_eq!(decode(&encode(&snap)).unwrap(), snap);
    }
}
