//! The line-delimited wire protocol (version 1).
//!
//! One request per line, one response per line. A request is a JSON
//! object:
//!
//! ```json
//! {"v":1,"id":7,"tenant":"climate","agg":"count","pred":{"uid":[10000,10010]}}
//! ```
//!
//! * `v` — protocol version (required, must be `1`);
//! * `id` — caller-chosen correlation id, echoed back (default 0);
//! * `tenant` — tenant name for admission control (default `"anon"`);
//! * `agg` — `"count"`, `"files_dirs"`, `"stripes_sum"`, or
//!   `{"group_count":{"by":"uid"|"gid"|"ext","top":N}}`;
//! * `pred` — optional [`Pred`] tree (see [`pred_from_json`]);
//! * `days` — optional `[lo,hi]` inclusive day window, ANDed into the
//!   predicate;
//! * `trace` — optional hex trace id: echoed in the response and
//!   stamped on every telemetry event inside the query's extent
//!   (minted by the server's front-end when absent).
//!
//! A `{"v":1,"metrics":true}` line is a **metrics scrape**, answered by
//! the front-end without queueing ([`parse_metrics_request`]): the
//! response carries the live [`spider_telemetry::TelemetrySnapshot`]
//! plus counter deltas since the previous scrape and per-tenant gauges.
//!
//! A response echoes `v`, `id`, and `trace` and carries a `status`:
//!
//! * `"ok"` — fresh result, `"stale":false`;
//! * `"shed"` — the admission controller served a cached answer under
//!   load, `"stale":true`; the `result` bytes are identical to the
//!   `ok` response they were cached from;
//! * `"rejected"` — typed admission refusal (`over_budget`,
//!   `queue_full`); the query was **not** executed;
//! * `"error"` — protocol or execution failure (`bad_query`,
//!   `unsupported_version`, `store`, `internal`).

use crate::json::{self, Json};
use spider_snapshot::Pred;

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Grouping key for [`AggSpec::GroupCount`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// Group matched rows by owner uid.
    Uid,
    /// Group matched rows by owner gid (project allocation).
    Gid,
    /// Group matched rows by file extension.
    Ext,
}

impl GroupBy {
    fn as_str(self) -> &'static str {
        match self {
            GroupBy::Uid => "uid",
            GroupBy::Gid => "gid",
            GroupBy::Ext => "ext",
        }
    }
}

/// What to compute over the rows matched by the predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSpec {
    /// Matched row count.
    Count,
    /// Matched file and directory counts.
    FilesDirs,
    /// Sum of stripe counts over matched rows (the study's size proxy).
    StripesSum,
    /// Top-N group counts by uid/gid/extension.
    GroupCount {
        /// Grouping key.
        by: GroupBy,
        /// How many groups to return (count-descending, key-ascending).
        top: usize,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Caller correlation id, echoed in the response.
    pub id: u64,
    /// Tenant name for admission control.
    pub tenant: String,
    /// Optional predicate tree.
    pub pred: Option<Pred>,
    /// Optional inclusive day window.
    pub days: Option<(u32, u32)>,
    /// Aggregate to compute.
    pub agg: AggSpec,
    /// Trace id (0 = unset): minted by the client, or by the server's
    /// front-end when absent; echoed in the response and stamped on
    /// every telemetry event inside the query's extent. Wire form:
    /// lowercase hex digits.
    pub trace: u64,
}

/// A typed request-parse failure: the error code, a human detail, and
/// whatever correlation id could be salvaged from the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Typed error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
    /// Parsed `id`, or 0 when the line was unparseable.
    pub id: u64,
}

impl ProtoError {
    fn bad(id: u64, detail: impl Into<String>) -> ProtoError {
        ProtoError {
            code: ErrorCode::BadQuery,
            detail: detail.into(),
            id,
        }
    }
}

impl Query {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Query, ProtoError> {
        let doc = json::parse(line).map_err(|e| ProtoError::bad(0, format!("not JSON: {e}")))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(ProtoError::bad(0, "request must be a JSON object"));
        }
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::bad(id, "missing protocol version `v`"))?;
        if version != PROTOCOL_VERSION {
            return Err(ProtoError {
                code: ErrorCode::UnsupportedVersion,
                detail: format!(
                    "protocol version {version} (this server speaks {PROTOCOL_VERSION})"
                ),
                id,
            });
        }
        let tenant = match doc.get("tenant") {
            None => "anon".to_string(),
            Some(t) => t
                .as_str()
                .ok_or_else(|| ProtoError::bad(id, "`tenant` must be a string"))?
                .to_string(),
        };
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(ProtoError::bad(id, "`tenant` must be 1..=64 bytes"));
        }
        let pred = match doc.get("pred") {
            None | Some(Json::Null) => None,
            Some(p) => Some(pred_from_json(p).map_err(|e| ProtoError::bad(id, e))?),
        };
        let days = match doc.get("days") {
            None | Some(Json::Null) => None,
            Some(d) => {
                let (lo, hi) = u32_pair(d).ok_or_else(|| {
                    ProtoError::bad(id, "`days` must be a [lo,hi] pair of day numbers")
                })?;
                if lo > hi {
                    return Err(ProtoError::bad(id, "`days` lo exceeds hi"));
                }
                Some((lo, hi))
            }
        };
        let agg = match doc.get("agg") {
            None => AggSpec::Count,
            Some(a) => agg_from_json(a).map_err(|e| ProtoError::bad(id, e))?,
        };
        let trace = match doc.get("trace") {
            None | Some(Json::Null) => 0,
            Some(t) => t
                .as_str()
                .and_then(trace_from_hex)
                .ok_or_else(|| ProtoError::bad(id, "`trace` must be a hex string"))?,
        };
        Ok(Query {
            id,
            tenant,
            pred,
            days,
            agg,
            trace,
        })
    }

    /// The predicate actually evaluated: `pred AND days`, where a
    /// missing `pred` matches everything.
    pub fn effective_pred(&self) -> Pred {
        let mut parts = Vec::new();
        if let Some((lo, hi)) = self.days {
            parts.push(Pred::day(lo..=hi));
        }
        if let Some(p) = &self.pred {
            parts.push(p.clone());
        }
        Pred::and(parts)
    }

    /// A stable identity for the *answer* this query produces:
    /// predicate fingerprint mixed with the aggregate spec. Two queries
    /// with the same fingerprint return byte-identical `result` fields,
    /// which is what lets the shed path reuse cached answers.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.effective_pred().fingerprint();
        h = mix64(h ^ 0x5345_5256_4501); // "SERVE\x01"
        match &self.agg {
            AggSpec::Count => h = mix64(h ^ 1),
            AggSpec::FilesDirs => h = mix64(h ^ 2),
            AggSpec::StripesSum => h = mix64(h ^ 3),
            AggSpec::GroupCount { by, top } => {
                h = mix64(h ^ 4 ^ ((*by as u64) << 8) ^ ((*top as u64) << 16));
            }
        }
        h
    }

    /// Renders the query as a request line (client side; no trailing
    /// newline).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!("{{\"v\":{PROTOCOL_VERSION},\"id\":{},", self.id));
        if self.trace != 0 {
            out.push_str(&format!("\"trace\":\"{}\",", trace_to_hex(self.trace)));
        }
        out.push_str("\"tenant\":");
        json::escape_into(&mut out, &self.tenant);
        out.push_str(",\"agg\":");
        match &self.agg {
            AggSpec::Count => out.push_str("\"count\""),
            AggSpec::FilesDirs => out.push_str("\"files_dirs\""),
            AggSpec::StripesSum => out.push_str("\"stripes_sum\""),
            AggSpec::GroupCount { by, top } => {
                out.push_str(&format!(
                    "{{\"group_count\":{{\"by\":\"{}\",\"top\":{top}}}}}",
                    by.as_str()
                ));
            }
        }
        if let Some((lo, hi)) = self.days {
            out.push_str(&format!(",\"days\":[{lo},{hi}]"));
        }
        if let Some(p) = &self.pred {
            out.push_str(",\"pred\":");
            render_pred(p, &mut out);
        }
        out.push('}');
        out
    }
}

/// The wire spelling of a trace id: 16 lowercase hex digits.
pub fn trace_to_hex(trace: u64) -> String {
    format!("{trace:016x}")
}

/// Parses a wire trace id (any-length hex, matching what we render).
pub fn trace_from_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Version of the `metrics` scrape response payload. Bumped when the
/// scrape's field set changes shape (the embedded telemetry snapshot
/// has its own `schema_version`).
pub const METRICS_VERSION: u64 = 1;

/// Recognizes a `metrics` scrape request — `{"v":1,"metrics":true}`,
/// optionally with an `id` — returning the correlation id. The server's
/// front-end answers these directly without queueing a query.
pub fn parse_metrics_request(line: &str) -> Option<u64> {
    if !line.contains("\"metrics\"") {
        return None;
    }
    let doc = json::parse(line).ok()?;
    if doc.get("v").and_then(Json::as_u64)? != PROTOCOL_VERSION {
        return None;
    }
    if doc.get("metrics").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    Some(doc.get("id").and_then(Json::as_u64).unwrap_or(0))
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

fn u32_pair(v: &Json) -> Option<(u32, u32)> {
    let items = v.as_arr()?;
    if items.len() != 2 {
        return None;
    }
    let lo = items[0].as_u64()?;
    let hi = items[1].as_u64()?;
    Some((u32::try_from(lo).ok()?, u32::try_from(hi).ok()?))
}

fn u64_pair(v: &Json) -> Option<(u64, u64)> {
    let items = v.as_arr()?;
    if items.len() != 2 {
        return None;
    }
    Some((items[0].as_u64()?, items[1].as_u64()?))
}

fn agg_from_json(v: &Json) -> Result<AggSpec, String> {
    if let Some(name) = v.as_str() {
        return match name {
            "count" => Ok(AggSpec::Count),
            "files_dirs" => Ok(AggSpec::FilesDirs),
            "stripes_sum" => Ok(AggSpec::StripesSum),
            other => Err(format!("unknown aggregate `{other}`")),
        };
    }
    let gc = v
        .get("group_count")
        .ok_or("`agg` must be a name or {\"group_count\":...}")?;
    let by = match gc.get("by").and_then(Json::as_str) {
        Some("uid") => GroupBy::Uid,
        Some("gid") => GroupBy::Gid,
        Some("ext") => GroupBy::Ext,
        _ => return Err("`group_count.by` must be uid|gid|ext".into()),
    };
    let top = gc.get("top").and_then(Json::as_u64).unwrap_or(10);
    if top == 0 || top > 1_000 {
        return Err("`group_count.top` must be 1..=1000".into());
    }
    Ok(AggSpec::GroupCount {
        by,
        top: top as usize,
    })
}

/// Decodes a predicate tree from its JSON form. Each node is an
/// object with exactly one key: a range field (`day`, `uid`, `gid`,
/// `depth`, `stripes` as `[lo,hi]` u32; `mtime`, `atime` as `[lo,hi]`
/// u64), `ext` (array of extension strings), `ext_none` (`true`), or
/// a combinator (`and` / `or` over child arrays).
pub fn pred_from_json(v: &Json) -> Result<Pred, String> {
    let Json::Obj(fields) = v else {
        return Err("predicate must be a JSON object".into());
    };
    if fields.len() != 1 {
        return Err(format!(
            "predicate node must have exactly one key, got {}",
            fields.len()
        ));
    }
    let (key, val) = &fields[0];
    let range32 =
        |what: &str| u32_pair(val).ok_or_else(|| format!("`{what}` wants a [lo,hi] pair of u32"));
    let range64 =
        |what: &str| u64_pair(val).ok_or_else(|| format!("`{what}` wants a [lo,hi] pair of u64"));
    match key.as_str() {
        "day" => range32("day").map(|(lo, hi)| Pred::day(lo..=hi)),
        "uid" => range32("uid").map(|(lo, hi)| Pred::uid(lo..=hi)),
        "gid" => range32("gid").map(|(lo, hi)| Pred::gid(lo..=hi)),
        "depth" => range32("depth").map(|(lo, hi)| Pred::depth(lo..=hi)),
        "stripes" => range32("stripes").map(|(lo, hi)| Pred::stripes(lo..=hi)),
        "mtime" => range64("mtime").map(|(lo, hi)| Pred::mtime(lo..=hi)),
        "atime" => range64("atime").map(|(lo, hi)| Pred::atime(lo..=hi)),
        "ext" => {
            let items = val.as_arr().ok_or("`ext` wants an array of strings")?;
            let mut exts = Vec::with_capacity(items.len());
            for item in items {
                exts.push(
                    item.as_str()
                        .ok_or("`ext` wants an array of strings")?
                        .to_string(),
                );
            }
            if exts.is_empty() {
                return Err("`ext` wants at least one extension".into());
            }
            Ok(Pred::ext_in(exts))
        }
        "ext_none" => match val.as_bool() {
            Some(true) => Ok(Pred::ext_none()),
            _ => Err("`ext_none` wants the literal true".into()),
        },
        "and" | "or" => {
            let items = val
                .as_arr()
                .ok_or_else(|| format!("`{key}` wants an array of predicates"))?;
            let children = items
                .iter()
                .map(pred_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            if key == "and" {
                Ok(Pred::and(children))
            } else {
                Ok(Pred::or(children))
            }
        }
        other => Err(format!("unknown predicate key `{other}`")),
    }
}

/// Renders a predicate tree in the wire form [`pred_from_json`] reads.
pub fn render_pred(p: &Pred, out: &mut String) {
    match p {
        Pred::Day { lo, hi } => out.push_str(&format!("{{\"day\":[{lo},{hi}]}}")),
        Pred::Uid { lo, hi } => out.push_str(&format!("{{\"uid\":[{lo},{hi}]}}")),
        Pred::Gid { lo, hi } => out.push_str(&format!("{{\"gid\":[{lo},{hi}]}}")),
        Pred::Depth { lo, hi } => out.push_str(&format!("{{\"depth\":[{lo},{hi}]}}")),
        Pred::Stripes { lo, hi } => out.push_str(&format!("{{\"stripes\":[{lo},{hi}]}}")),
        Pred::Mtime { lo, hi } => out.push_str(&format!("{{\"mtime\":[{lo},{hi}]}}")),
        Pred::Atime { lo, hi } => out.push_str(&format!("{{\"atime\":[{lo},{hi}]}}")),
        Pred::ExtIn(exts) => {
            out.push_str("{\"ext\":[");
            for (i, e) in exts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(out, e);
            }
            out.push_str("]}");
        }
        Pred::ExtNone => out.push_str("{\"ext_none\":true}"),
        Pred::And(children) | Pred::Or(children) => {
            out.push_str(if matches!(p, Pred::And(_)) {
                "{\"and\":["
            } else {
                "{\"or\":["
            });
            for (i, c) in children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_pred(c, out);
            }
            out.push_str("]}");
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Typed error / rejection codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse into a valid query.
    BadQuery,
    /// The request named a protocol version this server doesn't speak.
    UnsupportedVersion,
    /// Admission: the tenant's scan budget is exhausted and no cached
    /// answer exists.
    OverBudget,
    /// Admission: the work queue is at capacity and no cached answer
    /// exists.
    QueueFull,
    /// The snapshot store failed while executing the query.
    Store,
    /// The server lost the worker mid-query.
    Internal,
}

impl ErrorCode {
    /// Wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::OverBudget => "over_budget",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Store => "store",
            ErrorCode::Internal => "internal",
        }
    }

    /// True for genuine protocol/execution failures. `over_budget` and
    /// `queue_full` are *admission outcomes*, not protocol errors —
    /// the load generator counts them separately.
    pub fn is_protocol_error(self) -> bool {
        !matches!(self, ErrorCode::OverBudget | ErrorCode::QueueFull)
    }
}

/// Per-query timing and scan effort, echoed in `ok`/`shed` responses.
///
/// The stage fields decompose a fresh execution end to end:
/// `admission + queue + prune + decode + fold + render` tiles the
/// request's `total_ns` — adjacent stages share their boundary instant
/// (the serve soak enforces the sum to within 10%). `render_ns` is
/// defined as the exec wall time not spent in prune/decode/fold, so the
/// decomposition is exact by construction inside the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Nanoseconds spent queued before a worker picked the query up.
    pub queue_ns: u64,
    /// Nanoseconds of execution (0 for shed answers).
    pub exec_ns: u64,
    /// Days actually scanned (for shed answers: the original scan's).
    pub days_scanned: u64,
    /// Rows matched.
    pub rows: u64,
    /// Nanoseconds in the admission front-end (parse to verdict).
    pub admission_ns: u64,
    /// Execution: day-window matching + per-frame predicate compile.
    pub prune_ns: u64,
    /// Execution: resident-frame lookup (a miss pays its decode here).
    pub decode_ns: u64,
    /// Execution: predicate selection + the fold over selected rows.
    pub fold_ns: u64,
    /// Execution remainder + response assembly.
    pub render_ns: u64,
    /// Front-end arrival to response render, wall clock.
    pub total_ns: u64,
}

fn render_answer(
    id: u64,
    trace: u64,
    status: &str,
    stale: bool,
    result: &str,
    notes: &[String],
    cost: QueryCost,
) -> String {
    let mut out = String::with_capacity(result.len() + notes.len() * 48 + 256);
    out.push_str(&format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"trace\":\"{}\",\"status\":\"{status}\",\"stale\":{stale},\"result\":{result},\"notes\":[",
        trace_to_hex(trace)
    ));
    for (i, note) in notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, note);
    }
    out.push_str(&format!(
        "],\"telemetry\":{{\"queue_ns\":{},\"exec_ns\":{},\"admission_ns\":{},\"prune_ns\":{},\"decode_ns\":{},\"fold_ns\":{},\"render_ns\":{},\"total_ns\":{},\"days_scanned\":{},\"rows\":{}}}}}",
        cost.queue_ns,
        cost.exec_ns,
        cost.admission_ns,
        cost.prune_ns,
        cost.decode_ns,
        cost.fold_ns,
        cost.render_ns,
        cost.total_ns,
        cost.days_scanned,
        cost.rows
    ));
    out
}

/// Renders a fresh `ok` response.
pub fn render_ok(id: u64, trace: u64, result: &str, notes: &[String], cost: QueryCost) -> String {
    render_answer(id, trace, "ok", false, result, notes, cost)
}

/// Renders a `shed` response reusing a cached answer's `result` bytes
/// verbatim (the staleness marker is the `"status":"shed"` +
/// `"stale":true` pair).
pub fn render_shed(id: u64, trace: u64, result: &str, notes: &[String], cost: QueryCost) -> String {
    render_answer(id, trace, "shed", true, result, notes, cost)
}

/// Renders a typed admission rejection (the query did not run).
pub fn render_rejected(id: u64, trace: u64, code: ErrorCode, detail: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(&format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"trace\":\"{}\",\"status\":\"rejected\",\"code\":\"{}\",\"detail\":",
        trace_to_hex(trace),
        code.as_str()
    ));
    json::escape_into(&mut out, detail);
    out.push('}');
    out
}

/// Renders a typed error response.
pub fn render_error(id: u64, trace: u64, code: ErrorCode, detail: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(&format!(
        "{{\"v\":{PROTOCOL_VERSION},\"id\":{id},\"trace\":\"{}\",\"status\":\"error\",\"code\":\"{}\",\"detail\":",
        trace_to_hex(trace),
        code.as_str()
    ));
    json::escape_into(&mut out, detail);
    out.push('}');
    out
}

/// Extracts the raw `result` bytes from a rendered response line —
/// the exact substring, so shed-vs-ok byte identity can be asserted
/// without re-rendering. Returns `None` for reject/error lines.
pub fn extract_result_raw(line: &str) -> Option<&str> {
    let key = "\"result\":";
    let start = line.find(key)? + key.len();
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes[start..].iter().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..start + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A client-side view of one response line.
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// `ok`, `shed`, `rejected`, or `error`.
    pub status: String,
    /// Staleness marker (true only for `shed`).
    pub stale: bool,
    /// Typed code on reject/error lines.
    pub code: Option<String>,
    /// Raw `result` bytes on ok/shed lines.
    pub result_raw: Option<String>,
    /// Substitution / degradation notes on ok/shed lines.
    pub notes: Vec<String>,
    /// Echoed trace id (0 when the line carried none).
    pub trace: u64,
    /// The cost telemetry object on ok/shed lines.
    pub cost: Option<QueryCost>,
}

impl ParsedResponse {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<ParsedResponse, String> {
        let doc = json::parse(line)?;
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response missing `status`")?
            .to_string();
        let notes = doc
            .get("notes")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        let cost = doc.get("telemetry").map(|t| {
            let f = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
            QueryCost {
                queue_ns: f("queue_ns"),
                exec_ns: f("exec_ns"),
                days_scanned: f("days_scanned"),
                rows: f("rows"),
                admission_ns: f("admission_ns"),
                prune_ns: f("prune_ns"),
                decode_ns: f("decode_ns"),
                fold_ns: f("fold_ns"),
                render_ns: f("render_ns"),
                total_ns: f("total_ns"),
            }
        });
        Ok(ParsedResponse {
            id: doc.get("id").and_then(Json::as_u64).unwrap_or(0),
            status,
            stale: doc.get("stale").and_then(Json::as_bool).unwrap_or(false),
            code: doc.get("code").and_then(Json::as_str).map(str::to_string),
            result_raw: extract_result_raw(line).map(str::to_string),
            notes,
            trace: doc
                .get("trace")
                .and_then(Json::as_str)
                .and_then(trace_from_hex)
                .unwrap_or(0),
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_render_parse_round_trips() {
        let q = Query {
            id: 42,
            tenant: "climate".into(),
            pred: Some(Pred::and(vec![
                Pred::uid(10_000..=10_010),
                Pred::or(vec![Pred::ext_in(["h5", "nc"]), Pred::ext_none()]),
                Pred::mtime(1_420_000_000..=1_421_000_000),
            ])),
            days: Some((0, 21)),
            agg: AggSpec::GroupCount {
                by: GroupBy::Gid,
                top: 5,
            },
            trace: 0xdead_beef_0042,
        };
        let back = Query::parse(&q.render()).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.fingerprint(), q.fingerprint());
        // An untraced query renders without the field and parses back.
        let mut bare = q.clone();
        bare.trace = 0;
        assert!(!bare.render().contains("trace"));
        assert_eq!(Query::parse(&bare.render()).unwrap(), bare);
    }

    #[test]
    fn fingerprint_separates_aggregates_and_windows() {
        let base = Query {
            id: 0,
            tenant: "a".into(),
            pred: Some(Pred::uid(1..=2)),
            days: None,
            agg: AggSpec::Count,
            trace: 0,
        };
        let mut other = base.clone();
        other.agg = AggSpec::FilesDirs;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut windowed = base.clone();
        windowed.days = Some((0, 7));
        assert_ne!(base.fingerprint(), windowed.fingerprint());
        // The id and tenant do NOT change the answer identity.
        let mut renamed = base.clone();
        renamed.id = 99;
        renamed.tenant = "b".into();
        renamed.trace = 0x77;
        assert_eq!(base.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn version_and_shape_errors_are_typed() {
        let err = Query::parse(r#"{"v":9,"id":3}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
        assert_eq!(err.id, 3);
        let err = Query::parse("not json").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadQuery);
        let err = Query::parse(r#"{"v":1,"pred":{"uid":[5]}}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadQuery);
        let err = Query::parse(r#"{"v":1,"agg":"median"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadQuery);
        let err = Query::parse(r#"{"id":1}"#).unwrap_err();
        assert!(err.detail.contains("version"));
    }

    #[test]
    fn responses_render_and_extract() {
        let cost = QueryCost {
            queue_ns: 10,
            exec_ns: 20,
            days_scanned: 3,
            rows: 7,
            admission_ns: 2,
            prune_ns: 5,
            decode_ns: 9,
            fold_ns: 4,
            render_ns: 2,
            total_ns: 34,
        };
        let ok = render_ok(
            5,
            0xabc,
            r#"{"count":7}"#,
            &["day 21 degraded: lost atime".into()],
            cost,
        );
        let parsed = ParsedResponse::parse(&ok).unwrap();
        assert_eq!(parsed.status, "ok");
        assert!(!parsed.stale);
        assert_eq!(parsed.result_raw.as_deref(), Some(r#"{"count":7}"#));
        assert_eq!(parsed.notes.len(), 1);
        assert_eq!(parsed.trace, 0xabc);
        assert_eq!(parsed.cost, Some(cost));

        let shed = render_shed(5, 0xabc, r#"{"count":7}"#, &[], cost);
        let parsed = ParsedResponse::parse(&shed).unwrap();
        assert_eq!(parsed.status, "shed");
        assert!(parsed.stale);
        assert_eq!(
            parsed.result_raw.as_deref(),
            extract_result_raw(&ok).as_deref()
        );

        let rej = render_rejected(6, 0x9, ErrorCode::QueueFull, "queue at capacity (32)");
        let parsed = ParsedResponse::parse(&rej).unwrap();
        assert_eq!(parsed.status, "rejected");
        assert_eq!(parsed.code.as_deref(), Some("queue_full"));
        assert!(parsed.result_raw.is_none());
        assert_eq!(parsed.trace, 0x9);

        let err = render_error(7, 0, ErrorCode::BadQuery, "nope \"quoted\"");
        let parsed = ParsedResponse::parse(&err).unwrap();
        assert_eq!(parsed.status, "error");
        assert_eq!(parsed.code.as_deref(), Some("bad_query"));
    }

    #[test]
    fn result_extraction_handles_nested_braces_and_strings() {
        let result = r#"{"groups":[["a}b",2],["c]{",1]],"distinct":2}"#;
        let line = render_ok(1, 0, result, &[], QueryCost::default());
        assert_eq!(extract_result_raw(&line), Some(result));
    }

    #[test]
    fn metrics_requests_are_recognized() {
        assert_eq!(parse_metrics_request(r#"{"v":1,"metrics":true}"#), Some(0));
        assert_eq!(
            parse_metrics_request(r#"{"v":1,"id":9,"metrics":true}"#),
            Some(9)
        );
        // Wrong version, wrong shape, or an ordinary query: not a scrape.
        assert_eq!(parse_metrics_request(r#"{"v":2,"metrics":true}"#), None);
        assert_eq!(parse_metrics_request(r#"{"v":1,"metrics":false}"#), None);
        assert_eq!(parse_metrics_request(r#"{"v":1,"agg":"count"}"#), None);
    }

    #[test]
    fn trace_hex_round_trips() {
        assert_eq!(trace_to_hex(0xdead_beef), "00000000deadbeef");
        assert_eq!(trace_from_hex("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(trace_from_hex(""), None);
        assert_eq!(trace_from_hex("zz"), None);
        assert_eq!(trace_from_hex("12345678123456789"), None);
    }

    #[test]
    fn admission_codes_are_not_protocol_errors() {
        assert!(!ErrorCode::OverBudget.is_protocol_error());
        assert!(!ErrorCode::QueueFull.is_protocol_error());
        assert!(ErrorCode::BadQuery.is_protocol_error());
        assert!(ErrorCode::Store.is_protocol_error());
        assert!(ErrorCode::Internal.is_protocol_error());
        assert!(ErrorCode::UnsupportedVersion.is_protocol_error());
    }
}
