//! Benchmark-side spans: one around every call into a layer's public
//! function, kept in memory, written as chrome `trace_event` JSON when the
//! run ends. No span lives inside the program; the traced run is a
//! separate run, so the end-to-end numbers never pay for this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span wrapped around one whole op.
pub const OP: &str = "op";

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.loader.frames_pruned`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op id the span belongs to (all spans of one op share it).
    pub op: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Disabled tracers cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    op: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced runs).
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A recording tracer; tracers of one run share `epoch`.
    pub fn on(epoch: Instant, tid: u32) -> Tracer {
        Tracer::new(true, epoch, tid)
    }

    fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let index = self.stack.pop().expect("end without begin");
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part its
    /// direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (span, &children) in self.spans.iter().zip(&covered) {
            *out.entry(span.name).or_insert(0) += span.dur().saturating_sub(children);
        }
        out
    }

    /// Total duration and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let e = out.entry(span.name).or_default();
            e.0 += span.dur();
            e.1 += 1;
        }
        out
    }

    /// Renders the spans of `tracers` as one chrome `trace_event` document
    /// (open it in Perfetto or `chrome://tracing`).
    pub fn render_chrome(tracers: &[&Tracer]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for tracer in tracers {
            for span in &tracer.spans {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                    span.name,
                    tracer.tid,
                    span.start_ns as f64 / 1e3,
                    span.dur() as f64 / 1e3,
                    span.op
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Share of the op spans' time that spans of layers cover: the sum of
/// layer self time over the sum of op wall time. The rest is the
/// benchmark's own glue inside an op.
pub fn coverage(tracers: &[&Tracer]) -> f64 {
    let mut op_wall = 0u64;
    let mut op_self = 0u64;
    for tracer in tracers {
        op_wall += tracer.totals().get(OP).map_or(0, |t| t.0);
        op_self += tracer.self_time_ns().get(OP).copied().unwrap_or(0);
    }
    if op_wall == 0 {
        return 0.0;
    }
    (op_wall - op_self) as f64 / op_wall as f64
}
