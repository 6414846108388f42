//! Spans recorded around the benchmark's own calls into each layer of
//! the program. Spans are kept in memory and written out when the run
//! ends, as Chrome trace-event JSON (opens in Perfetto).
//!
//! With tracing off, [`Tracer::span`] only calls its closure: nothing
//! is timed or stored.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer was
/// made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u32,
    /// The enclosing span, or 0.
    pub parent: u32,
    /// Layer name, e.g. `synth` or `techmap.map`.
    pub name: &'static str,
    /// Library label of a mapping span (`tg_static`, `tg_pseudo`,
    /// `cmos`), empty otherwise.
    pub label: &'static str,
    /// Request id; spans of one request share it.
    pub req: u32,
    /// The client thread that made the call.
    pub client: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Where a span is recorded from: the request and client it belongs
/// to and its parent span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub req: u32,
    pub client: u32,
    pub parent: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context
    /// its own child spans are recorded under.
    pub fn span<R>(
        &self,
        name: &'static str,
        label: &'static str,
        ctx: Ctx,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        if !self.on {
            return f(ctx);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx { parent: id, ..ctx });
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent: ctx.parent,
            name,
            label,
            req: ctx.req,
            client: ctx.client,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Per-layer totals of a set of spans.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Total milliseconds per span name (and per `name_label` for
    /// labelled spans).
    pub total_ms: HashMap<String, f64>,
    /// Longest single span per name, milliseconds.
    pub max_ms: HashMap<String, f64>,
    /// Self time per name: duration minus the part of the interval its
    /// children cover, milliseconds.
    pub self_ms: HashMap<String, f64>,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> LayerTimes {
        let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut t = LayerTimes::default();
        for s in spans {
            let ms = s.ms();
            *t.total_ms.entry(s.name.to_string()).or_default() += ms;
            if !s.label.is_empty() {
                *t.total_ms
                    .entry(format!("{}_{}", s.name, s.label))
                    .or_default() += ms;
            }
            let max = t.max_ms.entry(s.name.to_string()).or_default();
            *max = max.max(ms);
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            *t.self_ms.entry(s.name.to_string()).or_default() +=
                (s.end_ns - s.start_ns - covered) as f64 / 1e6;
        }
        t
    }

    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn max(&self, name: &str) -> f64 {
        self.max_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `spans`.
fn covered_ns(spans: &[&Span], start: u64, end: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// The spans as a Chrome trace-event document; `config` (a JSON
/// object) is stored under `otherData`.
pub fn chrome_json(spans: &[Span], config: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":");
    out.push_str(config);
    out.push_str(",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},",
                "\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"label\":\"{}\"}}}}"
            ),
            s.name,
            s.client,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
            s.label
        ));
    }
    out.push_str("\n]}\n");
    out
}
