//! In-memory span recording for the traced run.
//!
//! A span is one timed call from the benchmark's own code into a layer
//! of the program: its name, start, end, the span that caused it and
//! the query it served. Spans stay in memory while the run measures and
//! are written out, one JSON object per line, when it ends. A disabled
//! tracer records nothing, so the untraced run takes the same code path
//! minus the clock reads.
//!
//! Calls too frequent to record one by one (the ~12 000 request
//! deliveries of one interactive query) are recorded as one aggregate
//! span: it starts where the first call started, lasts as long as all
//! calls together, and counts them in `calls`.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span's identifier; `0` means "none" (no parent, or tracing off).
pub type SpanId = u32;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The query this call served; `0` for set-up and replay work.
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls this span stands for (1, or more for an aggregate span).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "a span is recorded only when it is passed to `Tracer::end`"]
pub struct OpenSpan {
    pub id: SpanId,
    parent: SpanId,
    query: u32,
    name: &'static str,
    start: Option<Instant>,
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    // The query and parent span that calls made on other threads (the
    // players' message closures) belong to.
    context_query: AtomicU32,
    context_parent: AtomicU32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            context_query: AtomicU32::new(0),
            context_parent: AtomicU32::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        // Relaxed: the flag publishes no data; it is flipped between
        // measurement phases while no traced call is in flight.
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name`; calls made until the matching
    /// [`end`](Self::end) can name its `id` as their parent.
    pub fn begin(&self, name: &'static str, parent: SpanId, query: u32) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan {
                id: 0,
                parent,
                query,
                name,
                start: None,
            };
        }
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            query,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Closes `open` and records it (nothing, if it was opened while
    /// tracing was off).
    pub fn end(&self, open: OpenSpan) {
        let Some(start) = open.start else {
            return;
        };
        let end = Instant::now();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            query: open.query,
            name: open.name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls: 1,
        });
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        query: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let open = self.begin(name, parent, query);
        let out = f(open.id);
        self.end(open);
        out
    }

    /// Records an aggregate span of `calls` calls that together took
    /// `busy_ns`, the first of which started at `first_start`.
    pub fn aggregate(
        &self,
        name: &'static str,
        parent: SpanId,
        query: u32,
        first_start: Instant,
        busy_ns: u64,
        calls: u64,
    ) {
        if !self.enabled() || calls == 0 {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.ns(first_start);
        self.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Names the query and parent span for calls made on other threads.
    pub fn set_context(&self, query: u32, parent: SpanId) {
        self.context_query.store(query, Ordering::SeqCst);
        self.context_parent.store(parent, Ordering::SeqCst);
    }

    /// The `(query, parent)` set by [`set_context`](Self::set_context).
    pub fn context(&self) -> (u32, SpanId) {
        (
            self.context_query.load(Ordering::SeqCst),
            self.context_parent.load(Ordering::SeqCst),
        )
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Read-side view of a finished trace.
pub struct Trace {
    spans: Vec<Span>,
    children: HashMap<SpanId, Vec<usize>>,
}

impl Trace {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Trace { spans, children }
    }

    /// Duration of `span` minus the part of it its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let mut cover: Vec<(u64, u64)> = self
            .children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns().saturating_sub(covered)
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// For each query with at least one span named `name`, the summed
    /// duration of those spans in milliseconds, by query id.
    pub fn by_query_ms(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut sums = BTreeMap::new();
        for s in self.named(name).filter(|s| s.query != 0) {
            *sums.entry(s.query).or_default() += s.dur_ns() as f64 / 1e6;
        }
        sums
    }

    /// [`by_query_ms`](Self::by_query_ms) without the query ids.
    pub fn per_query_ms(&self, name: &str) -> Vec<f64> {
        self.by_query_ms(name).into_values().collect()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Percentage of the time inside spans named `root` that none of
    /// their children covers.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let (mut total, mut bare) = (0u64, 0u64);
        for s in self.named(root) {
            total += s.dur_ns();
            bare += self.self_ns(s);
        }
        if total == 0 {
            0.0
        } else {
            100.0 * bare as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace::new(vec![
            span("query", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("a", 3, 1, 20, 40),  // overlaps span 2
            span("b", 4, 1, 90, 120), // runs past the parent's end
            span("c", 5, 2, 12, 14),  // a grandchild is not a child
        ]);
        assert_eq!(trace.self_ns(&trace.spans[0]), 100 - 30 - 10);
        assert_eq!(trace.self_ns(&trace.spans[1]), 20 - 2);
        assert!((trace.unattributed_pct("query") - 60.0).abs() < 1e-9);
        assert_eq!(trace.per_query_ms("a"), vec![40.0 / 1e6]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, |id| id), 0);
        t.set_enabled(true);
        assert_ne!(t.span("x", 0, 1, |id| id), 0);
        assert_eq!(t.spans().len(), 1);
    }
}
