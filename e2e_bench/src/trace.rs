//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start and end (nanoseconds from the tracer's
//! origin), the span that caused it, and a request id shared by every
//! span of one request. Spans stay in memory while the workload runs and
//! are written out once it ends. A disabled tracer records nothing and
//! costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the tracer (ids start at 1).
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// Request id shared by the spans of one request.
    pub request: u64,
    /// Layer-qualified call name, e.g. `serve.retrieve`.
    pub name: &'static str,
    /// Start, nanoseconds from the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer origin.
    pub end_ns: u64,
}

/// Per-name totals: calls, inclusive time and self time (inclusive time
/// minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations, milliseconds.
    pub total_ms: f64,
    /// Summed self time, milliseconds.
    pub self_ms: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span. `f` receives the span id (0 when
    /// disabled) to pass to child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Allocates a span id ahead of [`Tracer::record`], so children can
    /// name a parent whose interval is not closed yet. 0 when disabled.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records span `id` (from [`Tracer::reserve`]) over an interval the
    /// caller measured.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name. A child's time counts against its direct
/// parent only; children of one parent do not overlap in this
/// benchmark (each parent makes its calls sequentially).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = table.entry(s.name).or_default();
        row.calls += 1;
        row.total_ms += total as f64 / 1e6;
        row.self_ms += own as f64 / 1e6;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(2, Some(1), "child", 10, 40),
            span(3, Some(2), "grandchild", 15, 25),
            span(4, Some(1), "child", 50, 60),
            span(1, None, "root", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].calls, 1);
        assert!((t["root"].total_ms - 100e-6).abs() < 1e-12);
        assert!((t["root"].self_ms - 60e-6).abs() < 1e-12);
        assert_eq!(t["child"].calls, 2);
        assert!((t["child"].self_ms - 30e-6).abs() < 1e-12);
        assert!((t["grandchild"].self_ms - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x", None, 0, |id| id + 5);
        assert_eq!(v, 5);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
