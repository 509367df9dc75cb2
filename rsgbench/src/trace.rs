//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end relative to a
//! shared epoch, its parent span, the operation it belongs to and the
//! thread that recorded it. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id, unique within a merged trace.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (or serve job) the span belongs to.
    pub op: u64,
    /// Recording thread, in merge order.
    pub thread: usize,
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: String,
    /// Nanoseconds since the epoch.
    pub start_ns: u64,
    /// Nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; every tracer of one run shares `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    /// A recording tracer for another thread, sharing this one's epoch
    /// (off when this one is off); [`Tracer::merge`] joins it back.
    pub fn child(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Sets the operation id stamped on the following spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// through the same tracer become its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            thread: 0,
            name: name.to_owned(),
            start_ns: nanos_since(epoch),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = nanos_since(epoch);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far; `spans()[mark..]` are the spans
    /// recorded after a call that returned `mark`.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans, renumbering their ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let thread = self.spans.iter().map(|s| s.thread + 1).max().unwrap_or(0);
        for mut span in other.spans {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            span.thread = thread;
            self.spans.push(span);
        }
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sum of span durations per name, over `spans`.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0.0) += s.secs();
    }
    out
}

/// Self time per layer: each span's duration minus the part its
/// children cover, summed by layer. Ids must index `spans` (as they do
/// for a slice taken from one tracer, or one merged trace).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child_ns.get_mut(p) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
        *out.entry(s.layer().to_owned()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The span file: one JSON object per line.
pub fn span_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"thread\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.op, s.thread, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            thread: 0,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "op.chip", 0, 100),
            span(1, Some(0), "leaf.compact", 10, 30),
            span(2, Some(0), "hier.compact", 30, 90),
            span(3, Some(2), "layout.flatten", 40, 50),
        ];
        let own = self_time_by_layer(&spans);
        assert!((own["op"] - 20e-9).abs() < 1e-15);
        assert!((own["leaf"] - 20e-9).abs() < 1e-15);
        assert!((own["hier"] - 50e-9).abs() < 1e-15);
        assert!((own["layout"] - 10e-9).abs() < 1e-15);
        assert!((total_by_name(&spans)["hier.compact"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        a.set_op(7);
        let v = a.span("op.x", |t| t.span("layout.drc", |_| 5));
        assert_eq!(v, 5);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[1].op, 7);
        let mut b = Tracer::on(epoch);
        b.span("serve.job", |t| t.span("serve.fetch", |_| ()));
        a.merge(b);
        assert_eq!(a.spans()[3].id, 3);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].thread, 1);
        assert!(span_lines(a.spans()).lines().count() == 4);

        let mut off = Tracer::off();
        assert_eq!(off.span("op.x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
