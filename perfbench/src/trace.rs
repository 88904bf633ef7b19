//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), the index of its parent span and a request id. Spans are kept
//! in a vector and only read when the run ends. A span's *self time* is
//! its duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `eval.evaluate`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub req: u64,
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`. The span's
    /// parent is whichever span is open when it starts.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Append another tracer's spans (e.g. from a second thread).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start).saturating_sub(covered(s.start, s.end, kids)))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-layer totals: summed self time (ns) and span count, by name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Share of root-span wall time that no child span covers.
pub fn uncovered_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut wall) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        if s.name == root && s.parent.is_none() {
            own += t;
            wall += s.end - s.start;
        }
    }
    if wall == 0 {
        0.0
    } else {
        own as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100) with children [10,30) and [40,90); the second
        // child has a grandchild [50,60).
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // The self times of a tree add up to the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert!((uncovered_share(&spans, "request") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10,70) and [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_by_name_and_live_nesting() {
        let mut t = Tracer::new();
        t.span("request", 1, |t| {
            t.span("x", 1, |_| ());
            t.span("x", 1, |_| ());
        });
        t.span("request", 2, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let by = self_time_by_name(spans);
        assert_eq!(by["x"].1, 2);
        assert_eq!(by["request"].1, 2);
        let total: u64 = by.values().map(|v| v.0).sum();
        let wall: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        assert_eq!(total, wall);
    }
}
