//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one run share the run id. They are kept in memory and
//! written out once, when the run ends. Nothing here reaches into the
//! program: a span covers exactly one call the benchmark makes.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of "no span": a root's parent, or any span while
    /// tracing is off.
    pub const NONE: SpanId = SpanId(None);
}

/// One closed (or still open, `end_ns == None`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span covers, e.g. `"simulate"`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `None` while open.
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds (`0` while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// In-memory span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for the run `run_id`; records nothing unless `enabled`.
    pub fn new(run_id: String, enabled: bool) -> Tracer {
        Tracer {
            run_id,
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` caused by `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: parent.0,
            start_ns,
            end_ns: None,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&mut self, span: SpanId) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = Some(self.origin.elapsed().as_nanos() as u64);
        }
    }

    /// Records a span timed elsewhere (e.g. on a client thread) from its
    /// start and end instants.
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: parent.0,
            start_ns: ns(start),
            end_ns: Some(ns(end)),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds, sorted by name.
    pub fn self_seconds_by_name(&self) -> Vec<(&'static str, f64)> {
        let selfs = self_times_ns(&self.spans);
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ns as f64 * 1e-9,
                None => by_name.push((span.name, ns as f64 * 1e-9)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(b.0));
        by_name
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\": \"{}\", \"spans\": [", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {i}, \"run_id\": \"{}\", \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {end}}}",
                self.run_id, s.name, s.start_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap each other are counted
/// once, and a child running past its parent is clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let Some(end) = s.end_ns else { return 0 };
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .filter_map(|&k| {
                    let c = &spans[k];
                    let lo = c.start_ns.max(s.start_ns);
                    let hi = c.end_ns?.min(end);
                    (hi > lo).then_some((lo, hi))
                })
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in cover {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", None, 0, 100),
            span("load", Some(0), 10, 30),
            span("simulate", Some(0), 40, 90),
            span("replay", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("run", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("run", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn open_span_has_no_self_time() {
        let spans = vec![Span {
            name: "open",
            parent: None,
            start_ns: 5,
            end_ns: None,
        }];
        assert_eq!(self_times_ns(&spans), vec![0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("r".into(), false);
        let outer = t.begin("outer", SpanId::NONE);
        assert_eq!(t.span("inner", outer, || 7), 7);
        t.end(outer);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new("r".into(), true);
        let outer = t.begin("outer", SpanId::NONE);
        t.span("inner", outer, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.end_ns.is_some()));
        let names: Vec<_> = t.self_seconds_by_name().into_iter().map(|x| x.0).collect();
        assert_eq!(names, vec!["inner", "outer"]);
        assert!(t.to_json().contains("\"run_id\": \"r\""));
    }
}
