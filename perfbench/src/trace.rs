//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic over them.
//!
//! A span is named `<layer>.<call>`; the `bench` layer marks the
//! benchmark's own per-unit root spans, so its self time is harness
//! overhead and everything else is time spent inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Layer name of the benchmark's own root spans.
pub const BENCH_LAYER: &str = "bench";

/// One recorded call: `[start_ns, end_ns)` from the tracer's origin,
/// with the index of the span that was open around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread. A disabled tracer records
/// nothing and never reads the clock, so the untraced run can share the
/// traced run's code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before the
    /// matching [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total time of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Duration of each span named `name`, in ns, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per layer, in ns: each span's duration minus the part of
/// it that its child spans cover (overlapping children are counted
/// once).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let own = (s.end_ns - s.start_ns) - covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Share of `wall_ns` covered by spans inside the program (every layer
/// but [`BENCH_LAYER`]).
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let inner: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer() != BENCH_LAYER)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    if wall_ns == 0 {
        return 0.0;
    }
    covered_ns(&inner, 0, u64::MAX) as f64 / wall_ns as f64
}

/// Writes one JSON object per span: id, name, start, end, parent.
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(covered_ns(&[(0, 10), (2, 4)], 0, 100), 10);
        assert_eq!(covered_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A 100 ns root with two children that overlap on [40, 60) and a
        // third that runs past the root's end: the children cover
        // [20, 80) ∪ [90, 100) = 70 ns of the root.
        let spans = vec![
            span("bench.round", 0, 100, None),
            span("client.frame", 20, 60, Some(0)),
            span("pipeline.submit", 40, 80, Some(0)),
            span("pipeline.finish", 90, 110, Some(0)),
            // A grandchild counts against its parent only.
            span("service.ingest", 45, 50, Some(2)),
        ];
        let own = self_ns_by_layer(&spans);
        assert_eq!(own["bench"], 30);
        assert_eq!(own["client"], 40);
        assert_eq!(own["pipeline"], 35 + 20);
        assert_eq!(own["service"], 5);
        // Inner spans cover [20, 80) ∪ [90, 110) of a 110 ns wall.
        assert!((coverage(&spans, 110) - 80.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.enter("bench.unit");
        let x = tr.call("client.frames", || 7);
        tr.exit();
        assert_eq!(x, 7);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[1].end_ns <= tr.spans()[0].end_ns);
        let mut buf = Vec::new();
        write_spans(tr.spans(), &mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains(r#""name": "client.frames""#));

        let mut off = Tracer::new(false);
        off.enter("bench.unit");
        off.call("client.frames", || ());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
