//! Spans around the benchmark's calls into each layer, and the counts
//! measured at the same boundaries.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! statement it belongs to. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the trace began.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub stmt: u64,
}

/// The span recorder of one traced replay, plus its counters.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Open a root span `name` for request `id` around `f`.
    pub fn root<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Trace) -> T) -> T {
        self.stmt = id;
        self.span(name, f)
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, µs, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_insert((0.0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"stmt\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.stmt, s.name, s.start_us, s.end_us
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent), µs.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("stmt", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            // Overlaps `a`: the shared 10 µs are covered once.
            span("b", 20.0, 40.0, Some(0)),
            span("c", 50.0, 60.0, Some(0)),
            // Grandchild: charged to `c`, not to the root.
            span("d", 52.0, 55.0, Some(3)),
            // Runs past its parent's end: only the inside part counts.
            span("e", 90.0, 120.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - (30.0 + 10.0 + 10.0));
        assert_eq!(own[1], 20.0);
        assert_eq!(own[3], 10.0 - 3.0);
        assert_eq!(own[4], 3.0);
        assert_eq!(own[5], 30.0);
    }

    #[test]
    fn recorder_nests_spans_and_sums_self_time_per_name() {
        let mut t = Trace::new();
        t.root("stmt", 7, |t| {
            t.span("outer", |t| {
                t.span("inner", |_| std::hint::black_box(1 + 1));
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.stmt == 7 && s.end_us >= s.start_us));
        let by_name = t.self_times();
        assert_eq!(by_name["inner"].1, 2);
        let total: f64 = by_name.values().map(|v| v.0).sum();
        let root = spans[0].end_us - spans[0].start_us;
        assert!(
            (total - root).abs() < 1e-6,
            "self times {total} != root {root}"
        );
        t.count("x", 2.0);
        t.count("x", 3.0);
        assert_eq!(t.counter("x"), 5.0);
        assert_eq!(t.counter("missing"), 0.0);
    }
}
