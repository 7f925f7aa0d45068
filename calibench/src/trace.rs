//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public function in a span (name, start, end,
//! parent, run id), keeps them in memory and writes them out at the
//! end. A disabled tracer runs the same closures without recording, so
//! the traced and untraced compositions execute identical code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer prefixes whose spans count towards coverage.
pub const LAYERS: &[&str] = &["format", "query", "runtime", "served", "mpisim", "cli"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a no-op wrapper when
    /// disabled). Returns the span index when recorded.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Index of the most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.borrow().iter().rposition(|s| s.name == name)
    }

    /// Duration of span `idx` in seconds.
    pub fn secs(&self, idx: usize) -> f64 {
        self.spans.borrow()[idx].dur_ns() as f64 / 1e9
    }

    /// Per-name total durations under the root span `root`, plus the
    /// root's duration and its layer coverage: the sum of layer-span
    /// self time (duration minus the children's) over the root's
    /// duration.
    pub fn summarize(&self, root: usize) -> Summary {
        let spans = self.spans.borrow();
        let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        let mut inside = vec![false; spans.len()];
        inside[root] = true;
        for (i, s) in spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[i] = true;
                    self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
                }
            }
        }
        let mut total_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut layer_self = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if !inside[i] || i == root {
                continue;
            }
            *total_ns.entry(s.name.clone()).or_default() += s.dur_ns();
            if is_layer(&s.name) {
                layer_self += self_ns[i];
            }
        }
        let wall_ns = spans[root].dur_ns();
        Summary {
            total_ns,
            wall_s: wall_ns as f64 / 1e9,
            coverage: layer_self as f64 / wall_ns.max(1) as f64,
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

fn is_layer(name: &str) -> bool {
    name.split('.')
        .next()
        .is_some_and(|head| LAYERS.contains(&head))
}

#[derive(Debug, Default)]
pub struct Summary {
    total_ns: BTreeMap<String, u64>,
    pub wall_s: f64,
    pub coverage: f64,
}

impl Summary {
    /// Total time of spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.total_ns.get(name).map_or(0.0, |&t| t as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_sums_layer_self_time_over_the_root() {
        let t = Tracer::new(true, 1);
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run: 1,
        };
        t.spans.borrow_mut().extend([
            span("bench.root", 0, 100, None),
            span("query.outer", 10, 70, Some(0)),
            span("format.decode", 20, 50, Some(1)),
            span("bench.gap", 80, 90, Some(0)),
        ]);
        let s = t.summarize(0);
        // Layer self time: query.outer 60 - 30, format.decode 30.
        assert_eq!(s.coverage, 0.6);
        assert_eq!(s.total_ns("query.outer"), 60.0);
        assert_eq!(s.total_ns("bench.gap"), 10.0);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true, 1);
        t.span("bench.root", || t.span("query.inner", || ()));
        let inner = t.last("query.inner").unwrap();
        assert_eq!(t.spans.borrow()[inner].parent, t.last("bench.root"));
        let disabled = Tracer::new(false, 2);
        assert_eq!(disabled.span("x", || 7), 7);
        assert!(disabled.last("x").is_none());
    }
}
