//! Span recording for the traced replay.
//!
//! Every call the replay makes into a layer's public function is wrapped in a
//! span: name, start, end, the enclosing span and the cycle (request or
//! repetition) it belongs to.  Spans stay in memory and are written out once,
//! when the run ends, so recording costs two clock reads and a push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::json;

use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cycle: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, cycle: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cycle,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, cycle: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, cycle);
        let out = f();
        self.exit(id);
        out
    }

    /// Median duration in milliseconds of the spans called `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        assert!(!durations.is_empty(), "no span named {name}");
        median(&durations)
    }

    /// Median over spans called `root` of the summed durations of their
    /// direct children whose names are in `children`.
    pub fn median_child_sum_ms(&self, root: &str, children: &[&str]) -> f64 {
        let sums: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(id) && children.contains(&c.name))
                    .map(Span::ms)
                    .sum()
            })
            .collect();
        assert!(!sums.is_empty(), "no span named {root}");
        median(&sums)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = json!({
                "id": id,
                "name": span.name,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "parent": span.parent,
                "cycle": span.cycle,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("span serializes")
            )?;
        }
        out.flush()
    }
}
