//! Spans around calls into each layer, kept in memory and written out
//! when the benchmark ends. Per-layer metrics are sums, medians and counts
//! over these spans.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the run began.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records spans when enabled; otherwise every method is a pass-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run`, recording only when `on`.
    pub fn new(on: bool, run: String) -> Tracer {
        Tracer {
            on,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced reference passes).
    pub fn off() -> Tracer {
        Tracer::new(false, String::new())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Adds a span timed elsewhere (on a client thread), nested under the
    /// innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
            });
        }
    }

    fn durations(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations(name).collect()
    }

    /// Total ms over every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).fold(0.0, |sum, ms| sum + ms)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations(name).count()
    }

    /// Writes one JSON object per span to `path`:
    /// `{"run", "id", "parent", "name", "start_ns", "end_ns"}`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
