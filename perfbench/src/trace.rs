//! In-memory spans recorded around the benchmark's own calls into each
//! layer: name, start, end, parent and request id. Nothing is written
//! until [`Tracer::write_jsonl`] runs at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Span store of one thread. A disabled tracer records nothing, so the
/// untraced code path pays one branch per call.
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new() }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, start, end, parent, req });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children may
    /// name it as their parent in between.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = Instant::now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Appends `other`'s spans (from another thread), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every child span must lie inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let p = &self.spans[p];
                if s.start < p.start || s.end > p.end || s.req != p.req {
                    return Err(format!("span {i} ({}) escapes its parent ({})", s.name, p.name));
                }
            }
        }
        Ok(())
    }

    /// Per span name: (count, total self time in ms), where a span's self
    /// time is its duration minus what its children cover. Children of
    /// one parent never overlap here: each thread records its own spans
    /// in call order.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ms) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms() - c;
        }
        out
    }

    /// Writes one JSON object per span, times in µs since the run began.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.req
            )?;
        }
        w.flush()
    }
}
