//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval with the id of the step (batch) or
//! submission (serve) it belongs to and the span that enclosed it. Spans
//! stay in memory while the benchmark runs and are written out as JSONL
//! at the end. A layer's self time is its span's duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant the tracer's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere (inside a callback) to the
    /// tracer's clock.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let start = self.now();
        let index = self.record(name, id, start, start);
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("exit without enter");
        self.spans[index as usize].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Records a finished span under the innermost open one. Callbacks that
    /// fire once per chunk are recorded this way as one span whose length
    /// is the sum of the callback times, starting at the first callback.
    /// Returns the new span's index.
    pub fn record(&mut self, name: &'static str, id: u64, start: u64, end: u64) -> u32 {
        self.record_under(self.open.last().copied(), name, id, start, end)
    }

    /// Records a finished span under an explicit parent.
    pub fn record_under(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        id: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        self.spans.len() as u32 - 1
    }

    /// Appends another tracer's finished spans (another thread's).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let shift = self.at(other.origin);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            start: s.start + shift,
            end: s.end + shift,
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent as usize] += span.end - span.start;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *totals.entry(span.name).or_insert(0) +=
                (span.end - span.start).saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.id, span.start, span.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(Instant::now());
        let outer = tracer.record("outer", 1, 0, 100);
        tracer.record_under(Some(outer), "inner", 1, 10, 40);
        let times = tracer.self_times();
        assert_eq!(times["outer"], 70);
        assert_eq!(times["inner"], 30);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
