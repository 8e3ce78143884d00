//! The benchmark's own span recorder.
//!
//! Every timed call the benchmark makes into a layer is wrapped in a
//! span: name, start, end, parent span and request id. Spans are kept
//! in memory and written out once, when the run ends. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover; the per-layer metrics are aggregates of those
//! self times, grouped by span name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span (`ROOT` for a top-level span). Ids are
    /// 1-based positions in the recorder.
    pub parent: u32,
    /// The request the span belongs to (`u64::MAX` for set-up work).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` under `parent`; returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Time `f`, record it as a span, and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Open a span whose end is not known yet (a parent of later
    /// spans); close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.offset(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Per-name self-time statistics: for each span, its duration minus
    /// the union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_length(kids, s.start_ns, s.end_ns);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += s.duration_ns() - covered;
        }
        out
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                if s.request == u64::MAX { -1i128 } else { s.request as i128 }
            )?;
        }
        out.flush()
    }
}

/// Aggregated timing of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 * 1e-3
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let parent = r.record("p", ROOT, 0, at(0), at(100));
        r.record("c", parent, 0, at(10), at(40));
        r.record("c", parent, 0, at(30), at(60));
        r.record("c", parent, 0, at(90), at(150));
        let t = r.self_times();
        // Children cover [10, 60] and [90, 100] inside the parent.
        assert_eq!(t["p"].self_ns, 100 - 50 - 10);
        assert_eq!(t["c"].count, 3);
    }
}
