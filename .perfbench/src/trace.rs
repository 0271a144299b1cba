//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on one monotonic clock, the index of
//! the span that caused it, and the id of the request (serving) or step
//! (training) it belongs to. Spans are kept in memory and written as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part of its interval that its children cover, so children that ran
//! concurrently on pool threads are not subtracted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    id: u64,
}

/// A span's timing taken on another thread, attached to a parent later.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Run `f` and return its result with the span timing.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Timed) {
    let start = Instant::now();
    let r = f();
    (
        r,
        Timed {
            name,
            start,
            end: Instant::now(),
        },
    )
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(&mut self, t: Timed, parent: Option<usize>, id: u64) -> usize {
        self.spans.push(Span {
            name: t.name,
            start: self.ns(t.start),
            end: self.ns(t.end),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Total self time in nanoseconds and span count, per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = covered_within(kids, s.start, s.end);
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start) - covered;
            e.1 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            id: 0,
        };
        r.spans.push(span("parent", 0, 100, None));
        // Two overlapping children (10..40 and 30..60) cover 50 ns.
        r.spans.push(span("child", 10, 40, Some(0)));
        r.spans.push(span("child", 30, 60, Some(0)));
        let t = r.self_times();
        assert_eq!(t["parent"], (50, 1));
        assert_eq!(t["child"], (60, 2));
    }
}
