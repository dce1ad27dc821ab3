//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Spans are kept in memory per thread and merged and written out when
//! the run ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The benchmark's operation id (0 for barrier and maintenance work).
    pub op: u64,
}

/// An opened span; [`Tracer::close`] records it, dropping it records
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    op: u64,
}

/// A per-thread span recorder. While off it records nothing and reads no
/// clock; ids stay unique across threads through a per-thread prefix.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(thread: u64, epoch: Instant) -> Self {
        Self {
            on: false,
            epoch,
            next: (thread + 1) << 40,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns `None` while tracing is off.
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> Option<Open> {
        if !self.on {
            return None;
        }
        self.next += 1;
        let start = self.now();
        Some(Open {
            id: self.next,
            parent,
            name,
            start,
            op,
        })
    }

    pub fn close(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            let end = self.now();
            self.close_at(Some(o), end);
        }
    }

    pub fn close_at(&mut self, open: Option<Open>, end: u64) {
        if let Some(o) = open {
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                start: o.start,
                end: end.max(o.start),
                op: o.op,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let o = self.open(name, parent, op);
        let out = f();
        self.close(o);
        out
    }
}

/// Parent id of an opened span's children (0 when tracing is off).
pub fn id_of(open: &Option<Open>) -> u64 {
    open.map_or(0, |o| o.id)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.name, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
            s.id, s.parent, s.name, s.start, s.end, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start,
            end,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 1, 90, 120),
            span(5, 2, 10, 15),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0].1, 100 - 30 - 10);
        assert_eq!(t[1].1, 15);
        assert_eq!(t[4].1, 5);
    }
}
