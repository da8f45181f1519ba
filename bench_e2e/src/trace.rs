//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans nest by a stack, carry the id of the operation that caused
//! them, and are written out (with self time) only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `core.sql`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent: self.stack.last().copied(), start_ns, end_ns: 0 });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close innermost
    /// first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.op,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own as f64 / 1e3
            )?;
        }
        w.flush()
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { name, op: 0, parent, start_ns, end_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        t.push_raw("op", None, 0, 100);
        t.push_raw("a", Some(0), 10, 30); // 20
        t.push_raw("b", Some(0), 25, 50); // overlaps a: adds 20
        t.push_raw("c", Some(0), 90, 120); // clipped to the parent: adds 10
        t.push_raw("leaf", Some(1), 12, 18);
        assert_eq!(t.self_times_ns(), vec![50, 14, 25, 30, 6]);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["op"], (50, 1));
        assert_eq!(by_name["leaf"], (6, 1));
    }

    #[test]
    fn begin_end_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7);
        let child = t.begin("core.sql", 7);
        t.end(child);
        t.end(op);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
        let own = t.self_times_ns();
        assert_eq!(own[0] + t.spans()[1].dur_ns(), t.spans()[0].dur_ns());

        let mut off = Tracer::new(false);
        let s = off.begin("op", 1);
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
