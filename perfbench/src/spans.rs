//! In-memory spans for the traced run: recorded around calls into each
//! layer's public functions, written out once at the end.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::Value;

use crate::common::median;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `lang.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Program, cell or request id the span belongs to.
    pub id: u32,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Work timed on other threads is
/// added afterwards with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, id: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.at(Instant::now());
        result
    }

    /// Adds a span timed elsewhere (on another thread, or a call whose
    /// timing is only kept when its result checks out), nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, id: u32, start: Instant, end: Instant) {
        self.record_with(name, id, start, end, |_| ());
    }

    /// [`Tracer::record`], keeping the new span open while `f` records
    /// its children.
    pub fn record_with<T>(
        &mut self,
        name: &'static str,
        id: u32,
        start: Instant,
        end: Instant,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let span = Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent: self.open.last().copied(),
            id,
        };
        self.spans.push(span);
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children from parallel work may overlap, so
    /// the covered part is the union of their intervals).
    pub fn self_ns(&self) -> Vec<u64> {
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
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time of the spans named `name`, milliseconds: the median
    /// over the spans that share an id (a call repeated on one program
    /// or cell), summed over ids.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut by_id: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                by_id.entry(s.id).or_default().push(ns as f64 / 1e6);
            }
        }
        by_id.values().map(|v| median(v)).sum()
    }

    /// Durations of all spans named `name`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span, with its self time, as a JSON array.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let self_ns = self.self_ns();
        let rows: Vec<Value> = self
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Value::map([
                    ("name", Value::String(s.name.to_string())),
                    ("id", Value::UInt(u64::from(s.id))),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("self_ns", Value::UInt(own)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Seq(rows)).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 10_000_000,
            parent: None,
            id: 0,
        });
        t.open.push(0);
        // Two overlapping children (parallel work) covering 2..7 ms,
        // and one disjoint child covering 8..9 ms.
        t.record("kid", 0, at(2), at(6));
        t.record("kid", 1, at(3), at(7));
        t.record("kid", 2, at(8), at(9));
        let own = t.self_ns();
        assert_eq!(own[0], 4_000_000);
        assert_eq!(own[1], 4_000_000);
        assert!((t.self_ms("kid") - 9.0).abs() < 1e-9);
        // Repeats of one id count once, at their median.
        t.record("kid", 2, at(9), at(10));
        t.record("kid", 2, at(9), at(10));
        assert!((t.self_ms("kid") - 9.0).abs() < 1e-9);
    }
}
