//! Wall-clock timing of the benchmark's calls into `mbus-core`, with
//! optional in-memory spans.
//!
//! Every timed call goes through [`Tracer::time`], traced or not, so the
//! untraced path pays exactly two `Instant::now()` reads per call and
//! the traced path adds only a `Vec` push. Spans are written out once,
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer was
/// created, the enclosing span, and which workload replay it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`fleet.instantiate`, `report.signature`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration: 0 while inputs are generated, then one per replay
    /// (the warm-up is 1) and one per probe round.
    pub iteration: u64,
}

/// Times calls and, while [`Tracer::on`] is set, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    /// Whether [`Tracer::time`] records spans.
    pub on: bool,
    /// Iteration stamped on spans recorded from now on.
    pub iteration: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with recording `on` or off.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            iteration: 0,
            // WALL-CLOCK: span timestamps are reported, never simulated.
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f`, returning its result and its wall time in seconds, and
    /// records a span named `name` around it when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let recording = self.on;
        // WALL-CLOCK: host time of the call, reported only.
        let start = Instant::now();
        if recording {
            let span = Span {
                name,
                start_ns: self.nanos(start),
                end_ns: 0,
                parent: self.open.last().copied(),
                iteration: self.iteration,
            };
            self.open.push(self.spans.len());
            self.spans.push(span);
        }
        let out = f(self);
        // WALL-CLOCK: host time of the call, reported only.
        let end = Instant::now();
        if recording {
            let idx = self.open.pop().expect("span stack balanced");
            self.spans[idx].end_ns = self.nanos(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Forgets spans left open by a replay that panicked.
    pub fn unwind(&mut self) {
        self.open.clear();
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, each tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"iteration\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_order() {
        let mut t = Tracer::new(true);
        t.iteration = 3;
        let ((), outer) = t.time("outer", |t| {
            t.time("inner", |_| ());
        });
        assert!(outer >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].iteration, 3);
        assert!(t.to_jsonl("w").contains("\"parent\":0,\"workload\":\"w\""));
    }

    #[test]
    fn untraced_calls_are_timed_but_not_recorded() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
