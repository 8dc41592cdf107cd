//! In-memory spans for the traced run.
//!
//! The traced run records a span around each call the benchmark makes
//! into a layer: a pass over a grid, a grid row, `Runner::prepare`,
//! `System::run`, a server job and its accept / execute / reply stages.
//! Spans stay in memory while the run measures and are written once,
//! after it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell, row or job this span belongs to.
    pub id: u64,
}

/// A span recorder. A disabled recorder keeps nothing, so untraced runs
/// pay one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn since(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.since(start),
            end_ns: self.since(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.since(Instant::now());
        }
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(r#"{{"workload":"{workload}","seed":{seed},"spans":["#);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":"#,
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, r#","id":{}}}"#, s.id);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        let pass = a.open("pass", None, 0);
        let t = Instant::now();
        let cell = a.record("sim.run", t, t, pass, 7);
        a.close(pass);
        assert_eq!((pass, cell), (Some(0), Some(1)));
        let job = a.open("server.job", None, 3);
        a.record("server.accept", t, t, job, 3);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));

        let json = a.to_json("figures", 1);
        hmp_sim::export::validate_json(json.trim_end()).expect("span JSON is well formed");
        assert!(json.contains(r#""name":"sim.run","#));
        assert!(json.contains(r#""parent":null"#));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let span = t.open("pass", None, 0);
        t.close(span);
        assert_eq!((span, t.len()), (None, 0));
    }
}
