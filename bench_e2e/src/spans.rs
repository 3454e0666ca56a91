//! In-memory spans for the traced run.
//!
//! The benchmark records spans from its own side of each call into a
//! layer: name, start, end, the span that caused it, and the request it
//! belongs to.  Nothing is written until the run ends.  A call shorter
//! than about a microsecond is not given a span of its own — the clock
//! reads would cost as much as the call — but shares one span with the
//! other calls of its batch (`calls` says how many).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Calls sharing one span when a single call is too short to time.
pub const BATCH: usize = 256;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    /// Request id shared by the spans of one request (its sequence
    /// position); batches and rungs carry their first position.
    request: u64,
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// Inclusive and self time of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Total {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part child spans cover and minus the measured
    /// cost of recording those children.
    pub self_ns: u64,
}

impl Total {
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    pub fn total_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// What opening and closing one empty span costs, measured at start-up
    /// and subtracted from a parent's self time once per child.
    pub span_cost_ns: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        let mut recorder = Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            span_cost_ns: 0,
        };
        const PROBES: u32 = 100_000;
        let start = Instant::now();
        for _ in 0..PROBES {
            let id = recorder.open("calibrate", 0);
            recorder.close(id, 1);
        }
        recorder.span_cost_ns = (start.elapsed().as_nanos() / u128::from(PROBES)) as u64;
        recorder.spans.clear();
        recorder
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            calls: 0,
        });
        SpanId(id)
    }

    /// As [`Recorder::close`], naming the span by how the call turned out
    /// (a lookup is a hit or a miss only once it has returned).
    pub fn close_as(&mut self, id: SpanId, name: &'static str, calls: u32) {
        self.spans[id.0 as usize].name = name;
        self.close(id, calls);
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId, calls: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time = span − children.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                children_ns[span.parent as usize] += span.duration_ns() + self.span_cost_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, &covered) in self.spans.iter().zip(&children_ns) {
            let total = totals.entry(span.name).or_default();
            total.spans += 1;
            total.calls += u64::from(span.calls);
            total.total_ns += span.duration_ns();
            total.self_ns += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`
    /// (line number of the causing span, or null), `request`, `calls`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "null".to_owned()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"calls\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.request, span.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut recorder = Recorder::new();
        recorder.span_cost_ns = 0;
        let outer = recorder.open("outer", 7);
        let inner = recorder.open("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        recorder.close(inner, 1);
        recorder.close(outer, 1);
        let totals = recorder.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(recorder.spans()[1].parent, 0);
        assert_eq!(recorder.spans()[0].parent, NO_PARENT);
    }
}
