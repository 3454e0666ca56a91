//! The four workloads: what each sends, and why it exists.
//!
//! A workload is a deterministic function of the seed: the seed picks the
//! trace, and the request at position `i` of the sequence is trace record
//! `i mod n` with its timestamp shifted by `i div n` trace spans (so a
//! replayed trace keeps logical time strictly increasing).  One closed-loop
//! caller sends the positions in order — analyst sessions wait for their
//! answer, so the loop is closed and there is no fixed-rate ladder; what
//! varies with the machine is only how far along the sequence a timed phase
//! gets.
//!
//! One caller, not one per core: two connections, two server workers and the
//! reactor are five threads on the reference container's two CPUs, and which
//! of them the kernel runs beside which decided the result (the same binary
//! read 305k and 475k requests/s).  One connection to a one-worker server,
//! everything on one CPU ([`crate::pin`]), repeats to a few percent.

use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::layers::{Query, Trace, TraceKind};

/// `--seconds` when the flag is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 16.0;

/// Requests the traced run and the ladder replay cover, per workload.
pub const TRACED_REQUESTS: usize = 50_000;

#[derive(Clone, Copy)]
pub enum Cache {
    Bytes(u64),
    /// The paper's configuration: this share of `database_bytes`.
    DatabasePercent(u64),
}

/// How one repeat's timed phase ends, and so how many repeats a run makes.
#[derive(Clone, Copy)]
pub enum Phase {
    /// For a workload whose cost per request is steady once warm: the run
    /// makes this many repeats and each is timed for an equal share of
    /// `--seconds`.
    Share { repeats: usize },
    /// For a workload whose cost per request depends on how far along the
    /// trace it is: every repeat times exactly these many requests, so that
    /// every repeat measures the same stretch of its trace however fast the
    /// machine is, and the run goes on making repeats until their timed
    /// phases add up to `--seconds`.
    Requests(usize),
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `false`: no sockets, the engine is called directly.
    pub wire: bool,
    pub trace: TraceKind,
    /// Trace length in queries.
    pub queries: usize,
    /// Sequence positions sent before timing starts.
    pub warmup: usize,
    pub cache: Cache,
    /// Requests per `get_many` round trip.
    pub pipeline: usize,
    /// `payload_prefix_cap` of every `GET` (0 = metrics only).
    pub payload_cap: u32,
    /// One `INVALIDATE` after every this many requests (0 = never).
    pub invalidate_every: usize,
    /// Whether a replay of the trace sends new keys.  A machine (or a later
    /// PR) fast enough to exhaust the trace inside a timed phase starts it
    /// again; replayed as is, every one-off query would come back as a
    /// repeat and the workload would turn into a different one.
    pub fresh_keys_on_replay: bool,
    /// A run is a number of repeats, each a fresh set-up on its own
    /// sub-seed followed by a timed phase; every reported value is the
    /// median over them, so it is a median over traces too.
    pub phase: Phase,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wire_hot_pipelined",
        why: "100% hits, smallest messages, depth 32: codec, session loop, runtime and syscalls do the work; the policy only does get",
        wire: true,
        trace: TraceKind::TpcdUniform,
        queries: 20_000,
        warmup: 20_000,
        cache: Cache::Bytes(64 << 20),
        pipeline: 32,
        payload_cap: 0,
        invalidate_every: 0,
        // The same keys again is the point: everything stays a hit.
        fresh_keys_on_replay: false,
        phase: Phase::Share { repeats: 8 },
    },
    Spec {
        name: "wire_tpcd_mixed",
        why: "the paper's setup: uniform TPC-D, cache 1% of the database, depth 1, full payloads; about half hits, half misses with LNC admission",
        wire: true,
        trace: TraceKind::TpcdUniform,
        queries: 160_000,
        warmup: 30_000,
        cache: Cache::DatabasePercent(1),
        pipeline: 1,
        payload_cap: 32_768,
        invalidate_every: 0,
        fresh_keys_on_replay: true,
        phase: Phase::Share { repeats: 8 },
    },
    Spec {
        name: "wire_update_mix",
        why: "wire_tpcd_mixed plus one INVALIDATE per 1000 requests over the base relations: the price of coherence, writes beside reads",
        wire: true,
        trace: TraceKind::TpcdUniform,
        queries: 160_000,
        warmup: 30_000,
        cache: Cache::DatabasePercent(1),
        pipeline: 1,
        payload_cap: 32_768,
        invalidate_every: 1_000,
        fresh_keys_on_replay: true,
        phase: Phase::Share { repeats: 8 },
    },
    Spec {
        name: "engine_churn",
        why: "no sockets: get_or_execute called directly on a skewed trace of one-off queries; LNC-RA admission is most of each call",
        wire: false,
        trace: TraceKind::TpcdSkewed,
        // The warm-up, a timed phase, and the traced run's 50 000 requests.
        queries: 100_000,
        warmup: 40_000,
        cache: Cache::DatabasePercent(1),
        pipeline: 1,
        payload_cap: 0,
        invalidate_every: 0,
        fresh_keys_on_replay: true,
        // LNC-RA's admission cost keeps changing as the trace goes on (it
        // halves over the 50 000 requests after the warm-up) and differs by
        // a third from one seed's trace to the next.  So a timed phase is the
        // same 20 000 positions of its trace every time, about half a second,
        // and a run takes the median over the traces that fit in it.
        phase: Phase::Requests(20_000),
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|spec| spec.name == name)
    }

    /// `--quick`: one repeat over about 2% of the requests (5% of the
    /// trace and the warm-up, and a sub-second timed phase).
    pub fn quick(mut self) -> Spec {
        self.queries /= 20;
        self.warmup /= 20;
        self.phase = match self.phase {
            Phase::Share { .. } => Phase::Share { repeats: 1 },
            Phase::Requests(requests) => Phase::Requests(requests / 20),
        };
        self
    }

    pub fn capacity_bytes(&self, trace: &Trace) -> u64 {
        match self.cache {
            Cache::Bytes(bytes) => bytes,
            Cache::DatabasePercent(percent) => trace.database_bytes * percent / 100,
        }
    }
}

/// The request at one position of a workload's sequence.
pub struct Request<'a> {
    /// The trace record it replays.
    pub index: usize,
    pub query: Query<'a>,
    /// The record's timestamp, shifted so that time never runs backwards.
    pub timestamp_us: u64,
    /// 0 on the first pass over the trace, else the replay's number when
    /// replays must send new keys.
    fresh_pass: usize,
}

impl Request<'_> {
    /// The query text to send: the record's own, or on a fresh-keys replay
    /// the record's with a comment naming the pass, which makes it a query
    /// the cache has never seen.
    pub fn text(&self) -> Cow<'_, str> {
        match self.fresh_pass {
            0 => Cow::Borrowed(self.query.text),
            pass => Cow::Owned(format!("{} /* pass {pass} */", self.query.text)),
        }
    }

    /// The signature a payload for this request is built from:
    /// `signatures[index]` unless the replay changed the text.
    pub fn signature(&self, signatures: &[u64]) -> u64 {
        match self.fresh_pass {
            0 => signatures[self.index],
            _ => crate::layers::signature_of(&crate::layers::derive_key(&self.text())),
        }
    }
}

pub fn at<'a>(spec: &Spec, trace: &'a Trace, position: usize) -> Request<'a> {
    let n = trace.len();
    let (pass, index) = (position / n, position % n);
    let query = trace.query(index);
    Request {
        index,
        query,
        timestamp_us: query.timestamp_us + pass as u64 * trace.span_us,
        fresh_pass: if spec.fresh_keys_on_replay { pass } else { 0 },
    }
}

/// How long one timed phase lasts.
#[derive(Clone, Copy)]
pub enum Timed {
    Seconds(f64),
    Requests(usize),
}

impl Timed {
    /// When a timed phase that started at `started`, after `warmup`
    /// positions, ends.
    pub fn until(self, started: Instant, warmup: usize) -> Until {
        match self {
            Timed::Seconds(seconds) => Until::Deadline(started + Duration::from_secs_f64(seconds)),
            Timed::Requests(requests) => Until::Position(warmup + requests),
        }
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// Before this sequence position (warm-up: a fixed request count).
    Position(usize),
    /// At this instant (the timed phase).
    Deadline(Instant),
}

/// The next unsent sequence position.
pub struct Cursor(Cell<usize>);

impl Cursor {
    pub fn new() -> Cursor {
        Cursor(Cell::new(0))
    }

    /// Claims the next `count` positions, or `None` once the phase is over.
    pub fn take(&self, count: usize, until: Until) -> Option<Range<usize>> {
        if matches!(until, Until::Deadline(deadline) if Instant::now() >= deadline) {
            return None;
        }
        let start = self.0.get();
        let end = match until {
            Until::Position(end) => end.min(start + count),
            Until::Deadline(_) => start + count,
        };
        self.0.set(end.max(start));
        (start < end).then_some(start..end)
    }
}

/// What a phase sends: the workload, its trace, the signatures payloads
/// are checked against, and how far it has got.
#[derive(Clone, Copy)]
pub struct Sequence<'a> {
    pub spec: &'a Spec,
    pub trace: &'a Trace,
    pub signatures: &'a [u64],
    pub cursor: &'a Cursor,
}

impl<'a> Sequence<'a> {
    pub fn at(&self, position: usize) -> Request<'a> {
        at(self.spec, self.trace, position)
    }
}
