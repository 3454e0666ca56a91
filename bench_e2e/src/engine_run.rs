//! `engine_churn`: no sockets, no server process — `get_or_execute`, the
//! library's front door, called directly.

use std::time::Instant;

use crate::layers::{self, Counters, Engine, MetricsSnapshot, Source, Trace};
use crate::procfs::{self, CpuTime};
use crate::spans::Recorder;
use crate::workloads::{Cursor, Sequence, Spec, Timed, Until};

/// Shards of the engine (the wire workloads' `--shards 4`).
pub const SHARDS: usize = 4;

/// How often one trace is replayed (fresh engine, warm-up, timed phase).
///
/// With no server and no sockets there are no windows to compare: what a
/// call costs depends on how far along the trace it is.  But the same trace
/// replayed makes the same calls in the same order, so of each call's
/// timings the fastest is kept: the host's bursts do not fall on the same
/// call twice.  (On a bad hour one pass of one trace read 37k and 42k
/// calls/s minutes apart, and ten runs spread over 21%.)
const REPLAYS: usize = 2;

/// What the caller saw over one phase; after [`repeat`], the fastest of
/// every call's timings over the replays.
#[derive(Default)]
pub struct Tally {
    pub calls: u64,
    /// One `get_or_execute` each, in call order.
    pub call_ns: Vec<u64>,
    /// From the end of the previous call to the end of this one: the call
    /// plus the key derivation and bookkeeping before it.  They add up to
    /// the phase.
    pub iteration_ns: Vec<u64>,
    /// How each call was answered.
    pub sources: Vec<Source>,
    pub hits: u64,
    pub executed: u64,
    pub coalesced: u64,
}

impl Tally {
    /// The latencies of the calls answered as `source`.
    pub fn latencies_of(&self, source: Source) -> Vec<u64> {
        let answered = self.sources.iter().zip(&self.call_ns);
        answered
            .filter_map(|(&s, &ns)| (s == source).then_some(ns))
            .collect()
    }

    /// Keeps, call by call, the faster of this replay's timing and
    /// `other`'s.  `false` if the two replays did not make the same calls.
    fn keep_faster(&mut self, other: &Tally) -> bool {
        if self.sources != other.sources {
            return false;
        }
        for (ours, theirs) in self.call_ns.iter_mut().zip(&other.call_ns) {
            *ours = (*ours).min(*theirs);
        }
        for (ours, theirs) in self.iteration_ns.iter_mut().zip(&other.iteration_ns) {
            *ours = (*ours).min(*theirs);
        }
        true
    }
}

/// Takes positions from `cursor` until `until` and replays each through
/// `get_or_execute`.  The key is derived outside the timed call: a latency
/// sample is one `get_or_execute`, an iteration includes the derivation.
pub fn drive(
    engine: &Engine,
    sequence: Sequence<'_>,
    until: Until,
    tally: &mut Tally,
    mut recorder: Option<&mut Recorder>,
) {
    let mut previous = Instant::now();
    while let Some(position) = sequence.cursor.take(1, until).map(|range| range.start) {
        let request = sequence.at(position);
        let key = layers::derive_key(&request.text());
        let span = recorder
            .as_mut()
            .map(|r| r.open("live.get_or_execute", position as u64));
        let started = Instant::now();
        let (source, _) = engine.lookup(&key, request.query, request.timestamp_us);
        let finished = Instant::now();
        if let (Some(recorder), Some(span)) = (recorder.as_mut(), span) {
            recorder.close(span, 1);
        }
        tally.calls += 1;
        tally
            .call_ns
            .push(finished.duration_since(started).as_nanos() as u64);
        tally
            .iteration_ns
            .push(finished.duration_since(previous).as_nanos() as u64);
        previous = finished;
        tally.sources.push(source);
        match source {
            Source::Hit => tally.hits += 1,
            Source::Executed => tally.executed += 1,
            Source::Coalesced | Source::Stale => tally.coalesced += 1,
        }
    }
}

pub struct Repeat {
    /// Trace generation plus the faster of the replays' warm-ups.
    pub setup_s: f64,
    pub generate_s: f64,
    /// The timed phases of all replays together, as the clock saw them.
    pub timed_s: f64,
    pub tally: Tally,
    pub counters: Counters,
    /// This process's CPU over the last timed phase.
    pub cpu: CpuTime,
    pub peak_rss_mb: f64,
    pub metrics: Option<(MetricsSnapshot, MetricsSnapshot)>,
    pub threads: u64,
    pub switches: u64,
    pub violations: Vec<String>,
}

/// One trace, replayed [`REPLAYS`] times — each a fresh engine, the warm-up
/// and the timed phase — or once when `scrape` asks for the program's own
/// telemetry of one phase (the traced run).  Replays compare call by call,
/// so `timed` is a request count ([`crate::workloads::Phase::Requests`]).
pub fn repeat(spec: &Spec, seed: u64, timed: Timed, scrape: bool) -> Result<Repeat, String> {
    let generate_started = Instant::now();
    let trace = layers::generate_trace(spec.trace, spec.queries, seed);
    let generate_s = generate_started.elapsed().as_secs_f64();
    let mut repeat = pass(spec, &trace, timed, scrape)?;
    repeat.generate_s = generate_s;
    for _ in 1..if scrape { 1 } else { REPLAYS } {
        let replay = pass(spec, &trace, timed, false)?;
        repeat.setup_s = repeat.setup_s.min(replay.setup_s);
        repeat.timed_s += replay.timed_s;
        repeat.cpu = replay.cpu;
        repeat.violations.extend(replay.violations);
        if !repeat.tally.keep_faster(&replay.tally) || repeat.counters != replay.counters {
            repeat
                .violations
                .push("two replays of one trace did not make the same calls".to_owned());
        }
    }
    repeat.setup_s += generate_s;
    Ok(repeat)
}

/// A fresh engine, the warm-up and one timed phase over `trace`.
fn pass(spec: &Spec, trace: &Trace, timed: Timed, scrape: bool) -> Result<Repeat, String> {
    let setup_started = Instant::now();
    let engine = Engine::new(SHARDS, spec.capacity_bytes(trace));
    let cursor = Cursor::new();
    let sequence = Sequence {
        spec,
        trace,
        signatures: &[],
        cursor: &cursor,
    };
    let until = Until::Position(spec.warmup);
    drive(&engine, sequence, until, &mut Tally::default(), None);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let metrics_before = scrape.then(layers::local_metrics);
    let switches_before = procfs::threads_and_switches(None).map_or(0, |(_, s)| s);
    let counters_before = engine.counters();
    let cpu_before = procfs::cpu_time(None).ok_or("cannot read /proc/self/stat")?;
    let timed_started = Instant::now();
    let until = timed.until(timed_started, spec.warmup);
    let mut tally = Tally::default();
    drive(&engine, sequence, until, &mut tally, None);
    let timed_s = timed_started.elapsed().as_secs_f64();
    let cpu = procfs::cpu_time(None)
        .ok_or("cannot read /proc/self/stat")?
        .since(&cpu_before);
    let counters = engine.counters().since(&counters_before);
    let (threads, switches) = procfs::threads_and_switches(None).unwrap_or((0, 0));
    let metrics = metrics_before.map(|before| (before, layers::local_metrics()));

    let mut violations = Vec::new();
    if (tally.hits, tally.executed, tally.coalesced)
        != (counters.hits, counters.misses, counters.coalesced)
    {
        violations.push(format!(
            "callers saw {}/{}/{} hits/executed/coalesced, the engine counted {}/{}/{}",
            tally.hits,
            tally.executed,
            tally.coalesced,
            counters.hits,
            counters.misses,
            counters.coalesced
        ));
    }
    if !counters.balanced() || counters.references != tally.calls {
        violations.push(format!(
            "references {} != calls made {} (or the books do not balance: {counters:?})",
            counters.references, tally.calls
        ));
    }
    Ok(Repeat {
        setup_s,
        generate_s: 0.0,
        timed_s,
        tally,
        counters,
        cpu,
        peak_rss_mb: procfs::peak_rss_mb(None).ok_or("cannot read VmHWM")?,
        metrics,
        threads,
        switches: switches.saturating_sub(switches_before),
        violations,
    })
}
