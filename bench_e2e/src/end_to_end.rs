//! The end-to-end run (`--trace 0`): tracing off, a number of repeats, each
//! a fresh set-up on its own sub-seed and a timed phase.  The timed
//! metrics of the wire workloads are taken per window of the timed phases
//! and the run reports the best decile of its windows (see
//! [`crate::windows`]); everything else — on `engine_churn`, which replays
//! every trace and keeps each call's fastest timing, the timed metrics too —
//! is taken once per repeat and the run reports the median.

use std::time::Instant;

use crate::layers::Source;
use crate::report::Samples;
use crate::stats::percentile_us;
use crate::windows::Marks;
use crate::workloads::{Phase, Spec, Timed};
use crate::{engine_run, wire_run, Options, Outcome};

pub fn run(spec: &Spec, options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (timed, repeats) = match spec.phase {
        Phase::Share { repeats } => (
            Timed::Seconds(options.seconds / repeats as f64),
            Some(repeats),
        ),
        Phase::Requests(requests) => (Timed::Requests(requests), options.quick.then_some(1)),
    };
    let started = Instant::now();
    let mut timed_s = 0.0;
    let mut repeat = 0;
    // With no fixed number of repeats: until their timed phases add up to
    // `--seconds` — or, should a later, faster program leave a repeat little
    // but its set-up, until the run has taken twice that.
    while repeats.map_or(
        timed_s < options.seconds && started.elapsed().as_secs_f64() < 2.0 * options.seconds,
        |repeats| repeat < repeats,
    ) {
        let seed = sub_seed(options.seed, repeat);
        timed_s += if spec.wire {
            wire_repeat(spec, seed, timed, &mut outcome)?
        } else {
            engine_repeat(spec, seed, timed, &mut outcome)?
        };
        repeat += 1;
    }
    println!("repeats {} {repeat} timed_s {timed_s}", spec.name);
    Ok(outcome)
}

/// The trace seed of one repeat: a function of the run's seed alone, and
/// different for every (seed, repeat) the driver can reach.
pub fn sub_seed(seed: u64, repeat: usize) -> u64 {
    seed.wrapping_mul(1_009).wrapping_add(repeat as u64)
}

/// One sample of each timed metric per window of a wire repeat's timed
/// phase; the run reports the best decile of all of them.  `round_trip_ns`
/// and `hit_ns` are the phase's latency samples in completion order,
/// `pipeline` the requests per round trip.
///
/// The gated latencies are the median of the round trips answered from the
/// cache and the 90th percentile of all of them.  The median of all of them
/// is not gated: on the workloads with a ~53% hit ratio it sits where the
/// hits end and the misses (twice as slow over the wire, a hundred times in
/// the engine) begin, and moves by a fifth when the hit ratio moves by a
/// hundredth.  The traced run reports it.
fn push_windows(
    samples: &mut Samples,
    marks: &Marks,
    pipeline: usize,
    round_trip_ns: &[u64],
    hit_ns: &[u64],
) {
    for window in marks.windows() {
        if window.round_trips.is_empty() {
            continue; // a stall longer than a window: nothing to divide by
        }
        let requests = (window.round_trips.len() * pipeline) as f64;
        samples.push_window("throughput_qps", requests / window.seconds);
        samples.push_window("server_cpu_us_per_req", window.cpu_us / requests);
        let mut hits = hit_ns[window.hit_round_trips].to_vec();
        if let Some(p50) = percentile_us(&mut hits, 0.50) {
            samples.push_window("hit_latency_p50_us", p50);
        }
        let mut all = round_trip_ns[window.round_trips].to_vec();
        if let Some(p90) = percentile_us(&mut all, 0.90) {
            samples.push_window("latency_p90_us", p90);
        }
    }
}

/// Returns how long the timed phase took.
fn wire_repeat(spec: &Spec, seed: u64, timed: Timed, outcome: &mut Outcome) -> Result<f64, String> {
    let mut repeat = wire_run::repeat(spec, seed, timed, false)?;
    let samples = &mut outcome.samples;
    samples.push("setup_s", repeat.setup_s);
    push_windows(
        samples,
        &repeat.marks,
        spec.pipeline,
        &repeat.tally.round_trip_ns,
        &repeat.tally.hit_ns,
    );
    samples.push("peak_rss_mb", repeat.peak_rss_mb);
    samples.push("csr", repeat.counters.csr());
    samples.push("hit_ratio", repeat.counters.hit_ratio());
    outcome.attempted += repeat.tally.attempted;
    outcome.failed += repeat.tally.failed;
    outcome.violations.append(&mut repeat.violations);
    Ok(repeat.timed_s)
}

/// Returns how long the timed phases took.  One sample of each metric per
/// repeat, the timed ones from the fastest of every call's timings over the
/// repeat's replays (see [`engine_run::repeat`]); the run reports the median
/// over the repeats, which is a median over traces.
fn engine_repeat(
    spec: &Spec,
    seed: u64,
    timed: Timed,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let mut repeat = engine_run::repeat(spec, seed, timed, false)?;
    let tally = &mut repeat.tally;
    let calls = tally.calls as f64;
    let seconds = tally.iteration_ns.iter().sum::<u64>() as f64 / 1e9;
    let samples = &mut outcome.samples;
    samples.push("setup_s", repeat.setup_s);
    samples.push("throughput_qps", calls / seconds);
    // No server process, and a caller that never waits: the CPU a call
    // costs is the time it takes.
    samples.push("server_cpu_us_per_req", seconds * 1e6 / calls);
    // The hits first: the percentile sorts `call_ns` out of call order.
    samples.push_some(
        "hit_latency_p50_us",
        percentile_us(&mut tally.latencies_of(Source::Hit), 0.50),
    );
    samples.push_some("latency_p90_us", percentile_us(&mut tally.call_ns, 0.90));
    samples.push("peak_rss_mb", repeat.peak_rss_mb);
    samples.push("csr", repeat.counters.csr());
    samples.push("hit_ratio", repeat.counters.hit_ratio());
    outcome.attempted += tally.calls;
    outcome.violations.append(&mut repeat.violations);
    Ok(repeat.timed_s)
}
