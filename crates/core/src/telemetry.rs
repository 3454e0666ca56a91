//! Process-wide telemetry: metrics registry, latency histograms, and the
//! flight recorder.
//!
//! The paper evaluates WATCHMAN through three aggregate metrics (CSR, HR,
//! fragmentation — §2.1/§4.1); this module adds the *operational* layer a
//! production deployment of such a cache needs: latency distributions per
//! lookup outcome, runtime profiling counters, and a bounded ring of recent
//! structured events that can be dumped from a live server without
//! restarting it under instrumentation.
//!
//! Everything here is hand-rolled on `std` atomics (like [`runtime`] and
//! [`sync`], no crates.io):
//!
//! * [`Histogram`] — a fixed-size **log-linear** latency histogram: power-of
//!   two major buckets subdivided into 4 linear sub-buckets (≤ 25 % relative
//!   bucket width), all `AtomicU64`, so `record` is lock-free and wait-free.
//!   Snapshots are mergeable and expose p50/p95/p99/max.
//! * [`Telemetry`] — the process-global registry of process-level counters
//!   and histograms, reached via [`global()`].  Hot paths touch single
//!   atomics; the JSON exposition ([`MetricsSnapshot`], versioned by
//!   [`METRICS_SCHEMA_VERSION`]) is assembled only when scraped.  Counts an
//!   engine or server owns (retries, negative hits, breaker transitions,
//!   sheds, shard occupancy) are not kept here: the server reads them from
//!   its own books when it builds the exposition.
//! * [`FlightRecorder`] — a fixed ring of structured trace events guarded by
//!   per-slot sequence counters (a seqlock: writers never block, readers
//!   detect torn slots and skip them).  Always on, a compare-and-swap and a
//!   handful of relaxed atomic stores per event.  Dumped on demand
//!   (`TRACE_DUMP`) or automatically — rate-limited — when an anomaly fires
//!   (breaker trip, shed, slow-loris eviction).
//!
//! ## Clock authority
//!
//! This module is also the **single sanctioned home of wall-clock reads** on
//! the engine and session hot paths: [`now()`], [`now_us()`],
//! [`elapsed_us()`], [`elapsed_ns()`] and [`sample_lookup()`].  The core and
//! server crates' `clippy.toml` files ban raw `Instant::now()` outside the
//! runtime and the load drivers, so that every timing site is discoverable
//! here and instrumentation cannot silently fork from the metrics it feeds.
//!
//! A lookup reads the clock only when its probe misses or when it is its
//! thread's 1-in-[`LOOKUP_SAMPLE_PERIOD`] sample: an unsampled hit reads
//! none, and an unsampled executed miss reads it twice (the stamp when its
//! probe misses and its trace event's timestamp).  A hit or an executed
//! lookup is *recorded* only when sampled.
//!
//! ## Concurrency (see CONCURRENCY.md)
//!
//! The registry holds **no locks at all** — counters and histogram
//! buckets are plain `AtomicU64`s with relaxed ordering (they are
//! statistics, not synchronization).  The flight-recorder ring uses
//! acquire/release only on the per-slot sequence word, plus the two fences
//! a seqlock needs: release after a writer's claim, acquire before a
//! reader's second load.  Nothing in this module can therefore participate
//! in a lock cycle: telemetry calls are safe under any lock, including
//! shard locks and runtime queue locks.
//!
//! [`runtime`]: crate::runtime
//! [`sync`]: crate::sync

#![allow(
    clippy::disallowed_methods,
    reason = "the home of the one clock, now()"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Version of the [`MetricsSnapshot`] JSON exposition schema.  Bumped on
/// any breaking change to field names or semantics; scrapers check it
/// before interpreting the maps.
///
/// v5: `runtime.scheduler.steals` is gone: the runtime's workers share one
/// run queue, so nothing is stolen.
///
/// v4: `engine.lookup.executed_us` and `fetch.attempt_us` are sampled too:
/// only a lookup its thread samples times its fetch attempts and records
/// an executed outcome, so their counts are about a 64th of the executed
/// lookups and of the attempts.  Coalesced, stale and error lookups keep
/// one sample each.
///
/// v3: `engine.lookup.hit_us` became `engine.lookup.hit_ns`, in nanoseconds
/// and sampled: each thread times one lookup in [`LOOKUP_SAMPLE_PERIOD`], so
/// its count is about a 64th of the hits.  The other lookup histograms keep
/// one sample per lookup.
///
/// v2: the engine and server counts (`engine.fetch.retries`,
/// `engine.negative_hits`, `engine.breaker.transitions`, `server.sheds`,
/// the shard gauges) are the scraped server's own, not the process's, and
/// `engine.fragmentation.used_permille` is the occupancy at scrape time
/// rather than a mean over earlier scrapes.
pub const METRICS_SCHEMA_VERSION: u32 = 5;

/// Number of buckets in a [`Histogram`]: 4 linear buckets for values 0–3,
/// then 4 sub-buckets per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Poll durations at or above this many microseconds count as *long polls*
/// (`runtime.long_polls`): a task hogged its worker long enough to starve
/// peers — the cooperative-scheduling budget of CONCURRENCY.md.
pub const LONG_POLL_THRESHOLD_US: u64 = 10_000;

/// Slots in the [`FlightRecorder`] ring.
pub const TRACE_RING_SLOTS: usize = 1024;

/// Minimum spacing between automatic anomaly dumps, in microseconds.
const ANOMALY_DUMP_INTERVAL_US: u64 = 5_000_000;

// ---------------------------------------------------------------------------
// Clock authority
// ---------------------------------------------------------------------------

/// The process-start epoch all `*_us` timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Reads the monotonic clock.  The one sanctioned `Instant::now()` for
/// engine and session timing code (see the module docs): deadline arithmetic
/// (`telemetry::now() + backoff`), latency measurement and the flight
/// recorder's timestamps all flow through here.
pub fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// Microseconds since process start (the flight recorder's timestamp base).
pub fn now_us() -> u64 {
    now().saturating_duration_since(epoch()).as_micros() as u64
}

/// Microseconds elapsed since `start`, saturating.
pub fn elapsed_us(start: Instant) -> u64 {
    now().saturating_duration_since(start).as_micros() as u64
}

/// Nanoseconds elapsed since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    now().saturating_duration_since(start).as_nanos() as u64
}

/// Each thread times one lookup in this many: its first, then every 64th.
/// A hit is a single probe of a few hundred nanoseconds, so timing every
/// one would spend about half of it reading the clock.
pub const LOOKUP_SAMPLE_PERIOD: u32 = 64;

/// Starts a lookup's clock if the lookup is its thread's 1-in-
/// [`LOOKUP_SAMPLE_PERIOD`] sample, and reads no clock otherwise.  Call it
/// once per lookup, before the probe.
pub fn sample_lookup() -> Option<Instant> {
    thread_local! {
        static UNTIL_SAMPLE: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    UNTIL_SAMPLE.with(|left| match left.get() {
        0 => {
            left.set(LOOKUP_SAMPLE_PERIOD - 1);
            Some(now())
        }
        n => {
            left.set(n - 1);
            None
        }
    })
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Maps a recorded value to its bucket index.
///
/// Values 0–3 get exact unit buckets; every larger power-of-two range
/// `[2^e, 2^(e+1))` is split into 4 linear sub-buckets, so the bucket width
/// never exceeds 25 % of the bucket's lower bound.
fn bucket_index(value: u64) -> usize {
    if value < 4 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (msb - 2)) & 3) as usize;
        (msb - 1) * 4 + sub
    }
}

/// The smallest value that lands in bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    if index < 4 {
        index as u64
    } else {
        let exp = index / 4 + 1;
        let sub = (index % 4) as u64;
        (1u64 << exp) + sub * (1u64 << (exp - 2))
    }
}

/// The largest value that lands in bucket `index`.
pub fn bucket_upper(index: usize) -> u64 {
    if index < 4 {
        index as u64
    } else if index + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// A lock-free log-linear latency histogram (values are microseconds by
/// convention, but any `u64` works).
///
/// `record` touches four relaxed atomics — usable under any lock or on any
/// hot path.  Use [`Histogram::snapshot`] to extract a consistent-enough
/// view for quantiles (individual counters may lag each other by in-flight
/// records; totals are monotonic).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An owned copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, serializable snapshot of a [`Histogram`].
///
/// The wire form carries the full bucket vector so scrapes merge exactly:
/// `merge(a, b)` is bucket-wise addition, and every quantile of the merge is
/// consistent with the quantiles of the parts (same bucket resolution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries; see
    /// [`bucket_lower`]/[`bucket_upper`] for the bucket bounds).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping, matching the atomic accumulator).
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-quantized).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value into an owned snapshot (single-threaded use, e.g.
    /// loadgen's per-run latency accounting).
    pub fn record(&mut self, value: u64) {
        if self.buckets.len() < HISTOGRAM_BUCKETS {
            self.buckets.resize(HISTOGRAM_BUCKETS, 0);
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the **upper bound** of the
    /// bucket containing the rank-`⌈q·count⌉` value (clamped to the exact
    /// observed max), so the reported quantile never understates a recorded
    /// value in its bucket.  Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (exact, from the untruncated sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What a flight-recorder event describes.  Encoded as a `u64` in the ring;
/// the exposition renders the stable lowercase names below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A miss executed its query (key = signature, a = shard, b = µs).
    LookupExecuted,
    /// A stale value served after a failure (key, a = shard, b = µs).
    LookupStale,
    /// A lookup surfaced a terminal fetch error (key, a = shard, b = µs).
    LookupError,
    /// A retryable fetch failure scheduled a backoff (key, a = attempt,
    /// b = backoff µs).
    FetchRetry,
    /// A circuit breaker transitioned to open (a = shard). **Anomaly.**
    BreakerTrip,
    /// The server refused a request at admission (a = connection id,
    /// b = inflight). **Anomaly.**
    Shed,
    /// A session was evicted for exceeding the read deadline
    /// (a = connection id). **Anomaly.**
    SlowLorisEvict,
    /// A session opened (a = connection id).
    SessionOpen,
    /// A session closed (a = connection id, b = requests served).
    SessionClose,
}

impl TraceKind {
    fn code(self) -> u64 {
        match self {
            TraceKind::LookupExecuted => 1,
            TraceKind::LookupStale => 2,
            TraceKind::LookupError => 3,
            TraceKind::FetchRetry => 4,
            TraceKind::BreakerTrip => 5,
            TraceKind::Shed => 6,
            TraceKind::SlowLorisEvict => 7,
            TraceKind::SessionOpen => 8,
            TraceKind::SessionClose => 9,
        }
    }

    /// The stable exposition name for a stored kind code.
    fn name(code: u64) -> &'static str {
        match code {
            1 => "lookup_executed",
            2 => "lookup_stale",
            3 => "lookup_error",
            4 => "fetch_retry",
            5 => "breaker_trip",
            6 => "shed",
            7 => "slow_loris_evict",
            8 => "session_open",
            9 => "session_close",
            _ => "unknown",
        }
    }
}

/// One ring slot: a sequence word plus four payload words.
///
/// The sequence word is a per-slot seqlock: a writer claims the slot by
/// moving it from an older even sequence to `2·n + 1` (odd: write in
/// progress for generation `n`), fills the payload, then stores `2·n + 2`
/// (even: generation `n` complete).  Readers accept a slot only when they
/// observe the *same even* sequence before and after reading the payload.
/// No waiting in either direction — a torn slot is simply skipped, and a
/// writer that finds the slot claimed drops its event.
#[derive(Debug)]
struct TraceSlot {
    seq: AtomicU64,
    ts_us: AtomicU64,
    kind: AtomicU64,
    key: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl TraceSlot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            key: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A bounded, always-on ring of recent structured events.
///
/// Writers pay one `fetch_add`, one compare-and-swap, five relaxed stores,
/// a release fence and a release store; they never block and never
/// allocate.  [`dump`] walks the ring without stopping writers; a slot
/// overwritten mid-read fails its sequence check and is dropped from the
/// dump.  Only one writer fills a slot at a time: one that falls a **full
/// ring wrap** behind ([`TRACE_RING_SLOTS`] later events claimed its slot
/// first) or finds its slot still being written drops its event, which
/// then counts in [`events_recorded`] but never appears in a dump.  So the
/// dump never mixes two events' fields — this is a diagnostic recorder,
/// not a transport.
///
/// [`dump`]: FlightRecorder::dump
/// [`events_recorded`]: FlightRecorder::events_recorded
#[derive(Debug)]
pub struct FlightRecorder {
    cursor: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// Creates an empty ring of [`TRACE_RING_SLOTS`] slots.
    pub fn new() -> Self {
        Self {
            cursor: AtomicU64::new(0),
            slots: (0..TRACE_RING_SLOTS).map(|_| TraceSlot::new()).collect(),
        }
    }

    /// Appends one event (lock-free, wait-free).
    pub fn record(&self, kind: TraceKind, key: u64, a: u64, b: u64) {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(index as usize) % self.slots.len()];
        let claim = 2 * index + 1;
        // Claim the slot from a finished, older generation; odd marks the
        // write in progress.  A slot still being written, or already taken
        // by a later lap, is left alone and this event is dropped.
        let current = slot.seq.load(Ordering::Relaxed);
        if current % 2 == 1
            || current > claim
            || slot
                .seq
                .compare_exchange(current, claim, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // A release store orders only the writes before it, so the payload
        // stores below could move above the odd claim.  This fence keeps
        // them after it: a reader whose payload loads see any of them also
        // sees the odd sequence on its second load.
        fence(Ordering::Release);
        slot.ts_us.store(now_us(), Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Even publishes generation `index`; release orders the payload
        // before it.
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Total events ever recorded (including ones since overwritten in the
    /// ring or dropped by a writer that found its slot claimed).
    pub fn events_recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Snapshots the ring: consistent slots only, oldest first.
    pub fn dump(&self) -> TraceDump {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in progress
            }
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let key = slot.key.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // An acquire load orders only the reads after it, so the payload
            // loads above could move below the second sequence load.  This
            // fence keeps them before it.
            fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if before != after {
                continue; // overwritten while reading
            }
            events.push(TraceEvent {
                seq: before / 2 - 1,
                ts_us,
                kind: TraceKind::name(kind).to_string(),
                key,
                a,
                b,
            });
        }
        events.sort_by_key(|event| event.seq);
        TraceDump {
            schema: METRICS_SCHEMA_VERSION,
            recorded: self.events_recorded(),
            events,
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global event number (monotonic across the process).
    pub seq: u64,
    /// Microseconds since process start.
    pub ts_us: u64,
    /// Stable event name (see [`TraceKind`]).
    pub kind: String,
    /// Event subject: query signature for engine events, zero otherwise.
    pub key: u64,
    /// First detail word (shard index, connection id, attempt — per kind).
    pub a: u64,
    /// Second detail word (latency µs, backoff µs, counts — per kind).
    pub b: u64,
}

/// A serializable snapshot of the flight-recorder ring (the `TRACE_DUMP`
/// response body).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDump {
    /// Exposition schema version ([`METRICS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Total events recorded process-wide (≥ `events.len()`; the excess was
    /// overwritten in the ring).
    pub recorded: u64,
    /// The surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The process-global telemetry registry: the latency histograms, the
/// runtime and session counters, breaker trips, evictions and the flight
/// recorder.  Obtain it with [`global()`]; all members are lock-free.
///
/// Tests share the process global — assertions on it must be *delta*-based
/// (counters moved), never exact.
#[derive(Debug)]
pub struct Telemetry {
    /// Lookup latency for cache hits (front-door entry to return), ns, of
    /// the hits each thread samples ([`sample_lookup`]).
    pub lookup_hit_ns: Histogram,
    /// Lookup latency for misses that executed their query, µs.
    pub lookup_executed_us: Histogram,
    /// Lookup latency for references coalesced onto another session's
    /// in-flight execution, µs.
    pub lookup_coalesced_us: Histogram,
    /// Lookup latency for stale (last-known-good) serves, µs.
    pub lookup_stale_us: Histogram,
    /// Lookup latency for references ending in a terminal fetch error, µs.
    pub lookup_error_us: Histogram,
    /// Latency of individual fetch attempts (each retry records once), µs.
    pub fetch_attempt_us: Histogram,
    /// Time a coalescing waiter spent suspended on a single-flight cell, µs.
    pub singleflight_wait_us: Histogram,
    /// Duration of individual task polls on runtime workers, µs.
    pub task_poll_us: Histogram,
    /// How late timers fire relative to their deadline, µs.
    pub timer_lag_us: Histogram,
    /// Time a session spent awaiting request bytes beyond the first poll
    /// (read stalls), µs.
    pub session_read_stall_us: Histogram,
    /// Time a session spent flushing response bytes to a slow peer, µs.
    pub session_write_stall_us: Histogram,
    /// Circuit-breaker transitions *to open*, across every engine in the
    /// process.
    pub breaker_trips: Counter,
    /// Cache evictions across all shards of every engine in the process.
    pub evictions: Counter,
    /// Sessions evicted by the read-deadline (slow-loris) guard.
    pub slow_loris_evictions: Counter,
    /// Task polls at or above [`LONG_POLL_THRESHOLD_US`].
    pub long_polls: Counter,
    /// Driver turns that returned events: times a worker in the driver seat
    /// came out of `epoll_wait` with at least one.
    pub reactor_wakeups: Counter,
    /// Automatic anomaly dumps emitted (rate-limited).
    pub anomaly_dumps: Counter,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    last_anomaly_dump_us: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates a fresh registry (tests; production uses [`global()`]).
    pub fn new() -> Self {
        Self {
            lookup_hit_ns: Histogram::new(),
            lookup_executed_us: Histogram::new(),
            lookup_coalesced_us: Histogram::new(),
            lookup_stale_us: Histogram::new(),
            lookup_error_us: Histogram::new(),
            fetch_attempt_us: Histogram::new(),
            singleflight_wait_us: Histogram::new(),
            task_poll_us: Histogram::new(),
            timer_lag_us: Histogram::new(),
            session_read_stall_us: Histogram::new(),
            session_write_stall_us: Histogram::new(),
            breaker_trips: Counter::new(),
            evictions: Counter::new(),
            slow_loris_evictions: Counter::new(),
            long_polls: Counter::new(),
            reactor_wakeups: Counter::new(),
            anomaly_dumps: Counter::new(),
            recorder: FlightRecorder::new(),
            last_anomaly_dump_us: AtomicU64::new(0),
        }
    }

    /// Records an event that doubles as an **anomaly**: appends it to the
    /// flight recorder and, at most once per 5 s, emits a one-line summary
    /// of the recorder state to stderr so post-hoc logs show what led up to
    /// the trip even if nobody scrapes `TRACE_DUMP` in time.
    pub fn anomaly(&self, kind: TraceKind, key: u64, a: u64, b: u64) {
        self.recorder.record(kind, key, a, b);
        let now = now_us();
        let last = self.last_anomaly_dump_us.load(Ordering::Relaxed);
        if now.saturating_sub(last) < ANOMALY_DUMP_INTERVAL_US {
            return;
        }
        if self
            .last_anomaly_dump_us
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is dumping this window
        }
        self.anomaly_dumps.incr();
        eprintln!(
            "telemetry: anomaly {} key={key:#018x} a={a} b={b} — ring has {} events \
             (breaker_trips={} slow_loris={})",
            TraceKind::name(kind.code()),
            self.recorder.events_recorded(),
            self.breaker_trips.get(),
            self.slow_loris_evictions.get(),
        );
    }

    /// Assembles the versioned JSON exposition of the registry.  Its
    /// `gauges` map is empty: callers with engine, runtime or server context
    /// (shard occupancy, parks, queue depth, inflight, sheds) add their
    /// entries to the returned maps before serializing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut insert = |name: &str, value: u64| {
            counters.insert(name.to_string(), value);
        };
        insert("engine.breaker.trips", self.breaker_trips.get());
        insert("engine.evictions", self.evictions.get());
        insert(
            "server.slow_loris_evictions",
            self.slow_loris_evictions.get(),
        );
        insert("runtime.long_polls", self.long_polls.get());
        insert("runtime.reactor.wakeups", self.reactor_wakeups.get());
        insert("telemetry.anomaly_dumps", self.anomaly_dumps.get());
        insert("telemetry.trace_events", self.recorder.events_recorded());

        let mut histograms = BTreeMap::new();
        let mut hist = |name: &str, histogram: &Histogram| {
            histograms.insert(name.to_string(), histogram.snapshot());
        };
        hist("engine.lookup.hit_ns", &self.lookup_hit_ns);
        hist("engine.lookup.executed_us", &self.lookup_executed_us);
        hist("engine.lookup.coalesced_us", &self.lookup_coalesced_us);
        hist("engine.lookup.stale_us", &self.lookup_stale_us);
        hist("engine.lookup.error_us", &self.lookup_error_us);
        hist("engine.fetch.attempt_us", &self.fetch_attempt_us);
        hist("engine.singleflight.wait_us", &self.singleflight_wait_us);
        hist("runtime.task.poll_us", &self.task_poll_us);
        hist("runtime.timer.lag_us", &self.timer_lag_us);
        hist("server.session.read_stall_us", &self.session_read_stall_us);
        hist(
            "server.session.write_stall_us",
            &self.session_write_stall_us,
        );

        MetricsSnapshot {
            schema: METRICS_SCHEMA_VERSION,
            uptime_us: now_us(),
            counters,
            gauges: BTreeMap::new(),
            histograms,
        }
    }
}

/// The versioned METRICS exposition: three flat name → value maps plus the
/// schema version and process uptime.  Serialized as JSON on the wire; see
/// OBSERVABILITY.md for the full metric catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Exposition schema version ([`METRICS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Microseconds since process start at snapshot time.
    pub uptime_us: u64,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous values.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The named counter, or zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge, or zero when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// The process-global registry.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

#[cfg(test)]
thread_local! {
    /// Clock reads made through [`now()`] on this thread, so tests can
    /// count what a code path pays for its timing.
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The clock reads this thread has made through [`now()`] so far.
#[cfg(test)]
pub(crate) fn clock_reads() -> u64 {
    CLOCK_READS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_bounds_are_contiguous() {
        assert_eq!(bucket_lower(0), 0);
        for index in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(index) + 1,
                bucket_lower(index + 1),
                "gap or overlap at bucket {index}"
            );
        }
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_small_values_are_exact() {
        for value in 0u64..4 {
            let index = bucket_index(value);
            assert_eq!(bucket_lower(index), value);
            assert_eq!(bucket_upper(index), value);
        }
    }

    #[test]
    fn bucket_width_stays_under_quarter() {
        for index in 4..HISTOGRAM_BUCKETS - 1 {
            let lower = bucket_lower(index);
            let width = bucket_upper(index) - lower + 1;
            assert!(
                width * 4 <= lower,
                "bucket {index}: width {width} exceeds 25% of lower bound {lower}"
            );
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let histogram = Histogram::new();
        for value in 1..=100u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert_eq!(snapshot.max, 100);
        // p100 is the exact max; lower quantiles are bucket upper bounds,
        // within 25% above the exact rank value.
        assert_eq!(snapshot.quantile(1.0), 100);
        let p50 = snapshot.quantile(0.5);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        let p99 = snapshot.quantile(0.99);
        assert!((99..=127).contains(&p99), "p99 = {p99}");
        assert!((snapshot.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero() {
        let snapshot = Histogram::new().snapshot();
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.quantile(1.0), 0);
        assert_eq!(snapshot.mean(), 0.0);
    }

    #[test]
    fn snapshot_record_matches_atomic_record() {
        let histogram = Histogram::new();
        let mut owned = HistogramSnapshot::empty();
        for value in [0, 1, 5, 17, 1000, 123_456, u64::MAX] {
            histogram.record(value);
            owned.record(value);
        }
        assert_eq!(histogram.snapshot(), owned);
    }

    #[test]
    fn metrics_snapshot_json_round_trips_exactly() {
        let telemetry = Telemetry::new();
        telemetry.lookup_hit_ns.record(42);
        telemetry.lookup_hit_ns.record(4242);
        telemetry.evictions.add(7);
        let snapshot = telemetry.snapshot();
        let json = serde_json::to_string(&snapshot).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snapshot, back);
        assert_eq!(back.schema, METRICS_SCHEMA_VERSION);
        assert_eq!(back.counter("engine.evictions"), 7);
        assert_eq!(
            back.histogram("engine.lookup.hit_ns").map(|h| h.count),
            Some(2)
        );
    }

    #[test]
    fn trace_dump_json_round_trips_exactly() {
        let recorder = FlightRecorder::new();
        recorder.record(TraceKind::LookupExecuted, 0xabcd, 3, 1500);
        recorder.record(TraceKind::BreakerTrip, 0xabcd, 3, 0);
        let dump = recorder.dump();
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].kind, "lookup_executed");
        assert_eq!(dump.events[1].kind, "breaker_trip");
        let json = serde_json::to_string(&dump).expect("serialize");
        let back: TraceDump = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(dump, back);
    }

    #[test]
    fn recorder_ring_keeps_newest_events() {
        let recorder = FlightRecorder::new();
        let total = (TRACE_RING_SLOTS + 100) as u64;
        for index in 0..total {
            recorder.record(TraceKind::SessionOpen, index, 0, 0);
        }
        let dump = recorder.dump();
        assert_eq!(dump.recorded, total);
        assert_eq!(dump.events.len(), TRACE_RING_SLOTS);
        // Oldest surviving event is exactly `total - SLOTS`.
        assert_eq!(
            dump.events.first().map(|e| e.seq),
            Some(total - TRACE_RING_SLOTS as u64)
        );
        assert_eq!(dump.events.last().map(|e| e.seq), Some(total - 1));
        // Events come out in recording order.
        for window in dump.events.windows(2) {
            assert!(window[0].seq < window[1].seq);
        }
    }

    #[test]
    fn recorder_is_consistent_under_concurrent_writers() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Every field of an event derives from one value, so an event that
        // mixes two writes' fields cannot pass the check below.  Writers wrap
        // the ring many times while two readers dump it concurrently.
        const WRITERS: u64 = 4;
        const EVENTS: u64 = 20_000;
        const KINDS: [TraceKind; 4] = [
            TraceKind::SessionOpen,
            TraceKind::SessionClose,
            TraceKind::LookupExecuted,
            TraceKind::FetchRetry,
        ];
        let kind_of = |value: u64| KINDS[(value % KINDS.len() as u64) as usize];
        let recorder = Arc::new(FlightRecorder::new());
        let writing = Arc::new(AtomicBool::new(true));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (recorder, writing) = (Arc::clone(&recorder), Arc::clone(&writing));
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while writing.load(Ordering::Relaxed) {
                        for event in recorder.dump().events {
                            let value = event.key;
                            assert_eq!(
                                (event.kind.as_str(), event.a, event.b),
                                (
                                    TraceKind::name(kind_of(value).code()),
                                    value.rotate_left(17),
                                    !value
                                ),
                                "a dump returned an event mixing two writes"
                            );
                            checked += 1;
                        }
                    }
                    checked
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for index in 0..EVENTS {
                        let value = writer << 32 | index;
                        recorder.record(kind_of(value), value, value.rotate_left(17), !value);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer");
        }
        writing.store(false, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader");
        }
        assert_eq!(recorder.events_recorded(), WRITERS * EVENTS);
        let settled = recorder.dump();
        assert!(!settled.events.is_empty() && settled.events.len() <= TRACE_RING_SLOTS);
    }

    #[test]
    fn global_registry_is_shared_and_lock_free_to_touch() {
        let before = global().long_polls.get();
        global().long_polls.incr();
        assert!(global().long_polls.get() > before);
    }

    #[test]
    fn anomaly_rate_limit_allows_one_dump_per_window() {
        let telemetry = Telemetry::new();
        for _ in 0..10 {
            telemetry.anomaly(TraceKind::Shed, 0, 1, 2);
        }
        // All ten events land in the ring; at most one dump fires (the
        // first; now_us() cannot advance 5 s during this loop). The first
        // call may also be suppressed when the process-epoch clock is still
        // inside the initial window.
        assert_eq!(telemetry.recorder.events_recorded(), 10);
        assert!(telemetry.anomaly_dumps.get() <= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recorded_values_stay_within_their_bucket_bounds(value in 0u64..u64::MAX) {
            let index = bucket_index(value);
            prop_assert!(index < HISTOGRAM_BUCKETS);
            prop_assert!(bucket_lower(index) <= value);
            prop_assert!(value <= bucket_upper(index));
        }

        #[test]
        fn quantile_never_understates_any_recorded_value_rank(
            values in proptest::collection::vec(0u64..10_000_000, 1..200)
        ) {
            let mut snapshot = HistogramSnapshot::empty();
            for &value in &values {
                snapshot.record(value);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // p100 equals the exact max.
            prop_assert_eq!(snapshot.quantile(1.0), *sorted.last().unwrap());
            // Every quantile is >= the exact rank value (upper-bound
            // reporting) and within one bucket width above it.
            for &q in &[0.5, 0.95, 0.99] {
                let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let reported = snapshot.quantile(q);
                prop_assert!(reported >= exact, "q={} reported {} < exact {}", q, reported, exact);
                prop_assert!(reported <= bucket_upper(bucket_index(exact)),
                    "q={} reported {} above exact value's bucket bound", q, reported);
            }
        }

        #[test]
        fn merge_quantiles_match_recording_into_one(
            left in proptest::collection::vec(0u64..1_000_000, 0..100),
            right in proptest::collection::vec(0u64..1_000_000, 0..100)
        ) {
            let mut a = HistogramSnapshot::empty();
            for &value in &left {
                a.record(value);
            }
            let mut b = HistogramSnapshot::empty();
            for &value in &right {
                b.record(value);
            }
            let mut combined = HistogramSnapshot::empty();
            for &value in left.iter().chain(&right) {
                combined.record(value);
            }
            a.merge(&b);
            prop_assert_eq!(&a, &combined);
            for &q in &[0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(a.quantile(q), combined.quantile(q));
            }
        }
    }
}
