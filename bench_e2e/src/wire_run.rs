//! The wire workloads: a child `watchmand`, one closed-loop connection, and
//! the checks on what comes back.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::layers::{self, Connection, Counters, GetResponse, MetricsSnapshot, Trace, WireSource};
use crate::procfs::{self, CpuTime};
use crate::spans::Recorder;
use crate::windows::Marks;
use crate::workloads::{Cursor, Sequence, Spec, Timed, Until};

/// Give up on a phase after this many failed operations: a dead server
/// should fail the run, not spin until the deadline.
const MAX_FAILURES: u64 = 100;

// ---------------------------------------------------------------------------
// the child server
// ---------------------------------------------------------------------------

/// A running `watchmand` child.  Dropped without [`Server::finish`], it is
/// killed and reaped, so no path out of a run leaves a process behind.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts the `watchmand` that sits beside this executable and waits
    /// for its `listening on` line.
    pub fn spawn(capacity_bytes: u64) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name("watchmand");
        let mut child = Command::new(&path)
            .args(layers::watchmand_args(capacity_bytes))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_owned),
            _ => None,
        };
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            // Dropping `server` kills and reaps the child.
            None => Err(format!("watchmand printed no address: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// After `SHUTDOWN` was acknowledged: the server must drain and exit 0.
    pub fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("watchmand exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("watchmand did not exit after SHUTDOWN".to_owned()),
                Err(e) => return Err(format!("waiting for watchmand: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        // Drain so a late line never hits a closed pipe in the child.
        let _ = self.stdout.read_to_end(&mut Vec::new());
    }
}

// ---------------------------------------------------------------------------
// the closed loop
// ---------------------------------------------------------------------------

/// What the connection saw over one phase.
#[derive(Default)]
pub struct Tally {
    pub requests: u64,
    /// One sample per `get_many` round trip, in the order they completed.
    pub round_trip_ns: Vec<u64>,
    /// The round trips answered from the cache alone (every response a
    /// hit), and those that executed at least one query.
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub hits: u64,
    pub executed: u64,
    pub coalesced: u64,
    pub stale: u64,
    pub service_hit_us: u64,
    pub service_miss_us: u64,
    pub updates: u64,
    pub affected: u64,
    pub invalidated: u64,
    /// Operations attempted, updates included.
    pub attempted: u64,
    /// Error responses, `BUSY`, transport errors, and responses that failed
    /// the output check.
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Failures in a warm-up count against the run too.
    pub fn absorb_failures(&mut self, warm: Tally) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        self.first_failure = warm.first_failure.or(self.first_failure.take());
    }

    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }
}

/// The documented synthesis rule: the payload of a retrieved set is its
/// query signature's 8 little-endian bytes repeated to `result_bytes`, and
/// a response carries the first `min(result_bytes, cap)` of them.
fn response_is_correct(
    response: &GetResponse,
    signature: u64,
    result_bytes: u64,
    cap: u32,
) -> bool {
    let pattern = signature.to_le_bytes();
    response.full_len == result_bytes
        && response.prefix.len() as u64 == result_bytes.min(u64::from(cap))
        && response
            .prefix
            .chunks(8)
            .all(|chunk| chunk == &pattern[..chunk.len()])
}

/// Takes ranges of `spec.pipeline` positions from the cursor until `until`
/// and sends each as one `get_many`, waiting for the answer before taking
/// the next (the closed loop).  A timed phase passes its `marks`.
pub fn drive(
    connection: &mut Connection,
    sequence: Sequence<'_>,
    until: Until,
    tally: &mut Tally,
    mut marks: Option<&mut Marks>,
    mut recorder: Option<&mut Recorder>,
) {
    let Sequence {
        spec,
        trace,
        signatures,
        cursor,
    } = sequence;
    let mut scratch = Vec::new();
    while let Some(positions) = cursor.take(spec.pipeline, until) {
        if tally.failed > MAX_FAILURES {
            return;
        }
        let first = positions.start as u64;
        let size = positions.len() as u64;
        let batch: Vec<_> = positions
            .clone()
            .map(|position| {
                let request = sequence.at(position);
                layers::get_request(
                    &request.text(),
                    request.query,
                    request.timestamp_us,
                    spec.payload_cap,
                )
            })
            .collect();
        tally.attempted += size;

        let request_span = recorder.as_mut().map(|r| r.open("live.request", first));
        if let Some(recorder) = recorder.as_mut() {
            // The same encode `get_many` is about to do, where a span can see it.
            let requests: Vec<_> = batch.iter().cloned().map(layers::wrap_request).collect();
            let span = recorder.open("live.encode_request_into", first);
            scratch.clear();
            for (offset, request) in requests.iter().enumerate() {
                layers::encode_request_into(&mut scratch, first + offset as u64, request);
            }
            recorder.close(span, size as u32);
        }
        let call_span = recorder.as_mut().map(|r| r.open("live.get_many", first));
        let started = Instant::now();
        let outcome = connection.get_many(batch);
        let finished = Instant::now();
        let elapsed_ns = finished.duration_since(started).as_nanos() as u64;
        if let (Some(recorder), Some(span)) = (recorder.as_mut(), call_span) {
            recorder.close(span, size as u32);
        }

        match outcome {
            Err(error) => tally.fail(size, || format!("get_many: {error}")),
            Ok(responses) => {
                tally.requests += size;
                tally.round_trip_ns.push(elapsed_ns);
                for (response, position) in responses.iter().zip(positions.clone()) {
                    let request = sequence.at(position);
                    if !response_is_correct(
                        response,
                        request.signature(signatures),
                        request.query.result_bytes,
                        spec.payload_cap,
                    ) {
                        tally.fail(1, || format!("wrong payload at position {position}"));
                    }
                    match response.source {
                        WireSource::Hit => {
                            tally.hits += 1;
                            tally.service_hit_us += response.service_us;
                        }
                        WireSource::Executed => {
                            tally.executed += 1;
                            tally.service_miss_us += response.service_us;
                        }
                        WireSource::Coalesced => tally.coalesced += 1,
                        WireSource::Stale => tally.stale += 1,
                    }
                }
                if responses.iter().all(|r| r.source == WireSource::Hit) {
                    tally.hit_ns.push(elapsed_ns);
                } else if responses.iter().any(|r| r.source == WireSource::Executed) {
                    tally.miss_ns.push(elapsed_ns);
                }
            }
        }
        if let Some(marks) = marks.as_mut() {
            let ticked = marks.tick(finished, tally.round_trip_ns.len(), tally.hit_ns.len());
            if let Err(why) = ticked {
                tally.fail(0, || why);
                return;
            }
        }
        if let (Some(recorder), Some(span)) = (recorder.as_mut(), request_span) {
            recorder.close(span, size as u32);
        }

        // Writes beside reads: the request that completes a block of
        // `invalidate_every` is followed by the next update.
        let every = spec.invalidate_every;
        if every > 0 && positions.end / every > positions.start / every {
            let update = positions.end / every - 1;
            let relation = &trace.relations[update % trace.relations.len()];
            tally.attempted += 1;
            let span = recorder
                .as_mut()
                .map(|r| r.open("live.invalidate_relation", first));
            let started = Instant::now();
            let outcome = connection.invalidate_relation(relation);
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            if let (Some(recorder), Some(span)) = (recorder.as_mut(), span) {
                recorder.close(span, 1);
            }
            match outcome {
                Ok((affected, invalidated)) => {
                    tally.updates += 1;
                    tally.update_ns.push(elapsed_ns);
                    tally.affected += u64::from(affected);
                    tally.invalidated += u64::from(invalidated);
                }
                Err(error) => tally.fail(1, || format!("INVALIDATE {relation}: {error}")),
            }
        }
    }
}

/// The query signature of every trace record (what payloads are checked
/// against); empty work when the workload asks for no payload bytes.
pub fn signatures(spec: &Spec, trace: &Trace) -> Vec<u64> {
    if spec.payload_cap == 0 {
        return vec![0; trace.len()];
    }
    (0..trace.len())
        .map(|index| layers::signature_of(&layers::derive_key(trace.query(index).text)))
        .collect()
}

// ---------------------------------------------------------------------------
// one repeat: fresh server, warm-up, timed phase, checks
// ---------------------------------------------------------------------------

/// What the per-layer report additionally reads off the child server.
pub struct Scrape {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub scrape_us: f64,
    pub threads: u64,
    pub switches: u64,
}

pub struct Repeat {
    pub setup_s: f64,
    pub generate_s: f64,
    pub timed_s: f64,
    pub tally: Tally,
    /// The timed phase's windows, CPU charged to the server.
    pub marks: Marks,
    pub counters: Counters,
    pub server_cpu: CpuTime,
    pub client_cpu: CpuTime,
    pub peak_rss_mb: f64,
    pub scrape: Option<Scrape>,
    /// Violated run-level checks (empty = correct).
    pub violations: Vec<String>,
}

/// One full set-up (trace, server, connection, warm-up) and one timed
/// phase against it.
pub fn repeat(spec: &Spec, seed: u64, timed: Timed, scrape: bool) -> Result<Repeat, String> {
    let setup_started = Instant::now();
    let trace = layers::generate_trace(spec.trace, spec.queries, seed);
    let generate_s = setup_started.elapsed().as_secs_f64();
    let signatures = signatures(spec, &trace);
    let server = Server::spawn(spec.capacity_bytes(&trace))?;
    let mut connection = Connection::open(&server.addr)?;
    let cursor = Cursor::new();
    let sequence = Sequence {
        spec,
        trace: &trace,
        signatures: &signatures,
        cursor: &cursor,
    };
    let mut warm = Tally::default();
    let until = Until::Position(spec.warmup);
    drive(&mut connection, sequence, until, &mut warm, None, None);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let pid = server.pid();
    let metrics_before = if scrape {
        Some(connection.metrics()?)
    } else {
        None
    };
    let switches_before = procfs::threads_and_switches(Some(pid));
    let counters_before = connection.counters()?;
    let server_cpu_before =
        procfs::cpu_time(Some(pid)).ok_or("cannot read the server's /proc stat")?;
    let client_cpu_before = procfs::cpu_time(None).ok_or("cannot read /proc/self/stat")?;

    let mut marks = Marks::start(Some(pid))?;
    let until = timed.until(marks.started(), spec.warmup);
    let mut tally = Tally::default();
    drive(
        &mut connection,
        sequence,
        until,
        &mut tally,
        Some(&mut marks),
        None,
    );
    let timed_s = marks.started().elapsed().as_secs_f64();

    let client_cpu = procfs::cpu_time(None)
        .ok_or("cannot read /proc/self/stat")?
        .since(&client_cpu_before);
    let server_cpu = procfs::cpu_time(Some(pid))
        .ok_or("cannot read the server's /proc stat")?
        .since(&server_cpu_before);
    let counters = connection.counters()?.since(&counters_before);
    let scrape = match metrics_before {
        None => None,
        Some(before) => {
            let started = Instant::now();
            let after = connection.metrics()?;
            let scrape_us = started.elapsed().as_secs_f64() * 1e6;
            let (threads, switches) = procfs::threads_and_switches(Some(pid)).unwrap_or((0, 0));
            Some(Scrape {
                before,
                after,
                scrape_us,
                threads,
                switches: switches.saturating_sub(switches_before.map_or(0, |(_, s)| s)),
            })
        }
    };
    let peak_rss_mb = procfs::peak_rss_mb(Some(pid)).ok_or("cannot read the server's VmHWM")?;

    let mut violations = Vec::new();
    tally.absorb_failures(warm);
    if let Some(why) = &tally.first_failure {
        violations.push(format!("{} operations failed, first: {why}", tally.failed));
    }
    if (tally.hits, tally.executed, tally.coalesced)
        != (counters.hits, counters.misses, counters.coalesced)
    {
        violations.push(format!(
            "client saw {}/{}/{} hits/executed/coalesced, server counted {}/{}/{}",
            tally.hits,
            tally.executed,
            tally.coalesced,
            counters.hits,
            counters.misses,
            counters.coalesced
        ));
    }
    if !counters.balanced() || counters.references != tally.requests {
        violations.push(format!(
            "references {} != requests sent {} (or the books do not balance: {counters:?})",
            counters.references, tally.requests
        ));
    }
    connection.shutdown_server()?;
    drop(connection);
    if let Err(why) = server.finish() {
        violations.push(why);
    }
    Ok(Repeat {
        setup_s,
        generate_s,
        timed_s,
        tally,
        marks,
        counters,
        server_cpu,
        client_cpu,
        peak_rss_mb,
        scrape,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(full_len: u64, prefix: Vec<u8>) -> GetResponse {
        GetResponse {
            source: WireSource::Hit,
            cost_blocks: 1.0,
            full_len,
            prefix,
            service_us: 0,
            deadline_exceeded: false,
        }
    }

    #[test]
    fn payload_check_follows_the_synthesis_rule() {
        let signature = 0x0807_0605_0403_0201u64;
        let good = response(11, vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3]);
        assert!(response_is_correct(&good, signature, 11, 32));
        // Capped below the full length: only the prefix travels.
        assert!(response_is_correct(
            &response(11, vec![1, 2, 3]),
            signature,
            11,
            3
        ));
        assert!(response_is_correct(&response(11, vec![]), signature, 11, 0));
        // Wrong byte, wrong length, wrong full_len.
        assert!(!response_is_correct(
            &response(11, vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 9]),
            signature,
            11,
            32
        ));
        assert!(!response_is_correct(
            &response(11, vec![1, 2]),
            signature,
            11,
            3
        ));
        assert!(!response_is_correct(
            &response(12, vec![1, 2, 3]),
            signature,
            11,
            3
        ));
    }
}
