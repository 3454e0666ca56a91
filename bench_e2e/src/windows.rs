//! A timed phase cut into windows.
//!
//! The reference container shares its host: a neighbour's burst slows
//! everything here for tens to hundreds of milliseconds, and a total over a
//! whole phase carries every such burst.  The disturbance is one-sided — a
//! window is slowed or it is not, none is sped up — so each timed metric
//! is computed per window of [`WINDOW`] and a run reports the best decile
//! of its windows ([`crate::stats::Statistic::BestDecile`]): the speed of
//! the program when the machine leaves it alone, which a tenth of the
//! windows have to agree on.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::procfs;

pub const WINDOW: Duration = Duration::from_millis(100);

/// The state of a phase when a window closed.
#[derive(Clone, Copy)]
struct Mark {
    at_ns: u64,
    /// CPU time charged to the measured process so far.
    cpu_ns: u64,
    round_trips: usize,
    hit_round_trips: usize,
}

/// One window: how long it really was, what the measured process was
/// charged over it, and which of the phase's latency samples fell in it.
pub struct Window {
    pub seconds: f64,
    pub cpu_us: f64,
    /// Indexes into the phase's round-trip samples.
    pub round_trips: Range<usize>,
    /// Indexes into the phase's samples of round trips answered from the cache.
    pub hit_round_trips: Range<usize>,
}

/// Marks the window boundaries of one timed phase.  The driving loop calls
/// [`Marks::tick`] after every round trip; about every [`WINDOW`] that costs
/// one read of the measured process's `/proc` entry, otherwise a comparison.
pub struct Marks {
    /// The process whose CPU time is charged: the server, or `None` for this one.
    pid: Option<u32>,
    started: Instant,
    marks: Vec<Mark>,
}

impl Marks {
    /// Starts the phase's clock and takes the opening mark.
    pub fn start(pid: Option<u32>) -> Result<Marks, String> {
        let mut marks = Marks {
            pid,
            started: Instant::now(),
            marks: Vec::new(),
        };
        marks.push(0, 0, 0)?;
        Ok(marks)
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    fn push(
        &mut self,
        at_ns: u64,
        round_trips: usize,
        hit_round_trips: usize,
    ) -> Result<(), String> {
        let cpu_ns =
            procfs::on_cpu_ns(self.pid).ok_or("cannot read the measured process's CPU time")?;
        self.marks.push(Mark {
            at_ns,
            cpu_ns,
            round_trips,
            hit_round_trips,
        });
        Ok(())
    }

    /// `now` is when the latest round trip completed; the counts are the
    /// phase's samples so far.  A window is never shorter than [`WINDOW`];
    /// one that a stall stretched is as long as the stall made it.
    pub fn tick(
        &mut self,
        now: Instant,
        round_trips: usize,
        hit_round_trips: usize,
    ) -> Result<(), String> {
        let at_ns = now.duration_since(self.started).as_nanos() as u64;
        let last = self.marks.last().expect("start took the opening mark");
        if at_ns < last.at_ns + WINDOW.as_nanos() as u64 {
            return Ok(());
        }
        self.push(at_ns, round_trips, hit_round_trips)
    }

    /// The closed windows, in order.  What followed the last mark is the
    /// phase's unfinished tail and belongs to none.
    pub fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        self.marks.windows(2).map(|pair| {
            let (open, close) = (pair[0], pair[1]);
            Window {
                seconds: (close.at_ns - open.at_ns) as f64 / 1e9,
                cpu_us: (close.cpu_ns - open.cpu_ns) as f64 / 1e3,
                round_trips: open.round_trips..close.round_trips,
                hit_round_trips: open.hit_round_trips..close.hit_round_trips,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_fall_a_window_apart_and_the_tail_is_dropped() {
        let mut marks = Marks::start(None).unwrap();
        let started = marks.started();
        let ticks = [
            (40, 4, 2),
            (99, 9, 5),
            (100, 10, 5),
            (150, 15, 8),
            (320, 32, 20),
            (350, 35, 21),
        ];
        for (ms, round_trips, hits) in ticks {
            marks
                .tick(started + Duration::from_millis(ms), round_trips, hits)
                .unwrap();
        }
        let windows: Vec<Window> = marks.windows().collect();
        // Marks at 0, 100 and 320 ms; 350 ms is the unfinished tail.
        assert_eq!(windows.len(), 2);
        assert_eq!(
            (
                windows[0].round_trips.clone(),
                windows[0].hit_round_trips.clone()
            ),
            (0..10, 0..5)
        );
        assert_eq!(
            (
                windows[1].round_trips.clone(),
                windows[1].hit_round_trips.clone()
            ),
            (10..32, 5..20)
        );
        assert!((windows[0].seconds - 0.100).abs() < 1e-9);
        assert!((windows[1].seconds - 0.220).abs() < 1e-9);
    }
}
