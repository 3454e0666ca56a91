//! The interleaving-explorer front end: runs every built-in concurrency
//! model under the controlled scheduler and fails (exit 1) if any schedule
//! deadlocks, loses a wakeup, or violates a model invariant.
//!
//! Usage (the explorer schedules at the real locks, through the seam the
//! `lock-graph` feature compiles into `watchman_core::sync`):
//!
//! ```text
//! cargo run --release -p watchman-core --features lock-graph --bin checker
//! ```
//!
//! Every model gets the same budget of [`BUDGET`] schedules; the summary
//! line says whether a model's schedules were explored exhaustively or the
//! budget bounded them.
//!
//! The two self-test models are *expected* to fail: two threads taking two
//! locks in opposite order must deadlock, and a waiter that checks its
//! predicate before it takes the condvar's lock must lose its wakeup.  The
//! run fails if the explorer does **not** find both, proving detection
//! works before the clean results of the real models are trusted.

use watchman_core::checker::models::{
    CircuitBreakerModel, DriverSeatModel, InvertedLockOrderModel, ReactorRegistrationModel,
    RunQueueModel, RuntimeDropModel, SingleFlightModel, UncheckedWaitModel,
};
use watchman_core::checker::{explore, Model};

/// Schedules explored per model.
const BUDGET: usize = 1_500;

fn main() {
    let models: [&dyn Model; 6] = [
        &SingleFlightModel,
        &RuntimeDropModel,
        &ReactorRegistrationModel,
        &RunQueueModel,
        &CircuitBreakerModel,
        &DriverSeatModel,
    ];

    let mut total_schedules = 0;
    let mut failed = false;
    for model in models {
        let exploration = explore(model, BUDGET);
        total_schedules += exploration.schedules;
        println!("{}", exploration.summary());
        if let Some((schedule, message)) = exploration.violations.first() {
            println!("  FIRST VIOLATION: {message}");
            println!("  replay schedule: {schedule:?}");
            failed = true;
        }
    }

    // Prove the detector detects: each self-test must fail as seeded.
    let self_tests: [(&dyn Model, &str); 2] = [
        (&InvertedLockOrderModel, "deadlock"),
        (&UncheckedWaitModel, "lost wakeup"),
    ];
    for (model, seeded) in self_tests {
        let self_test = explore(model, BUDGET);
        total_schedules += self_test.schedules;
        let found = self_test
            .violations
            .iter()
            .any(|(_, message)| message.contains(seeded));
        println!(
            "{} — {}",
            self_test.summary(),
            if found {
                "detector self-test passed".to_owned()
            } else {
                format!("SELF-TEST FAILED: seeded {seeded} not found")
            }
        );
        failed |= !found;
    }

    println!("total: {total_schedules} distinct schedules explored");
    if failed {
        std::process::exit(1);
    }
}
