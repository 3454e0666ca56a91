//! The interleaving-explorer front end: runs every built-in concurrency
//! model under the controlled scheduler and fails (exit 1) if any schedule
//! deadlocks, loses a wakeup, or violates a model invariant.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p watchman-core --bin checker
//! ```
//!
//! Every model gets the same budget of 1,500 schedules; the summary line
//! says whether a model's schedules were explored exhaustively or the
//! budget bounded them.
//!
//! The self-test model (two threads taking two locks in opposite order) is
//! *expected* to deadlock; the run fails if the explorer does **not** find
//! it, proving deadlock detection works before the clean results of the
//! real models are trusted.

use watchman_core::checker::models::{
    CircuitBreakerModel, DriverSeatModel, InvertedLockOrderModel, ReactorRegistrationModel,
    RunQueueModel, RuntimeDropModel, SingleFlightModel,
};
use watchman_core::checker::{explore, Model};

fn main() {
    let budget = 1_500;
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
        let exploration = explore(model, budget);
        total_schedules += exploration.schedules;
        println!("{}", exploration.summary());
        if let Some((schedule, message)) = exploration.violations.first() {
            println!("  FIRST VIOLATION: {message}");
            println!("  replay schedule: {schedule:?}");
            failed = true;
        }
    }

    // Prove the detector detects: the inverted-order model must deadlock.
    let self_test = explore(&InvertedLockOrderModel, budget);
    total_schedules += self_test.schedules;
    let found_deadlock = self_test
        .violations
        .iter()
        .any(|(_, message)| message.contains("deadlock"));
    println!(
        "{} — {}",
        self_test.summary(),
        if found_deadlock {
            "detector self-test passed"
        } else {
            "SELF-TEST FAILED: seeded deadlock not found"
        }
    );
    failed |= !found_deadlock;

    println!("total: {total_schedules} distinct schedules explored");
    if failed {
        std::process::exit(1);
    }
}
