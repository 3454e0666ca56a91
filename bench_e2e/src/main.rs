//! `bench_e2e`: the repo's one benchmark.  See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out FILE] [--check-against FILE]
//! ```
//!
//! Without `--workload` every workload runs.  `--trace 0` (the default)
//! measures the end-to-end metrics with tracing off; `--trace 1` (or
//! `--traced`) is the separate traced run that yields the per-layer
//! metrics.  Each workload ends with one JSON line in the driver's shape.

mod alloc_count;
mod end_to_end;
mod engine_run;
mod layers;
mod metrics;
mod pin;
mod procfs;
mod report;
mod spans;
mod stats;
mod traced;
mod windows;
mod wire_run;
mod workloads;

use std::process::ExitCode;

use workloads::{Spec, RUN_SECONDS, SPECS};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// One run's knobs after the command line is read.
pub struct Options {
    pub seed: u64,
    /// Measured seconds per run: the timed phases of a workload's repeats
    /// add up to it.
    pub seconds: f64,
    pub quick: bool,
}

/// What one workload's run reports.
#[derive(Default)]
pub struct Outcome {
    pub samples: report::Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Violated checks; empty means every output was correct.
    pub violations: Vec<String>,
}

struct Cli {
    workloads: Vec<Spec>,
    options: Options,
    traced: bool,
    out: Option<String>,
    check_against: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: SPECS.to_vec(),
        options: Options {
            seed: 1996,
            seconds: RUN_SECONDS,
            quick: false,
        },
        traced: false,
        out: None,
        check_against: None,
    };
    let mut seconds = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = Spec::named(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                cli.workloads = vec![spec];
            }
            "--seed" => cli.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let parsed: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.options.quick = true,
            "--out" => cli.out = Some(value()?),
            "--check-against" => cli.check_against = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.options.quick {
        // One repeat over ~2% of the requests: the whole command, all four
        // workloads, finishes in seconds.  A smoke test, not a measurement.
        cli.options.seconds = 1.0;
        for spec in &mut cli.workloads {
            *spec = spec.quick();
        }
    }
    if let Some(seconds) = seconds {
        cli.options.seconds = seconds;
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<bool, String> {
    // Before anything spawns a thread or a child: they inherit the mask.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("env {}", procfs::environment(cores, pin::to_one_cpu()));
    println!(
        "run seed={} seconds={} trace={} quick={}",
        cli.options.seed,
        cli.options.seconds,
        u8::from(cli.traced),
        cli.options.quick
    );
    let mut all_correct = true;
    let mut lines = String::new();
    for spec in &cli.workloads {
        println!("workload {} — {}", spec.name, spec.why);
        let outcome = if cli.traced {
            traced::run(spec, &cli.options)?
        } else {
            end_to_end::run(spec, &cli.options)?
        };
        for violation in &outcome.violations {
            println!("violation {}: {violation}", spec.name);
        }
        let correct = outcome.violations.is_empty() && outcome.failed == 0;
        all_correct &= correct;
        let summaries = outcome.samples.summaries();
        let workload_lines = report::result_lines(spec.name, &summaries);
        print!("{workload_lines}");
        lines.push_str(&workload_lines);
        let names: Vec<&str> = if cli.traced {
            metrics::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            metrics::END_TO_END.iter().map(|m| m.name).collect()
        };
        println!(
            "{}",
            report::json_line(
                names.into_iter(),
                &summaries,
                correct,
                outcome.attempted.max(1),
                outcome.failed
            )
        );
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, &lines).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &cli.check_against {
        let reference = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let outside = report::check_against(
            &report::parse_results(&reference),
            &report::parse_results(&lines),
        );
        println!("check: {outside} end-to-end medians outside their bound");
        all_correct &= outside == 0;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            ExitCode::FAILURE
        }
    }
}
