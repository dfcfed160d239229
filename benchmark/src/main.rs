//! Command-line entry point of the benchmark:
//!
//! ```sh
//! quicert-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line, human-readable notes and metrics, and ends
//! standard output with one JSON result line.

use std::process::ExitCode;

use quicert_benchmark::{run, stats, Run, Sizes, Workload, WORKERS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: quicert-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("flags take one value each");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    let run_spec = Run {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::standard(),
    };
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    let sizes = &run_spec.sizes;
    let service = if workload == Workload::ChurnService {
        format!(
            " segment={} ticks={} migration_tick={}",
            sizes.churn_segment, sizes.churn_ticks, sizes.churn_migration_tick
        )
    } else {
        String::new()
    };
    println!(
        "context: workload={} seed={seed} traced={trace} workers={} nproc={} domains={}{service} \
         rustc=\"{}\" git={}",
        workload.name(),
        if trace { 1 } else { WORKERS },
        stats::nproc(),
        sizes.domains(workload),
        env("QUICERT_BENCH_RUSTC"),
        env("QUICERT_BENCH_GIT_REV"),
    );
    let outcome = run(&run_spec);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "failed_ratio {:.6} ({} of {} output checks failed)",
        outcome.failed_ratio(),
        outcome.failed,
        outcome.attempted
    );
    for &(name, unit) in quicert_benchmark::Outcome::expected(trace) {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("metric {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", outcome.result_line(trace));
    ExitCode::SUCCESS
}
