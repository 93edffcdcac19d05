//! The repository benchmark: end-to-end workloads driven through the
//! engine's public API, plus a traced run that times the calls into
//! each layer from outside. See README.md for the workloads, the metric
//! definitions and the prediction table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_open|churn_sharded|batch_offline|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the run's JSON summary; a failed
//! correctness check exits with code 1 after printing it.

mod batch;
mod check;
mod churn;
mod cohort;
mod decompose;
mod report;
mod rng;
mod serve_open;
mod stats;
mod trace;

use cohort::SetupTimes;
use report::Report;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["serve_open", "churn_sharded", "batch_offline"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The set-up breakdown of a traced run: medians over its set-ups.
pub fn setup_breakdown(report: &mut Report, setups: &[SetupTimes]) {
    let ms = |f: fn(&SetupTimes) -> f64| -> f64 {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    report.metric("data.parse_ms", ms(|s| s.parse.as_secs_f64() * 1e3), "ms");
    report.metric("engine.build_ms", ms(|s| s.build.as_secs_f64() * 1e3), "ms");
    report.metric(
        "similarity.warm_ms",
        ms(|s| s.warm.as_secs_f64() * 1e3),
        "ms",
    );
    report.metric(
        "similarity.warm_lists",
        ms(|s| s.warm_lists as f64),
        "count",
    );
}

fn run_one(args: &Args, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        report.per_layer_defaults();
    }
    let outcome = match workload {
        "serve_open" => serve_open::run(args, &mut report),
        "churn_sharded" => churn::run(args, &mut report),
        _ => batch::run(args, &mut report),
    };
    outcome.map_err(|e| format!("{workload}: {e}"))?;
    report.meta("workload", report::json_str(workload));
    report.meta("seed", args.seed);
    report.meta("seconds", report::json_num(args.seconds));
    report.meta("trace", u8::from(args.trace));
    report.meta("available_parallelism", available_parallelism());
    report.meta("failed_frac", report::json_num(report.failed_frac()));
    if args.trace {
        report.retain_per_layer();
    } else {
        report.retain_end_to_end();
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut combined = Report::default();
    let mut correct = true;
    for workload in &workloads {
        let report = match run_one(&args, workload) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        correct &= report.correct();
        if workloads.len() == 1 {
            report.print(workload);
        } else {
            report.print_lines(workload);
            combined.absorb(workload, &report);
        }
    }
    if workloads.len() > 1 {
        println!("{}", combined.summary_json());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve_open",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve_open");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }
}
