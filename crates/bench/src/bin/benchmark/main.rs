//! The repository's benchmark: six named workloads, nine end-to-end
//! metrics, per-layer numbers from a traced pass. See `README.md` in this
//! directory for the tables and `BENCHMARK.json` at the repository root for
//! the driver's view of them.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of output is one JSON
//!     object {"correct", "attempted", "failed", "metrics"} (the driver's form)
//! benchmark run [--seed <n>] [--workload <name>] [--traced]
//!     every workload (or one), each in its own child process
//! benchmark repeat [<k>] [--seed <n>] [--workload <name>]
//!     the untraced pass k times (default 5): median, quartiles and relative
//!     spread of every end-to-end metric; non-zero exit if a spread exceeds
//!     the metric's bound
//! ```
//!
//! Every command exits non-zero if any operation or oracle check failed.

#![forbid(unsafe_code)]

mod client;
mod oracle;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use report::ParsedResult;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed `run` and `repeat` use when none is given.
const DEFAULT_SEED: u64 = 42;
/// Passes `repeat` makes when no count is given.
const DEFAULT_REPEATS: usize = 5;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--seed <n>] [--workload <name>] [--traced]
  benchmark repeat [<k>] [--seed <n>] [--workload <name>]";

/// Command-line options after the optional subcommand.
#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    traced: bool,
    count: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if spec::workload(name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                options.workload = Some(name.to_string());
            }
            "--seed" => {
                options.seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?);
            }
            "--seconds" => {
                let seconds: u64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--traced" => options.traced = true,
            count if options.count.is_none() && count.parse::<usize>().is_ok() => {
                options.count = count.parse().ok();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        Some("obs-overhead") => ("obs-overhead", &args[1..]),
        _ => ("single", &args[..]),
    };
    let options = match parse_options(rest) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        "single" => match (
            &options.workload,
            options.seed,
            options.seconds,
            options.trace,
        ) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
                single(workload, seed, seconds, trace)
            }
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        },
        "run" => run(&options),
        "repeat" => repeat(&options),
        // Internal: the child of `materialise_tc`'s traced pass.
        _ => {
            let ratio =
                workloads::materialise_tc::obs_overhead(options.seed.unwrap_or(DEFAULT_SEED));
            println!("{ratio}");
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result line last.
fn single(workload: &str, seed: u64, seconds: u64, trace: bool) -> bool {
    println!(
        "== {workload} ({}) {}",
        if trace { "traced" } else { "untraced" },
        report::host_line(seed, seconds)
    );
    if let Some(spec) = spec::workload(workload) {
        println!("  why: {}", spec.why);
    }
    let (untraced, traced) = workloads::passes(workload);
    let (pass, metrics) = if trace {
        (traced, spec::per_layer_units())
    } else {
        (untraced, spec::end_to_end_units())
    };
    let outcome = pass(seed, seconds);
    report::print_outcome(workload, &outcome, &metrics);
    println!("{}", report::render_result(&outcome, &metrics));
    outcome.correct()
}

/// Runs one workload in a child process of this executable, echoing its
/// output, and returns its parsed result line. A child keeps `peak_rss_mb`
/// per workload and keeps process-global state (the demand cache, the
/// symbol table, the `vadalog_obs` switch) from leaking between workloads.
fn run_child(workload: &str, seed: u64, trace: bool) -> Option<ParsedResult> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &spec::RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(report::parse_result);
    for line in lines {
        println!("{line}");
    }
    match result {
        Some(result) if output.status.success() == result.correct => Some(result),
        _ => {
            println!(
                "  {workload}: child exited with {} and no usable result",
                output.status
            );
            None
        }
    }
}

fn selected(options: &Options) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| options.workload.as_deref().is_none_or(|only| only == *name))
        .collect()
}

/// `run`: every selected workload once, untraced or traced.
fn run(options: &Options) -> bool {
    let seed = options.seed.unwrap_or(DEFAULT_SEED);
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for workload in selected(options) {
        match run_child(workload, seed, options.traced) {
            Some(result) => {
                all_correct &= result.correct;
                attempted += result.attempted;
                failed += result.failed;
            }
            None => all_correct = false,
        }
    }
    println!("== total: operations attempted {attempted} failed {failed}");
    all_correct
}

/// `repeat`: the untraced pass `k` times with the same seed; per workload
/// and end-to-end metric the median, quartiles and relative spread. Fails
/// if any spread exceeds the metric's bound — bounds are never widened to
/// pass; a metric that cannot hold its bound is demoted to per-layer.
fn repeat(options: &Options) -> bool {
    let seed = options.seed.unwrap_or(DEFAULT_SEED);
    let passes = options.count.unwrap_or(DEFAULT_REPEATS).max(2);
    let mut ok = true;
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for pass in 1..=passes {
        println!("== pass {pass} of {passes}");
        for workload in selected(options) {
            match run_child(workload, seed, false) {
                Some(result) => {
                    ok &= result.correct;
                    for metric in &spec::END_TO_END {
                        if let Some(&value) = result.metrics.get(metric.name) {
                            samples
                                .entry((workload, metric.name))
                                .or_default()
                                .push(value);
                        }
                    }
                }
                None => ok = false,
            }
        }
    }
    println!("== spread over {passes} passes, seed {seed}");
    println!(
        "  {:<15} {:<16} {:<6} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "better", "q1", "median", "q3", "spread", "bound"
    );
    for workload in selected(options) {
        for metric in &spec::END_TO_END {
            let Some(values) = samples.get(&(workload, metric.name)) else {
                continue;
            };
            if values.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(values);
            let spread = stats::relative_spread(values);
            let verdict = if spread <= metric.bound {
                ""
            } else {
                "  EXCEEDS"
            };
            ok &= spread <= metric.bound;
            println!(
                "  {workload:<15} {:<16} {:<6} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>5.0}%{verdict}",
                metric.name,
                metric.better.as_str(),
                spread * 100.0,
                metric.bound * 100.0
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let parsed = options(&[
            "--workload",
            "serve_read",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve_read"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (Some(7), Some(8), Some(true))
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(options(&["--workload", "nope"]).is_err());
        assert!(options(&["--seed"]).is_err());
        assert!(options(&["--seconds", "0"]).is_err());
        assert!(options(&["--seconds", "61"]).is_err());
        assert!(options(&["--trace", "2"]).is_err());
        assert!(options(&["--quick"]).is_err());
        assert_eq!(options(&["5", "--seed", "3"]).unwrap().count, Some(5));
        assert!(options(&["5", "6"]).is_err());
        assert!(options(&["--traced"]).unwrap().traced);
    }
}
