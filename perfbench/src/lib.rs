//! End-to-end and per-layer benchmark of the CryptoDrop reproduction.
//!
//! The benchmark drives the crates' public API from outside and changes
//! no crate. Four workloads (see [`workloads`]) each stress a different
//! layer; a run prints every metric by name with its unit, checks the
//! program's outputs, and ends with one JSON result line (see
//! [`report`]). `--trace 1` runs the workload twice, untraced and traced,
//! and reports the per-layer numbers instead (see [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::{
    human_lines, report_line, result_line, Checks, Metric, Phase, Provenance, END_TO_END,
};
use trace::LayerAcc;
use workloads::Opts;

/// Available parallelism: the cap on client threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

/// Runs one phase of workload `name`; traced when `acc` is given.
pub fn run_phase(name: &str, opts: &Opts, acc: Option<&mut LayerAcc>) -> Phase {
    match name {
        workloads::office_edit::NAME => workloads::office_edit::run(opts, acc),
        workloads::ransom_rollback::NAME => workloads::ransom_rollback::run(opts, acc),
        workloads::fleet_tenants::NAME => workloads::fleet_tenants::run(opts, acc),
        workloads::burst_pipelined::NAME => workloads::burst_pipelined::run(opts, acc),
        other => unreachable!("unchecked workload name {other}"),
    }
}

/// What one workload run prints, and whether its checks passed.
#[derive(Debug)]
pub struct Outcome {
    /// Everything for standard output; the result line is last.
    pub stdout: String,
    /// Whether every output check passed.
    pub correct: bool,
}

/// Runs workload `name` as the command line asks.
pub fn run_workload(name: &str, args: &Args) -> Outcome {
    let provenance = Provenance::collect(name, args.seed, args.seconds, args.trace);
    let opts = |seconds| Opts {
        seed: args.seed,
        seconds,
    };
    let (phase, layers, headline): (Phase, Vec<Metric>, Vec<Metric>) = if args.trace {
        // Untraced and traced halves of the same length; their throughput
        // ratio is the tracing overhead.
        let plain = run_phase(name, &opts(args.seconds / 2.0), None);
        let mut acc = LayerAcc::default();
        let traced = run_phase(name, &opts(args.seconds / 2.0), Some(&mut acc));
        let layers = acc.finish(plain.value("ops_per_s"), traced.value("ops_per_s"));
        let mut phase = plain;
        phase.checks.merge(traced.checks);
        (phase, layers.clone(), layers)
    } else {
        let phase = run_phase(name, &opts(args.seconds), None);
        let headline = END_TO_END
            .iter()
            .map(|(metric, _)| {
                phase
                    .e2e
                    .iter()
                    .find(|m| m.name == *metric)
                    .cloned()
                    .unwrap_or_else(|| panic!("{name} did not report {metric}"))
            })
            .collect();
        (phase, Vec::new(), headline)
    };
    let checks: &Checks = &phase.checks;
    let mut stdout = human_lines(name, &phase.e2e);
    stdout.push_str(&human_lines(name, &layers));
    stdout.push_str(&format!(
        "{name:>16} {:<34} {:>16} ratio (n={})\n",
        "error_rate",
        checks.error_rate(),
        checks.attempted
    ));
    for failure in &checks.messages {
        stdout.push_str(&format!("{name:>16} FAILED: {failure}\n"));
    }
    stdout.push_str(&report_line(&provenance, &phase, &layers));
    stdout.push('\n');
    stdout.push_str(&result_line(checks, &headline));
    stdout.push('\n');
    Outcome {
        stdout,
        correct: checks.failed == 0,
    }
}
