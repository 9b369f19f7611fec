//! Metrics, output checks and the rendered result.
//!
//! A run prints, in order: one human-readable line per metric, one
//! `report` JSON line (provenance, every end-to-end metric with its unit
//! and sample count, failed checks, per-sample details), and last the
//! result line the benchmark contract asks for:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":v,"unit":"u"},...}}
//! ```
//!
//! Both JSON lines are built as [`Value`] trees and rendered by the fleet
//! admin plane's codec.

use std::fmt::Write as _;
use std::process::Command;

use cryptodrop_fleet::rpc::{obj, Value};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// For a percentile, the number of samples it was taken from.
    pub n: Option<usize>,
}

impl Metric {
    /// A plain measurement.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            n: None,
        }
    }

    /// A percentile of `n` samples.
    pub fn pct(name: impl Into<String>, p: crate::stats::Percentile, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: p.value,
            unit,
            n: Some(p.n),
        }
    }
}

/// The end-to-end metrics every workload reports, as listed in
/// `BENCHMARK.json` (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("shadow_bytes_held", "bytes"),
];

/// Output checks: every check is one attempt; a failed one is counted and
/// its message kept (the first few), never panicked on.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Messages of the first failed checks.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message());
            }
        }
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    /// failed / attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one workload phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// End-to-end metrics: the five of [`END_TO_END`] plus whichever of
    /// the workload-specific ones (containment, restore, files lost,
    /// residency) the workload has.
    pub e2e: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Extra members of the report line.
    pub details: Vec<(&'static str, Value)>,
}

impl Phase {
    /// The value of the end-to-end metric `name` (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// `v` as a JSON number (non-finite values, which no metric should
/// produce, become 0). Rendering keeps all its digits.
pub fn num(v: f64) -> Value {
    Value::Num(if v.is_finite() { v } else { 0.0 })
}

/// `{"<name>": {"value": v, "unit": "u"[, "n": count]}, ...}`; the sample
/// count only when `with_n`.
fn metrics_object(metrics: &[Metric], with_n: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut members = vec![("value", num(m.value)), ("unit", m.unit.into())];
                if let (true, Some(n)) = (with_n, m.n) {
                    members.push(("n", n.into()));
                }
                (m.name.clone(), obj(members))
            })
            .collect(),
    )
}

/// The contract's result line.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    obj(vec![
        ("correct", (checks.failed == 0).into()),
        ("attempted", checks.attempted.max(1).into()),
        ("failed", checks.failed.into()),
        ("metrics", metrics_object(metrics, false)),
    ])
    .render()
}

/// Where and how the numbers were produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--seconds` argument.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Available parallelism.
    pub nproc: usize,
    /// The producing commit (`unknown` outside a git checkout).
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.to_string())
}

impl Provenance {
    /// Collects the host facts for one run.
    pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: crate::nproc(),
            // Only a checkout's own repository counts: git would otherwise
            // search the parent directories.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The `report` line: provenance, every end-to-end metric with its unit
/// and sample count, the error rate, failed checks, and per-workload
/// details.
pub fn report_line(p: &Provenance, phase: &Phase, layers: &[Metric]) -> String {
    let mut e2e = phase.e2e.clone();
    e2e.push(Metric {
        n: Some(phase.checks.attempted as usize),
        ..Metric::new("error_rate", phase.checks.error_rate(), "ratio")
    });
    let failures = phase.checks.messages.iter().map(|m| m.as_str().into());
    let mut members = vec![
        ("workload", p.workload.as_str().into()),
        ("seed", p.seed.into()),
        ("seconds", num(p.seconds)),
        ("trace", p.trace.into()),
        ("nproc", p.nproc.into()),
        ("commit", p.commit.as_str().into()),
        ("rustc", p.rustc.as_str().into()),
        ("end_to_end", metrics_object(&e2e, true)),
        ("per_layer", metrics_object(layers, true)),
        ("failures", Value::Arr(failures.collect())),
    ];
    members.extend(phase.details.iter().cloned());
    obj(vec![("report", obj(members))]).render()
}

/// One human-readable line per metric.
pub fn human_lines(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
        let _ = writeln!(
            out,
            "{workload:>16} {:<34} {:>16} {}{n}",
            m.name, m.value, m.unit
        );
    }
    out
}
