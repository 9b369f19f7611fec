//! The four workloads and what they share.

use std::time::Instant;

use cryptodrop::{CryptoDrop, SessionBuilder, Telemetry};
use cryptodrop_corpus::{Corpus, CorpusSpec};

use cryptodrop_fleet::rpc::{obj, Value};

use crate::report::{num, Metric};
use crate::stats::{median, percentile};

pub mod burst_pipelined;
pub mod edit;
pub mod fleet_tenants;
pub mod office_edit;
pub mod ransom_rollback;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    office_edit::NAME,
    ransom_rollback::NAME,
    fleet_tenants::NAME,
    burst_pipelined::NAME,
];

/// How one phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every workload input is derived from.
    pub seed: u64,
    /// Measured seconds. Each workload turns them into a fixed amount of
    /// work (actions, samples, rounds) at its nominal rate, so a run
    /// measures the same inputs on any host and a slower host takes
    /// longer rather than measuring less.
    pub seconds: f64,
}

impl Opts {
    /// `seconds` of work at `per_second` units per second, at least one.
    pub fn units(&self, per_second: f64) -> usize {
        ((self.seconds * per_second).round() as usize).max(1)
    }
}

/// The bench corpus: 800 files over 80 directories. Its content is fixed
/// (the corpus spec carries its own seed); `--seed` drives what the
/// workloads do to it.
pub fn bench_corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(800, 80))
}

/// Journal capacity of the traced run's telemetry sinks.
const JOURNAL_CAPACITY: usize = 4096;

/// A session builder protecting `corpus`, with telemetry enabled only in
/// the traced run.
pub fn protecting(corpus: &Corpus, traced: bool) -> SessionBuilder {
    let b = CryptoDrop::builder().protecting(corpus.root().as_str());
    if traced {
        b.telemetry(Telemetry::new(JOURNAL_CAPACITY))
    } else {
        b
    }
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Corpus generations timed per run.
const GENERATIONS: usize = 11;

/// How many of `count` extra set-up measurements to take before unit `i`
/// of a run's `units`. They are spread evenly over the run: host speed
/// drifts over seconds, and set-ups timed back to back would sample one
/// moment of it.
pub fn spread(count: usize, i: usize, units: usize) -> usize {
    (i + 1) * count / units - i * count / units
}

/// Runs `unit` for each of `0..units` on one generated bench corpus.
/// Returns the units' results and the median of [`GENERATIONS`] timed
/// corpus generations: the one used, and the rest [`spread`] between the
/// units.
pub fn on_corpus<T>(units: usize, mut unit: impl FnMut(&Corpus, usize) -> T) -> (Vec<T>, f64) {
    let (corpus, first) = timed(bench_corpus);
    let mut generations = vec![first];
    let mut out = Vec::with_capacity(units);
    for i in 0..units {
        for _ in 0..spread(GENERATIONS - 1, i, units) {
            generations.push(timed(bench_corpus).1);
        }
        out.push(unit(&corpus, i));
    }
    (out, median(&mut generations))
}

/// `setup_s`: the median of the set-up times measured in the run.
pub fn setup_metric(mut setups: Vec<f64>) -> Metric {
    let n = setups.len();
    Metric {
        n: Some(n),
        ..Metric::new("setup_s", median(&mut setups), "s")
    }
}

/// `op_p50_us` and `op_p99_us` over per-op latencies in nanoseconds.
pub fn op_metrics(latencies_ns: &[u64]) -> [Metric; 2] {
    let mut us: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    [
        Metric::pct("op_p50_us", percentile(&mut us, 50.0), "us"),
        Metric::pct("op_p99_us", percentile(&mut us, 99.0), "us"),
    ]
}

/// p50 and p90 of `samples_ms` as `<prefix>_p50` / `<prefix>_p90`.
pub fn ms_metrics(prefix: &str, samples_ms: &[f64]) -> [Metric; 2] {
    let mut v = samples_ms.to_vec();
    [
        Metric::pct(format!("{prefix}_p50"), percentile(&mut v, 50.0), "ms"),
        Metric::pct(format!("{prefix}_p90"), percentile(&mut v, 90.0), "ms"),
    ]
}

/// p50 and p99 (µs, nearest rank) of each action kind's latencies, for
/// the report line: `{"<kind>": {"p50_us": v, "p99_us": v, "n": count}}`,
/// kinds in the order given. `samples` are (kind, nanoseconds).
pub fn by_kind(kinds: &[&'static str], samples: &[(&'static str, u64)]) -> Value {
    let members = kinds.iter().map(|&kind| {
        let mut us: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ns)| ns as f64 / 1e3)
            .collect();
        let p50 = percentile(&mut us, 50.0);
        let p99 = percentile(&mut us, 99.0);
        (
            kind,
            obj(vec![
                ("p50_us", num(p50.value)),
                ("p99_us", num(p99.value)),
                ("n", p50.n.into()),
            ]),
        )
    });
    obj(members.collect())
}
