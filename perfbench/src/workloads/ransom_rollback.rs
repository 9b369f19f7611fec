//! `ransom-rollback`: paper ransomware samples, each against a freshly
//! staged corpus (the paper's VM revert, §V-A), contained and rolled back.
//!
//! Per sample: stage the bench corpus into a fresh filesystem, build an
//! inline session with recovery, run the sample through
//! [`Workload::drive`] until it is suspended, then [`Session::restore`]
//! and compare every real corpus file with its staged bytes. Every close
//! carries new high-entropy content, so the stamp and delta shortcuts are
//! bypassed: full indicator evaluation, O(file) capture and plan/restore
//! dominate — the mirror image of `office-edit`.
//!
//! Samples are drawn from the 492-sample paper set in blocks of 25: each
//! block holds one seeded sample of every (family, class) pair, in seeded
//! order, so every run covers all pairs in the same proportions.

use std::collections::BTreeMap;
use std::time::Instant;

use cryptodrop::ShadowConfig;
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{paper_sample_set, RansomwareSample};
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};

use super::{ms_metrics, on_corpus, protecting, setup_metric, timed, Opts};
use cryptodrop_fleet::rpc::Value;

use crate::report::{Checks, Metric, Phase};
use crate::stats::{percentile, Rng};
use crate::trace::{time_in, wrap, LayerAcc};

/// Workload name.
pub const NAME: &str = "ransom-rollback";
/// Schedule blocks: one sample of every (family, class) pair each.
const BLOCK: usize = 25;
/// Samples per second of `--seconds`, the nominal rate on a 2-vCPU x86_64
/// host (staging, drive, restore and byte check take about 0.1 s): 10 s
/// make four whole blocks, 100 samples, ten of them above the p90.
const SAMPLES_PER_SECOND: f64 = 10.0;

/// The sample schedule for `seed`: blocks of one sample per (family,
/// class) pair, pairs in seeded order, the member of each pair seeded.
pub fn schedule(seed: u64, count: usize) -> Vec<RansomwareSample> {
    let mut pairs: BTreeMap<(String, String), Vec<RansomwareSample>> = BTreeMap::new();
    for s in paper_sample_set() {
        pairs
            .entry((s.family.name().to_string(), s.class.to_string()))
            .or_default()
            .push(s);
    }
    let pairs: Vec<Vec<RansomwareSample>> = pairs.into_values().collect();
    let mut rng = Rng::derive(seed, 0x5A3);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let members = &pairs[i];
            out.push(members[rng.below(members.len())].clone());
        }
    }
    out.truncate(count);
    out
}

/// Compares every real (non-decoy) corpus file in `fs` with its staged
/// bytes; returns the paths that differ or are missing.
pub fn mismatched_files(corpus: &Corpus, fs: &mut Vfs) -> Vec<String> {
    corpus
        .files()
        .iter()
        .filter(|f| !f.decoy)
        .filter(|f| fs.admin().read_file(&f.path).map_or(true, |d| d != f.data))
        .map(|f| f.path.to_string())
        .collect()
}

/// One sample's measurements.
struct SampleRun {
    contain_ms: f64,
    restore_ms: f64,
    ops: u64,
    files_lost: u32,
    bytes_held: u64,
}

fn run_sample(
    corpus: &Corpus,
    sample: &RansomwareSample,
    traced: bool,
    acc: &mut Option<&mut LayerAcc>,
    checks: &mut Checks,
) -> (SampleRun, f64) {
    let ((mut fs, session, staged), setup) = timed(|| {
        let mut fs = Vfs::new();
        let staged = time_in(acc, |a| &mut a.stage, || corpus.stage_into(&mut fs));
        let session = protecting(corpus, traced)
            .recovery(ShadowConfig::default())
            .build()
            .expect("valid session config");
        session.attach(&mut fs);
        (fs, session, staged)
    });
    checks.check(staged.is_ok(), || {
        format!("corpus staging failed: {staged:?}")
    });
    if let Some(acc) = acc.as_deref_mut() {
        wrap(&mut fs, &acc.spans);
    }
    let name = sample.describe();
    let ctx = WorkloadCtx::spawn(&mut fs, sample, corpus.root(), sample.seed());
    let staged = sample.stage(&mut fs, &ctx);
    checks.check(staged.is_ok(), || {
        format!("{name}: staging failed: {staged:?}")
    });

    let started = Instant::now();
    let outcome = sample.drive(&mut fs, &ctx);
    let contain_ns = started.elapsed().as_nanos() as u64;
    let pid = ctx.pid();
    let detection = session.detection_for(pid);
    checks.check(
        fs.is_suspended(pid) && outcome.suspended && detection.is_some(),
        || format!("{name}: not suspended ({outcome:?})"),
    );
    let ops = fs.latency_ledger().total_ops();
    let bytes_held = session.shadow_store().map_or(0, |s| s.stats().bytes_held);
    if let Some(acc) = acc.as_deref_mut() {
        acc.action_ns += contain_ns;
        acc.absorb_fs(&fs);
        acc.absorb_session(&session);
    }

    let family = detection.as_ref().map_or(pid, |d| d.pid);
    let started = Instant::now();
    let report = time_in(acc, |a| &mut a.restore, || session.restore(&mut fs, family));
    let restore_ns = started.elapsed().as_nanos() as u64;
    match &report {
        Some(report) => {
            checks.check(report.conflicts.is_empty(), || {
                format!("{name}: restore conflicts {:?}", report.conflicts)
            });
            if let Some(acc) = acc.as_deref_mut() {
                acc.absorb_restore(
                    report.files_restored,
                    report.bytes_restored,
                    report.conflicts.len() as u64,
                );
            }
        }
        None => checks.check(false, || format!("{name}: recovery not armed")),
    }
    let mismatched = mismatched_files(corpus, &mut fs);
    checks.check(mismatched.is_empty(), || {
        format!(
            "{name}: {} files differ after restore, e.g. {}",
            mismatched.len(),
            mismatched[0]
        )
    });
    let run = SampleRun {
        contain_ms: contain_ns as f64 / 1e6,
        restore_ms: restore_ns as f64 / 1e6,
        ops,
        files_lost: detection.map_or(0, |d| d.files_lost),
        bytes_held,
    };
    (run, setup)
}

/// Runs the workload; with `acc`, traced.
pub fn run(opts: &Opts, mut acc: Option<&mut LayerAcc>) -> Phase {
    let traced = acc.is_some();
    // Whole blocks only, so every run weighs every pair the same.
    let blocks = opts.units(SAMPLES_PER_SECOND / BLOCK as f64);
    let schedule = schedule(opts.seed, blocks * BLOCK);
    let mut phase = Phase::default();
    let (runs, generation_s) = on_corpus(schedule.len(), |corpus, i| {
        run_sample(corpus, &schedule[i], traced, &mut acc, &mut phase.checks)
    });
    let (runs, setups): (Vec<SampleRun>, Vec<f64>) = runs.into_iter().unzip();

    // Set-up a user pays once: generate the corpus, stage it, build the
    // session.
    let mut setup = setup_metric(setups);
    setup.value += generation_s;
    phase.e2e.push(setup);
    // A sample's filesystem calls are opaque to the benchmark (they happen
    // inside `Workload::drive`), so its per-op time is its drive time
    // over the operations the VFS ledger counted.
    let mut per_op_us: Vec<f64> = runs
        .iter()
        .map(|r| r.contain_ms * 1e3 / r.ops.max(1) as f64)
        .collect();
    phase.e2e.push(Metric::pct(
        "op_p50_us",
        percentile(&mut per_op_us, 50.0),
        "us",
    ));
    phase.e2e.push(Metric::pct(
        "op_p99_us",
        percentile(&mut per_op_us, 99.0),
        "us",
    ));
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let drive_s: f64 = runs.iter().map(|r| r.contain_ms / 1e3).sum();
    phase
        .e2e
        .push(Metric::new("ops_per_s", ops as f64 / drive_s, "1/s"));
    let held = runs.iter().map(|r| r.bytes_held as f64).sum::<f64>() / runs.len() as f64;
    phase.e2e.push(Metric {
        n: Some(runs.len()),
        ..Metric::new("shadow_bytes_held", held, "bytes")
    });
    let contain: Vec<f64> = runs.iter().map(|r| r.contain_ms).collect();
    phase.e2e.extend(ms_metrics("contain_ms", &contain));
    let restore: Vec<f64> = runs.iter().map(|r| r.restore_ms).collect();
    phase.e2e.extend(ms_metrics("restore_ms", &restore));
    let lost: u64 = runs.iter().map(|r| u64::from(r.files_lost)).sum();
    phase.e2e.push(Metric {
        n: Some(runs.len()),
        ..Metric::new("files_lost", lost as f64, "count")
    });

    let per_sample = schedule.iter().zip(&runs).map(|(s, r)| {
        Value::Arr(vec![
            u64::from(s.id).into(),
            s.describe().into(),
            u64::from(r.files_lost).into(),
        ])
    });
    phase
        .details
        .push(("files_lost_per_sample", Value::Arr(per_sample.collect())));
    phase
}
