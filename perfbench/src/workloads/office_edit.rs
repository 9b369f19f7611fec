//! `office-edit`: one benign writer on the 800-file bench corpus.
//!
//! The session is inline with recovery (`ShadowConfig::default()`). One
//! client thread runs a closed loop with no think time over a Zipf-skewed
//! hot set: reads, unchanged saves, small mid-file edits, appends and
//! safe-saves. The incremental close path (stamp skip, dirty-extent
//! delta), the `Vfs::write` memcmp short-circuit and shadow capture with
//! dedup do nearly all the work; full recompute and restore do almost
//! none.

use std::time::Instant;

use cryptodrop::{Session, ShadowConfig};
use cryptodrop_corpus::Corpus;
use cryptodrop_vfs::{ProcessId, Vfs, VfsResult};

use super::edit::{apply, hot_set, EditGen, EditKind};
use super::{bench_corpus, by_kind, op_metrics, protecting, setup_metric, spread, timed, Opts};
use crate::report::{Metric, Phase};
use crate::trace::{time_in, wrap, LayerAcc};

/// Workload name.
pub const NAME: &str = "office-edit";
/// Hot-set size.
const HOT_FILES: usize = 32;
/// Untimed actions before the measured loop (the first passes run slower
/// while caches fill).
const WARMUP_ACTIONS: usize = 2_000;
/// Measured actions per second of `--seconds`: the editor's nominal rate
/// on a 2-vCPU x86_64 host.
const ACTIONS_PER_SECOND: f64 = 1_300.0;
/// Set-ups measured per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 11;

/// Generates and stages the bench corpus and builds the session the
/// editor works in.
fn set_up(
    traced: bool,
    acc: &mut Option<&mut LayerAcc>,
) -> (Corpus, Vfs, Session, ProcessId, VfsResult<()>) {
    let corpus = bench_corpus();
    let mut fs = Vfs::new();
    let staged = time_in(acc, |a| &mut a.stage, || corpus.stage_into(&mut fs));
    let session = protecting(&corpus, traced)
        .recovery(ShadowConfig::default())
        .build()
        .expect("valid session config");
    session.attach(&mut fs);
    let pid = fs.spawn_process("winword.exe");
    (corpus, fs, session, pid, staged)
}

/// Runs the workload; with `acc`, traced.
pub fn run(opts: &Opts, mut acc: Option<&mut LayerAcc>) -> Phase {
    let traced = acc.is_some();
    let ((corpus, mut fs, session, pid, staged), first_setup) = timed(|| set_up(traced, &mut acc));
    let mut setups = vec![first_setup];
    let mut phase = Phase::default();
    phase.checks.check(staged.is_ok(), || {
        format!("corpus staging failed: {staged:?}")
    });
    if let Some(acc) = acc.as_deref_mut() {
        wrap(&mut fs, &acc.spans);
    }

    let hot = hot_set(&corpus, HOT_FILES);
    let mut gen = EditGen::new(opts.seed, hot.len());
    let mut step = |fs: &mut Vfs, phase: &mut Phase| -> (&'static str, u64) {
        let op = gen.next_op();
        let started = Instant::now();
        let result = apply(fs, pid, &hot[op.file], op);
        let ns = started.elapsed().as_nanos() as u64;
        phase.checks.check(result.is_ok(), || {
            format!("{op:?} on {} failed: {result:?}", hot[op.file])
        });
        (op.kind.label(), ns)
    };
    let mut action_ns: u64 = (0..WARMUP_ACTIONS)
        .map(|_| step(&mut fs, &mut phase).1)
        .sum();

    // The other set-ups are timed between measured actions, each built and
    // dropped outside the measured time.
    let actions = opts.units(ACTIONS_PER_SECOND);
    let mut samples: Vec<(&'static str, u64)> = Vec::with_capacity(actions);
    let mut wall = 0.0;
    let mut started = Instant::now();
    for i in 0..actions {
        let due = spread(SETUPS - 1, i, actions);
        if due > 0 {
            wall += started.elapsed().as_secs_f64();
            for _ in 0..due {
                setups.push(timed(|| set_up(traced, &mut acc)).1);
            }
            started = Instant::now();
        }
        samples.push(step(&mut fs, &mut phase));
    }
    wall += started.elapsed().as_secs_f64();
    let held = session.shadow_store().map_or(0, |s| s.stats().bytes_held);

    phase.checks.check(!fs.is_suspended(pid), || {
        "the editor was suspended".to_string()
    });
    let hits = session.hits(pid);
    phase.checks.check(hits.is_empty(), || {
        format!(
            "indicators fired on the editor: {:?}",
            hits.iter()
                .take(6)
                .map(|h| format!("{:?} {} {}", h.indicator, h.value, h.detail))
                .collect::<Vec<_>>()
        )
    });
    phase.checks.check(session.detections().is_empty(), || {
        format!("unexpected detections: {:?}", session.detections())
    });

    let latencies: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    action_ns += latencies.iter().sum::<u64>();
    phase.e2e.push(setup_metric(setups));
    phase.e2e.extend(op_metrics(&latencies));
    phase
        .e2e
        .push(Metric::new("ops_per_s", actions as f64 / wall, "1/s"));
    phase
        .e2e
        .push(Metric::new("shadow_bytes_held", held as f64, "bytes"));
    phase.e2e.push(Metric::new("files_lost", 0.0, "count"));
    let kinds = EditKind::ALL.map(EditKind::label);
    phase
        .details
        .push(("op_us_by_kind", by_kind(&kinds, &samples)));

    if let Some(acc) = acc {
        acc.action_ns += action_ns;
        acc.absorb_fs(&fs);
        acc.absorb_session(&session);
    }
    phase
}
