//! `burst-pipelined`: writer threads bulk-creating and re-saving files
//! through one pipelined session.
//!
//! Each writer (two, or `nproc` if fewer) owns a `Vfs::with_namespace`
//! filesystem attached to one `CryptoDrop::builder().pipelined()` session
//! with recovery and the default `PipelineConfig`. A writer bulk-creates
//! new files, then re-saves each of them with a small edit, in a closed
//! loop with no think time. This is the only workload with a queue, a
//! worker pool and cross-thread contention on the engine's shard locks;
//! it uses the `.pipelined()` defaults so a change of default is measured
//! as users get it. The writers are benign, so scheduling cannot change a
//! verdict.
//!
//! A run measures a fixed number of rounds (a fresh session and fresh
//! filesystems each), sized to `--seconds`; every round uses its own
//! derived seed.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cryptodrop::ShadowConfig;
use cryptodrop_corpus::Corpus;
use cryptodrop_vfs::{OpenOptions, ProcessId, VPath, Vfs, VfsResult};

use super::edit::patch;
use super::{on_corpus, op_metrics, protecting, setup_metric, timed, Opts};
use crate::report::{Checks, Metric, Phase};
use crate::stats::Rng;
use crate::trace::{time_in, wrap, LayerAcc};

/// Workload name.
pub const NAME: &str = "burst-pipelined";
/// Files each writer creates per round.
const FILES_PER_WRITER: usize = 300;
/// Times each created file is re-saved.
const RESAVES: usize = 2;
/// Rounds per second of `--seconds`, the nominal rate on a 2-vCPU x86_64
/// host (a round's set-up and burst take about 0.4 s).
const ROUNDS_PER_SECOND: f64 = 2.5;

/// Words the generated documents are made of.
const WORDS: [&str; 16] = [
    "quarterly",
    "figures",
    "meeting",
    "notes",
    "draft",
    "budget",
    "review",
    "project",
    "summary",
    "client",
    "schedule",
    "report",
    "invoice",
    "minutes",
    "agenda",
    "forecast",
];

/// The files one writer creates in one round: (name, content). Plain
/// prose of 1–8 KiB, seeded per writer.
pub fn file_plan(seed: u64, writer: usize, count: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng::derive(seed, 0xB0257 + writer as u64);
    (0..count)
        .map(|i| {
            let size = 1024 + rng.below(7 * 1024);
            let mut body = Vec::with_capacity(size + 64);
            let mut line = 0;
            while body.len() < size {
                body.extend_from_slice(format!("{line:04} ").as_bytes());
                for _ in 0..8 {
                    body.extend_from_slice(WORDS[rng.below(WORDS.len())].as_bytes());
                    body.push(b' ');
                }
                body.push(b'\n');
                line += 1;
            }
            (format!("note-{i:04}.txt"), body)
        })
        .collect()
}

fn create(fs: &mut Vfs, pid: ProcessId, path: &VPath, data: &[u8]) -> VfsResult<()> {
    let h = fs.open(pid, path, OpenOptions::create_new())?;
    let written = fs.write(pid, h, data).map(drop);
    written.and(fs.close(pid, h))
}

fn resave(fs: &mut Vfs, pid: ProcessId, path: &VPath, salt: u64) -> VfsResult<()> {
    let h = fs.open(pid, path, OpenOptions::modify())?;
    let edited = fs.read_to_end(pid, h).and_then(|data| {
        let (off, bytes) = patch(&data, data.len() / 4, salt);
        fs.seek(pid, h, off as u64)?;
        fs.write(pid, h, &bytes).map(drop)
    });
    edited.and(fs.close(pid, h))
}

/// One writer's thread result.
struct Writer {
    fs: Vfs,
    pid: ProcessId,
    latencies: Vec<u64>,
    checks: Checks,
}

/// Runs one writer: create every planned file, then re-save each
/// `RESAVES` times.
fn write_burst(mut w: Writer, dir: VPath, plan: Vec<(String, Vec<u8>)>, seed: u64) -> Writer {
    let mut rng = Rng::derive(seed, 0x5A7E);
    let timed_op =
        |w: &mut Writer, what: &str, path: &VPath, op: &dyn Fn(&mut Vfs) -> VfsResult<()>| {
            let started = Instant::now();
            let result = op(&mut w.fs);
            w.latencies.push(started.elapsed().as_nanos() as u64);
            w.checks.check(result.is_ok(), || {
                format!("{what} {path} failed: {result:?}")
            });
        };
    let pid = w.pid;
    for (name, data) in &plan {
        let path = dir.join(name);
        timed_op(&mut w, "create", &path, &|fs| create(fs, pid, &path, data));
    }
    for _ in 0..RESAVES {
        for (name, _) in &plan {
            let path = dir.join(name);
            let salt = rng.next_u64();
            timed_op(&mut w, "re-save", &path, &|fs| resave(fs, pid, &path, salt));
        }
    }
    w
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    latencies: Vec<u64>,
    burst_s: f64,
    shadow_bytes: u64,
}

fn run_round(
    corpus: &Corpus,
    opts: &Opts,
    round: usize,
    acc: &mut Option<&mut LayerAcc>,
    checks: &mut Checks,
) -> Round {
    let traced = acc.is_some();
    let seed = Rng::derive(opts.seed, round as u64).next_u64();
    let writers = crate::nproc().clamp(1, 2);
    let files = FILES_PER_WRITER;

    let ((session, mut states), setup_s) = timed(|| {
        let session = protecting(corpus, traced)
            .pipelined()
            .recovery(ShadowConfig::default())
            .build()
            .expect("valid session config");
        let states: Vec<(Writer, VPath)> = (0..writers)
            .map(|w| {
                let mut fs = Vfs::with_namespace(w as u32 + 1);
                let dir = corpus.root().join(format!("burst-{w}"));
                let staged = time_in(acc, |a| &mut a.stage, || corpus.stage_into(&mut fs))
                    .and_then(|()| fs.admin().create_dir_all(&dir));
                checks.check(staged.is_ok(), || format!("staging failed: {staged:?}"));
                session.attach(&mut fs);
                let pid = fs.spawn_process("batch-writer.exe");
                let writer = Writer {
                    fs,
                    pid,
                    latencies: Vec::with_capacity(files * (1 + RESAVES)),
                    checks: Checks::default(),
                };
                (writer, dir)
            })
            .collect();
        (session, states)
    });
    if let Some(acc) = acc.as_deref_mut() {
        for (w, _) in &mut states {
            wrap(&mut w.fs, &acc.spans);
        }
    }

    let barrier = Arc::new(Barrier::new(writers + 1));
    let (done, burst_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(i, (w, dir))| {
                let plan = file_plan(seed, i, files);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    write_burst(w, dir, plan, seed ^ i as u64)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let done: Vec<Writer> = handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect();
        (done, started.elapsed().as_secs_f64())
    });

    time_in(acc, |a| &mut a.drain, || session.drain());
    let mut latencies = Vec::new();
    for w in done.iter() {
        checks.check(!w.fs.is_suspended(w.pid), || {
            format!("writer {:?} suspended", w.pid)
        });
        checks.merge(w.checks.clone());
        latencies.extend_from_slice(&w.latencies);
    }
    let detections = session.detections();
    checks.check(detections.is_empty(), || {
        format!("benign writers detected: {detections:?}")
    });
    let shadow_bytes = session.shadow_store().map_or(0, |s| s.stats().bytes_held);
    if let Some(acc) = acc.as_deref_mut() {
        acc.action_ns += latencies.iter().sum::<u64>();
        for w in &done {
            acc.absorb_fs(&w.fs);
        }
        acc.absorb_session(&session);
    }
    Round {
        setup_s,
        latencies,
        burst_s,
        shadow_bytes,
    }
}

/// Runs the workload; with `acc`, traced.
pub fn run(opts: &Opts, mut acc: Option<&mut LayerAcc>) -> Phase {
    let mut phase = Phase::default();
    let (rounds, generation_s) = on_corpus(opts.units(ROUNDS_PER_SECOND), |corpus, round| {
        run_round(corpus, opts, round, &mut acc, &mut phase.checks)
    });

    let mut setup = setup_metric(rounds.iter().map(|r| r.setup_s).collect());
    setup.value += generation_s;
    phase.e2e.push(setup);
    let latencies: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    phase.e2e.extend(op_metrics(&latencies));
    let burst_s: f64 = rounds.iter().map(|r| r.burst_s).sum();
    phase.e2e.push(Metric::new(
        "ops_per_s",
        latencies.len() as f64 / burst_s,
        "1/s",
    ));
    // Each round stays under the shadow budget, so eviction order (thread
    // scheduling) cannot change what is held.
    let held: u64 = rounds.iter().map(|r| r.shadow_bytes).sum();
    phase
        .e2e
        .push(Metric::new("shadow_bytes_held", held as f64, "bytes"));
    phase.e2e.push(Metric::new("files_lost", 0.0, "count"));
    phase.details.push(("rounds", rounds.len().into()));
    phase
        .details
        .push(("writers", crate::nproc().clamp(1, 2).into()));
    phase
}
