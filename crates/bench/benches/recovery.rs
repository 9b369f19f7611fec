//! Bench: what the "Drop It" shadow store costs on the hot write path,
//! and what a full rollback costs once an attack is suspended.
//!
//! Two measurements:
//!
//! * **write overhead** — the steady-state editor-save workload from
//!   `engine_overhead`, with and without a shadow sink attached. The
//!   delta is the capture cost a benign writer pays: the store keeps the
//!   node's buffer by reference, and a save of unchanged bytes coalesces
//!   onto the file's last pre-image after one byte comparison. Bare and
//!   shadowed runs alternate, and the artifact reports each side's
//!   median over the rounds with its range.
//! * **restore latency** — a real sample encrypts the corpus until the
//!   engine suspends it, then `restore` rolls the filesystem back. The
//!   probe reports plan+apply wall time, files and bytes replayed, and
//!   the journal pressure (captures, dedup hits, evictions) behind them.
//!
//! Numbers are reported, not asserted. Machine-readable results go to
//! `BENCH_recovery.json` at the workspace root, with the host's `nproc`
//! and the producing commit (`git describe --dirty`); `--test` (the CI
//! smoke mode) scales every loop to a single iteration.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use cryptodrop::{CryptoDrop, Session, ShadowConfig, ShadowStats};
use cryptodrop_bench::bench_corpus;
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{paper_sample_set, Family};
use cryptodrop_vfs::{OpenOptions, ProcessId, Vfs};

fn build_session(corpus: &Corpus, shadowed: bool) -> Session {
    let mut builder = CryptoDrop::builder().protecting(corpus.root().as_str());
    if shadowed {
        builder = builder.recovery(ShadowConfig::default());
    }
    builder.build().expect("valid config")
}

fn staged_vfs(corpus: &Corpus) -> Vfs {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    fs
}

/// One read-modify-write-close cycle over up to 20 corpus documents —
/// the same steady-state editor-save workload as `engine_overhead`, so
/// the shadowed/bare delta isolates the capture cost.
fn modify_cycle(fs: &mut Vfs, pid: ProcessId, corpus: &Corpus) {
    for f in corpus.files().iter().take(20) {
        if f.read_only {
            continue;
        }
        let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
            continue;
        };
        let data = fs.read_to_end(pid, h).unwrap_or_default();
        let _ = fs.seek(pid, h, 0);
        let _ = fs.write(pid, h, &data);
        let _ = fs.close(pid, h);
    }
}

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus();

    let mut group = c.benchmark_group("recovery");
    group.sample_size(10);
    for (label, shadowed) in [("bare", false), ("shadowed", true)] {
        group.bench_function(format!("modify_cycle/{label}"), |b| {
            b.iter_batched(
                || {
                    let session = build_session(&corpus, shadowed);
                    let mut fs = staged_vfs(&corpus);
                    session.attach(&mut fs);
                    let pid = fs.spawn_process("bench.exe");
                    (session, fs, pid)
                },
                |(session, mut fs, pid)| {
                    modify_cycle(&mut fs, pid, &corpus);
                    (session, fs)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

/// Producer-visible ns per modify cycle with or without the shadow sink.
fn measure_write_overhead(corpus: &Corpus, shadowed: bool, iters: u32) -> f64 {
    let session = build_session(corpus, shadowed);
    let mut fs = staged_vfs(corpus);
    session.attach(&mut fs);
    let pid = fs.spawn_process("writer.exe");
    modify_cycle(&mut fs, pid, corpus); // warm-up
    let started = Instant::now();
    for _ in 0..iters {
        modify_cycle(&mut fs, pid, corpus);
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

/// One suspension + rollback: returns (plan+apply ms, files restored,
/// bytes restored, journal stats at suspension time).
fn measure_restore(corpus: &Corpus, family: Family) -> (f64, u64, u64, ShadowStats) {
    let session = build_session(corpus, true);
    let mut fs = staged_vfs(corpus);
    session.attach(&mut fs);
    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == family && s.index == 0)
        .expect("family present in the paper set");
    let ctx = cryptodrop_vfs::WorkloadCtx::spawn(&mut fs, &sample, corpus.root(), sample.seed());
    cryptodrop_vfs::Workload::drive(&sample, &mut fs, &ctx);
    let pid = ctx.pid();
    assert!(fs.is_suspended(pid), "{family:?} must be suspended");
    let stats = session.shadow_store().expect("recovery armed").stats();

    let report_pid = session.detection_for(pid).expect("detected").pid;
    let started = Instant::now();
    let report = session
        .restore(&mut fs, report_pid)
        .expect("recovery armed");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (ms, report.files_restored, report.bytes_restored, stats)
}

/// The median of `xs` (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The commit the bench ran on, `-dirty` when the tree has changes.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();

    let corpus = bench_corpus();
    let (rounds, overhead_iters) = if test_mode { (1, 1) } else { (7, 10) };

    let mut bare = Vec::new();
    let mut shadowed = Vec::new();
    for _ in 0..rounds {
        bare.push(measure_write_overhead(&corpus, false, overhead_iters));
        shadowed.push(measure_write_overhead(&corpus, true, overhead_iters));
    }
    let range = |xs: &[f64]| {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0, f64::max);
        (min, max)
    };
    let (bare_min, bare_max) = range(&bare);
    let (shadow_min, shadow_max) = range(&shadowed);
    let bare_ns = median(&mut bare);
    let shadow_ns = median(&mut shadowed);
    let ratio = shadow_ns / bare_ns.max(1.0);
    println!(
        "write_overhead: bare {bare_ns:.0} ns/cycle, shadowed {shadow_ns:.0} ns/cycle \
         ({ratio:.3}x, medians of {rounds} alternating rounds)"
    );

    let mut restore_json = Vec::new();
    for family in [Family::TeslaCrypt, Family::CryptoWall] {
        let (ms, files, bytes, stats) = measure_restore(&corpus, family);
        println!(
            "restore/{family:?}: {ms:.2} ms, {files} files / {bytes} bytes replayed, \
             {} captures / {} dedup hits / {} evictions, {} bytes held",
            stats.captures, stats.dedup_hits, stats.evictions, stats.bytes_held
        );
        restore_json.push(format!(
            "    {{ \"family\": \"{family:?}\", \"restore_ms\": {ms:.3}, \
             \"files_restored\": {files}, \"bytes_restored\": {bytes}, \
             \"captures\": {}, \"dedup_hits\": {}, \"evictions\": {}, \
             \"bytes_held\": {} }}",
            stats.captures, stats.dedup_hits, stats.evictions, stats.bytes_held
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"test_mode\": {test_mode},\n  \
         \"nproc\": {nproc},\n  \"commit\": \"{}\",\n  \
         \"write_overhead\": {{\n    \
         \"rounds\": {rounds},\n    \
         \"cycles_per_round\": {overhead_iters},\n    \
         \"bare_ns_per_cycle\": {bare_ns:.1},\n    \
         \"bare_ns_range\": [{bare_min:.1}, {bare_max:.1}],\n    \
         \"shadowed_ns_per_cycle\": {shadow_ns:.1},\n    \
         \"shadowed_ns_range\": [{shadow_min:.1}, {shadow_max:.1}],\n    \
         \"capture_overhead_ratio\": {ratio:.3}\n  }},\n  \
         \"restore\": [\n{}\n  ]\n}}\n",
        commit(),
        restore_json.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(out, &json).expect("write BENCH_recovery.json");
    println!("wrote {out}");
}
