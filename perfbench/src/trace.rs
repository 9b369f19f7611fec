//! The traced run: layer spans recorded from outside the program.
//!
//! No crate is instrumented. Instead every attached filesystem is
//! re-wrapped before the workload starts:
//!
//! * its filter chain ([`Vfs::take_filters`]) is re-registered behind a
//!   [`TimingFilter`] that delegates `name`, `pre_op` and `post_op`, timing
//!   each callback (the `core` layer) and the whole operation span from the
//!   first `pre_op` to the last `post_op` (the `vfs` layer);
//! * its shadow sink ([`Vfs::take_shadow_sink`]) is replaced by a
//!   [`TimingSink`] that delegates every callback (the `recovery` capture
//!   layer).
//!
//! A layer's self time is its span minus the spans nested in it, so
//! `vfs.self_ns_per_op` is the operation span minus the filter and sink
//! callbacks inside it. Time a workload spends outside every operation
//! span — the client's own work between calls, and the VFS prologue
//! before the first filter callback — is reported as
//! `trace.unattributed_share`.
//!
//! Counters the program already keeps (telemetry counters and
//! histograms, `CacheStats`, `PipelineStats`, `ShadowStats`, the VFS
//! latency ledger) are folded in by [`LayerAcc`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use cryptodrop::Session;
use cryptodrop_telemetry::MetricsSnapshot;
use cryptodrop_vfs::{
    FileId, FilterDriver, FsView, OpContext, OpKind, OpOutcome, PreImage, ProcessId, ShadowSink,
    VPath, Verdict, Vfs,
};

use crate::report::Metric;

/// Span totals shared by every wrapper of one traced phase. Atomic so the
/// writers of a multi-threaded workload can share one set.
#[derive(Debug, Default)]
pub struct Spans {
    ops: AtomicU64,
    op_ns: AtomicU64,
    pre_calls: AtomicU64,
    pre_ns: AtomicU64,
    post_calls: AtomicU64,
    post_ns: AtomicU64,
    capture_calls: AtomicU64,
    capture_ns: AtomicU64,
    note_ns: AtomicU64,
}

fn add(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Relaxed);
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Delegates to the wrapped filter, timing each callback.
struct TimingFilter {
    inner: Box<dyn FilterDriver>,
    spans: Arc<Spans>,
    /// Opens the operation span (first filter in the chain).
    first: bool,
    /// Closes the operation span (last filter in the chain).
    last: bool,
    op_start: Option<Instant>,
}

impl FilterDriver for TimingFilter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
        let started = Instant::now();
        if self.first {
            self.op_start = Some(started);
        }
        let verdict = self.inner.pre_op(ctx, fs);
        add(&self.spans.pre_ns, ns_since(started));
        add(&self.spans.pre_calls, 1);
        verdict
    }

    fn post_op(
        &mut self,
        ctx: &OpContext<'_>,
        outcome: &OpOutcome<'_>,
        fs: &FsView<'_>,
    ) -> Verdict {
        let started = Instant::now();
        let verdict = self.inner.post_op(ctx, outcome, fs);
        add(&self.spans.post_ns, ns_since(started));
        add(&self.spans.post_calls, 1);
        if self.last {
            if let Some(op_start) = self.op_start.take() {
                add(&self.spans.op_ns, ns_since(op_start));
                add(&self.spans.ops, 1);
            }
        }
        verdict
    }
}

/// Delegates to the wrapped shadow sink, timing each callback.
struct TimingSink {
    inner: Arc<dyn ShadowSink>,
    spans: Arc<Spans>,
}

impl ShadowSink for TimingSink {
    fn capture(&self, pre: &PreImage<'_>) {
        let started = Instant::now();
        self.inner.capture(pre);
        add(&self.spans.capture_ns, ns_since(started));
        add(&self.spans.capture_calls, 1);
    }

    fn note_created(&self, pid: ProcessId, family_root: ProcessId, file: FileId, path: &VPath) {
        let started = Instant::now();
        self.inner.note_created(pid, family_root, file, path);
        add(&self.spans.note_ns, ns_since(started));
    }

    fn capture_failed(&self, pid: ProcessId, family_root: ProcessId, file: FileId, path: &VPath) {
        let started = Instant::now();
        self.inner.capture_failed(pid, family_root, file, path);
        add(&self.spans.note_ns, ns_since(started));
    }

    fn note_rename(
        &self,
        pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        from: &VPath,
        to: &VPath,
    ) {
        let started = Instant::now();
        self.inner.note_rename(pid, family_root, file, from, to);
        add(&self.spans.note_ns, ns_since(started));
    }
}

/// Re-wraps `fs`'s filter chain and shadow sink so every callback records
/// into `spans`. Call after the session is attached.
pub fn wrap(fs: &mut Vfs, spans: &Arc<Spans>) {
    let filters = fs.take_filters();
    let n = filters.len();
    for (i, inner) in filters.into_iter().enumerate() {
        fs.register_filter(Box::new(TimingFilter {
            inner,
            spans: Arc::clone(spans),
            first: i == 0,
            last: i + 1 == n,
            op_start: None,
        }));
    }
    if let Some(inner) = fs.take_shadow_sink() {
        fs.set_shadow_sink(Arc::new(TimingSink {
            inner,
            spans: Arc::clone(spans),
        }));
    }
}

/// Times one call into a layer's public function.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTimer {
    calls: u64,
    ns: u64,
}

impl CallTimer {
    /// Runs `f`, adding its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns += ns_since(started);
        self.calls += 1;
        out
    }

    fn per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// Runs `f`; in a traced run, times it into the timer `pick` selects.
pub fn time_in<T>(
    acc: &mut Option<&mut LayerAcc>,
    pick: fn(&mut LayerAcc) -> &mut CallTimer,
    f: impl FnOnce() -> T,
) -> T {
    match acc.as_deref_mut() {
        Some(acc) => pick(acc).time(f),
        None => f(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The VFS operation kinds the per-layer table reports.
pub const VFS_KINDS: [OpKind; 6] = [
    OpKind::Open,
    OpKind::Read,
    OpKind::Write,
    OpKind::Close,
    OpKind::Rename,
    OpKind::Delete,
];

/// The indicators whose evaluation cost the per-layer table reports.
pub const EVAL_INDICATORS: [&str; 5] = [
    "type-change",
    "similarity",
    "entropy-delta",
    "deletion",
    "funneling",
];

/// Everything one traced phase accumulates: the span totals, the timed
/// calls, and the program's own counters folded in per session and per
/// filesystem.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Span totals shared with the wrappers.
    pub spans: Arc<Spans>,
    /// Wall time of the workload's client actions (the denominator of
    /// `trace.unattributed_share`), in nanoseconds.
    pub action_ns: u64,
    /// Timed `Session::restore` calls.
    pub restore: CallTimer,
    /// Timed `Session::drain` calls.
    pub drain: CallTimer,
    /// Timed `Fleet::spawn` calls.
    pub spawn: CallTimer,
    /// Timed corpus staging (one call stages a whole corpus).
    pub stage: CallTimer,
    /// Timed `FleetAdmin::handle_line` calls.
    pub rpc: CallTimer,
    /// Private bytes fleet tenants materialized (from `FleetStats`).
    pub private_bytes: u64,
    ledger: BTreeMap<OpKind, (u64, u64)>,
    metrics: MetricsSnapshot,
    sessions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    pipeline: cryptodrop::PipelineStats,
    shadow_captures: u64,
    shadow_dedup: u64,
    shadow_coalesced: u64,
    shadow_evictions: u64,
    shadow_bytes_held: u64,
    files_restored: u64,
    bytes_restored: u64,
    conflicts: u64,
}

impl LayerAcc {
    /// Folds in one filesystem's latency ledger.
    pub fn absorb_fs(&mut self, fs: &Vfs) {
        for (kind, stat) in fs.latency_ledger().iter() {
            let e = self.ledger.entry(kind).or_default();
            e.0 += stat.count;
            e.1 += stat.total_nanos;
        }
    }

    /// Folds in one session's counters: telemetry, snapshot cache,
    /// pipeline and shadow store.
    pub fn absorb_session(&mut self, session: &Session) {
        self.sessions += 1;
        self.metrics
            .merge(&session.telemetry().metrics().snapshot());
        let cache = session.cache_stats();
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.cache_evictions += cache.evictions;
        let p = session.pipeline_stats();
        self.pipeline.enqueued += p.enqueued;
        self.pipeline.processed += p.processed;
        self.pipeline.degraded += p.degraded;
        self.pipeline.sync_fallbacks += p.sync_fallbacks;
        if let Some(store) = session.shadow_store() {
            let s = store.stats();
            self.shadow_captures += s.captures;
            self.shadow_dedup += s.dedup_hits;
            self.shadow_coalesced += s.coalesced;
            self.shadow_evictions += s.evictions;
            self.shadow_bytes_held += s.bytes_held;
        }
    }

    /// Folds in one restore's outcome (its wall time is timed separately,
    /// through [`LayerAcc::restore`] or [`LayerAcc::rpc`]).
    pub fn absorb_restore(&mut self, files_restored: u64, bytes_restored: u64, conflicts: u64) {
        self.files_restored += files_restored;
        self.bytes_restored += bytes_restored;
        self.conflicts += conflicts;
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Every per-layer metric, in the order `BENCHMARK.json` lists them.
    /// `untraced_ops_per_s` and `traced_ops_per_s` are the same
    /// workload's throughput without and with tracing.
    pub fn finish(&self, untraced_ops_per_s: f64, traced_ops_per_s: f64) -> Vec<Metric> {
        let load = |c: &AtomicU64| c.load(Relaxed) as f64;
        let s = &self.spans;
        let ops = load(&s.ops);
        let sink_ns = load(&s.capture_ns) + load(&s.note_ns);
        // The pre/post callbacks of operations whose span closed; the few
        // operations refused in `pre_op` (a suspension) have no span.
        let nested_ns = load(&s.pre_ns) + load(&s.post_ns) + sink_ns;
        let mut out = vec![Metric::new(
            "vfs.self_ns_per_op",
            ratio((load(&s.op_ns) - nested_ns).max(0.0), ops),
            "ns",
        )];
        for kind in VFS_KINDS {
            let (count, _) = self.ledger.get(&kind).copied().unwrap_or_default();
            out.push(Metric::new(
                format!("vfs.ops.{kind}"),
                count as f64,
                "count",
            ));
        }
        for kind in VFS_KINDS {
            let (count, ns) = self.ledger.get(&kind).copied().unwrap_or_default();
            out.push(Metric::new(
                format!("vfs.filter_ns.{kind}"),
                ratio(ns as f64, count as f64),
                "ns",
            ));
        }
        out.push(Metric::new(
            "core.pre_op.ns_per_call",
            ratio(load(&s.pre_ns), load(&s.pre_calls)),
            "ns",
        ));
        out.push(Metric::new(
            "core.post_op.ns_per_call",
            ratio(load(&s.post_ns), load(&s.post_calls)),
            "ns",
        ));
        let skip = self.counter("engine.incremental.stamp_skips");
        let delta = self.counter("engine.incremental.delta_applied");
        let full = self.counter("engine.incremental.full_recompute");
        out.push(Metric::new("core.close.stamp_skip", skip, "count"));
        out.push(Metric::new("core.close.delta", delta, "count"));
        out.push(Metric::new("core.close.full", full, "count"));
        out.push(Metric::new(
            "core.close.full_share",
            ratio(full, skip + delta + full),
            "ratio",
        ));
        let hits = self.cache_hits as f64;
        out.push(Metric::new(
            "core.cache.hit_ratio",
            ratio(hits, hits + self.cache_misses as f64),
            "ratio",
        ));
        out.push(Metric::new(
            "core.cache.evictions",
            self.cache_evictions as f64,
            "count",
        ));
        for name in EVAL_INDICATORS {
            let p50 = self
                .metrics
                .histograms
                .get(&format!("engine.eval.{name}.ns"))
                .map_or(0, |h| h.quantile_le(0.5));
            out.push(Metric::new(
                format!("core.eval.{name}.ns_p50"),
                p50 as f64,
                "ns",
            ));
        }
        let p = &self.pipeline;
        out.push(Metric::new("pipeline.enqueued", p.enqueued as f64, "count"));
        out.push(Metric::new(
            "pipeline.processed",
            p.processed as f64,
            "count",
        ));
        out.push(Metric::new("pipeline.degraded", p.degraded as f64, "count"));
        out.push(Metric::new(
            "pipeline.sync_fallbacks",
            p.sync_fallbacks as f64,
            "count",
        ));
        out.push(Metric::new(
            "pipeline.degraded_share",
            ratio(p.degraded as f64, (p.enqueued + p.degraded) as f64),
            "ratio",
        ));
        out.push(Metric::new(
            "pipeline.drain_ms",
            self.drain.per_call() / 1e6,
            "ms",
        ));
        out.push(Metric::new(
            "recovery.capture.calls",
            load(&s.capture_calls),
            "count",
        ));
        out.push(Metric::new(
            "recovery.capture.ns_per_call",
            ratio(load(&s.capture_ns), load(&s.capture_calls)),
            "ns",
        ));
        out.push(Metric::new(
            "recovery.dedup_hit_ratio",
            ratio(self.shadow_dedup as f64, self.shadow_captures as f64),
            "ratio",
        ));
        out.push(Metric::new(
            "recovery.coalesced",
            self.shadow_coalesced as f64,
            "count",
        ));
        out.push(Metric::new(
            "recovery.evictions",
            self.shadow_evictions as f64,
            "count",
        ));
        out.push(Metric::new(
            "recovery.bytes_held",
            ratio(self.shadow_bytes_held as f64, self.sessions as f64),
            "bytes",
        ));
        out.push(Metric::new(
            "recovery.restore.ns_per_call",
            self.restore.per_call(),
            "ns",
        ));
        out.push(Metric::new(
            "recovery.files_restored",
            self.files_restored as f64,
            "count",
        ));
        out.push(Metric::new(
            "recovery.bytes_restored",
            self.bytes_restored as f64,
            "bytes",
        ));
        out.push(Metric::new(
            "recovery.conflicts",
            self.conflicts as f64,
            "count",
        ));
        out.push(Metric::new(
            "fleet.spawn_ns_per_tenant",
            self.spawn.per_call(),
            "ns",
        ));
        out.push(Metric::new("corpus.stage_ns", self.stage.per_call(), "ns"));
        out.push(Metric::new(
            "fleet.rpc.ns_per_call",
            self.rpc.per_call(),
            "ns",
        ));
        out.push(Metric::new(
            "fleet.private_bytes",
            self.private_bytes as f64,
            "bytes",
        ));
        out.push(Metric::new(
            "trace.overhead",
            ratio(untraced_ops_per_s, traced_ops_per_s),
            "ratio",
        ));
        out.push(Metric::new(
            "trace.unattributed_share",
            ratio(
                (self.action_ns as f64 - load(&s.op_ns)).max(0.0),
                self.action_ns as f64,
            ),
            "ratio",
        ));
        out
    }
}
