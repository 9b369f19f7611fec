//! `fleet-tenants`: the `Fleet` host with 100 tenants over one shared
//! copy-on-write corpus.
//!
//! 10% of tenants are attackers (paper samples); the rest are editors and
//! readers. One client thread replays every tenant round-robin, one
//! action per tenant per step; an attacker runs its sample to suspension
//! on its turn. After the replay every attacker is restored through
//! `FleetAdmin::handle_line` (`restore`) and `stats` is read back. This is
//! the only workload with per-tenant dispatch, the first-write CoW copy,
//! many small cold engines, a tight shadow budget (4 MiB, so evictions
//! happen) and the JSON-RPC admin plane.
//!
//! A run measures a fixed number of rounds (a fresh fleet each), sized to
//! `--seconds`; every round uses its own derived seed.

use std::time::Instant;

use cryptodrop::{CryptoDrop, DetectionReport, ShadowConfig};
use cryptodrop_corpus::Corpus;
use cryptodrop_fleet::rpc::{self, Value};
use cryptodrop_fleet::{Fleet, FleetAdmin, FleetConfig, TenantSpec};
use cryptodrop_malware::RansomwareSample;
use cryptodrop_vfs::{OpenOptions, ProcessId, Vfs, Workload, WorkloadCtx};

use super::edit::{apply, hot_set, EditGen, EditKind};
use super::ransom_rollback::schedule;
use super::{by_kind, ms_metrics, on_corpus, op_metrics, setup_metric, timed, Opts};
use crate::report::{Checks, Metric, Phase};
use crate::stats::Rng;
use crate::trace::{time_in, wrap, LayerAcc};

/// Workload name.
pub const NAME: &str = "fleet-tenants";
/// Tenants per fleet.
const TENANTS: usize = 100;
/// Actions each benign tenant performs per round.
const BENIGN_ACTIONS: usize = 30;
/// Hot-set size of an editor tenant.
const EDITOR_HOT_FILES: usize = 8;
/// Rounds per second of `--seconds`, the nominal rate on a 2-vCPU x86_64
/// host: 10 s make 5 rounds, whose 50 attackers are two whole blocks of
/// the stratified schedule, every (family, class) pair twice.
const ROUNDS_PER_SECOND: f64 = 0.5;
/// Tenants per round whose verdicts are checked against standalone
/// sessions (one attacker, one benign tenant).
const COMPARED: usize = 2;
/// Per-tenant shadow budget (the fleet default).
const SHADOW_BUDGET: u64 = 4 * 1024 * 1024;

/// What one tenant does.
#[derive(Debug, Clone, PartialEq)]
pub enum Role {
    /// Runs a paper sample to suspension at the given step.
    Attacker(RansomwareSample, usize),
    /// Edits a hot set of office documents (the `office-edit` mix).
    Editor,
    /// Reads documents across the whole corpus.
    Reader,
}

/// The tenant roles of round `round`, at seeded positions: exactly 10%
/// attackers, each with a seeded step, and of the rest one third editors
/// and two thirds readers. Round `r` takes the attackers' samples
/// `[r * a, (r + 1) * a)` of the run's stratified schedule, so the first
/// rounds of every run together cover every (family, class) pair.
pub fn plan(seed: u64, round: usize, tenants: usize, steps: usize) -> Vec<Role> {
    let mut rng = Rng::derive(seed, 0xF1EE7 + round as u64);
    let attackers = tenants / 10;
    let mut order: Vec<usize> = (0..tenants).collect();
    rng.shuffle(&mut order);
    let mut roles = vec![Role::Reader; tenants];
    for &slot in &order[attackers..attackers + (tenants - attackers) / 3] {
        roles[slot] = Role::Editor;
    }
    let samples = schedule(seed, (round + 1) * attackers).split_off(round * attackers);
    for (&slot, sample) in order.iter().zip(samples) {
        roles[slot] = Role::Attacker(sample, rng.below(steps));
    }
    roles
}

/// The seed of tenant `id`'s own action stream.
fn tenant_seed(round_seed: u64, id: u32) -> u64 {
    Rng::derive(round_seed, u64::from(id)).next_u64()
}

/// A tenant's client: its process and its action stream.
enum Client {
    Editor {
        pid: ProcessId,
        gen: EditGen,
        hot: Vec<cryptodrop_vfs::VPath>,
    },
    Reader {
        pid: ProcessId,
        rng: Rng,
    },
    Attacker {
        sample: RansomwareSample,
        at_step: usize,
        pid: Option<ProcessId>,
    },
}

impl Client {
    fn new(role: &Role, fs: &mut Vfs, corpus: &Corpus, seed: u64) -> Self {
        match role {
            Role::Editor => {
                // Each editor ranks the shared hot set its own way.
                let mut hot = hot_set(corpus, EDITOR_HOT_FILES);
                Rng::derive(seed, 0x407).shuffle(&mut hot);
                Client::Editor {
                    pid: fs.spawn_process("winword.exe"),
                    gen: EditGen::new(seed, hot.len()),
                    hot,
                }
            }
            Role::Reader => Client::Reader {
                pid: fs.spawn_process("indexer.exe"),
                rng: Rng::derive(seed, 0x2EAD),
            },
            Role::Attacker(sample, at_step) => Client::Attacker {
                sample: sample.clone(),
                at_step: *at_step,
                pid: None,
            },
        }
    }

    /// Performs step `step` and times it.
    fn step(&mut self, step: usize, fs: &mut Vfs, corpus: &Corpus, checks: &mut Checks) -> Step {
        let started = Instant::now();
        match self {
            Client::Editor { pid, gen, hot } => {
                let op = gen.next_op();
                let result = apply(fs, *pid, &hot[op.file], op);
                let ns = started.elapsed().as_nanos() as u64;
                checks.check(result.is_ok(), || {
                    format!("editor {op:?} failed: {result:?}")
                });
                Step::Action(op.kind.label(), ns)
            }
            Client::Reader { pid, rng } => {
                let file = &corpus.files()[rng.below(corpus.files().len())];
                let result = fs
                    .open(*pid, &file.path, OpenOptions::read())
                    .and_then(|h| {
                        let read = fs.read_to_end(*pid, h).map(drop);
                        read.and(fs.close(*pid, h))
                    });
                let ns = started.elapsed().as_nanos() as u64;
                checks.check(result.is_ok(), || {
                    format!("reader on {} failed: {result:?}", file.path)
                });
                Step::Action(READER, ns)
            }
            Client::Attacker {
                sample,
                at_step,
                pid,
            } if *at_step == step => {
                let ctx = WorkloadCtx::spawn(fs, sample, corpus.root(), sample.seed());
                let staged = sample.stage(fs, &ctx);
                checks.check(staged.is_ok(), || {
                    format!("sample staging failed: {staged:?}")
                });
                let started = Instant::now();
                sample.drive(fs, &ctx);
                *pid = Some(ctx.pid());
                Step::Attack(started.elapsed().as_nanos() as u64)
            }
            Client::Attacker { .. } => Step::Idle,
        }
    }
}

/// The report line's label for a reader's action.
const READER: &str = "reader";

/// What one tenant's step did, with its wall time in nanoseconds.
enum Step {
    /// A benign action, labelled with its kind.
    Action(&'static str, u64),
    /// An attacker's whole run to suspension.
    Attack(u64),
    /// An attacker waiting for its step.
    Idle,
}

/// Detections with the wall-clock-derived stamp zeroed.
fn verdicts(mut detections: Vec<DetectionReport>) -> Vec<DetectionReport> {
    for d in &mut detections {
        d.at_nanos = 0;
    }
    detections
}

/// Replays tenant `id` standalone: same namespace, the corpus staged in
/// the fleet's order, same role and action stream. Returns its verdicts.
fn standalone_verdicts(
    corpus: &Corpus,
    id: u32,
    role: &Role,
    seed: u64,
    steps: usize,
    checks: &mut Checks,
) -> Vec<DetectionReport> {
    let mut fs = Vfs::with_namespace(id);
    let staged: Result<(), _> = corpus
        .files()
        .iter()
        .try_for_each(|f| fs.admin().write_file(&f.path, &f.data));
    checks.check(staged.is_ok(), || {
        format!("standalone staging failed: {staged:?}")
    });
    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .recovery(ShadowConfig::with_budget(SHADOW_BUDGET))
        .build()
        .expect("valid session config");
    session.attach(&mut fs);
    let mut client = Client::new(role, &mut fs, corpus, seed);
    let mut unchecked = Checks::default();
    for step in 0..steps {
        client.step(step, &mut fs, corpus, &mut unchecked);
    }
    verdicts(session.detections())
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    setup_s: f64,
    /// Benign actions: (kind, nanoseconds).
    actions: Vec<(&'static str, u64)>,
    contain_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    /// Replay wall time minus the attackers' drives: the time the host
    /// spent serving benign tenants.
    benign_s: f64,
    shadow_bytes: u64,
    files_lost: u64,
    resident_per_tenant: f64,
}

fn rpc_call(admin: &mut FleetAdmin, acc: &mut Option<&mut LayerAcc>, line: &str) -> Value {
    let response = time_in(acc, |a| &mut a.rpc, || admin.handle_line(line));
    rpc::parse(&response).unwrap_or(Value::Null)
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
    let roles = plan(opts.seed, round, TENANTS, BENIGN_ACTIONS);
    let mut out = Round::default();

    let (mut admin, setup_s) = timed(|| {
        let mut fleet = Fleet::new(FleetConfig::protecting(corpus.root().as_str()));
        let staging = |fleet: &mut Fleet| {
            for f in corpus.files() {
                fleet.stage_file(f.path.clone(), f.data.clone());
            }
        };
        time_in(acc, |a| &mut a.stage, || staging(&mut fleet));
        for _ in 0..TENANTS {
            let spec = TenantSpec {
                quiet: !traced,
                ..TenantSpec::default()
            };
            let spawned = time_in(acc, |a| &mut a.spawn, || fleet.spawn(spec));
            checks.check(spawned.is_ok(), || format!("spawn failed: {spawned:?}"));
        }
        FleetAdmin::new(fleet)
    });
    out.setup_s = setup_s;
    let ids = admin.fleet().tenant_ids();
    let mut clients: Vec<Client> = Vec::with_capacity(ids.len());
    for (id, role) in ids.iter().zip(&roles) {
        let t = admin.fleet_mut().get_mut(*id).expect("spawned tenant");
        if let Some(acc) = acc.as_deref_mut() {
            wrap(t.fs_mut(), &acc.spans);
        }
        clients.push(Client::new(
            role,
            t.fs_mut(),
            corpus,
            tenant_seed(seed, *id),
        ));
    }

    let started = Instant::now();
    for step in 0..BENIGN_ACTIONS {
        for (id, client) in ids.iter().zip(clients.iter_mut()) {
            let fs = admin
                .fleet_mut()
                .get_mut(*id)
                .expect("spawned tenant")
                .fs_mut();
            match client.step(step, fs, corpus, checks) {
                Step::Action(kind, ns) => out.actions.push((kind, ns)),
                Step::Attack(ns) => out.contain_ms.push(ns as f64 / 1e6),
                Step::Idle => {}
            }
        }
    }
    out.benign_s = started.elapsed().as_secs_f64() - out.contain_ms.iter().sum::<f64>() / 1e3;
    if let Some(acc) = acc.as_deref_mut() {
        acc.action_ns += out.actions.iter().map(|&(_, ns)| ns).sum::<u64>();
        acc.action_ns += out
            .contain_ms
            .iter()
            .map(|ms| (ms * 1e6) as u64)
            .sum::<u64>();
    }

    // Verdicts: every attacker detected and suspended, no benign tenant
    // detected.
    for (id, client) in ids.iter().zip(&clients) {
        let t = admin.fleet().get(*id).expect("spawned tenant");
        let detections = t.session().detections();
        match client {
            Client::Attacker { sample, pid, .. } => {
                let detected = pid.and_then(|p| t.session().detection_for(p));
                let suspended = pid.is_some_and(|p| t.fs().is_suspended(p));
                checks.check(detected.is_some() && suspended, || {
                    format!("tenant {id}: {} not detected", sample.describe())
                });
                out.files_lost += detected.map_or(0, |d| u64::from(d.files_lost));
            }
            _ => checks.check(detections.is_empty(), || {
                format!("tenant {id}: benign tenant detected: {detections:?}")
            }),
        }
        out.shadow_bytes += t
            .session()
            .shadow_store()
            .map_or(0, |s| s.stats().bytes_held);
    }

    // Verdicts match standalone sessions on a seeded subset: the first
    // attacker and the first benign tenant of a seeded order.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    Rng::derive(seed, 0xC0DE).shuffle(&mut order);
    let attacker = order
        .iter()
        .find(|&&i| matches!(roles[i], Role::Attacker(..)));
    let benign = order
        .iter()
        .find(|&&i| !matches!(roles[i], Role::Attacker(..)));
    for &i in attacker.into_iter().chain(benign).take(COMPARED) {
        let id = ids[i];
        let fleet_verdicts = verdicts(
            admin
                .fleet()
                .get(id)
                .expect("tenant")
                .session()
                .detections(),
        );
        let alone = standalone_verdicts(
            corpus,
            id,
            &roles[i],
            tenant_seed(seed, id),
            BENIGN_ACTIONS,
            checks,
        );
        checks.check(fleet_verdicts == alone, || {
            format!("tenant {id}: fleet verdicts {fleet_verdicts:?} != standalone {alone:?}")
        });
    }

    // Restore every attacker through the admin plane, then read stats.
    for (n, (id, client)) in ids.iter().zip(&clients).enumerate() {
        if !matches!(client, Client::Attacker { .. }) {
            continue;
        }
        let line = format!(r#"{{"id":{n},"method":"restore","params":{{"tenant":{id}}}}}"#);
        let started = Instant::now();
        let response = rpc_call(&mut admin, acc, &line);
        out.restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let reports = response.get("result").and_then(|r| r.get("reports"));
        checks.check(
            matches!(reports, Some(Value::Arr(r)) if !r.is_empty()),
            || format!("tenant {id}: restore returned {}", response.render()),
        );
        // The RPC report carries no byte count, so `recovery.bytes_restored`
        // is measured on `ransom-rollback` only.
        if let (Some(acc), Some(Value::Arr(reports))) = (acc.as_deref_mut(), reports) {
            for r in reports {
                let count = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
                acc.absorb_restore(count("files_restored"), 0, count("conflicts"));
            }
        }
    }
    let stats = rpc_call(&mut admin, acc, r#"{"id":"stats","method":"stats"}"#);
    let field = |k: &str| {
        stats
            .get("result")
            .and_then(|r| r.get(k))
            .and_then(Value::as_u64)
    };
    match (
        field("corpus_bytes"),
        field("private_bytes"),
        field("tenants"),
    ) {
        (Some(corpus_bytes), Some(private_bytes), Some(n)) if n > 0 => {
            out.resident_per_tenant = (corpus_bytes + private_bytes) as f64 / n as f64;
            if let Some(acc) = acc.as_deref_mut() {
                acc.private_bytes += private_bytes;
            }
        }
        _ => checks.check(false, || format!("stats returned {}", stats.render())),
    }

    if let Some(acc) = acc.as_deref_mut() {
        for t in admin.fleet().tenants() {
            acc.absorb_fs(t.fs());
            acc.absorb_session(t.session());
        }
    }
    out
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
    let samples: Vec<(&'static str, u64)> = rounds
        .iter()
        .flat_map(|r| r.actions.iter().copied())
        .collect();
    let actions: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    phase.e2e.extend(op_metrics(&actions));
    let benign_s: f64 = rounds.iter().map(|r| r.benign_s).sum();
    phase.e2e.push(Metric::new(
        "ops_per_s",
        actions.len() as f64 / benign_s,
        "1/s",
    ));
    let held: u64 = rounds.iter().map(|r| r.shadow_bytes).sum();
    phase
        .e2e
        .push(Metric::new("shadow_bytes_held", held as f64, "bytes"));
    let contain: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.contain_ms.iter().copied())
        .collect();
    phase.e2e.extend(ms_metrics("contain_ms", &contain));
    let restore: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.restore_ms.iter().copied())
        .collect();
    phase.e2e.extend(ms_metrics("restore_ms", &restore));
    let lost: u64 = rounds.iter().map(|r| r.files_lost).sum();
    phase
        .e2e
        .push(Metric::new("files_lost", lost as f64, "count"));
    let resident = rounds.iter().map(|r| r.resident_per_tenant).sum::<f64>() / rounds.len() as f64;
    phase
        .e2e
        .push(Metric::new("resident_bytes_per_tenant", resident, "bytes"));
    let mut kinds = vec![READER];
    kinds.extend(EditKind::ALL.map(EditKind::label));
    phase
        .details
        .push(("op_us_by_kind", by_kind(&kinds, &samples)));
    phase.details.push(("rounds", rounds.len().into()));
    phase
}
