//! Self-tests of the benchmark: generators are pure functions of the seed,
//! the output checks catch a broken restore, and every run's output parses
//! and names every metric `BENCHMARK.json` lists.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use cryptodrop::{CryptoDrop, ShadowConfig};
use cryptodrop_fleet::rpc::{parse, Value};
use cryptodrop_perfbench::workloads::{
    bench_corpus, burst_pipelined, edit, fleet_tenants, ransom_rollback, NAMES,
};
use cryptodrop_perfbench::{run_workload, Args};
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};

#[test]
fn edit_stream_is_a_function_of_the_seed() {
    let ops = |seed| {
        let mut g = edit::EditGen::new(seed, 32);
        (0..2_000).map(|_| g.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(ops(7), ops(7));
    assert_ne!(ops(7), ops(8));
    assert_eq!(edit::hot_set(&bench_corpus(), 32).len(), 32);
}

#[test]
fn sample_schedule_is_seeded_and_stratified() {
    let ids = |seed| {
        ransom_rollback::schedule(seed, 100)
            .iter()
            .map(|s| s.id)
            .collect::<Vec<_>>()
    };
    assert_eq!(ids(3), ids(3));
    assert_ne!(ids(3), ids(4));
    // Every block of 25 holds each (family, class) pair once.
    let schedule = ransom_rollback::schedule(3, 100);
    for block in schedule.chunks(25) {
        let pairs: BTreeSet<_> = block.iter().map(|s| (s.family, s.class)).collect();
        assert_eq!(pairs.len(), 25);
    }
}

#[test]
fn fleet_plan_and_burst_plan_are_seeded() {
    assert_eq!(
        fleet_tenants::plan(5, 1, 100, 30),
        fleet_tenants::plan(5, 1, 100, 30)
    );
    assert_ne!(
        fleet_tenants::plan(5, 1, 100, 30),
        fleet_tenants::plan(6, 1, 100, 30)
    );
    assert_ne!(
        fleet_tenants::plan(5, 1, 100, 30),
        fleet_tenants::plan(5, 2, 100, 30)
    );
    let plan = fleet_tenants::plan(5, 1, 100, 30);
    let attackers = plan
        .iter()
        .filter(|r| matches!(r, fleet_tenants::Role::Attacker(..)))
        .count();
    assert_eq!(attackers, 10);
    assert_eq!(
        burst_pipelined::file_plan(9, 1, 50),
        burst_pipelined::file_plan(9, 1, 50)
    );
    assert_ne!(
        burst_pipelined::file_plan(9, 1, 50),
        burst_pipelined::file_plan(9, 0, 50)
    );
}

#[test]
fn restore_check_catches_a_corrupted_byte() {
    let corpus = bench_corpus();
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .recovery(ShadowConfig::default())
        .build()
        .unwrap();
    session.attach(&mut fs);
    let sample = &ransom_rollback::schedule(1, 1)[0];
    let ctx = WorkloadCtx::spawn(&mut fs, sample, corpus.root(), sample.seed());
    sample.drive(&mut fs, &ctx);
    let family = session.detection_for(ctx.pid()).expect("detected").pid;
    session.restore(&mut fs, family).expect("recovery armed");
    assert!(ransom_rollback::mismatched_files(&corpus, &mut fs).is_empty());

    let victim = &corpus.files()[0].path;
    let mut bytes = fs.admin().read_file(victim).unwrap();
    bytes[0] ^= 1;
    fs.admin().write_file(victim, &bytes).unwrap();
    assert_eq!(
        ransom_rollback::mismatched_files(&corpus, &mut fs),
        vec![victim.to_string()]
    );
}

/// The metric names one `BENCHMARK.json` list declares.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    match bench.get(list) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect(),
        other => panic!("{list}: {other:?}"),
    }
}

/// The metric names of a result line, in order.
fn result_metrics(line: &str) -> Vec<String> {
    let result = parse(line).expect("result line parses");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{line}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    for (name, m) in metrics {
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
        assert!(
            matches!(m.get("value"), Some(Value::Num(v)) if v.is_finite()),
            "{name}"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let e2e = declared("end_to_end");
    let per_layer = declared("per_layer");
    for name in NAMES {
        for trace in [false, true] {
            let args = Args {
                workload: name.to_string(),
                seed: 11,
                seconds: 0.2,
                trace,
            };
            let outcome = run_workload(name, &args);
            assert!(outcome.correct, "{name}: {}", outcome.stdout);
            let lines: Vec<&str> = outcome.stdout.lines().collect();
            let metrics = result_metrics(lines[lines.len() - 1]);
            assert_eq!(
                &metrics,
                if trace { &per_layer } else { &e2e },
                "{name} trace={trace}"
            );

            // The report line names every end-to-end metric the workload
            // has, with its unit, plus the error rate and provenance.
            let report = parse(lines[lines.len() - 2]).expect("report line parses");
            let report = report.get("report").expect("report object");
            for key in ["seed", "nproc", "commit", "rustc"] {
                assert!(report.get(key).is_some(), "{name}: report lacks {key}");
            }
            let end_to_end = report.get("end_to_end").expect("end_to_end");
            let mut expected = vec!["error_rate", "files_lost"];
            expected.extend(e2e.iter().map(String::as_str));
            if matches!(name, "ransom-rollback" | "fleet-tenants") {
                expected.extend([
                    "contain_ms_p50",
                    "contain_ms_p90",
                    "restore_ms_p50",
                    "restore_ms_p90",
                ]);
            }
            if name == "fleet-tenants" {
                expected.push("resident_bytes_per_tenant");
            }
            for metric in expected {
                let m = end_to_end
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: report lacks {metric}"));
                assert!(m.get("unit").and_then(Value::as_str).is_some());
            }
            // The editor workloads break action latency down by kind.
            if matches!(name, "office-edit" | "fleet-tenants") {
                let Some(Value::Obj(kinds)) = report.get("op_us_by_kind") else {
                    panic!("{name}: report lacks op_us_by_kind");
                };
                for (kind, k) in kinds {
                    for key in ["p50_us", "p99_us", "n"] {
                        assert!(k.get(key).is_some(), "{name}: {kind} lacks {key}");
                    }
                }
            }
        }
    }
}
