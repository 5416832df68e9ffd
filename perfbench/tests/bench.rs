//! The benchmark's own guarantees: exact op accounting, a fixed and
//! well-formed metric set, repeatable counts at one client, and identical
//! op counts with and without tracing.

use std::time::Instant;

use dude_perfbench::driver::{run_trial, Trial, TrialParams};
use dude_perfbench::report::{self, Metric, END_TO_END, PER_LAYER};
use dude_perfbench::spec::WorkloadKind;

fn trial(kind: WorkloadKind, seed: u64, warmup_ops: u64, window_ops: u64, traced: bool) -> Trial {
    let t = run_trial(
        &TrialParams {
            kind,
            seed,
            warmup_ops,
            window_ops,
            traced,
            index: u64::from(traced),
        },
        Instant::now(),
    );
    assert_eq!(t.check, Ok(()), "correctness check of {}", kind.name());
    t
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.def.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn op_counts_are_exact() {
    // Two clients on TPC-C conflict constantly; every claimed op is
    // attempted exactly once and either commits or counts as failed.
    let t = trial(WorkloadKind::TpccNewOrder, 7, 500, 2_000, false);
    assert_eq!(t.attempted, 2_500);
    assert_eq!(t.failed, 0);
    assert_eq!(
        t.attempted - t.failed,
        t.updates,
        "every New-Order is an update"
    );
    assert_eq!(t.commit.samples, t.window_ops);
    assert_eq!(t.durable.samples, t.window_ops);
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_match_the_declared_set() {
    let trials = vec![
        trial(WorkloadKind::YcsbRw, 3, 1_000, 5_000, false),
        trial(WorkloadKind::YcsbRw, 3, 1_000, 5_000, true),
    ];
    let e2e = report::end_to_end(&trials, 1);
    let layers = report::per_layer(&trials);
    let names = |ms: &[Metric]| ms.iter().map(|m| m.def.name).collect::<Vec<_>>();
    let declared = |defs: &[report::MetricDef]| defs.iter().map(|d| d.name).collect::<Vec<_>>();
    assert_eq!(names(&e2e), declared(END_TO_END));
    assert_eq!(names(&layers), declared(PER_LAYER));
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(d.name), "bad metric name {}", d.name);
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WorkloadKind::ALL {
        assert!(manifest.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
    assert!(e2e.iter().chain(&layers).all(|m| m.value.is_finite()));
}

#[test]
fn single_client_counts_repeat() {
    // One client, no warmup and a fixed seed: the op stream is identical
    // per run, and so are the counts it alone decides.
    let layers = |kind| report::per_layer(&[trial(kind, 11, 0, 20_000, true)]);
    let paged = [
        layers(WorkloadKind::YcsbPaged),
        layers(WorkloadKind::YcsbPaged),
    ];
    assert_eq!(
        value(&paged[0], "shadow.swap_ins_per_ktx"),
        value(&paged[1], "shadow.swap_ins_per_ktx")
    );
    let tpcc = [
        layers(WorkloadKind::TpccNewOrder),
        layers(WorkloadKind::TpccNewOrder),
    ];
    assert_eq!(
        value(&tpcc[0], "persist.log_bytes_per_tx"),
        value(&tpcc[1], "persist.log_bytes_per_tx")
    );
    // Two sources of timing enter the remaining counts, so they repeat only
    // closely: the grouped Persist seals a partial group after a 2 ms hold
    // (combination, log and device bytes on `ycsb-paged`), and Reproduce
    // also checkpoints when idle (one device word per extra checkpoint).
    let close = |runs: &[Vec<Metric>; 2], name: &str, tolerance: f64| {
        let (a, b) = (value(&runs[0], name), value(&runs[1], name));
        assert!((a - b).abs() <= tolerance * a.abs(), "{name}: {a} vs {b}");
    };
    close(&paged, "nvm.write_bytes_per_tx", 0.005);
    close(&paged, "combine.entries_ratio", 0.005);
    close(&tpcc, "nvm.write_bytes_per_tx", 1e-4);
}

#[test]
fn tracing_does_not_change_the_ops_committed() {
    for kind in [WorkloadKind::YcsbRw, WorkloadKind::YcsbPaged] {
        let plain = trial(kind, 5, 1_000, 10_000, false);
        let traced = trial(kind, 5, 1_000, 10_000, true);
        assert_eq!(
            plain.attempted - plain.failed,
            traced.attempted - traced.failed
        );
        assert_eq!(plain.attempted, 11_000);
    }
}

#[test]
fn cpu_buckets_sum_to_process_cpu() {
    // Long enough for the process figure's 10 ms ticks to resolve ±2 %.
    let t = trial(WorkloadKind::YcsbRw, 9, 20_000, 400_000, true);
    let closure = value(&report::per_layer(&[t]), "process.cpu_closure_pct");
    assert!(
        (95.0..=105.0).contains(&closure),
        "buckets hold {closure} % of process CPU"
    );
}
