//! Metric definitions and their computation from trials, plus the result
//! line the benchmark prints last.

use crate::driver::Trial;
use crate::probe::{Bucket, CpuSplit};

/// A metric's name, unit and direction, as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, from untraced trials.
pub const END_TO_END: &[MetricDef] = &[
    def("throughput_tps", "ops/s", "higher"),
    def("commit_p50_us", "us", "lower"),
    def("commit_p99_us", "us", "lower"),
    def("durable_p50_us", "us", "lower"),
    def("nvm_write_amp", "ratio", "lower"),
    def("restart_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, from traced trials, plus two read from the traced
/// run's untraced trials: the tracing overhead, and the durable-latency
/// tail, which moves too much between runs on a 2-CPU host to carry a
/// regression bound (see `README.md`).
pub const PER_LAYER: &[MetricDef] = &[
    def("durable_p99_us", "us", "lower"),
    def("perform.cpu_ns_per_op", "ns/op", "lower"),
    def("perform.runq_wait_ns_per_op", "ns/op", "lower"),
    def("perform.run_ns_mean", "ns", "lower"),
    def("stm.retries_per_commit", "count", "lower"),
    def("stm.commit_ratio", "ratio", "higher"),
    def("persist.cpu_ns_per_tx", "ns/tx", "lower"),
    def("persist.runq_wait_ns_per_tx", "ns/tx", "lower"),
    def("persist.backlog_tx_mean", "tx", "lower"),
    def("persist.backlog_tx_max", "tx", "lower"),
    def("persist.log_bytes_per_tx", "B/tx", "lower"),
    def("reproduce.cpu_ns_per_tx", "ns/tx", "lower"),
    def("reproduce.runq_wait_ns_per_tx", "ns/tx", "lower"),
    def("reproduce.backlog_tx_mean", "tx", "lower"),
    def("reproduce.drain_ms", "ms", "lower"),
    def("reproduce.checkpoints_per_ktx", "count/ktx", "lower"),
    def("shadow.swap_ins_per_ktx", "count/ktx", "lower"),
    def("shadow.touch_waits_per_ktx", "count/ktx", "lower"),
    def("combine.entries_ratio", "ratio", "lower"),
    def("compress.bytes_ratio", "ratio", "lower"),
    def("nvm.write_bytes_per_tx", "B/tx", "lower"),
    def("nvm.flush_bytes_per_tx", "B/tx", "lower"),
    def("nvm.fences_per_tx", "count/tx", "lower"),
    def("nvm.model_delay_ns_per_tx", "ns/tx", "lower"),
    def("recovery.scan_ms", "ms", "lower"),
    def("recovery.replay_ms", "ms", "lower"),
    def("recovery.wipe_ms", "ms", "lower"),
    def("setup.create_s", "s", "lower"),
    def("setup.load_s", "s", "lower"),
    def("process.other_cpu_ns_per_op", "ns/op", "lower"),
    def("process.bench_cpu_ns_per_op", "ns/op", "lower"),
    def("process.cpu_closure_pct", "%", "higher"),
    def("trace.overhead_pct", "%", "lower"),
];

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Its definition.
    pub def: MetricDef,
    /// The measured value.
    pub value: f64,
}

fn lookup(defs: &[MetricDef], name: &str) -> MetricDef {
    *defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Median; the mean of the middle pair for an even count, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Throughput of one trial: window ops over the window.
pub fn throughput(t: &Trial) -> f64 {
    t.window_ops as f64 / t.window.as_secs_f64().max(1e-9)
}

fn trial_end_to_end(t: &Trial) -> Vec<(&'static str, f64)> {
    let us = |ns: u64| ns as f64 / 1e3;
    vec![
        ("throughput_tps", throughput(t)),
        ("commit_p50_us", us(t.commit.p50)),
        ("commit_p99_us", us(t.commit.p99)),
        ("durable_p50_us", us(t.durable.p50)),
        ("nvm_write_amp", ratio(t.nvm.words_written * 8, t.txn_bytes)),
        ("restart_s", t.restart.as_secs_f64()),
        ("setup_s", (t.create + t.load).as_secs_f64()),
    ]
}

fn trial_per_layer(t: &Trial, cpu: &CpuSplit) -> Vec<(&'static str, f64)> {
    let committed = t.attempted - t.failed;
    let ops = committed.max(1);
    let tx = t.updates;
    let p = &t.pipeline;
    let backlog_persist: Vec<u64> = t.backlogs.iter().map(|b| b.0).collect();
    let backlog_reproduce: Vec<u64> = t.backlogs.iter().map(|b| b.1).collect();
    let mean = |v: &[u64]| ratio(v.iter().sum(), v.len() as u64);
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        (
            "perform.cpu_ns_per_op",
            ratio(cpu.run_ns(Bucket::Perform), ops),
        ),
        (
            "perform.runq_wait_ns_per_op",
            ratio(cpu.wait_ns(Bucket::Perform), ops),
        ),
        (
            "perform.run_ns_mean",
            ratio(t.run_span_ns.0, t.run_span_ns.1),
        ),
        ("stm.retries_per_commit", ratio(t.retries, committed)),
        ("stm.commit_ratio", ratio(committed, committed + t.retries)),
        (
            "persist.cpu_ns_per_tx",
            ratio(cpu.run_ns(Bucket::Persist), tx),
        ),
        (
            "persist.runq_wait_ns_per_tx",
            ratio(cpu.wait_ns(Bucket::Persist), tx),
        ),
        ("persist.backlog_tx_mean", mean(&backlog_persist)),
        (
            "persist.backlog_tx_max",
            backlog_persist.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("persist.log_bytes_per_tx", ratio(p.log_bytes_flushed, tx)),
        (
            "reproduce.cpu_ns_per_tx",
            ratio(cpu.run_ns(Bucket::Reproduce), tx),
        ),
        (
            "reproduce.runq_wait_ns_per_tx",
            ratio(cpu.wait_ns(Bucket::Reproduce), tx),
        ),
        ("reproduce.backlog_tx_mean", mean(&backlog_reproduce)),
        ("reproduce.drain_ms", t.drain.as_secs_f64() * 1e3),
        (
            "reproduce.checkpoints_per_ktx",
            1e3 * ratio(p.checkpoints, tx),
        ),
        (
            "shadow.swap_ins_per_ktx",
            1e3 * ratio(t.shadow.swap_ins, tx),
        ),
        (
            "shadow.touch_waits_per_ktx",
            1e3 * ratio(t.shadow.touch_waits, tx),
        ),
        (
            "combine.entries_ratio",
            if p.entries_before_combine == 0 {
                1.0
            } else {
                ratio(p.entries_after_combine, p.entries_before_combine)
            },
        ),
        (
            "compress.bytes_ratio",
            if p.group_bytes_raw == 0 {
                1.0
            } else {
                ratio(p.group_bytes_stored, p.group_bytes_raw)
            },
        ),
        ("nvm.write_bytes_per_tx", ratio(t.nvm.words_written * 8, tx)),
        ("nvm.flush_bytes_per_tx", ratio(t.nvm.bytes_flushed, tx)),
        ("nvm.fences_per_tx", ratio(t.nvm.fences, tx)),
        ("nvm.model_delay_ns_per_tx", ratio(t.model_delay_ns, tx)),
        ("recovery.scan_ms", ms(t.recovery.scan_ns)),
        ("recovery.replay_ms", ms(t.recovery.replay_ns)),
        ("recovery.wipe_ms", ms(t.recovery.wipe_ns)),
        ("setup.create_s", t.create.as_secs_f64()),
        ("setup.load_s", t.load.as_secs_f64()),
        (
            "process.other_cpu_ns_per_op",
            ratio(cpu.run_ns(Bucket::Other), ops),
        ),
        (
            "process.bench_cpu_ns_per_op",
            ratio(cpu.run_ns(Bucket::Bench), ops),
        ),
        (
            "process.cpu_closure_pct",
            100.0 * ratio(cpu.total_run_ns(), cpu.process_ns),
        ),
    ]
}

/// Medians over trials of per-trial values, in declaration order.
fn medians(defs: &[MetricDef], per_trial: &[Vec<(&'static str, f64)>]) -> Vec<Metric> {
    let Some(first) = per_trial.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = per_trial
                .iter()
                .map(|vals| vals.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1))
                .collect();
            Metric {
                def: lookup(defs, name),
                value: median(&values),
            }
        })
        .collect()
}

/// End-to-end metrics: medians over the untraced trials, plus the run's
/// peak resident memory.
pub fn end_to_end(trials: &[Trial], peak_rss_bytes: u64) -> Vec<Metric> {
    let per_trial: Vec<_> = trials
        .iter()
        .filter(|t| !t.traced)
        .map(trial_end_to_end)
        .collect();
    let mut out = medians(END_TO_END, &per_trial);
    out.push(Metric {
        def: lookup(END_TO_END, "peak_rss_mb"),
        value: peak_rss_bytes as f64 / (1 << 20) as f64,
    });
    out
}

fn over(trials: &[Trial], traced: bool, f: fn(&Trial) -> f64) -> f64 {
    let v: Vec<f64> = trials
        .iter()
        .filter(|t| t.traced == traced)
        .map(f)
        .collect();
    median(&v)
}

/// The durable-latency p99: median over the untraced trials.
pub fn durable_p99(trials: &[Trial]) -> Metric {
    Metric {
        def: lookup(PER_LAYER, "durable_p99_us"),
        value: over(trials, false, |t| t.durable.p99 as f64 / 1e3),
    }
}

/// Per-layer metrics: medians over the traced trials, plus the durable
/// p99 and the tracing overhead from the run's untraced trials.
pub fn per_layer(trials: &[Trial]) -> Vec<Metric> {
    let per_trial: Vec<_> = trials
        .iter()
        .filter_map(|t| t.cpu.as_ref().map(|cpu| trial_per_layer(t, cpu)))
        .collect();
    let mut out = vec![durable_p99(trials)];
    out.extend(medians(PER_LAYER, &per_trial));
    let (plain, traced) = (
        over(trials, false, throughput),
        over(trials, true, throughput),
    );
    out.push(Metric {
        def: lookup(PER_LAYER, "trace.overhead_pct"),
        value: if plain > 0.0 {
            100.0 * (plain - traced) / plain
        } else {
            0.0
        },
    });
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.def.name, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            def: END_TO_END[0],
            value: 1.25,
        }];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"throughput_tps\": {\"value\": 1.25, \"unit\": \"ops/s\"}}}"
        );
    }
}
