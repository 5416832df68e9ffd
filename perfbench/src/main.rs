//! `dude-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs trials of one workload until their timed windows add up to
//! `--seconds` (at least five trials; six with `--trace 1`, which
//! alternates untraced and traced trials), prints a report, and ends with
//! one JSON result line. Exits non-zero when any check fails or a trial
//! overruns the watchdog.

use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dude_perfbench::driver::{run_trial, Trial, TrialParams};
use dude_perfbench::probe;
use dude_perfbench::report::{self, Metric};
use dude_perfbench::spec::WorkloadKind;

/// A trial taking longer than this is recorded as failed.
const TRIAL_CAP: Duration = Duration::from_secs(60);
/// No new trial starts after this much of the run has passed.
const RUN_BUDGET: Duration = Duration::from_secs(100);
/// Upper bound on trials in a run.
const MAX_TRIALS: usize = 24;

struct Args {
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<_> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: dude-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-dir <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: WorkloadKind::YcsbRw,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from(".bench_build/perfbench-trace"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? != 0,
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    args.kind =
        WorkloadKind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(args)
}

/// Fails the run if the current trial outlives its deadline: prints a
/// failed result line and exits, since a stuck client cannot be stopped.
fn spawn_watchdog(start: Instant, deadline_ms: Arc<AtomicU64>, attempted: Arc<AtomicU64>) {
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(Duration::from_millis(100));
            if start.elapsed().as_millis() as u64 > deadline_ms.load(Ordering::Relaxed) {
                let n = attempted.load(Ordering::Relaxed).max(1);
                eprintln!("watchdog: trial exceeded {TRIAL_CAP:?}; recording the run as failed");
                println!("{}", report::result_json(false, n, n, &[]));
                let _ = std::io::stdout().flush();
                std::process::exit(3);
            }
        })
        .expect("spawn watchdog");
}

fn print_trial(t: &Trial) {
    println!(
        "trial traced={} ops={} window={:.3}s tps={:.0} commit_us={:.1}/{:.1} durable_us={:.1}/{:.1} \
         setup={:.3}s restart={:.3}s updates={} retries={} check={}",
        t.traced,
        t.attempted,
        t.window.as_secs_f64(),
        report::throughput(t),
        t.commit.p50 as f64 / 1e3,
        t.commit.p99 as f64 / 1e3,
        t.durable.p50 as f64 / 1e3,
        t.durable.p99 as f64 / 1e3,
        (t.create + t.load).as_secs_f64(),
        t.restart.as_secs_f64(),
        t.updates,
        t.retries,
        match &t.check {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        }
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>16.4} {}", m.def.name, m.value, m.def.unit);
    }
}

fn write_trace(args: &Args, trials: &[Trial]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.trace_dir)?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    let spans: Vec<_> = trials
        .iter()
        .flat_map(|t| t.spans.iter().copied())
        .collect();
    std::fs::write(&path, probe::spans_jsonl(&spans))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let deadline_ms = Arc::new(AtomicU64::new(u64::MAX));
    let attempted_so_far = Arc::new(AtomicU64::new(0));
    spawn_watchdog(
        start,
        Arc::clone(&deadline_ms),
        Arc::clone(&attempted_so_far),
    );

    let (warmup_ops, window_ops) = args.kind.default_ops();
    let min_trials = if args.trace { 6 } else { 5 };
    println!(
        "workload={} seed={} clients={} warmup_ops={warmup_ops} window_ops={window_ops} trace={}",
        args.kind.name(),
        args.seed,
        args.kind.clients(),
        args.trace
    );

    let mut trials: Vec<Trial> = Vec::new();
    let (mut attempted, mut failed, mut failed_trials) = (0u64, 0u64, 0usize);
    let mut measured = 0.0;
    loop {
        let index = trials.len() + failed_trials;
        if (index >= min_trials && measured >= args.seconds)
            || index >= MAX_TRIALS
            || start.elapsed() >= RUN_BUDGET
        {
            break;
        }
        let params = TrialParams {
            kind: args.kind,
            seed: args.seed,
            warmup_ops,
            window_ops,
            // Traced runs alternate: untraced trials give the reference
            // for the tracing overhead.
            traced: args.trace && index % 2 == 1,
            index: index as u64,
        };
        deadline_ms.store(
            (start.elapsed() + TRIAL_CAP).as_millis() as u64,
            Ordering::Relaxed,
        );
        match panic::catch_unwind(AssertUnwindSafe(|| run_trial(&params, start))) {
            Ok(t) => {
                print_trial(&t);
                attempted += t.attempted;
                failed += t.failed;
                if t.check.is_err() {
                    failed += t.attempted - t.failed;
                }
                measured += t.window.as_secs_f64();
                trials.push(t);
            }
            Err(_) => {
                println!("trial {index} panicked");
                let n = warmup_ops + window_ops;
                attempted += n;
                failed += n;
                failed_trials += 1;
            }
        }
        attempted_so_far.store(attempted, Ordering::Relaxed);
    }
    deadline_ms.store(u64::MAX, Ordering::Relaxed);

    let e2e = report::end_to_end(&trials, probe::peak_rss_bytes());
    let layers = if args.trace {
        report::per_layer(&trials)
    } else {
        // Printed for the reader; it is declared as a per-layer metric.
        vec![report::durable_p99(&trials)]
    };
    print_metrics(&e2e);
    print_metrics(&layers);
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("error_rate {error_rate} ratio ({failed} of {attempted} ops)");
    if args.trace {
        match write_trace(&args, &trials) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write trace: {e}"),
        }
    }
    let correct = failed == 0 && failed_trials == 0 && !trials.is_empty();
    let metrics = if args.trace { layers } else { e2e };
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
