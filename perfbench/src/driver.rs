//! One trial: set up a fresh device and runtime, load, run the closed
//! loop (warmup, then the timed window, which ends when `quiesce()`
//! returns), then — off the clock — checksum the heap, restart through
//! recovery and check the workload read-only.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dude_nvm::{Nvm, StatsSnapshot};
use dude_txapi::{PAddr, TxResult, Txn, TxnSystem, TxnThread};
use dude_workloads::rng::Rng;
use dudetm::{DudeTm, PipelineStatsSnapshot, RecoveryReport, ShadowStats, TmEngine};

use crate::probe::{self, CpuLedger, CpuSplit, Span};
use crate::spec::{runtime_config, Built, Sizing, WorkloadKind};

/// Op spans kept per client and trial; beyond it only their sum is kept.
const MAX_OP_SPANS: usize = 20_000;
/// Sampler cadence for backlogs.
const SAMPLE_EVERY: Duration = Duration::from_millis(1);
/// Thread statistics are read every this many backlog samples.
const TASK_SAMPLE_EVERY: u32 = 20;

/// What one trial runs.
#[derive(Debug, Clone, Copy)]
pub struct TrialParams {
    /// The workload.
    pub kind: WorkloadKind,
    /// Workload seed: the same seed gives the same op streams.
    pub seed: u64,
    /// Ops before the window opens.
    pub warmup_ops: u64,
    /// Ops inside the window.
    pub window_ops: u64,
    /// Record spans and sample the process (a traced trial).
    pub traced: bool,
    /// Index of this trial in the run (span identifiers).
    pub index: u64,
}

/// Everything a trial measured.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Was the trial traced.
    pub traced: bool,
    /// Ops attempted after the load phase.
    pub attempted: u64,
    /// Ops attempted but not committed.
    pub failed: u64,
    /// Update transactions committed after the load phase.
    pub updates: u64,
    /// Conflict re-executions of committed ops.
    pub retries: u64,
    /// Bytes written by the final attempt of every committed op.
    pub txn_bytes: u64,
    /// Ops inside the window.
    pub window_ops: u64,
    /// Window length: first window op start to `quiesce()` return.
    pub window: Duration,
    /// `TxnThread::run` wall time of the window ops.
    pub commit: Latency,
    /// Op start to durable acknowledgement of the window updates.
    pub durable: Latency,
    /// `Nvm::new` plus `create_stm`.
    pub create: Duration,
    /// Load steps plus their quiesce.
    pub load: Duration,
    /// The final `quiesce()` span.
    pub drain: Duration,
    /// `recover_stm` until the first transaction commits.
    pub restart: Duration,
    /// Device counters over the measured phase (load excluded).
    pub nvm: StatsSnapshot,
    /// Modeled persist delay over the measured phase, ns.
    pub model_delay_ns: u64,
    /// Pipeline counters over the measured phase.
    pub pipeline: PipelineStatsSnapshot,
    /// Paging counters over the measured phase.
    pub shadow: ShadowStats,
    /// The restart's recovery report.
    pub recovery: RecoveryReport,
    /// Traced trials: per-bucket CPU over the measured phase.
    pub cpu: Option<CpuSplit>,
    /// Traced trials: `(persist backlog, reproduce backlog)` samples taken
    /// while clients ran inside the window.
    pub backlogs: Vec<(u64, u64)>,
    /// Traced trials: summed `TxnThread::run` span time and span count.
    pub run_span_ns: (u64, u64),
    /// Traced trials: recorded spans.
    pub spans: Vec<Span>,
    /// The correctness check's verdict.
    pub check: Result<(), String>,
}

/// Latency percentiles of one trial, nearest rank, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Number of samples.
    pub samples: u64,
}

impl Latency {
    fn of(mut samples: Vec<u64>) -> Latency {
        samples.sort_unstable();
        let rank = |p: f64| {
            let n = samples.len();
            samples
                .get(((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1)
                .copied()
                .unwrap_or(0)
        };
        Latency {
            p50: rank(0.50),
            p99: rank(0.99),
            samples: samples.len() as u64,
        }
    }
}

/// Counts the bytes a transaction body writes; a fresh adapter wraps each
/// attempt, so a committed op reports its final attempt only.
struct CountingTxn<'a> {
    inner: &'a mut dyn Txn,
    bytes: u64,
}

impl Txn for CountingTxn<'_> {
    fn read_word(&mut self, addr: PAddr) -> TxResult<u64> {
        self.inner.read_word(addr)
    }

    fn write_word(&mut self, addr: PAddr, val: u64) -> TxResult<()> {
        self.bytes += 8;
        self.inner.write_word(addr, val)
    }

    fn declare_write(&mut self, addr: PAddr, words: u64) -> TxResult<()> {
        self.inner.declare_write(addr, words)
    }
}

/// State the clients share.
struct Loop {
    next_op: AtomicU64,
    warmup_ops: u64,
    total_ops: u64,
    /// Window start, ns since the trial epoch (set by whoever claims the
    /// first window op).
    window_start_ns: AtomicU64,
    /// Highest committed TID (published in traced trials, for the sampler).
    max_tid: AtomicU64,
    /// Traced trials: per-thread CPU readings.
    ledger: Mutex<CpuLedger>,
    epoch: Instant,
    traced: bool,
    trial: u64,
}

#[derive(Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    updates: u64,
    retries: u64,
    txn_bytes: u64,
    max_tid: u64,
    commit_ns: Vec<u64>,
    durable_ns: Vec<u64>,
    run_span_ns: u64,
    run_spans: u64,
    spans: Vec<Span>,
}

impl Loop {
    /// A thread about to exit records its last CPU reading.
    fn record_own_cpu(&self) {
        self.ledger
            .lock()
            .expect("ledger lock")
            .update(probe::read_current_task());
    }
}

fn client_seed(seed: u64, client: usize) -> u64 {
    seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn run_client<S: TxnSystem>(
    sys: &S,
    built: &Built,
    client: usize,
    seed: u64,
    lp: &Loop,
) -> ClientOut {
    let workload = built.workload();
    let mut thread = sys.register_thread();
    let mut rng = Rng::new(client_seed(seed, client));
    // Sized up front: each client may run the whole window.
    let mut out = ClientOut {
        commit_ns: Vec::with_capacity((lp.total_ops - lp.warmup_ops) as usize),
        durable_ns: Vec::with_capacity((lp.total_ops - lp.warmup_ops) as usize),
        ..ClientOut::default()
    };
    // Pipelined acknowledgement (§5.3): window updates wait here, oldest
    // first, until the durable watermark passes them.
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    loop {
        let i = lp.next_op.fetch_add(1, Ordering::Relaxed);
        if i >= lp.total_ops {
            break;
        }
        let in_window = i >= lp.warmup_ops;
        let start = Instant::now();
        if i == lp.warmup_ops {
            lp.window_start_ns
                .store(probe::ns_since(lp.epoch, start), Ordering::Relaxed);
        }
        // A retried attempt replays the same inputs.
        let inputs = rng.clone();
        let mut bytes = 0;
        let outcome = thread.run(&mut |tx| {
            rng = inputs.clone();
            let mut counted = CountingTxn {
                inner: tx,
                bytes: 0,
            };
            let r = workload.op(&mut counted, &mut rng, client);
            bytes = counted.bytes;
            r
        });
        let end = Instant::now();
        out.attempted += 1;
        let Some(info) = outcome.info() else {
            out.failed += 1;
            continue;
        };
        out.retries += u64::from(info.retries);
        out.txn_bytes += bytes;
        let run_ns = end.duration_since(start).as_nanos() as u64;
        if lp.traced {
            out.run_span_ns += run_ns;
            out.run_spans += 1;
            if out.spans.len() < MAX_OP_SPANS {
                out.spans.push(Span {
                    id: probe::op_id(lp.trial, client, i),
                    parent: probe::step_id(lp.trial, 3),
                    name: "TxnThread::run",
                    start_ns: probe::ns_since(lp.epoch, start),
                    end_ns: probe::ns_since(lp.epoch, end),
                });
            }
        }
        if in_window {
            out.commit_ns.push(run_ns);
        }
        if let Some(tid) = info.tid {
            out.updates += 1;
            out.max_tid = out.max_tid.max(tid);
            if lp.traced {
                lp.max_tid.fetch_max(tid, Ordering::Relaxed);
            }
            if in_window {
                pending.push_back((tid, start));
            }
        }
        ack(
            &mut pending,
            thread.durable_watermark(),
            end,
            &mut out.durable_ns,
        );
    }
    // The loop is over; poll gently for the rest so the drain keeps the CPU.
    while !pending.is_empty() {
        std::thread::sleep(Duration::from_micros(50));
        ack(
            &mut pending,
            thread.durable_watermark(),
            Instant::now(),
            &mut out.durable_ns,
        );
    }
    drop(thread);
    if lp.traced {
        lp.record_own_cpu();
    }
    out
}

fn ack(pending: &mut VecDeque<(u64, Instant)>, durable: u64, now: Instant, out: &mut Vec<u64>) {
    while let Some(&(tid, start)) = pending.front() {
        if tid > durable {
            break;
        }
        out.push(now.duration_since(start).as_nanos() as u64);
        pending.pop_front();
    }
}

/// FNV-1a over the heap image.
fn heap_checksum(nvm: &Nvm, start: u64, len: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = vec![0u64; 1 << 14];
    let mut off = start;
    while off < start + len {
        let words = (((start + len - off) / 8) as usize).min(buf.len());
        nvm.read_words(off, &mut buf[..words]);
        for &w in &buf[..words] {
            hash = (hash ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
        off += words as u64 * 8;
    }
    hash
}

/// Samples `(time, persist backlog, reproduce backlog)` every millisecond,
/// and thread statistics every 20 ms, until `stop` is set.
fn sample<E: TmEngine>(sys: &DudeTm<E>, lp: &Loop, stop: &AtomicBool) -> Vec<(u64, u64, u64)> {
    let mut backlogs = Vec::new();
    let mut tick = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let committed = lp.max_tid.load(Ordering::Relaxed);
        let durable = sys.durable_id();
        let reproduced = sys.reproduced_id();
        backlogs.push((
            probe::ns_since(lp.epoch, Instant::now()),
            committed.saturating_sub(durable),
            durable.saturating_sub(reproduced),
        ));
        tick += 1;
        if tick.is_multiple_of(TASK_SAMPLE_EVERY) {
            lp.ledger
                .lock()
                .expect("ledger lock")
                .update(probe::read_tasks());
        }
        std::thread::sleep(SAMPLE_EVERY);
    }
    lp.record_own_cpu();
    backlogs
}

/// Runs one trial.
///
/// # Panics
///
/// Panics if the sizing leaves no headroom or the runtime breaks an
/// internal invariant; the caller's watchdog covers hangs.
pub fn run_trial(p: &TrialParams, epoch: Instant) -> Trial {
    let sizing = Sizing::for_ops(p.kind, p.warmup_ops + p.window_ops);
    sizing.assert_headroom(p.kind);
    let config = runtime_config(p.kind, &sizing);
    let mut spans = Vec::new();
    let mut step = |slot: u64, name: &'static str, start: Instant, end: Instant| {
        if p.traced {
            spans.push(Span {
                id: probe::step_id(p.index, slot),
                parent: if slot == 0 {
                    0
                } else {
                    probe::step_id(p.index, 0)
                },
                name,
                start_ns: probe::ns_since(epoch, start),
                end_ns: probe::ns_since(epoch, end),
            });
        }
    };

    let t_setup = Instant::now();
    let nvm = Arc::new(Nvm::new(sizing.device(p.kind)));
    let sys = DudeTm::create_stm(Arc::clone(&nvm), config);
    let t_created = Instant::now();
    let built = Built::new(p.kind, &sizing);
    {
        let workload = built.workload();
        let mut thread = sys.register_thread();
        for s in 0..workload.load_steps() {
            thread
                .run(&mut |tx| workload.load_step(tx, s))
                .expect_committed();
        }
    }
    sys.quiesce();
    let t_loaded = Instant::now();
    step(1, "create", t_setup, t_created);
    step(2, "load", t_created, t_loaded);

    let nvm0 = nvm.stats();
    let delay0 = nvm.timing().total_delay_ns();
    let pipe0 = sys.pipeline_stats();
    let shadow0 = sys.shadow_stats();
    let load_last_tid = pipe0.commits + pipe0.abort_markers;
    let lp = Loop {
        next_op: AtomicU64::new(0),
        warmup_ops: p.warmup_ops,
        total_ops: p.warmup_ops + p.window_ops,
        window_start_ns: AtomicU64::new(0),
        max_tid: AtomicU64::new(load_last_tid),
        ledger: Mutex::new(if p.traced {
            CpuLedger::start()
        } else {
            CpuLedger::default()
        }),
        epoch,
        traced: p.traced,
        trial: p.index,
    };
    let stop = AtomicBool::new(false);
    let (outs, backlogs, t_clients_done) = std::thread::scope(|s| {
        let sampler = p.traced.then(|| {
            std::thread::Builder::new()
                .name("bench-sampler".into())
                .spawn_scoped(s, || sample(&sys, &lp, &stop))
                .expect("spawn sampler")
        });
        let clients: Vec<_> = (0..p.kind.clients())
            .map(|c| {
                let (sys, built, lp) = (&sys, &built, &lp);
                std::thread::Builder::new()
                    .name(format!("{}-{c}", probe::CLIENT_PREFIX))
                    .spawn_scoped(s, move || run_client(sys, built, c, p.seed, lp))
                    .expect("spawn client")
            })
            .collect();
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let done = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let backlogs = sampler.map(|h| h.join().expect("sampler thread panicked"));
        (outs, backlogs.unwrap_or_default(), done)
    });
    let t_quiesce = Instant::now();
    sys.quiesce();
    let t_end = Instant::now();
    let window_start_ns = lp.window_start_ns.load(Ordering::Relaxed);
    let window_start = epoch + Duration::from_nanos(window_start_ns);
    step(3, "window", window_start, t_end);
    step(4, "quiesce", t_quiesce, t_end);

    let cpu = p
        .traced
        .then(|| lp.ledger.into_inner().expect("ledger lock").finish());
    let nvm_delta = nvm.stats().delta(&nvm0);
    let model_delay_ns = nvm.timing().total_delay_ns() - delay0;
    let pipe_end = sys.pipeline_stats();
    let pipeline = pipe_end.delta(&pipe0);
    let shadow_end = sys.shadow_stats();
    let shadow = ShadowStats {
        swap_ins: shadow_end.swap_ins - shadow0.swap_ins,
        swap_outs: shadow_end.swap_outs - shadow0.swap_outs,
        touch_waits: shadow_end.touch_waits - shadow0.touch_waits,
    };

    // Off the clock: checksum, restart through recovery, read-only check.
    let heap = sys.heap_region();
    let checksum = heap_checksum(&nvm, heap.start(), heap.len());
    let max_tid = outs.iter().map(|o| o.max_tid).fold(load_last_tid, u64::max);
    let issued = (
        pipe_end.commits + pipe_end.abort_markers,
        pipe_end.abort_markers,
    );
    let updates: u64 = outs.iter().map(|o| o.updates).sum();
    drop(sys);
    let t_restart = Instant::now();
    let (recovered, recovery) = DudeTm::recover_stm(Arc::clone(&nvm), config)
        .expect("recovery of a cleanly drained device");
    let mut thread = recovered.register_thread();
    thread
        .run(&mut |tx| tx.read_word(PAddr::new(0)))
        .expect_committed();
    let t_restarted = Instant::now();
    step(5, "recover_stm", t_restart, t_restarted);
    let check = verify(
        &recovery,
        max_tid,
        issued,
        checksum,
        heap_checksum(&nvm, heap.start(), heap.len()),
    )
    .and_then(|()| {
        let new_orders = match p.kind {
            WorkloadKind::TpccNewOrder => updates,
            _ => 0,
        };
        built.check(&mut thread, new_orders)
    });
    drop(thread);
    drop(recovered);
    step(6, "check", t_restarted, Instant::now());
    step(0, "trial", t_setup, Instant::now());

    let mut trial = Trial {
        traced: p.traced,
        attempted: 0,
        failed: 0,
        updates,
        retries: 0,
        txn_bytes: 0,
        window_ops: p.window_ops,
        window: t_end.saturating_duration_since(window_start),
        commit: Latency::of(
            outs.iter()
                .map(|o| o.commit_ns.as_slice())
                .collect::<Vec<_>>()
                .concat(),
        ),
        durable: Latency::of(
            outs.iter()
                .map(|o| o.durable_ns.as_slice())
                .collect::<Vec<_>>()
                .concat(),
        ),
        create: t_created - t_setup,
        load: t_loaded - t_created,
        drain: t_end - t_quiesce,
        restart: t_restarted - t_restart,
        nvm: nvm_delta,
        model_delay_ns,
        pipeline,
        shadow,
        recovery,
        cpu,
        backlogs: backlogs
            .iter()
            .filter(|&&(ts, _, _)| {
                ts >= window_start_ns && ts <= probe::ns_since(epoch, t_clients_done)
            })
            .map(|&(_, persist, reproduce)| (persist, reproduce))
            .collect(),
        run_span_ns: (0, 0),
        spans,
        check,
    };
    for o in outs {
        trial.attempted += o.attempted;
        trial.failed += o.failed;
        trial.retries += o.retries;
        trial.txn_bytes += o.txn_bytes;
        trial.run_span_ns.0 += o.run_span_ns;
        trial.run_span_ns.1 += o.run_spans;
        trial.spans.extend(o.spans);
    }
    trial
}

/// The recovery and heap conditions of the correctness check.
fn verify(
    recovery: &RecoveryReport,
    max_tid: u64,
    (last_issued, abort_markers): (u64, u64),
    before: u64,
    after: u64,
) -> Result<(), String> {
    // TIDs are dense: every update commit or wasted-TID abort marker takes
    // the next one, so recovery must end exactly at the last one issued,
    // which is the highest committed TID unless aborts wasted TIDs after it.
    if recovery.last_tid != last_issued
        || recovery.last_tid < max_tid
        || recovery.last_tid - max_tid > abort_markers
    {
        return Err(format!(
            "recovered last_tid {} but clients committed up to {max_tid} and {last_issued} TIDs were issued",
            recovery.last_tid
        ));
    }
    if before != after {
        return Err(format!(
            "heap checksum changed across restart: {before:#x} -> {after:#x}"
        ));
    }
    Ok(())
}
