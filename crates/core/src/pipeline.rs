//! The Persist and Reproduce background stages (§3.3, §3.4).
//!
//! *Persist* drains per-thread volatile redo logs, writes them to the
//! persistent log rings (one barrier per record or group), and marks
//! transaction IDs in the durable-ID tracker. Logs may be flushed **out of
//! commit order** — only Reproduce needs the global order (§3.3).
//!
//! *Reproduce* receives each persisted record's *volatile copy* through a
//! channel (the paper's "keep the redo log in the volatile region"
//! optimization — without a crash, nothing is ever read back from NVM),
//! reorders it into dense transaction-ID order, applies the writes to the
//! persistent heap, periodically checkpoints the reproduced ID, and only
//! then recycles log space.
//!
//! With `reproduce_threads > 1`, Reproduce splits into a *router* and `N`
//! *shard workers*: the router performs the dense reorder, partitions each
//! batch's writes by heap shard ([`crate::frontier`]), and fans them out;
//! each worker applies its shard's writes, fences, and publishes its
//! completed TID. The checkpoint — and therefore log recycling — keys off
//! the minimum completed TID across shards, never a single worker's
//! progress.
//!
//! With `persist_group > 1`, the Persist stage splits into a *sequencer*
//! and `persist_flush_workers` *flush workers*. The sequencer merges all
//! threads' records into dense global ID order and seals groups of
//! consecutive transactions — the precondition that keeps
//! *cross-transaction log combination* (and compression) safe (§3.3,
//! Figure 3). Sealed groups fan out round-robin to the flush workers,
//! which combine, serialize, optionally compress, write to their own log
//! ring, and fence **in parallel and out of order**. Durability is then
//! *published* strictly in order by [`GroupPublisher`]: the durable-ID
//! watermark advances and `Batch`es reach Reproduce only once a contiguous
//! prefix of groups is durable, so recovery's contiguous-run invariant and
//! `wait_durable` semantics are identical to the serial grouped worker's.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::frontier::split_writes;
use crate::log::{combine_sorted, serialize_abort, serialize_commit, serialize_group, LogRecord};
use crate::plog::PlogSpan;
use crate::runtime::Shared;
use crate::seqtrack::OrderedCompletions;
use crate::trace::{Stage, TraceEventKind};

/// A persisted unit handed from Persist to Reproduce.
#[derive(Debug)]
pub(crate) struct Batch {
    pub first_tid: u64,
    pub last_tid: u64,
    /// Writes to replay (combined when grouping is on; empty for aborts).
    pub writes: Vec<(u64, u64)>,
    /// `(ring, span)` of the one log record holding this batch, recycled
    /// once the covering checkpoint is durable.
    pub span: (usize, PlogSpan),
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.first_tid == other.first_tid
    }
}
impl Eq for Batch {}
impl PartialOrd for Batch {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Batch {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap becomes a min-heap on first_tid.
        other.first_tid.cmp(&self.first_tid)
    }
}

/// Writes one record to `ring_idx` without fencing; returns the batch to
/// forward once the covering fence has been issued, or gives the record
/// back when the ring has no space (the caller parks it and keeps serving
/// the other rings — blocking here would deadlock the pipeline).
fn try_stage_record(
    shared: &Shared,
    ring_idx: usize,
    rec: LogRecord,
    buf: &mut Vec<u64>,
) -> Result<Batch, LogRecord> {
    let tid = rec.tid();
    match &rec {
        LogRecord::Commit { writes, .. } => serialize_commit(tid, writes, buf),
        LogRecord::Abort { .. } => serialize_abort(tid, buf),
    }
    let Some(span) = shared.rings[ring_idx].try_append_unfenced(buf) else {
        // Persist is blocked on log space Reproduce has not recycled yet —
        // the stall the bounded NVM log ring exists to make visible.
        if shared.trace.enabled() {
            shared
                .trace
                .stalls
                .persist_ring_full
                .fetch_add(1, Ordering::Relaxed);
        }
        return Err(rec);
    };
    let writes = match rec {
        LogRecord::Commit { writes, .. } => writes,
        LogRecord::Abort { .. } => Vec::new(),
    };
    shared
        .stats
        .records_persisted
        .fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .entries_logged
        .fetch_add(writes.len() as u64, Ordering::Relaxed);
    shared
        .stats
        .log_bytes_flushed
        .fetch_add(span.words * 8, Ordering::Relaxed);
    Ok(Batch {
        first_tid: tid,
        last_tid: tid,
        writes,
        span: (ring_idx, span),
    })
}

/// The default Persist worker: drains a set of per-thread channels in any
/// order and persists each record individually.
pub(crate) fn persist_worker(
    shared: Arc<Shared>,
    inputs: Vec<(usize, Receiver<LogRecord>)>,
    out: Sender<Batch>,
) {
    dude_nvm::set_background_stage(true);
    let mut buf = Vec::new();
    let mut done = vec![false; inputs.len()];
    // Records whose ring was full — retried next sweep while the other
    // channels keep flowing (never block on one ring: deadlock).
    let mut parked: Vec<Option<LogRecord>> = (0..inputs.len()).map(|_| None).collect();
    let mut staged: Vec<Batch> = Vec::new();
    loop {
        if shared.abandoned() {
            return;
        }
        let mut progress = false;
        for (i, (ring_idx, rx)) in inputs.iter().enumerate() {
            if let Some(rec) = parked[i].take() {
                match try_stage_record(&shared, *ring_idx, rec, &mut buf) {
                    Ok(batch) => {
                        progress = true;
                        staged.push(batch);
                    }
                    Err(rec) => {
                        parked[i] = Some(rec);
                        continue; // ring still full: keep order, skip channel
                    }
                }
            }
            if done[i] {
                continue;
            }
            // Bounded drain per sweep so one busy thread cannot starve the
            // rest.
            for _ in 0..64 {
                match rx.try_recv() {
                    Ok(rec) => match try_stage_record(&shared, *ring_idx, rec, &mut buf) {
                        Ok(batch) => {
                            progress = true;
                            staged.push(batch);
                        }
                        Err(rec) => {
                            parked[i] = Some(rec);
                            break;
                        }
                    },
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done[i] = true;
                        break;
                    }
                }
            }
        }
        if !staged.is_empty() {
            // One ordering barrier covers the whole sweep (batched persist,
            // §3.3); its modeled cost covers all flushed bytes.
            if shared.trace.enabled() {
                let bytes: u64 = staged.iter().map(|b| b.span.1.words * 8).sum();
                let t0 = dude_nvm::monotonic_ns();
                shared.nvm.fence();
                let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
                shared.trace.persist_barrier_ns.record(dur);
                let last_tid = staged.iter().map(|b| b.last_tid).max().unwrap_or(0);
                shared.trace.event(
                    Stage::Persist,
                    TraceEventKind::PersistBarrier,
                    last_tid,
                    bytes,
                    dur,
                );
            } else {
                shared.nvm.fence();
            }
            // Publish the whole sweep's durability before handing any batch
            // on: a send can wake a parked Reproduce that then preempts this
            // thread, and marking between sends would hold the rest of the
            // sweep's acknowledgements behind Reproduce's work.
            for batch in &staged {
                shared.tracker.mark(batch.first_tid);
            }
            for batch in staged.drain(..) {
                // Reproduce may have exited during shutdown teardown; the
                // records are persisted regardless.
                let _ = out.send(batch);
            }
        }
        if done.iter().all(|&d| d) && parked.iter().all(|p| p.is_none()) {
            return;
        }
        if !progress {
            dude_nvm::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// One sealed group of consecutive-TID records, handed from the sequencer
/// to a flush worker. `seq` is the dense group sequence number (`0, 1, 2,
/// …` per runtime instance) the in-order publisher keys on.
#[derive(Debug)]
pub(crate) struct GroupWork {
    pub seq: u64,
    pub records: Vec<LogRecord>,
}

/// In-order durable publication for the parallel grouped Persist stage.
///
/// Flush workers finish groups out of order, but two consumers require
/// order: the durable-ID watermark must advance over a contiguous TID
/// prefix (a `wait_durable(t)` that returns early on a holey prefix would
/// break durable linearizability), and recovery's contiguous-run replay
/// assumes no batch reaches Reproduce — and therefore no log span is ever
/// recycled — ahead of a gap. `publish` funnels every completed group
/// through an [`OrderedCompletions`] reorderer whose emission callback
/// (mark the tracker, forward the batch) runs under the reorderer's lock,
/// so publication is totally ordered across workers.
#[derive(Debug)]
pub(crate) struct GroupPublisher {
    shared: Arc<Shared>,
    out: Sender<Batch>,
    completions: OrderedCompletions<Batch>,
}

impl GroupPublisher {
    /// Creates a publisher emitting from group sequence number 0.
    pub(crate) fn new(shared: Arc<Shared>, out: Sender<Batch>) -> Self {
        GroupPublisher {
            shared,
            out,
            completions: OrderedCompletions::starting_at(0),
        }
    }

    /// Publishes group `seq`: parked until all earlier groups are durable,
    /// then — in sequence order — marks its TID range in the durable-ID
    /// tracker and forwards the batch to Reproduce.
    fn publish(&self, seq: u64, batch: Batch) {
        self.completions.complete(seq, batch, |_, b| {
            self.shared.tracker.mark_range(b.first_tid, b.last_tid);
            self.shared.trace.event(
                Stage::Persist,
                TraceEventKind::DurablePublish,
                b.last_tid,
                8 * b.writes.len() as u64,
                0,
            );
            // Reproduce may have exited during shutdown teardown; the
            // group is durable regardless.
            let _ = self.out.send(b);
        });
    }
}

/// The grouped-Persist sequencer: merges all per-thread channels into
/// dense global transaction-ID order, seals groups of `group` consecutive
/// transactions, and fans them out round-robin to the flush workers.
///
/// The sequencer never touches NVM, so it can never park on a full ring;
/// the hold timer below therefore always re-arms on time and a partial
/// group is dispatched at most once per quiet period (the serial worker
/// conflated sequencing with flushing, and a full ring could pin its timer
/// in the expired state). Round-robin assignment is load-bearing for span
/// recycling: worker `w` receives group sequences `w, w + N, …` and
/// appends them to *its own* ring in that order, so each ring's append
/// order equals dense TID order — exactly the order Reproduce releases
/// spans in ([`crate::plog::PlogRing::release`] panics otherwise).
pub(crate) fn persist_sequencer(
    shared: Arc<Shared>,
    inputs: Vec<(usize, Receiver<LogRecord>)>,
    worker_txs: Vec<Sender<GroupWork>>,
    group: usize,
) {
    dude_nvm::set_background_stage(true);
    let workers = worker_txs.len();
    let mut heap: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    let mut stash: std::collections::HashMap<u64, LogRecord> = std::collections::HashMap::new();
    let mut done = vec![false; inputs.len()];
    let mut expected = shared.tracker.watermark() + 1;
    let mut current: Vec<LogRecord> = Vec::new();
    let mut next_seq = 0u64;
    // Hold-timer arithmetic runs on the shared monotonic clock (virtual
    // under sim), not `Instant`, so the latency bound is deterministic in
    // schedule-exploration runs and unchanged natively.
    let mut last_flush = dude_nvm::monotonic_ns();
    // Dispatch a partial group after this much quiet time (latency bound).
    let max_hold_ns = Duration::from_millis(2).as_nanos() as u64;

    let dispatch = |current: &mut Vec<LogRecord>, next_seq: &mut u64| {
        if current.is_empty() {
            return;
        }
        let records = std::mem::take(current);
        let seq = *next_seq;
        *next_seq += 1;
        if shared.trace.enabled() {
            let entries: u64 = records.iter().map(|r| r.writes().len() as u64).sum();
            let last = records.last().expect("non-empty group").tid();
            shared.trace.event(
                Stage::Persist,
                TraceEventKind::GroupDispatch,
                last,
                8 * entries,
                0,
            );
        }
        // A worker only exits after draining its channel, so a send can
        // fail only during teardown-after-panic.
        let _ = worker_txs[(seq % workers as u64) as usize].send(GroupWork { seq, records });
    };

    loop {
        if shared.abandoned() {
            return;
        }
        let mut progress = false;
        for (i, (_ring_idx, rx)) in inputs.iter().enumerate() {
            if done[i] {
                continue;
            }
            for _ in 0..64 {
                match rx.try_recv() {
                    Ok(rec) => {
                        progress = true;
                        let tid = rec.tid();
                        heap.push(std::cmp::Reverse(tid));
                        stash.insert(tid, rec);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done[i] = true;
                        break;
                    }
                }
            }
        }
        // Move dense-prefix records into the current group.
        while heap
            .peek()
            .is_some_and(|&std::cmp::Reverse(tid)| tid == expected)
        {
            heap.pop();
            let rec = stash.remove(&expected).expect("stashed record");
            // `last_flush` is really "when the current group started": a
            // stale value from an idle period would make the hold timer
            // expire immediately and dispatch a group of one, so restart it
            // when the group goes empty → non-empty.
            if current.is_empty() {
                last_flush = dude_nvm::monotonic_ns();
            }
            current.push(rec);
            expected += 1;
            if current.len() >= group {
                dispatch(&mut current, &mut next_seq);
                last_flush = dude_nvm::monotonic_ns();
            }
        }
        let all_done = done.iter().all(|&d| d);
        if all_done && heap.is_empty() {
            dispatch(&mut current, &mut next_seq);
            // Returning drops `worker_txs`: the flush workers drain their
            // queues and exit, and the publisher's last `Batch` sender goes
            // with them.
            return;
        }
        if !current.is_empty() && dude_nvm::monotonic_ns().saturating_sub(last_flush) > max_hold_ns
        {
            dispatch(&mut current, &mut next_seq);
            last_flush = dude_nvm::monotonic_ns();
        }
        if !progress {
            if all_done {
                // Channels are closed but the reorder heap has a gap: a
                // transaction ID was allocated and never logged. This is a
                // protocol violation upstream.
                panic!(
                    "persist(grouped): tid {expected} missing with inputs closed \
                     ({} stashed)",
                    stash.len()
                );
            }
            // Idle with records stashed beyond a TID gap: the sequencer is
            // waiting on one slow Perform thread — the grouped pipeline's
            // head-of-line stall, counted per tick like the others.
            if shared.trace.enabled() && !stash.is_empty() {
                shared
                    .trace
                    .stalls
                    .persist_seq_wait
                    .fetch_add(1, Ordering::Relaxed);
            }
            dude_nvm::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// A grouped-Persist flush worker: combines, serializes, optionally
/// compresses, writes, and fences each group it receives — out of order
/// with respect to its siblings — then hands the result to the in-order
/// [`GroupPublisher`].
///
/// Worker `w` appends exclusively to `shared.rings[w]` (its channel
/// delivers group sequences in increasing order, so the ring's append
/// order is dense TID order; see [`persist_sequencer`]). A full ring
/// parks the worker with a bounded sleep per probe — counted as a
/// `persist_ring_full` stall — never a busy-spin: the space it waits for
/// appears as soon as Reproduce's idle-tick checkpoint recycles the spans
/// of already-published groups, which publication order guarantees are
/// all ahead of this one.
pub(crate) fn persist_flush_worker(
    shared: Arc<Shared>,
    worker: usize,
    rx: Receiver<GroupWork>,
    publisher: Arc<GroupPublisher>,
    compress: bool,
) {
    dude_nvm::set_background_stage(true);
    let mut buf = Vec::new();
    let ring = &shared.rings[worker];
    while let Ok(work) = rx.recv() {
        if shared.abandoned() {
            return;
        }
        let first = work.records.first().expect("non-empty group").tid();
        let last = work.records.last().expect("non-empty group").tid();
        let before: usize = work.records.iter().map(|r| r.writes().len()).sum();
        let combined = combine_sorted(&work.records);
        let (raw, stored) = serialize_group(first, last, &combined, compress, &mut buf);
        let tracing = shared.trace.enabled();
        // The whole group-persist barrier — write + flush + fence,
        // including any wait for ring space — timed as one event.
        let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
        let span = loop {
            if let Some(span) = ring.try_append_unfenced(&buf) {
                break span;
            }
            if shared.abandoned() {
                return;
            }
            if tracing {
                shared
                    .trace
                    .stalls
                    .persist_ring_full
                    .fetch_add(1, Ordering::Relaxed);
            }
            dude_nvm::thread::sleep(Duration::from_micros(50));
        };
        // Fence before the group is published durable. The sabotage gate
        // exists only in sim builds: dropping this fence is the injected
        // ordering bug the schedule fuzzer must catch (a planned crash
        // then loses a group whose durability was already announced).
        #[cfg(feature = "sim")]
        let fence_skipped = crate::sabotage::skip_group_fence();
        #[cfg(not(feature = "sim"))]
        let fence_skipped = false;
        if !fence_skipped {
            shared.nvm.fence();
        }
        if tracing {
            let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
            shared.trace.persist_barrier_ns.record(dur);
            shared.trace.flush_worker_ns[worker].record(dur);
            shared.trace.group_flush_bytes.record(stored as u64);
            shared.trace.event(
                Stage::Persist,
                TraceEventKind::GroupFlush,
                last,
                stored as u64,
                dur,
            );
        }
        shared
            .stats
            .entries_logged
            .fetch_add(before as u64, Ordering::Relaxed);
        shared
            .stats
            .entries_before_combine
            .fetch_add(before as u64, Ordering::Relaxed);
        shared
            .stats
            .entries_after_combine
            .fetch_add(combined.len() as u64, Ordering::Relaxed);
        shared
            .stats
            .group_bytes_raw
            .fetch_add(raw as u64, Ordering::Relaxed);
        shared
            .stats
            .group_bytes_stored
            .fetch_add(stored as u64, Ordering::Relaxed);
        shared
            .stats
            .groups_persisted
            .fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .log_bytes_flushed
            .fetch_add(span.words * 8, Ordering::Relaxed);
        publisher.publish(
            work.seq,
            Batch {
                first_tid: first,
                last_tid: last,
                writes: combined,
                span: (worker, span),
            },
        );
    }
}

/// The Reproduce worker (§3.4): replays batches in dense transaction-ID
/// order onto the persistent heap, checkpoints, and recycles log space.
pub(crate) fn reproduce_worker(shared: Arc<Shared>, rx: Receiver<Batch>) {
    let _bg = dude_nvm::background_stage_scope();
    let mut heap: BinaryHeap<Batch> = BinaryHeap::new();
    let mut expected = shared.reproduced.load(Ordering::Acquire) + 1;
    let mut pending_release: Vec<(usize, PlogSpan)> = Vec::new();
    let mut since_checkpoint = 0u64;
    loop {
        let mut idle = false;
        let disconnected = match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(batch) => {
                heap.push(batch);
                false
            }
            Err(RecvTimeoutError::Timeout) => {
                idle = true;
                // Starved = idling with nothing even out-of-order queued:
                // replay has caught up with the Persist stage entirely.
                if shared.trace.enabled() && heap.is_empty() {
                    shared
                        .trace
                        .stalls
                        .reproduce_starved
                        .fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Err(RecvTimeoutError::Disconnected) => true,
        };
        // Checked after the receive: a stage that exits on abandonment
        // disconnects this channel only after the flag is set.
        if shared.abandoned() {
            return;
        }
        while heap.peek().is_some_and(|b| b.first_tid == expected) {
            let batch = heap.pop().expect("peeked batch");
            let tracing = shared.trace.enabled();
            let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
            shared.nvm.apply_writes(shared.heap.start(), &batch.writes);
            if tracing {
                let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
                shared.trace.replay_apply_ns[0].record(dur);
                shared.trace.event(
                    Stage::Reproduce,
                    TraceEventKind::ReplayApply,
                    batch.last_tid,
                    8 * batch.writes.len() as u64,
                    dur,
                );
            }
            shared
                .stats
                .txns_reproduced
                .fetch_add(batch.last_tid - batch.first_tid + 1, Ordering::Relaxed);
            since_checkpoint += batch.last_tid - batch.first_tid + 1;
            expected = batch.last_tid + 1;
            // Volatile progress marker: gates paged-shadow swap-ins (§4.3).
            shared.reproduced.store(expected - 1, Ordering::Release);
            // Serial mode is the one-shard degenerate case: mirror progress
            // into the frontier so stats read uniformly across modes.
            shared.frontier.note_applied(0, batch.writes.len() as u64);
            shared.frontier.publish(0, expected - 1);
            pending_release.push(batch.span);
            if since_checkpoint >= shared.config.checkpoint_every {
                checkpoint(&shared, expected - 1, pending_release.drain(..));
                since_checkpoint = 0;
            }
        }
        // Idle tick with work applied but not yet checkpointed: checkpoint
        // now so the covered log spans are recycled promptly (a Persist
        // thread may be waiting for exactly that space).
        if idle && !pending_release.is_empty() {
            checkpoint(&shared, expected - 1, pending_release.drain(..));
            since_checkpoint = 0;
        }
        if disconnected {
            if let Some(top) = heap.peek() {
                panic!(
                    "reproduce: tid {expected} missing with pipeline closed \
                     (next available {})",
                    top.first_tid
                );
            }
            checkpoint(&shared, expected - 1, pending_release.drain(..));
            return;
        }
    }
}

/// One dense batch's writes for one shard. Sent to every shard worker for
/// every batch — an empty write set still advances the shard's frontier,
/// otherwise an untouched shard would pin the minimum forever.
#[derive(Debug)]
pub(crate) struct ShardWork {
    pub last_tid: u64,
    pub writes: Vec<(u64, u64)>,
}

/// The sharded-Reproduce router: performs the dense transaction-ID reorder
/// (exactly like [`reproduce_worker`]), splits each batch's writes by heap
/// shard, fans them out to the shard workers, and checkpoints at the
/// minimum completed-TID frontier.
///
/// The router itself never touches the heap; it is the only writer of the
/// checkpoint word and the only thread that recycles log spans. A span is
/// released only once the checkpoint covering its last TID — which by the
/// frontier minimum is applied *and fenced on every shard* — is durable.
pub(crate) fn reproduce_router(
    shared: Arc<Shared>,
    rx: Receiver<Batch>,
    shard_txs: Vec<Sender<ShardWork>>,
) {
    let _bg = dude_nvm::background_stage_scope();
    let shards = shard_txs.len();
    let mut heap: BinaryHeap<Batch> = BinaryHeap::new();
    let start = shared.reproduced.load(Ordering::Acquire);
    let mut expected = start + 1;
    // Spans awaiting a covering checkpoint, FIFO in dispatch (= TID) order.
    let mut pending_release: VecDeque<(u64, (usize, PlogSpan))> = VecDeque::new();
    let mut watermark = start;
    let mut last_checkpoint = start;
    loop {
        let mut idle = false;
        let disconnected = match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(batch) => {
                heap.push(batch);
                false
            }
            Err(RecvTimeoutError::Timeout) => {
                idle = true;
                if shared.trace.enabled() && heap.is_empty() {
                    shared
                        .trace
                        .stalls
                        .reproduce_starved
                        .fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Err(RecvTimeoutError::Disconnected) => true,
        };
        if shared.abandoned() {
            return;
        }
        while heap.peek().is_some_and(|b| b.first_tid == expected) {
            let batch = heap.pop().expect("peeked batch");
            for (s, writes) in split_writes(&batch.writes, shards).into_iter().enumerate() {
                // A worker only exits after draining its channel, so a send
                // can fail only during teardown-after-panic; the router's
                // own frontier wait below would surface that.
                let _ = shard_txs[s].send(ShardWork {
                    last_tid: batch.last_tid,
                    writes,
                });
            }
            pending_release.push_back((batch.last_tid, batch.span));
            expected = batch.last_tid + 1;
        }
        // Publish the global watermark: the slowest shard's completed TID.
        let f = shared.frontier.min_completed();
        if f > watermark {
            shared
                .stats
                .txns_reproduced
                .fetch_add(f - watermark, Ordering::Relaxed);
            watermark = f;
            shared.reproduced.store(f, Ordering::Release);
        }
        if f - last_checkpoint >= shared.config.checkpoint_every || (idle && f > last_checkpoint) {
            checkpoint(&shared, f, covered_spans(&mut pending_release, f));
            last_checkpoint = f;
        }
        if disconnected {
            if let Some(top) = heap.peek() {
                panic!(
                    "reproduce(router): tid {expected} missing with pipeline \
                     closed (next available {})",
                    top.first_tid
                );
            }
            break;
        }
    }
    // Drain: close the shard channels, wait for every shard to finish all
    // dispatched work, then take the final checkpoint.
    drop(shard_txs);
    let target = expected - 1;
    let counting = shared.trace.enabled();
    while shared.frontier.min_completed() < target {
        // Each yield is one tick of the final checkpoint waiting on the
        // slowest shard — the drain-time cost of frontier skew.
        if counting {
            shared
                .trace
                .stalls
                .checkpoint_wait
                .fetch_add(1, Ordering::Relaxed);
        }
        dude_nvm::thread::yield_now();
    }
    if target > watermark {
        shared
            .stats
            .txns_reproduced
            .fetch_add(target - watermark, Ordering::Relaxed);
        shared.reproduced.store(target, Ordering::Release);
    }
    checkpoint(&shared, target, covered_spans(&mut pending_release, target));
    debug_assert!(pending_release.is_empty(), "spans beyond the last batch");
}

/// Pops, lazily, the spans whose covering TID is at or below `frontier`.
fn covered_spans(
    pending: &mut VecDeque<(u64, (usize, PlogSpan))>,
    frontier: u64,
) -> impl Iterator<Item = (usize, PlogSpan)> + '_ {
    std::iter::from_fn(move || {
        pending
            .front()
            .is_some_and(|&(tid, _)| tid <= frontier)
            .then(|| pending.pop_front().expect("peeked entry").1)
    })
}

/// A Reproduce shard worker: applies its shard's slice of each batch to
/// the persistent heap, fences its own flushes, and only then publishes
/// its completed TID to the frontier.
///
/// The fence-before-publish order is load-bearing: the checkpoint trusts
/// the frontier minimum without issuing flushes of its own for heap data,
/// so a TID a shard publishes must already be durable *on that shard*. One
/// fence covers a whole drained run of batches, keeping the barrier count
/// comparable to the serial worker's.
pub(crate) fn reproduce_shard_worker(shared: Arc<Shared>, shard: usize, rx: Receiver<ShardWork>) {
    let _bg = dude_nvm::background_stage_scope();
    let mut run: Vec<ShardWork> = Vec::new();
    loop {
        match rx.recv() {
            Ok(w) => run.push(w),
            Err(_) => return,
        }
        if shared.abandoned() {
            return;
        }
        // Batch whatever else is already queued so one fence covers the
        // whole run (bounded: the frontier should not stall on a hot shard).
        while run.len() < 128 {
            match rx.try_recv() {
                Ok(w) => run.push(w),
                Err(_) => break,
            }
        }
        let mut words = 0u64;
        let tracing = shared.trace.enabled();
        let t0 = if tracing { dude_nvm::monotonic_ns() } else { 0 };
        for work in &run {
            shared.nvm.apply_writes(shared.heap.start(), &work.writes);
            words += work.writes.len() as u64;
        }
        if words > 0 {
            // Nothing flushed ⇒ no fence: an all-empty run (aborts, or no
            // writes routed here) must not pay the barrier latency.
            shared.nvm.fence();
            shared.frontier.note_applied(shard, words);
        }
        let last = run.last().expect("run is non-empty").last_tid;
        if tracing && words > 0 {
            // Apply + fence for the whole run: what this shard's slice of
            // the replay actually cost (empty runs are pure bookkeeping and
            // would drown the histogram in zeros).
            let dur = dude_nvm::monotonic_ns().saturating_sub(t0);
            shared.trace.replay_apply_ns[shard].record(dur);
            shared.trace.event(
                Stage::Reproduce,
                TraceEventKind::ReplayApply,
                last,
                8 * words,
                dur,
            );
        }
        // The sabotage offset exists only in sim builds: publishing
        // `last + 1` is the injected off-by-one frontier bug — the min
        // frontier (and therefore the checkpoint) can then cover a TID
        // this shard never applied, which a planned crash exposes.
        #[cfg(feature = "sim")]
        let publish_tid = last + crate::sabotage::frontier_publish_offset();
        #[cfg(not(feature = "sim"))]
        let publish_tid = last;
        shared.frontier.publish(shard, publish_tid);
        run.clear();
    }
}

/// Durably records `reproduced` in the metadata region, recycles the
/// covered log spans, and only then publishes `reproduced` to the volatile
/// checkpoint mirror [`DudeTm::quiesce`](crate::DudeTm::quiesce) waits on.
///
/// Ordering audit (the span-release-vs-durability question): the release
/// loop runs strictly after the fence returns, and `reproduced` is only
/// ever (a) the serial worker's dense replay position, whose data flushes
/// this same fence covers, or (b) the frontier minimum, whose data every
/// shard worker fenced *before* publishing. In both cases the checkpoint
/// word and all heap data it claims are durable before any span is handed
/// back for reuse. The hole this audit did find was downstream: recovery
/// replayed released-but-not-yet-overwritten records *below* the
/// checkpoint, regressing the heap (see `recovery.rs`; regression test
/// `stale_released_record_below_checkpoint_is_not_replayed`).
fn checkpoint(shared: &Shared, reproduced: u64, covered: impl Iterator<Item = (usize, PlogSpan)>) {
    let off = shared.meta.start() + crate::runtime::META_REPRODUCED * 8;
    shared.nvm.write_word(off, reproduced);
    shared.nvm.flush(off, 8);
    shared.nvm.fence();
    shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    let mut released = 0u64;
    for (ring_idx, span) in covered {
        released += span.words * 8;
        shared.rings[ring_idx].release(span);
    }
    shared.checkpointed.store(reproduced, Ordering::Release);
    // `bytes` here is the log space the checkpoint recycled — the payoff
    // side of the checkpoint cadence trade-off.
    shared.trace.event(
        Stage::Checkpoint,
        TraceEventKind::CheckpointWrite,
        reproduced,
        released,
        0,
    );
}
