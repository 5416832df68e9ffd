//! The STM instance and per-thread retry loops.

use std::sync::atomic::{AtomicU64, Ordering};

use dude_txapi::{CommitInfo, TxAbort, TxId, TxResult, TxnOutcome};

use crate::clock::GlobalClock;
use crate::locks::{LockTable, StmConfig};
use crate::memory::WordMemory;
use crate::wb::WriteBackTx;
use crate::wt::StmTx;
use crate::TxHooks;

/// Aggregate STM statistics (relaxed counters).
#[derive(Debug, Default)]
pub struct StmStats {
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    conflicts: AtomicU64,
    user_aborts: AtomicU64,
    wasted_tids: AtomicU64,
}

/// Point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StmStatsSnapshot {
    /// Committed update transactions.
    pub commits: u64,
    /// Committed read-only transactions.
    pub read_only_commits: u64,
    /// Conflict-induced aborts (each triggers a retry).
    pub conflicts: u64,
    /// Application aborts (`dtmAbort`).
    pub user_aborts: u64,
    /// Commit timestamps consumed by failed commits.
    pub wasted_tids: u64,
}

impl StmStats {
    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            user_aborts: self.user_aborts.load(Ordering::Relaxed),
            wasted_tids: self.wasted_tids.load(Ordering::Relaxed),
        }
    }
}

/// A TinySTM-class software transactional memory instance.
///
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug)]
pub struct Stm {
    clock: GlobalClock,
    locks: LockTable,
    config: StmConfig,
    next_owner: AtomicU64,
    stats: StmStats,
}

impl Stm {
    /// Creates an STM instance with the given configuration.
    pub fn new(config: StmConfig) -> Self {
        Self::with_initial_clock(config, 0)
    }

    /// Creates an STM whose commit timestamps continue from `start` (used
    /// after recovery so transaction IDs stay globally unique).
    pub fn with_initial_clock(config: StmConfig, start: u64) -> Self {
        Stm {
            clock: GlobalClock::starting_at(start),
            locks: LockTable::new(config.lock_table_bits),
            config,
            next_owner: AtomicU64::new(1),
            stats: StmStats::default(),
        }
    }

    /// Registers the calling thread, returning its transaction executor.
    pub fn register(&self) -> StmThread<'_> {
        StmThread {
            stm: self,
            owner: self.next_owner.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The global version clock (DudeTM reads it for durable-ID queries).
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StmStatsSnapshot {
        self.stats.snapshot()
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> StmConfig {
        self.config
    }
}

/// Per-thread transaction executor.
#[derive(Debug)]
pub struct StmThread<'s> {
    stm: &'s Stm,
    owner: u64,
}

impl<'s> StmThread<'s> {
    /// This thread's unique owner ID in the lock table.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Runs `body` as a **write-through** transaction (DudeTM's mode),
    /// retrying on conflicts until it commits or user-aborts.
    ///
    /// Hook invocation order per attempt: `on_write` per successful write;
    /// then exactly one of `on_commit(tid)` or `on_abort(wasted)`.
    pub fn run<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut body: impl FnMut(&mut StmTx<'_, M, H>) -> TxResult<R>,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        let mut retries = 0u32;
        loop {
            // If `body` panics, dropping `tx` rolls the attempt back.
            let mut tx = StmTx::begin(&self.stm.clock, &self.stm.locks, mem, hooks, self.owner);
            let reason = match body(&mut tx) {
                Ok(value) => {
                    let read_only = !tx.is_update();
                    match tx.commit() {
                        Ok(tid) => {
                            self.count_commit(read_only);
                            return TxnOutcome::Committed {
                                value,
                                info: CommitInfo { tid, retries },
                            };
                        }
                        Err(reason) => reason,
                    }
                }
                Err(reason) => reason,
            };
            if self.finish_abort(tx.abort(), reason) {
                return TxnOutcome::Aborted;
            }
            retries += 1;
            self.backoff(retries);
        }
    }

    /// Runs `body` as a **write-back** transaction (Mnemosyne's mode).
    ///
    /// `pre_publish` runs once per *successful* commit, after the commit is
    /// certain but before buffered writes reach memory — the point where a
    /// redo-logging durable system persists its log.
    pub fn run_wb<M, H, R>(
        &mut self,
        mem: &M,
        hooks: &mut H,
        mut pre_publish: impl FnMut(&[(u64, u64)], TxId),
        mut body: impl FnMut(&mut WriteBackTx<'_, M, H>) -> TxResult<R>,
    ) -> TxnOutcome<R>
    where
        M: WordMemory + ?Sized,
        H: TxHooks,
    {
        let mut retries = 0u32;
        loop {
            // If `body` or `pre_publish` panics, dropping `tx` rolls the
            // attempt back.
            let mut tx =
                WriteBackTx::begin(&self.stm.clock, &self.stm.locks, mem, hooks, self.owner);
            let reason = match body(&mut tx) {
                Ok(value) => {
                    let read_only = !tx.is_update();
                    match tx.commit_with(&mut pre_publish) {
                        Ok(tid) => {
                            self.count_commit(read_only);
                            return TxnOutcome::Committed {
                                value,
                                info: CommitInfo { tid, retries },
                            };
                        }
                        Err(reason) => reason,
                    }
                }
                Err(reason) => reason,
            };
            if self.finish_abort(tx.abort(), reason) {
                return TxnOutcome::Aborted;
            }
            retries += 1;
            self.backoff(retries);
        }
    }

    /// Counts an aborted attempt; `true` if it was a user abort, which ends
    /// the transaction instead of retrying it.
    fn finish_abort(&self, wasted: Option<TxId>, reason: TxAbort) -> bool {
        match reason {
            TxAbort::User => {
                self.stm.stats.user_aborts.fetch_add(1, Ordering::Relaxed);
                true
            }
            TxAbort::Conflict => {
                self.count_conflict(wasted.is_some());
                false
            }
        }
    }

    fn count_commit(&self, read_only: bool) {
        if read_only {
            self.stm
                .stats
                .read_only_commits
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.stm.stats.commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_conflict(&self, wasted: bool) {
        self.stm.stats.conflicts.fetch_add(1, Ordering::Relaxed);
        if wasted {
            self.stm.stats.wasted_tids.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bounded exponential spin, then yield — important on few-core hosts
    /// where the conflicting transaction needs the CPU to finish.
    fn backoff(&self, attempt: u32) {
        #[cfg(feature = "sim")]
        if dude_sim::on_sim_task() {
            // Under the virtual scheduler the conflicting transaction only
            // runs if this task parks — spinning would monopolize the
            // token. Both backoff branches therefore park as event
            // waiters (STM word locks are raw atomics, so the wake comes
            // from the poll interval, not a lock-release event).
            dude_sim::block(dude_sim::YieldKind::Backoff);
            return;
        }
        if attempt <= self.stm.config.spin_retries {
            for _ in 0..(1u32 << attempt.min(10)) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, VecMemory};
    use std::sync::Arc;

    #[test]
    fn counter_increments_concurrently_conserve_count() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        let threads = 4;
        let per_thread = 500;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..per_thread {
                    t.run(&*mem, &mut NoHooks, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    })
                    .expect_committed();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(0), threads * per_thread);
        let stats = stm.stats();
        assert_eq!(stats.commits, threads * per_thread);
    }

    #[test]
    fn bank_transfers_conserve_total() {
        let stm = Arc::new(Stm::new(StmConfig::default()));
        let mem = Arc::new(VecMemory::new(8 * 64));
        // 64 accounts, 100 units each.
        for i in 0..64 {
            mem.store(i * 8, 100);
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut th = stm.register();
                let mut seed = t + 1;
                for _ in 0..1000 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 33) % 64;
                    let b = (seed >> 13) % 64;
                    if a == b {
                        continue;
                    }
                    th.run(&*mem, &mut NoHooks, |tx| {
                        let va = tx.read(a * 8)?;
                        if va == 0 {
                            return Err(TxAbort::User);
                        }
                        tx.write(a * 8, va - 1)?;
                        let vb = tx.read(b * 8)?;
                        tx.write(b * 8, vb + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..64).map(|i| mem.load(i * 8)).sum();
        assert_eq!(total, 64 * 100);
    }

    #[test]
    fn user_abort_rolls_back_and_returns_aborted() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| {
            tx.write(0, 99)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(mem.load(0), 0);
        assert_eq!(stm.stats().user_aborts, 1);
    }

    #[test]
    fn hooks_observe_writes_and_commit() {
        #[derive(Default)]
        struct Rec {
            writes: Vec<(u64, u64)>,
            committed: Option<Option<TxId>>,
        }
        impl TxHooks for Rec {
            fn on_write(&mut self, addr: u64, val: u64) {
                self.writes.push((addr, val));
            }
            fn on_commit(&mut self, tid: Option<TxId>) {
                self.committed = Some(tid);
            }
        }
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut rec = Rec::default();
        t.run(&mem, &mut rec, |tx| {
            tx.write(0, 1)?;
            tx.write(8, 2)
        })
        .expect_committed();
        assert_eq!(rec.writes, vec![(0, 1), (8, 2)]);
        assert_eq!(rec.committed, Some(Some(1)));
    }

    #[test]
    fn hooks_observe_abort_of_user_aborted_tx() {
        #[derive(Default)]
        struct Rec {
            aborts: u32,
        }
        impl TxHooks for Rec {
            fn on_abort(&mut self, _wasted: Option<TxId>) {
                self.aborts += 1;
            }
        }
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut rec = Rec::default();
        let out = t.run(&mem, &mut rec, |tx| {
            tx.write(0, 1)?;
            Err::<(), _>(TxAbort::User)
        });
        assert_eq!(out, TxnOutcome::Aborted);
        assert_eq!(rec.aborts, 1);
    }

    /// Records the abort reports a panicking attempt must still produce.
    #[derive(Default)]
    struct AbortRec {
        staged: Vec<(u64, u64)>,
        aborts: Vec<Option<TxId>>,
    }

    impl TxHooks for AbortRec {
        fn on_write(&mut self, addr: u64, val: u64) {
            self.staged.push((addr, val));
        }
        fn on_abort(&mut self, wasted: Option<TxId>) {
            self.staged.clear();
            self.aborts.push(wasted);
        }
    }

    /// After a transaction panicked on one thread, a peer thread commits a
    /// write to the same word within a time bound (no stripe left locked).
    fn peer_commits_promptly(stm: &Arc<Stm>, mem: &Arc<VecMemory>, write_back: bool) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (stm, mem) = (Arc::clone(stm), Arc::clone(mem));
        std::thread::spawn(move || {
            let mut peer = stm.register();
            let outcome = if write_back {
                peer.run_wb(&*mem, &mut NoHooks, |_, _| {}, |tx| tx.write(0, 7))
            } else {
                peer.run(&*mem, &mut NoHooks, |tx| tx.write(0, 7))
            };
            let _ = done_tx.send(outcome.is_committed());
        });
        let committed = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("peer still blocked on the panicked transaction's lock");
        assert!(committed);
    }

    #[test]
    fn panicking_write_through_body_releases_locks_and_rolls_back() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        mem.store(0, 5);
        let mut rec = AbortRec::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t = stm.register();
            t.run(&*mem, &mut rec, |tx| -> TxResult<()> {
                tx.write(0, 6)?;
                panic!("body fails mid-transaction")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(mem.load(0), 5, "in-place write must be rolled back");
        assert!(rec.staged.is_empty(), "hooks must discard staged writes");
        assert_eq!(rec.aborts, vec![None]);
        peer_commits_promptly(&stm, &mem, false);
        assert_eq!(mem.load(0), 7);
    }

    #[test]
    fn panicking_write_back_pre_publish_releases_locks() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        let mut rec = AbortRec::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t = stm.register();
            t.run_wb(
                &*mem,
                &mut rec,
                // Runs with every written stripe locked.
                |_, _| panic!("log write fails at commit"),
                |tx| tx.write(0, 6),
            )
        }));
        assert!(panicked.is_err());
        assert_eq!(mem.load(0), 0, "buffered write must not be published");
        assert!(rec.staged.is_empty(), "hooks must discard staged writes");
        assert_eq!(rec.aborts, vec![None]);
        peer_commits_promptly(&stm, &mem, true);
        assert_eq!(mem.load(0), 7);
    }

    #[test]
    fn write_back_counter_concurrent() {
        let stm = Arc::new(Stm::new(StmConfig::tiny()));
        let mem = Arc::new(VecMemory::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut t = stm.register();
                for _ in 0..300 {
                    t.run_wb(
                        &*mem,
                        &mut NoHooks,
                        |_, _| {},
                        |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        },
                    )
                    .expect_committed();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(0), 4 * 300);
    }

    #[test]
    fn tids_are_unique_and_dense_across_modes() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let mut tids = Vec::new();
        for i in 0..5u64 {
            let out = t.run(&mem, &mut NoHooks, |tx| tx.write(8, i));
            tids.push(out.info().unwrap().tid.unwrap());
        }
        for i in 0..5u64 {
            let out = t.run_wb(&mem, &mut NoHooks, |_, _| {}, |tx| tx.write(16, i));
            tids.push(out.info().unwrap().tid.unwrap());
        }
        assert_eq!(tids, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn read_only_txn_reports_no_tid() {
        let stm = Stm::new(StmConfig::tiny());
        let mem = VecMemory::new(64);
        let mut t = stm.register();
        let out = t.run(&mem, &mut NoHooks, |tx| tx.read(0));
        assert_eq!(out.info().unwrap().tid, None);
        assert_eq!(stm.stats().read_only_commits, 1);
    }
}
