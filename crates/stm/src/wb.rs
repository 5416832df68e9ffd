//! Write-back transactions (commit-time locking + redo buffer).
//!
//! This is TinySTM's write-back access scheme — the one Mnemosyne uses
//! (§5.2.2). Writes are buffered in a per-transaction write set; **reads
//! must first look the address up in that buffer**, which is precisely the
//! update-redirection / address-mapping overhead the paper's decoupled
//! design eliminates (§2.2). At commit, all written stripes are locked, the
//! read set is validated, and the buffered values are published.
//!
//! [`WriteBackTx::commit_with`] exposes a pre-publish hook: the
//! Mnemosyne-like baseline persists its NVM redo log there, after the
//! transaction is certain to commit but before any in-place update becomes
//! visible.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use dude_txapi::{TxAbort, TxId, TxResult};

use crate::clock::GlobalClock;
use crate::locks::{is_locked, owner_of, try_lock, version_of, versioned, LockTable};
use crate::memory::WordMemory;
use crate::TxHooks;

#[derive(Debug, Clone, Copy)]
struct ReadEntry {
    stripe: usize,
    version: u64,
}

#[derive(Debug, Clone, Copy)]
struct LockedStripe {
    stripe: usize,
    prev: u64,
}

/// An in-flight write-back transaction.
#[derive(Debug)]
pub struct WriteBackTx<'t, M: WordMemory + ?Sized, H: TxHooks> {
    clock: &'t GlobalClock,
    locks: &'t LockTable,
    mem: &'t M,
    hooks: &'t mut H,
    owner: u64,
    rv: u64,
    read_set: Vec<ReadEntry>,
    /// Buffered writes in program order (duplicates allowed; later wins).
    writes: Vec<(u64, u64)>,
    /// Address → index of latest buffered write (the mapping table whose
    /// lookup cost redo logging pays on every read).
    write_index: HashMap<u64, usize>,
    locked: Vec<LockedStripe>,
    wasted: Option<TxId>,
    /// Set once the attempt committed or aborted through the hooks; an
    /// attempt dropped unfinished (a panic) is aborted on drop.
    finished: bool,
}

impl<'t, M: WordMemory + ?Sized, H: TxHooks> WriteBackTx<'t, M, H> {
    pub(crate) fn begin(
        clock: &'t GlobalClock,
        locks: &'t LockTable,
        mem: &'t M,
        hooks: &'t mut H,
        owner: u64,
    ) -> Self {
        let rv = clock.now();
        WriteBackTx {
            clock,
            locks,
            mem,
            hooks,
            owner,
            rv,
            read_set: Vec::new(),
            writes: Vec::new(),
            write_index: HashMap::new(),
            locked: Vec::new(),
            wasted: None,
            finished: false,
        }
    }

    /// Transactionally reads the word at `addr`, redirecting to the write
    /// buffer if this transaction already wrote the address.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] on lock contention or a failed extension.
    pub fn read(&mut self, addr: u64) -> TxResult<u64> {
        if let Some(&idx) = self.write_index.get(&addr) {
            return Ok(self.writes[idx].1);
        }
        let stripe = self.locks.stripe_of(addr);
        let lockw = self.locks.word(stripe);
        let mut spins = 0u32;
        loop {
            let l1 = lockw.load(Ordering::Acquire);
            if is_locked(l1) {
                // Write-back never holds locks during execution, so any
                // lock here belongs to a committing peer.
                return Err(TxAbort::Conflict);
            }
            let val = self.mem.load(addr);
            let l2 = lockw.load(Ordering::Acquire);
            if l2 != l1 {
                spins += 1;
                if spins > 64 {
                    return Err(TxAbort::Conflict);
                }
                continue;
            }
            let ver = version_of(l1);
            if ver > self.rv {
                self.extend()?;
                continue;
            }
            self.read_set.push(ReadEntry {
                stripe,
                version: ver,
            });
            return Ok(val);
        }
    }

    /// Buffers a transactional write of `val` to `addr`.
    ///
    /// # Errors
    ///
    /// Never fails during execution (conflicts surface at commit), but keeps
    /// the fallible signature so workloads are mode-agnostic.
    pub fn write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        let idx = self.writes.len();
        self.writes.push((addr, val));
        self.write_index.insert(addr, idx);
        self.hooks.on_write(addr, val);
        Ok(())
    }

    /// `true` if this transaction has buffered writes.
    pub fn is_update(&self) -> bool {
        !self.writes.is_empty()
    }

    /// Snapshot timestamp.
    pub fn snapshot(&self) -> u64 {
        self.rv
    }

    fn extend(&mut self) -> TxResult<()> {
        let new_rv = self.clock.now();
        self.validate()?;
        self.rv = new_rv;
        Ok(())
    }

    fn validate(&self) -> TxResult<()> {
        for e in &self.read_set {
            let w = self.locks.word(e.stripe).load(Ordering::Acquire);
            let current = if is_locked(w) {
                if owner_of(w) != self.owner {
                    return Err(TxAbort::Conflict);
                }
                let prev = self
                    .locked
                    .iter()
                    .find(|ls| ls.stripe == e.stripe)
                    .expect("stripe locked by self must be recorded")
                    .prev;
                version_of(prev)
            } else {
                version_of(w)
            };
            if current != e.version {
                return Err(TxAbort::Conflict);
            }
        }
        Ok(())
    }

    fn release_locks(&mut self, word_of: impl Fn(&LockedStripe) -> u64) {
        for ls in self.locked.drain(..) {
            self.locks
                .word(ls.stripe)
                .store(word_of(&ls), Ordering::Release);
        }
    }

    /// Commits, invoking `pre_publish(write_set, tid)` after the commit is
    /// certain but before buffered values are stored — where a redo-logging
    /// durable system persists its log — then reports the commit to the
    /// hooks (`on_commit`).
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if stripe locking or validation fails; the
    /// caller must then [`WriteBackTx::abort`].
    pub(crate) fn commit_with(
        &mut self,
        pre_publish: impl FnOnce(&[(u64, u64)], TxId),
    ) -> Result<Option<TxId>, TxAbort> {
        let tid = self.publish(pre_publish)?;
        self.finished = true;
        self.hooks.on_commit(tid);
        Ok(tid)
    }

    fn publish(
        &mut self,
        pre_publish: impl FnOnce(&[(u64, u64)], TxId),
    ) -> Result<Option<TxId>, TxAbort> {
        if self.writes.is_empty() {
            return Ok(None);
        }
        // Lock every written stripe (deduplicated); try-lock + abort avoids
        // deadlock without imposing a global order.
        let mut stripes: Vec<usize> = self
            .writes
            .iter()
            .map(|&(addr, _)| self.locks.stripe_of(addr))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        for stripe in stripes {
            let lockw = self.locks.word(stripe);
            let l = lockw.load(Ordering::Acquire);
            if is_locked(l) || version_of(l) > self.rv || !try_lock(lockw, l, self.owner) {
                self.release_locks(|ls| ls.prev);
                return Err(TxAbort::Conflict);
            }
            self.locked.push(LockedStripe { stripe, prev: l });
        }
        let wv = self.clock.tick();
        if wv != self.rv + 1 {
            if let Err(e) = self.validate() {
                self.wasted = Some(wv);
                self.release_locks(|ls| ls.prev);
                return Err(e);
            }
        }
        pre_publish(&self.writes, wv);
        for &(addr, val) in &self.writes {
            self.mem.store(addr, val);
        }
        self.release_locks(|_| versioned(wv));
        Ok(Some(wv))
    }

    /// Rolls back, releases stripes, and reports the abort to the hooks
    /// (`on_abort`) with the commit timestamp a failed commit wasted, which
    /// it also returns.
    pub(crate) fn abort(&mut self) -> Option<TxId> {
        let wasted = self.wasted.take();
        self.rollback();
        self.finished = true;
        self.hooks.on_abort(wasted);
        wasted
    }

    pub(crate) fn rollback(&mut self) {
        self.release_locks(|ls| ls.prev);
        self.writes.clear();
        self.write_index.clear();
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> Drop for WriteBackTx<'_, M, H> {
    /// An attempt dropped before it committed or aborted — its body or
    /// `pre_publish` panicked — must not leave stripes locked: roll back
    /// and report the abort so the hooks discard what they staged.
    fn drop(&mut self) {
        if !self.finished {
            self.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, StmConfig, VecMemory};

    struct Fixture {
        clock: GlobalClock,
        locks: LockTable,
        mem: VecMemory,
    }

    fn fixture() -> Fixture {
        Fixture {
            clock: GlobalClock::new(),
            locks: LockTable::new(StmConfig::tiny().lock_table_bits),
            mem: VecMemory::new(1024),
        }
    }

    #[test]
    fn writes_invisible_until_commit() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(0, 5).unwrap();
        assert_eq!(f.mem.load(0), 0, "write-back must not touch memory");
        assert_eq!(tx.read(0).unwrap(), 5, "read must redirect to write set");
        let tid = tx.commit_with(|_, _| {}).unwrap();
        assert_eq!(tid, Some(1));
        assert_eq!(f.mem.load(0), 5);
    }

    #[test]
    fn pre_publish_sees_write_set_before_memory_changes() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(0, 5).unwrap();
        tx.write(8, 6).unwrap();
        let mut observed = Vec::new();
        tx.commit_with(|ws, tid| {
            assert_eq!(tid, 1);
            assert_eq!(f.mem.load(0), 0, "hook must run before publish");
            observed = ws.to_vec();
        })
        .unwrap();
        assert_eq!(observed, vec![(0, 5), (8, 6)]);
    }

    #[test]
    fn rollback_discards_buffer() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(0, 5).unwrap();
        tx.rollback();
        assert_eq!(f.mem.load(0), 0);
    }

    #[test]
    fn duplicate_writes_last_wins() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(0, 1).unwrap();
        tx.write(0, 2).unwrap();
        assert_eq!(tx.read(0).unwrap(), 2);
        tx.commit_with(|_, _| {}).unwrap();
        assert_eq!(f.mem.load(0), 2);
    }

    #[test]
    fn stale_read_aborts_at_commit() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut t1 = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        assert_eq!(t1.read(0).unwrap(), 0);
        t1.write(8, 1).unwrap();
        // Interfering committed write to the read location.
        let mut h2 = NoHooks;
        let mut t2 = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        t2.write(0, 9).unwrap();
        t2.commit_with(|_, _| {}).unwrap();
        let r = t1.commit_with(|_, _| panic!("must not publish"));
        assert_eq!(r, Err(TxAbort::Conflict));
        t1.rollback();
        assert_eq!(f.mem.load(8), 0);
    }

    #[test]
    fn read_only_tx_commits_without_tid() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.read(0).unwrap();
        assert_eq!(tx.commit_with(|_, _| {}).unwrap(), None);
    }

    #[test]
    fn locked_stripe_blocks_concurrent_committer() {
        let f = fixture();
        // t1 locks stripe of addr 0 by entering commit… we emulate by
        // directly locking the stripe, then ensure t2 conflicts.
        let stripe = f.locks.stripe_of(0);
        assert!(try_lock(f.locks.word(stripe), 0, 7));
        let mut h = NoHooks;
        let mut t2 = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 2);
        assert_eq!(t2.read(0), Err(TxAbort::Conflict));
        t2.rollback();
        drop(t2);
        let mut t3 = WriteBackTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 3);
        t3.write(0, 4).unwrap();
        assert_eq!(t3.commit_with(|_, _| {}), Err(TxAbort::Conflict));
        t3.rollback();
    }
}
