//! Write-through transactions (encounter-time locking + volatile undo).
//!
//! This is the access mode DudeTM selects (§4.1): writes lock their stripe
//! at encounter time and update memory **in place**, recording old values in
//! a volatile undo list. Reads of the latest value therefore need no address
//! mapping — the core advantage the decoupled design preserves. On abort the
//! undo list is replayed in reverse; because the memory being patched is
//! *volatile shadow memory*, this "undo logging" has no persist-ordering
//! cost (paper footnote 3).

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
    /// Lock word before we acquired it (an unlocked, versioned word).
    prev: u64,
}

/// An in-flight write-through transaction.
///
/// Created by [`crate::StmThread::run`]; user code receives `&mut StmTx` and
/// calls [`StmTx::read`] / [`StmTx::write`], propagating conflicts with `?`.
#[derive(Debug)]
pub struct StmTx<'t, M: WordMemory + ?Sized, H: TxHooks> {
    clock: &'t GlobalClock,
    locks: &'t LockTable,
    mem: &'t M,
    hooks: &'t mut H,
    owner: u64,
    /// Snapshot timestamp (TL2/TinySTM "read version").
    rv: u64,
    read_set: Vec<ReadEntry>,
    locked: Vec<LockedStripe>,
    /// `(addr, old value)` in write order; replayed in reverse on abort.
    undo: Vec<(u64, u64)>,
    /// Commit timestamp consumed by a failed commit, if any.
    wasted: Option<TxId>,
    /// Set once the attempt committed or aborted through the hooks; an
    /// attempt dropped unfinished (its body panicked) is aborted on drop.
    finished: bool,
}

impl<'t, M: WordMemory + ?Sized, H: TxHooks> StmTx<'t, M, H> {
    pub(crate) fn begin(
        clock: &'t GlobalClock,
        locks: &'t LockTable,
        mem: &'t M,
        hooks: &'t mut H,
        owner: u64,
    ) -> Self {
        let rv = clock.now();
        StmTx {
            clock,
            locks,
            mem,
            hooks,
            owner,
            rv,
            read_set: Vec::new(),
            locked: Vec::new(),
            undo: Vec::new(),
            wasted: None,
            finished: false,
        }
    }

    /// Transactionally reads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if the stripe is locked by another transaction
    /// or the snapshot cannot be extended.
    pub fn read(&mut self, addr: u64) -> TxResult<u64> {
        let stripe = self.locks.stripe_of(addr);
        let lockw = self.locks.word(stripe);
        let mut spins = 0u32;
        loop {
            let l1 = lockw.load(std::sync::atomic::Ordering::Acquire);
            if is_locked(l1) {
                if owner_of(l1) == self.owner {
                    // In-place value written (or co-located) under my lock.
                    return Ok(self.mem.load(addr));
                }
                return Err(TxAbort::Conflict);
            }
            let val = self.mem.load(addr);
            let l2 = lockw.load(std::sync::atomic::Ordering::Acquire);
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

    /// Transactionally writes `val` to byte address `addr`, in place.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Conflict`] if the stripe is locked by another transaction
    /// or the snapshot cannot be extended.
    pub fn write(&mut self, addr: u64, val: u64) -> TxResult<()> {
        let stripe = self.locks.stripe_of(addr);
        let lockw = self.locks.word(stripe);
        loop {
            let l = lockw.load(std::sync::atomic::Ordering::Acquire);
            if is_locked(l) {
                if owner_of(l) == self.owner {
                    self.undo.push((addr, self.mem.load(addr)));
                    self.mem.store(addr, val);
                    self.hooks.on_write(addr, val);
                    return Ok(());
                }
                return Err(TxAbort::Conflict);
            }
            if version_of(l) > self.rv {
                self.extend()?;
                continue;
            }
            if try_lock(lockw, l, self.owner) {
                self.locked.push(LockedStripe { stripe, prev: l });
                self.undo.push((addr, self.mem.load(addr)));
                self.mem.store(addr, val);
                self.hooks.on_write(addr, val);
                return Ok(());
            }
            // CAS raced with another thread; re-inspect the lock word.
        }
    }

    /// Snapshot timestamp this transaction currently reads at.
    pub fn snapshot(&self) -> u64 {
        self.rv
    }

    /// `true` if this transaction has written anything.
    pub fn is_update(&self) -> bool {
        !self.undo.is_empty()
    }

    /// Attempts to advance `rv` to `clock.now()` after revalidating all
    /// reads (TinySTM timestamp extension).
    fn extend(&mut self) -> TxResult<()> {
        let new_rv = self.clock.now();
        self.validate()?;
        self.rv = new_rv;
        Ok(())
    }

    /// Checks that every read is still consistent: its stripe either holds
    /// the recorded version, or is locked by us and held that version when
    /// we locked it.
    fn validate(&self) -> TxResult<()> {
        for e in &self.read_set {
            let w = self
                .locks
                .word(e.stripe)
                .load(std::sync::atomic::Ordering::Acquire);
            let current = if is_locked(w) {
                if owner_of(w) != self.owner {
                    return Err(TxAbort::Conflict);
                }
                let prev = self
                    .locked
                    .iter()
                    .find(|ls| ls.stripe == e.stripe)
                    .expect("stripe locked by self must be in locked list")
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

    /// Commits the transaction and reports it to the hooks
    /// (`on_commit`). Returns the commit timestamp (`None` for read-only
    /// transactions). On failure the caller must [`StmTx::abort`].
    pub(crate) fn commit(&mut self) -> Result<Option<TxId>, TxAbort> {
        let tid = self.publish()?;
        self.finished = true;
        self.hooks.on_commit(tid);
        Ok(tid)
    }

    fn publish(&mut self) -> Result<Option<TxId>, TxAbort> {
        if self.locked.is_empty() {
            // Read-only: every read was validated against `rv` at read time.
            return Ok(None);
        }
        let wv = self.clock.tick();
        if wv != self.rv + 1 {
            if let Err(e) = self.validate() {
                // The timestamp is consumed; DudeTM will fill the ID hole
                // with an abort marker.
                self.wasted = Some(wv);
                return Err(e);
            }
        }
        for ls in &self.locked {
            self.locks
                .word(ls.stripe)
                .store(versioned(wv), std::sync::atomic::Ordering::Release);
        }
        self.locked.clear();
        self.undo.clear();
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

    /// Rolls back in-place writes (reverse order) and releases stripes.
    pub(crate) fn rollback(&mut self) {
        for (addr, old) in self.undo.drain(..).rev() {
            self.mem.store(addr, old);
        }
        for ls in self.locked.drain(..) {
            self.locks
                .word(ls.stripe)
                .store(ls.prev, std::sync::atomic::Ordering::Release);
        }
    }
}

impl<M: WordMemory + ?Sized, H: TxHooks> Drop for StmTx<'_, M, H> {
    /// An attempt dropped before it committed or aborted — its body
    /// panicked — must not leave stripes locked (peers would spin on them
    /// forever) or in-place writes visible: roll back and report the abort
    /// so the hooks discard what they staged.
    fn drop(&mut self) {
        if !self.finished {
            self.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, StmConfig};

    struct Fixture {
        clock: GlobalClock,
        locks: LockTable,
        mem: crate::VecMemory,
    }

    fn fixture() -> Fixture {
        Fixture {
            clock: GlobalClock::new(),
            locks: LockTable::new(StmConfig::tiny().lock_table_bits),
            mem: crate::VecMemory::new(1024),
        }
    }

    #[test]
    fn read_write_commit_in_place() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        assert_eq!(tx.read(0).unwrap(), 0);
        tx.write(0, 5).unwrap();
        assert_eq!(tx.read(0).unwrap(), 5); // reads own in-place write
        let tid = tx.commit().unwrap();
        assert_eq!(tid, Some(1));
        assert_eq!(f.mem.load(0), 5);
    }

    #[test]
    fn read_only_commit_gets_no_tid() {
        let f = fixture();
        let mut h = NoHooks;
        let mut tx = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.read(0).unwrap();
        assert!(!tx.is_update());
        assert_eq!(tx.commit().unwrap(), None);
        assert_eq!(f.clock.now(), 0);
    }

    #[test]
    fn rollback_restores_values_in_reverse() {
        let f = fixture();
        f.mem.store(0, 10);
        let mut h = NoHooks;
        let mut tx = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(0, 11).unwrap();
        tx.write(0, 12).unwrap();
        assert_eq!(f.mem.load(0), 12);
        tx.rollback();
        assert_eq!(f.mem.load(0), 10);
        // Stripe is unlocked again at its old version.
        let w = f
            .locks
            .word(f.locks.stripe_of(0))
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(!is_locked(w));
    }

    #[test]
    fn conflicting_writer_aborts_reader() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut h2 = NoHooks;
        let mut t1 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        t1.write(0, 1).unwrap();
        let mut t2 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        assert_eq!(t2.read(0), Err(TxAbort::Conflict));
        t1.rollback();
        t2.rollback();
    }

    #[test]
    fn conflicting_writer_aborts_writer() {
        let f = fixture();
        let mut h1 = NoHooks;
        let mut h2 = NoHooks;
        let mut t1 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        t1.write(0, 1).unwrap();
        let mut t2 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        assert_eq!(t2.write(0, 2), Err(TxAbort::Conflict));
        t1.rollback();
        t2.rollback();
        assert_eq!(f.mem.load(0), 0);
    }

    #[test]
    fn stale_snapshot_extends_when_reads_unaffected() {
        let f = fixture();
        let mut h1 = NoHooks;
        // T1 begins at rv=0.
        let mut t1 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        // Another transaction commits to a word in a distinct stripe.
        let other_addr = (0..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) != f.locks.stripe_of(0))
            .unwrap();
        let mut h2 = NoHooks;
        let mut t2 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        t2.write(other_addr, 9).unwrap();
        t2.commit().unwrap();
        // T1 now reads a word whose stripe version (0) is fine, then writes
        // the *other* stripe whose version (1) exceeds rv=0 → extension.
        assert_eq!(t1.read(0).unwrap(), 0);
        t1.write(other_addr, 10).unwrap();
        assert!(t1.commit().unwrap().is_some());
        assert_eq!(f.mem.load(other_addr), 10);
    }

    #[test]
    fn validation_fails_if_read_stripe_changed_before_lock() {
        let f = fixture();
        let addr = 0u64;
        let mut h1 = NoHooks;
        let mut t1 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        assert_eq!(t1.read(addr).unwrap(), 0);
        // T2 commits a write to the same word.
        let mut h2 = NoHooks;
        let mut t2 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        t2.write(addr, 7).unwrap();
        t2.commit().unwrap();
        // T1 then writes the same word: version(1) > rv(0) forces an
        // extension, which must fail because the read is stale.
        assert_eq!(t1.write(addr, 8), Err(TxAbort::Conflict));
        t1.rollback();
        assert_eq!(f.mem.load(addr), 7);
    }

    #[test]
    fn wasted_tid_reported_on_commit_validation_failure() {
        let f = fixture();
        // Make stripes of addr_a and addr_b differ.
        let addr_a = 0u64;
        let addr_b = (8..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) != f.locks.stripe_of(addr_a))
            .unwrap();
        let mut h1 = NoHooks;
        let mut t1 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h1, 1);
        assert_eq!(t1.read(addr_a).unwrap(), 0);
        t1.write(addr_b, 1).unwrap();
        // T2 invalidates T1's read and bumps the clock so wv != rv+1.
        let mut h2 = NoHooks;
        let mut t2 = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h2, 2);
        t2.write(addr_a, 9).unwrap();
        t2.commit().unwrap();
        assert!(t1.commit().is_err());
        assert_eq!(t1.abort(), Some(2));
        assert_eq!(f.mem.load(addr_b), 0);
    }

    #[test]
    fn false_sharing_same_stripe_is_handled() {
        // Two different words mapping to the same stripe: second write sees
        // "locked by me" and proceeds.
        let f = fixture();
        let addr_a = 0u64;
        let addr_b = (8..1024u64)
            .step_by(8)
            .find(|&a| f.locks.stripe_of(a) == f.locks.stripe_of(addr_a))
            .expect("tiny lock table must collide");
        let mut h = NoHooks;
        let mut tx = StmTx::begin(&f.clock, &f.locks, &f.mem, &mut h, 1);
        tx.write(addr_a, 1).unwrap();
        tx.write(addr_b, 2).unwrap();
        assert_eq!(tx.read(addr_b).unwrap(), 2);
        tx.commit().unwrap();
        assert_eq!(f.mem.load(addr_a), 1);
        assert_eq!(f.mem.load(addr_b), 2);
    }
}
