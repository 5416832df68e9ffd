//! Striped versioned locks (ownership records).
//!
//! Each transactional word maps to one lock word in a fixed-size table,
//! TinySTM-style (`LOCK_IDX`: shift out the byte offset, mask to the table).
//! A lock word is either
//!
//! * **unlocked**: `version << 1` — the commit timestamp of the last writer
//!   of any address in the stripe, or
//! * **locked**: `(owner << 1) | 1` — held by the thread with that owner ID
//!   while it writes (write-through) or publishes (write-back).

use std::sync::atomic::{AtomicU64, Ordering};

/// STM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmConfig {
    /// log2 of the number of lock stripes. The paper-scale default (2^20)
    /// keeps false conflicts rare for multi-hundred-MB heaps.
    pub lock_table_bits: u32,
    /// Conflict retries before the retry loop starts yielding the CPU to
    /// let the conflicting transaction finish (essential on few-core hosts).
    pub spin_retries: u32,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            lock_table_bits: 20,
            spin_retries: 8,
        }
    }
}

impl StmConfig {
    /// A small lock table for unit tests (forces stripe collisions).
    pub fn tiny() -> Self {
        StmConfig {
            lock_table_bits: 4,
            spin_retries: 2,
        }
    }
}

/// The striped lock table.
#[derive(Debug)]
pub struct LockTable {
    words: Box<[AtomicU64]>,
    mask: u64,
}

impl LockTable {
    /// Creates a table with `2^bits` stripes, all unlocked at version 0.
    pub fn new(bits: u32) -> Self {
        assert!((1..=28).contains(&bits), "unreasonable lock table size");
        let n = 1usize << bits;
        LockTable {
            words: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Stripe index for a byte address: the word index modulo the table
    /// size. Word-granular, so distinct words within `2^bits` words of each
    /// other never share a stripe, and the lock words guarding one cache line
    /// (or one record) of data sit next to each other in the table. Words
    /// exactly `2^bits × 8` bytes apart wrap onto the same stripe — a false
    /// conflict the default 2^20-stripe table pushes 8 MiB apart.
    #[inline]
    pub fn stripe_of(&self, addr: u64) -> usize {
        ((addr >> 3) & self.mask) as usize
    }

    /// The lock word for a stripe index.
    #[inline]
    pub fn word(&self, stripe: usize) -> &AtomicU64 {
        &self.words[stripe]
    }

    /// Number of stripes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Always `false`; tables have at least two stripes.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// `true` if the lock word is held.
#[inline]
pub(crate) fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

/// Version of an unlocked word.
#[inline]
pub(crate) fn version_of(word: u64) -> u64 {
    debug_assert!(!is_locked(word));
    word >> 1
}

/// Encodes an unlocked word carrying `version`.
#[inline]
pub(crate) fn versioned(version: u64) -> u64 {
    version << 1
}

/// Encodes a locked word held by `owner`.
#[inline]
pub(crate) fn locked_by(owner: u64) -> u64 {
    (owner << 1) | 1
}

/// Owner ID of a locked word.
#[inline]
pub(crate) fn owner_of(word: u64) -> u64 {
    debug_assert!(is_locked(word));
    word >> 1
}

/// Tries to acquire `lock`, transitioning `expected_unlocked → locked_by(owner)`.
#[inline]
pub(crate) fn try_lock(lock: &AtomicU64, expected_unlocked: u64, owner: u64) -> bool {
    lock.compare_exchange(
        expected_unlocked,
        locked_by(owner),
        Ordering::Acquire,
        Ordering::Relaxed,
    )
    .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        assert!(!is_locked(versioned(7)));
        assert_eq!(version_of(versioned(7)), 7);
        assert!(is_locked(locked_by(3)));
        assert_eq!(owner_of(locked_by(3)), 3);
    }

    #[test]
    fn stripes_cover_table() {
        let t = LockTable::new(8);
        assert_eq!(t.len(), 256);
        for addr in (0..4096u64).step_by(8) {
            assert!(t.stripe_of(addr) < t.len());
        }
    }

    #[test]
    fn same_word_same_stripe() {
        let t = LockTable::new(8);
        assert_eq!(t.stripe_of(64), t.stripe_of(64));
        // Bytes within one word share a stripe.
        assert_eq!(t.stripe_of(64), t.stripe_of(71));
    }

    #[test]
    fn try_lock_transitions() {
        let t = LockTable::new(4);
        let w = t.word(0);
        assert!(try_lock(w, versioned(0), 5));
        assert!(is_locked(w.load(Ordering::Relaxed)));
        assert_eq!(owner_of(w.load(Ordering::Relaxed)), 5);
        // Second acquisition fails.
        assert!(!try_lock(w, versioned(0), 6));
        w.store(versioned(9), Ordering::Release);
        assert_eq!(version_of(w.load(Ordering::Relaxed)), 9);
    }

    #[test]
    fn adjacent_words_take_distinct_consecutive_stripes() {
        let t = LockTable::new(10);
        // 64 adjacent words (from an unaligned base) all get their own stripe.
        let base = 3 * 4096 + 40;
        let seen: std::collections::HashSet<usize> =
            (0..64u64).map(|i| t.stripe_of(base + i * 8)).collect();
        assert_eq!(seen.len(), 64, "adjacent words share a stripe");
        // The 8 words of one cache line take 8 consecutive stripes, so their
        // lock words share one cache line of the table.
        let line = 5 * 64;
        let first = t.stripe_of(line);
        for i in 0..8u64 {
            assert_eq!(t.stripe_of(line + i * 8), first + i as usize);
        }
        // The wrap: words 2^bits × 8 bytes apart share a stripe.
        let period = (t.len() as u64) * 8;
        assert_eq!(t.stripe_of(line), t.stripe_of(line + period));
        assert_ne!(t.stripe_of(line), t.stripe_of(line + period - 8));
    }
}
