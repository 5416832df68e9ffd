//! Crash recovery walkthrough (§3.5).
//!
//! Runs durable transactions, simulates a power failure at an arbitrary
//! point (unflushed stores are dropped by the emulated device), recovers,
//! and shows that exactly the acknowledged-durable prefix survived —
//! including transactions whose Reproduce step had not run yet.
//!
//! Run with: `cargo run --release --example crash_recovery`

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dudetm::{DudeTm, DudeTmConfig};

fn slot(i: u64) -> PAddr {
    PAddr::from_word_index(8 + i)
}

fn main() {
    let config = DudeTmConfig::small(8 << 20);
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(32 << 20)));

    // Phase 1: run transactions, acknowledging durability for some.
    let mut acknowledged = Vec::new();
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut thread = dude.register_thread();
        for i in 0..200u64 {
            let out = thread.run(&mut |tx| {
                // Two-word record written atomically.
                tx.write_word(slot(2 * i), i + 1)?;
                tx.write_word(slot(2 * i + 1), (i + 1) * 1000)?;
                Ok(())
            });
            let tid = out.info().unwrap().tid.unwrap();
            if i % 2 == 0 {
                // Acknowledge durability for the even records only.
                thread.wait_durable(tid);
                acknowledged.push(i);
            }
        }
        drop(thread);
        println!(
            "before crash: durable ID {}, reproduced ID {}",
            dude.durable_id(),
            dude.reproduced_id()
        );
        // Power failure! Everything not flushed+fenced is gone. The
        // runtime is abandoned, not dropped — a dropped runtime would
        // drain its pipeline like a clean shutdown.
        dude.abandon();
        nvm.crash();
    }

    // Phase 2: recover.
    let (dude, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).expect("recovery");
    println!(
        "recovery: checkpoint {}, replayed {} transactions, last tid {}, discarded {}",
        report.checkpoint, report.replayed, report.last_tid, report.discarded
    );

    // Every acknowledged transaction must be present and untorn.
    let mut thread = dude.register_thread();
    let mut recovered = 0;
    for &i in &acknowledged {
        let (a, b) = thread
            .run(&mut |tx| Ok((tx.read_word(slot(2 * i))?, tx.read_word(slot(2 * i + 1))?)))
            .expect_committed();
        assert_eq!(a, i + 1, "acknowledged record {i} lost");
        assert_eq!(b, (i + 1) * 1000, "record {i} torn");
        recovered += 1;
    }
    // Unacknowledged transactions may or may not have survived, but they
    // must never be torn.
    let mut unacked_survived = 0;
    for i in (1..200u64).step_by(2) {
        let (a, b) = thread
            .run(&mut |tx| Ok((tx.read_word(slot(2 * i))?, tx.read_word(slot(2 * i + 1))?)))
            .expect_committed();
        assert!(
            (a == 0 && b == 0) || (a == i + 1 && b == (i + 1) * 1000),
            "record {i} is torn: ({a}, {b})"
        );
        if a != 0 {
            unacked_survived += 1;
        }
    }
    println!(
        "ok: all {recovered} acknowledged records intact; \
         {unacked_survived}/100 unacknowledged records also survived (never torn)"
    );

    // The recovered runtime keeps working with continued transaction IDs.
    let out = thread.run(&mut |tx| tx.write_word(slot(500), 42));
    println!(
        "post-recovery transaction got tid {} (> {})",
        out.info().unwrap().tid.unwrap(),
        report.last_tid
    );
}
