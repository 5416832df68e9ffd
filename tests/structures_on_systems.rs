//! The extended data-structure operations (B+-tree remove/range, hash
//! remove) running on the real systems — including through DudeTM's full
//! pipeline with crash recovery, and on the NVML-like static-transaction
//! baseline.

use std::sync::Arc;

use dude_baselines::{BaselineConfig, NvmlLike};
use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dude_workloads::btree::BTree;
use dude_workloads::hashtable::HashTable;
use dudetm::{DudeTm, DudeTmConfig};

fn cfg() -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 4,
        ..DudeTmConfig::small(2 << 20)
    }
}

#[test]
fn btree_remove_and_range_through_dudetm() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let tree = BTree::new(PAddr::new(64), 4096);
    let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg());
    let mut t = dude.register_thread();
    for k in 0..200u64 {
        t.run(&mut |tx| tree.insert(tx, k, k * 3))
            .expect_committed();
    }
    // Remove every third key, each removal one transaction.
    for k in (0..200u64).step_by(3) {
        let old = t.run(&mut |tx| tree.remove(tx, k)).expect_committed();
        assert_eq!(old, Some(k * 3));
    }
    // Range scan sees exactly the survivors, in order.
    let got = t
        .run(&mut |tx| tree.range(tx, 0, u64::MAX))
        .expect_committed();
    let expect: Vec<(u64, u64)> = (0..200u64)
        .filter(|k| k % 3 != 0)
        .map(|k| (k, k * 3))
        .collect();
    assert_eq!(got, expect);
    drop(t);
    dude.quiesce();
}

#[test]
fn btree_removals_survive_crash() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let tree = BTree::new(PAddr::new(64), 2048);
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg());
        let mut t = dude.register_thread();
        for k in 0..100u64 {
            t.run(&mut |tx| tree.insert(tx, k, k)).expect_committed();
        }
        let mut last = 0;
        for k in 0..50u64 {
            let out = t.run(&mut |tx| tree.remove(tx, k));
            last = out.info().unwrap().tid.unwrap();
        }
        t.wait_durable(last);
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude2, _) = DudeTm::recover_stm(Arc::clone(&nvm), cfg()).unwrap();
    let mut t = dude2.register_thread();
    for k in 0..100u64 {
        let v = t.run(&mut |tx| tree.get(tx, k)).expect_committed();
        assert_eq!(v, (k >= 50).then_some(k), "key {k}");
    }
    let r = t
        .run(&mut |tx| tree.range(tx, 0, u64::MAX))
        .expect_committed();
    assert_eq!(r.len(), 50);
}

#[test]
fn hash_remove_on_nvml_baseline() {
    // declare_write-based removal works on the static-transaction system.
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
    let sys = NvmlLike::create(Arc::clone(&nvm), BaselineConfig::small(4 << 20));
    let table = HashTable::new(PAddr::new(64), 1024);
    let mut t = sys.register_thread();
    for k in 0..100u64 {
        t.run(&mut |tx| table.insert(tx, k, k + 1))
            .expect_committed();
    }
    for k in (0..100u64).step_by(2) {
        let old = t.run(&mut |tx| table.remove(tx, k)).expect_committed();
        assert_eq!(old, Some(k + 1));
    }
    for k in 0..100u64 {
        let v = t.run(&mut |tx| table.get(tx, k)).expect_committed();
        assert_eq!(v, (k % 2 == 1).then_some(k + 1), "key {k}");
    }
}

#[test]
fn hash_remove_crash_consistency_on_dudetm() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let table = HashTable::new(PAddr::new(64), 512);
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg());
        let mut t = dude.register_thread();
        for k in 0..64u64 {
            t.run(&mut |tx| table.insert(tx, k, k)).expect_committed();
        }
        let out = t.run(&mut |tx| {
            // One transaction that removes two keys atomically.
            table.remove(tx, 10)?;
            table.remove(tx, 11)?;
            Ok(())
        });
        t.wait_durable(out.info().unwrap().tid.unwrap());
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude2, _) = DudeTm::recover_stm(Arc::clone(&nvm), cfg()).unwrap();
    let mut t = dude2.register_thread();
    // Both removals landed (they were one durable transaction).
    assert_eq!(t.run(&mut |tx| table.get(tx, 10)).expect_committed(), None);
    assert_eq!(t.run(&mut |tx| table.get(tx, 11)).expect_committed(), None);
    assert_eq!(
        t.run(&mut |tx| table.get(tx, 12)).expect_committed(),
        Some(12)
    );
}

#[test]
fn tpcc_payment_mix_on_dudetm() {
    use dude_workloads::driver::{load_workload, run_fixed_ops, RunConfig};
    use dude_workloads::kv::BTreeKv;
    use dude_workloads::tpcc::{Tpcc, TpccParams};

    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(24 << 20)));
    let dude = DudeTm::create_stm(
        Arc::clone(&nvm),
        DudeTmConfig {
            max_threads: 8,
            ..DudeTmConfig::small(8 << 20)
        },
    );
    let mut params = TpccParams::tiny();
    params.payment_pct = 40;
    let tpcc = Tpcc::new(
        BTreeKv::new(PAddr::new(64), 8192),
        PAddr::new(4 << 20),
        params,
        "TPC-C mixed",
    );
    load_workload(&dude, &tpcc);
    let stats = run_fixed_ops(
        &dude,
        &tpcc,
        RunConfig {
            threads: 2,
            ..RunConfig::default()
        },
        200,
    );
    assert_eq!(stats.committed, 400);
    dude.quiesce();
}

#[test]
fn tatp_mixed_reads_and_updates_on_dudetm() {
    use dude_workloads::driver::{load_workload, run_fixed_ops, RunConfig};
    use dude_workloads::kv::HashKv;
    use dude_workloads::tatp::Tatp;

    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(16 << 20)));
    let dude = DudeTm::create_stm(
        Arc::clone(&nvm),
        DudeTmConfig {
            max_threads: 8,
            ..DudeTmConfig::small(4 << 20)
        },
    );
    let tatp = Tatp::new(
        HashKv::new(PAddr::new(64), 4096),
        PAddr::new(2 << 20),
        300,
        "TATP (hash)",
    )
    .into_mixed(30);
    load_workload(&dude, &tatp);
    let stats = run_fixed_ops(
        &dude,
        &tatp,
        RunConfig {
            threads: 2,
            ..RunConfig::default()
        },
        250,
    );
    assert_eq!(stats.committed, 500);
    dude.quiesce();
}
