//! Full-stack durability: a B+-tree KV store on DudeTM survives a crash
//! with exactly the acknowledged prefix of its history, including with a
//! demand-paged shadow memory.

use std::sync::Arc;

use dude_nvm::{Nvm, NvmConfig};
use dude_txapi::{PAddr, TxnSystem, TxnThread};
use dude_workloads::btree::BTree;
use dudetm::{DudeTm, DudeTmConfig, DurabilityMode, PagingMode, ShadowConfig};

fn cfg() -> DudeTmConfig {
    DudeTmConfig {
        max_threads: 4,
        plog_bytes_per_thread: 1 << 18,
        ..DudeTmConfig::small(2 << 20)
    }
}

/// Inserts keys one transaction each, acknowledging every one; after a
/// crash, the recovered tree contains exactly the inserted mappings.
#[test]
fn btree_contents_survive_crash() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let tree = BTree::new(PAddr::new(64), 4096);
    let n = 300u64;
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), cfg());
        let mut t = dude.register_thread();
        let mut last = 0;
        for k in 0..n {
            let out = t.run(&mut |tx| tree.insert(tx, k * 7 % n, k));
            last = out.info().unwrap().tid.unwrap();
        }
        t.wait_durable(last);
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), cfg()).unwrap();
    assert_eq!(report.last_tid, n, "all acknowledged inserts recovered");
    let mut t = dude2.register_thread();
    // Model: key (k*7 % n) → latest k that produced it.
    let mut model = std::collections::HashMap::new();
    for k in 0..n {
        model.insert(k * 7 % n, k);
    }
    for (key, val) in model {
        let got = t.run(&mut |tx| tree.get(tx, key)).expect_committed();
        assert_eq!(got, Some(val), "key {key}");
    }
}

/// Same flow with a paged shadow: after recovery the (cold) shadow pages
/// fault in from the recovered NVM image.
#[test]
fn paged_shadow_recovers_from_nvm() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let config = cfg().with_shadow(ShadowConfig::Paged {
        frames: 16,
        mode: PagingMode::Software,
    });
    let pages = 64u64;
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        let mut last = 0;
        for p in 0..pages {
            let out = t.run(&mut |tx| tx.write_word(PAddr::new(p * dudetm::PAGE_BYTES), p + 1));
            last = out.info().unwrap().tid.unwrap();
        }
        t.wait_durable(last);
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.last_tid, pages);
    let mut t = dude2.register_thread();
    for p in 0..pages {
        let v = t
            .run(&mut |tx| tx.read_word(PAddr::new(p * dudetm::PAGE_BYTES)))
            .expect_committed();
        assert_eq!(v, p + 1, "page {p}");
    }
    assert!(dude2.shadow_stats().swap_ins >= 16);
}

/// Sync-mode KV store: every committed transaction is durable without
/// explicit acknowledgement.
#[test]
fn sync_mode_kv_survives_without_acks() {
    let nvm = Arc::new(Nvm::new(NvmConfig::for_testing(8 << 20)));
    let config = cfg().with_durability(DurabilityMode::Sync);
    let tree = BTree::new(PAddr::new(64), 2048);
    {
        let dude = DudeTm::create_stm(Arc::clone(&nvm), config);
        let mut t = dude.register_thread();
        for k in 0..100u64 {
            t.run(&mut |tx| tree.insert(tx, k, k * k))
                .expect_committed();
        }
        drop(t);
        dude.abandon();
        nvm.crash();
    }
    let (dude2, report) = DudeTm::recover_stm(Arc::clone(&nvm), config).unwrap();
    assert_eq!(report.last_tid, 100);
    let mut t = dude2.register_thread();
    for k in 0..100u64 {
        assert_eq!(
            t.run(&mut |tx| tree.get(tx, k)).expect_committed(),
            Some(k * k)
        );
    }
}
