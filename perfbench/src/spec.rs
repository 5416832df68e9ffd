//! The three benchmark workloads: their runtime configuration, how the
//! heap and every arena are sized from the op count, and the read-only
//! correctness pass each one runs after recovery.

use dude_nvm::{NvmConfig, TimingConfig};
use dude_txapi::{PAddr, TxnThread};
use dude_workloads::kv::{BTreeKv, HashKv};
use dude_workloads::tpcc::{Tpcc, TpccParams};
use dude_workloads::ycsb::SessionStore;
use dude_workloads::Workload;
use dudetm::{DudeTmConfig, DurabilityMode, PagingMode, ShadowConfig};

/// Volatile log-buffer capacity per client, in transactions: the bounded
/// `Async` flush policy every workload uses.
pub const BUFFER_TXNS: usize = 16_384;
/// Persistent log ring per registered thread.
const PLOG_BYTES: u64 = 4 << 20;
/// First heap byte the workload data may use (word 0 stays reserved).
const BASE: u64 = 64;
/// B+-tree nodes hold at most 8 keys; sequential loading leaves every
/// split leaf with at least 4, so a tree of `n` keys needs at most about
/// `n / 3` nodes (leaves plus inner levels). The arena gets `n / 2`.
const BTREE_NODES_PER_KEY: f64 = 0.5;
/// A New-Order inserts 2 + (5..=15 order lines) index keys.
const TPCC_MAX_KEYS_PER_ORDER: u64 = 17;
/// Hash buckets reserved per order, keeping the worst-case occupancy of
/// the open-addressing index at 17 / 24 (about 0.35 on average).
const TPCC_BUCKETS_PER_ORDER: u64 = 24;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// YCSB session store, 50 % reads / 50 % updates, identity shadow,
    /// two clients.
    YcsbRw,
    /// TPC-C New-Order over a hash index, identity shadow, one client.
    TpccNewOrder,
    /// Update-only YCSB over a software-paged shadow, grouped + compressed
    /// Persist, one client.
    YcsbPaged,
}

impl WorkloadKind {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::YcsbRw,
        WorkloadKind::TpccNewOrder,
        WorkloadKind::YcsbPaged,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::YcsbRw => "ycsb-rw",
            WorkloadKind::TpccNewOrder => "tpcc-neworder",
            WorkloadKind::YcsbPaged => "ycsb-paged",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client threads. TPC-C runs one: two clients serialize
    /// on the order bump cursors every New-Order writes, and each trial then
    /// lands in one of two scheduling regimes (see `README.md`).
    pub fn clients(self) -> usize {
        match self {
            WorkloadKind::YcsbRw => 2,
            WorkloadKind::TpccNewOrder | WorkloadKind::YcsbPaged => 1,
        }
    }

    /// Default per-trial op counts `(warmup, window)`, shared by all
    /// clients. The warmup issues at least as many ops as the clients'
    /// volatile buffers hold (four times as many for the short YCSB ops),
    /// so a buffer that Persist cannot keep empty has filled to its steady
    /// level before the window opens. The window is about one second of
    /// work on a 2-CPU host.
    pub fn default_ops(self) -> (u64, u64) {
        let buffers = (self.clients() * BUFFER_TXNS) as u64;
        match self {
            WorkloadKind::YcsbRw => (4 * buffers, 450_000),
            WorkloadKind::TpccNewOrder => (buffers, 30_000),
            WorkloadKind::YcsbPaged => (4 * buffers, 180_000),
        }
    }

    fn records(self) -> u64 {
        match self {
            WorkloadKind::YcsbRw => 10_000,
            WorkloadKind::TpccNewOrder => 0,
            WorkloadKind::YcsbPaged => 200_000,
        }
    }
}

/// Heap and device sizes for one trial of `ops` operations (warmup and
/// window together).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Operations the trial may run after the load phase.
    pub ops: u64,
    /// B+-tree node arena (YCSB workloads), else 0.
    pub btree_nodes: u64,
    /// TPC-C order capacity, else 0.
    pub max_orders: u64,
    /// TPC-C hash-index buckets, else 0.
    pub buckets: u64,
    /// Persistent heap bytes.
    pub heap_bytes: u64,
}

impl Sizing {
    /// Derives every arena and the heap from the op count.
    pub fn for_ops(kind: WorkloadKind, ops: u64) -> Sizing {
        let (btree_nodes, max_orders, buckets, words) = match kind {
            WorkloadKind::YcsbRw | WorkloadKind::YcsbPaged => {
                // Keys are loaded up front; updates never allocate nodes.
                let nodes = (kind.records() as f64 * BTREE_NODES_PER_KEY) as u64 + 64;
                (nodes, 0, 0, BTreeKv::words_needed(nodes))
            }
            WorkloadKind::TpccNewOrder => {
                let max_orders = ops + 64;
                let buckets = max_orders * TPCC_BUCKETS_PER_ORDER;
                let words = HashKv::words_needed(buckets)
                    + Tpcc::<HashKv>::words_needed(&tpcc_params(max_orders));
                (0, max_orders, buckets, words)
            }
        };
        let heap_bytes = (BASE + words * 8).next_multiple_of(4096);
        Sizing {
            ops,
            btree_nodes,
            max_orders,
            buckets,
            heap_bytes,
        }
    }

    /// Checks that the arenas hold every operation the trial can issue.
    /// Called before timing starts.
    pub fn assert_headroom(&self, kind: WorkloadKind) {
        match kind {
            WorkloadKind::YcsbRw | WorkloadKind::YcsbPaged => assert!(
                self.btree_nodes >= kind.records() / 3 + 16,
                "B+-tree arena of {} nodes too small for {} keys",
                self.btree_nodes,
                kind.records()
            ),
            WorkloadKind::TpccNewOrder => {
                assert!(
                    self.max_orders > self.ops,
                    "TPC-C arena of {} orders too small for {} ops",
                    self.max_orders,
                    self.ops
                );
                assert!(
                    self.buckets > self.max_orders * TPCC_MAX_KEYS_PER_ORDER,
                    "TPC-C index of {} buckets can fill up",
                    self.buckets
                );
            }
        }
    }

    /// The device: metadata, one log ring per registered thread, heap.
    pub fn device(&self, kind: WorkloadKind) -> NvmConfig {
        let config = runtime_config(kind, self);
        let rings = config.max_threads as u64 * config.plog_bytes_per_thread;
        // Crash tracking stays off: the tracked device funnels every write
        // through a mutex-guarded set.
        NvmConfig::for_benchmark(
            (4096 + rings).next_multiple_of(4096) + self.heap_bytes,
            TimingConfig::paper_default(),
        )
    }
}

fn tpcc_params(max_orders: u64) -> TpccParams {
    let mut p = TpccParams::standard(max_orders);
    p.customers_per_district = 512;
    p.items = 10_000;
    p
}

/// The runtime configuration of a workload: the paper's default device,
/// the bounded `Async` flush policy, and the workload's shadow and
/// Persist shape.
pub fn runtime_config(kind: WorkloadKind, sizing: &Sizing) -> DudeTmConfig {
    let mut config =
        DudeTmConfig::small(sizing.heap_bytes).with_durability(DurabilityMode::Async {
            buffer_txns: BUFFER_TXNS,
        });
    config.plog_bytes_per_thread = PLOG_BYTES;
    // The load thread and the post-recovery check thread take one slot;
    // each client takes one more.
    config.max_threads = kind.clients() + 1;
    config.checkpoint_every = 64;
    match kind {
        WorkloadKind::YcsbRw | WorkloadKind::TpccNewOrder => config,
        WorkloadKind::YcsbPaged => config
            .with_shadow(ShadowConfig::Paged {
                frames: 1024,
                mode: PagingMode::Software,
            })
            .with_grouping(8, true),
    }
}

/// A workload laid out over the heap, plus the handles its read-only
/// check needs.
#[derive(Debug)]
pub enum Built {
    /// Either YCSB variant.
    Ycsb {
        /// The op generator and loader.
        store: SessionStore<BTreeKv>,
        /// The index, for the key-presence check.
        kv: BTreeKv,
        /// Loaded keys (`0..records`).
        records: u64,
    },
    /// TPC-C New-Order.
    Tpcc {
        /// The op generator and loader.
        tpcc: Tpcc<HashKv>,
        /// Districts to scan in the order-count check.
        districts: u64,
    },
}

impl Built {
    /// Lays the workload out over a fresh heap.
    pub fn new(kind: WorkloadKind, sizing: &Sizing) -> Built {
        let base = PAddr::new(BASE);
        match kind {
            WorkloadKind::YcsbRw | WorkloadKind::YcsbPaged => {
                let kv = BTreeKv::new(base, sizing.btree_nodes);
                let update_pct = if kind == WorkloadKind::YcsbRw {
                    50
                } else {
                    100
                };
                Built::Ycsb {
                    store: SessionStore::new(kv, kind.records(), 0.99, update_pct, kind.name()),
                    kv,
                    records: kind.records(),
                }
            }
            WorkloadKind::TpccNewOrder => {
                let params = tpcc_params(sizing.max_orders);
                let tables =
                    PAddr::from_word_index(BASE / 8 + HashKv::words_needed(sizing.buckets));
                let kv = HashKv::new(base, sizing.buckets);
                Built::Tpcc {
                    tpcc: Tpcc::new(kv, tables, params, kind.name()),
                    districts: params.districts,
                }
            }
        }
    }

    /// The op generator.
    pub fn workload(&self) -> &dyn Workload {
        match self {
            Built::Ycsb { store, .. } => store,
            Built::Tpcc { tpcc, .. } => tpcc,
        }
    }

    /// Read-only pass over the recovered heap: every YCSB key is found, or
    /// the TPC-C orders reachable through the index number exactly
    /// `new_orders`.
    pub fn check<T: TxnThread>(&self, thread: &mut T, new_orders: u64) -> Result<(), String> {
        const BATCH: u64 = 64;
        match self {
            Built::Ycsb { kv, records, .. } => {
                use dude_workloads::KvIndex;
                let mut lo = 0;
                while lo < *records {
                    let hi = (lo + BATCH).min(*records);
                    let missing = thread
                        .run(&mut |tx| {
                            for k in lo..hi {
                                if kv.get(tx, k)?.is_none() {
                                    return Ok(Some(k));
                                }
                            }
                            Ok(None)
                        })
                        .expect_committed();
                    if let Some(k) = missing {
                        return Err(format!("YCSB key {k} missing after recovery"));
                    }
                    lo = hi;
                }
                Ok(())
            }
            Built::Tpcc { tpcc, districts } => {
                let mut found = 0;
                for d in 0..*districts {
                    // Order IDs per district are dense from 1.
                    let mut next = 1;
                    loop {
                        let present = thread
                            .run(&mut |tx| {
                                let mut n = 0;
                                while n < BATCH && tpcc.order_customer(tx, d, next + n)?.is_some() {
                                    n += 1;
                                }
                                Ok(n)
                            })
                            .expect_committed();
                        next += present;
                        if present < BATCH {
                            break;
                        }
                    }
                    found += next - 1;
                }
                if found == new_orders {
                    Ok(())
                } else {
                    Err(format!(
                        "index holds {found} TPC-C orders, {new_orders} New-Orders committed"
                    ))
                }
            }
        }
    }
}
