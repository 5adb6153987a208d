//! `db_bench`-style micro-benchmark workloads.
//!
//! These mirror the LevelDB `db_bench` operations the paper uses in Figure
//! 5.1: sequential and random fills, random reads, random seeks (range-query
//! starts), deletes, and the mixed read-while-writing workload used for the
//! multi-threaded experiment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use pebblesdb_common::{KvStore, Result, StoreStats};
use pebblesdb_ycsb::{drive, execute, CoreWorkload, Driven, Operation, WorkloadKind};

use crate::keygen::{bench_key, bench_value_compressible};
use crate::report::format_kops;

/// The micro-benchmark operations of Figure 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Insert keys in ascending order.
    FillSeq,
    /// Insert keys in random order.
    FillRandom,
    /// Overwrite random existing keys.
    Overwrite,
    /// Point-read random keys.
    ReadRandom,
    /// Each operation reads the whole key space in order through one cursor
    /// (one operation warms the block cache).
    ReadSeq,
    /// Position an iterator at random keys (seek only, the paper's worst
    /// case for PebblesDB).
    SeekRandom,
    /// Seek followed by a fixed number of `next()` calls.
    RangeQuery {
        /// Number of entries read after the seek.
        nexts: usize,
    },
    /// Delete random keys.
    DeleteRandom,
    /// Delete keys in ascending order.
    DeleteSeq,
    /// A YCSB operation mix over `keys` records of the first store.
    Ycsb(WorkloadKind),
    /// Half the threads read while the other half write.
    ReadWhileWriting,
    /// Half the threads drive range-scan cursors while the other half write
    /// — the YCSB-E-shaped cursor-vs-writer race that used to trigger a
    /// memtable deep copy per interleaving before the concurrent memtable.
    MixedScanWrite {
        /// Number of entries each scan reads after its seek.
        nexts: usize,
    },
}

/// How a workload is offered: everything about a run but the workload
/// itself and its operation count.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// First key index of the key space (time-series windows move it).
    pub first_key: u64,
    /// Size of the key space: random workloads draw indices from
    /// `first_key..first_key + keys`, sequential ones start at `first_key`.
    pub keys: u64,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Driver threads.
    pub threads: usize,
    /// The ratio an ideal codec would shrink each value to (see
    /// [`bench_value_compressible`]); `1.0` means fully random.
    pub compressibility: f64,
}

/// The outcome of one measured phase: what [`drive`] executed, between two
/// snapshots of the store's statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload label.
    pub name: String,
    /// Operations, wall-clock seconds and the latency histogram.
    pub driven: Driven,
    /// For read workloads, how many keys were found.
    pub found: u64,
    /// The store's statistics just before the phase.
    pub before: StoreStats,
    /// The store's statistics just after it.
    pub after: StoreStats,
}

impl BenchResult {
    /// Throughput in thousands of operations per second, as a table cell.
    pub fn kops(&self) -> String {
        format_kops(self.driven.kops_per_second())
    }

    /// How much the counter `stat` grew over the phase.
    pub fn delta(&self, stat: fn(&StoreStats) -> u64) -> u64 {
        stat(&self.after).saturating_sub(stat(&self.before))
    }

    /// Write amplification over the measured interval.
    pub fn write_amplification(&self) -> f64 {
        match self.delta(|s| s.user_bytes_written) {
            0 => 0.0,
            user => self.delta(|s| s.bytes_written) as f64 / user as f64,
        }
    }

    /// Block-cache hit percentage over the measured interval, or `None`
    /// when the cache was never consulted (e.g. pure fill workloads).
    pub fn block_cache_hit_pct(&self) -> Option<f64> {
        let hits = self.delta(|s| s.block_cache_hits);
        match hits + self.delta(|s| s.block_cache_misses) {
            0 => None,
            total => Some(hits as f64 * 100.0 / total as f64),
        }
    }
}

/// The `--benchmarks` vocabulary; scans read 50 entries unless an
/// experiment says otherwise.
const NAMES: [(&str, Workload); 11] = [
    ("fillseq", Workload::FillSeq),
    ("fillrandom", Workload::FillRandom),
    ("overwrite", Workload::Overwrite),
    ("readrandom", Workload::ReadRandom),
    ("readseq", Workload::ReadSeq),
    ("seekrandom", Workload::SeekRandom),
    ("rangequery", Workload::RangeQuery { nexts: 50 }),
    ("deleterandom", Workload::DeleteRandom),
    ("deleteseq", Workload::DeleteSeq),
    ("readwhilewriting", Workload::ReadWhileWriting),
    ("mixed_scan_write", Workload::MixedScanWrite { nexts: 50 }),
];

impl Workload {
    /// Display name of the workload.
    pub fn name(&self) -> String {
        match *self {
            Workload::RangeQuery { nexts } => format!("rangequery({nexts})"),
            Workload::MixedScanWrite { nexts } => format!("mixed_scan_write({nexts})"),
            Workload::Ycsb(kind) => kind.name().to_string(),
            plain => (NAMES.iter().find(|named| named.1 == plain))
                .map_or_else(String::new, |named| named.0.to_string()),
        }
    }

    /// Parses a `--benchmarks` entry.
    pub fn from_flag(name: &str) -> Option<Workload> {
        let named = NAMES.iter().find(|named| named.0 == name);
        named.map(|named| named.1)
    }

    /// Runs `operations` operations of this workload as a [`drive`] worker,
    /// between two snapshots of the store's statistics (every handle of one
    /// database reports the same store-wide IO and stall counters).
    ///
    /// Keys are round-robined across `stores` — in practice one [`KvStore`]
    /// handle per column family, so `--cfs N` runs drive N namespaces of one
    /// database with the same key stream. Key `k` always lands in the same
    /// family, so reads find what fills wrote regardless of the count.
    pub fn run(
        &self,
        stores: &[Arc<dyn KvStore>],
        operations: u64,
        shape: &Shape,
    ) -> Result<BenchResult> {
        let (store, threads) = (&stores[0], shape.threads.max(1));
        let found = AtomicU64::new(0);
        let before = store.stats();
        let driven = match *self {
            Workload::Ycsb(kind) => {
                let mix = CoreWorkload::preset(kind, shape.keys).with_value_size(shape.value_size);
                drive(threads, operations, 0xabcd_0000, mix.worker(store))?
            }
            micro => drive(threads, operations, 0xbeef_0000, |thread| {
                let found = &found;
                Ok(move |index: u64, rng: &mut StdRng| {
                    micro.run_one(stores, shape, index, thread, rng, found)
                })
            })?,
        };
        Ok(BenchResult {
            name: self.name(),
            driven,
            found: found.into_inner(),
            before,
            after: store.stats(),
        })
    }

    fn run_one(
        &self,
        stores: &[Arc<dyn KvStore>],
        shape: &Shape,
        index: u64,
        thread: usize,
        rng: &mut StdRng,
        found: &AtomicU64,
    ) -> Result<()> {
        let store = |k: u64| &stores[(k % stores.len() as u64) as usize];
        let random = |rng: &mut StdRng| shape.first_key + rng.gen_range(0..shape.keys.max(1));
        let put = |k: u64, rng: &mut StdRng| {
            let value = bench_value_compressible(k, shape.value_size, shape.compressibility, rng);
            store(k).put(&bench_key(k), &value)
        };
        let get = |k: u64| -> Result<()> {
            if store(k).get(&bench_key(k))?.is_some() {
                found.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        };
        // Position a cursor at `k`, then stream `nexts` entries off it.
        let scan = |k: u64, nexts: usize| execute(store(k), Operation::Scan(bench_key(k), nexts));
        // The mixed workloads split roles by thread: even threads read or
        // scan, odd threads write (at least one of each from two threads up).
        let reader = thread.is_multiple_of(2);
        match *self {
            Workload::FillSeq => put(shape.first_key + index, rng),
            Workload::FillRandom | Workload::Overwrite => put(random(rng), rng),
            Workload::ReadRandom => get(random(rng)),
            Workload::ReadSeq => scan(shape.first_key, usize::MAX),
            // Pure cursor positioning — the paper's worst case for PebblesDB
            // (a seek must consult every sstable in a guard).
            Workload::SeekRandom => scan(random(rng), 0),
            Workload::RangeQuery { nexts } => scan(random(rng), nexts),
            Workload::DeleteRandom => {
                let k = random(rng);
                store(k).delete(&bench_key(k))
            }
            Workload::DeleteSeq => {
                let k = shape.first_key + index;
                store(k).delete(&bench_key(k))
            }
            Workload::ReadWhileWriting if reader => get(random(rng)),
            Workload::ReadWhileWriting => put(random(rng), rng),
            // With a single thread the two roles alternate per operation so
            // the cursor still races the write stream.
            Workload::MixedScanWrite { nexts }
                if (shape.threads <= 1 && index.is_multiple_of(2))
                    || (shape.threads > 1 && reader) =>
            {
                scan(random(rng), nexts)
            }
            Workload::MixedScanWrite { .. } => put(random(rng), rng),
            Workload::Ycsb(_) => unreachable!("run() hands a YCSB mix to CoreWorkload::worker"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{open_env, open_store, scaled_options, EngineKind};

    fn store(kind: EngineKind) -> Vec<Arc<dyn KvStore>> {
        let (env, dir) = open_env("mem", kind.name(), "", 0);
        let opened = open_store(kind, env, &dir, scaled_options(kind, 16), None).unwrap();
        vec![opened.db as Arc<dyn KvStore>]
    }

    fn shape(keys: u64, threads: usize) -> Shape {
        Shape {
            first_key: 0,
            keys,
            value_size: 100,
            threads,
            compressibility: 1.0,
        }
    }

    /// The embedded and the YCSB worker both run exactly what was asked,
    /// whether or not the thread count divides it.
    #[test]
    fn executed_equals_requested_for_every_split() {
        let stores = store(EngineKind::PebblesDb);
        for workload in [
            Workload::FillRandom,
            Workload::Ycsb(WorkloadKind::LoadA),
            Workload::Ycsb(WorkloadKind::A),
        ] {
            for ops in [10u64, 1000, 1001] {
                for threads in [1usize, 3, 4] {
                    let result = workload.run(&stores, ops, &shape(1001, threads)).unwrap();
                    let at = format!("{} x{ops} on {threads}", result.name);
                    assert_eq!(result.driven.operations, ops, "{at}");
                    assert_eq!(result.driven.latency.count(), ops, "{at}");
                    // One put per operation reached the store (A: half of them).
                    let puts = result.delta(|s| s.user_bytes_written) / (16 + 100);
                    match workload {
                        Workload::Ycsb(WorkloadKind::A) => assert!(puts > 0 && puts < ops, "{at}"),
                        Workload::Ycsb(_) => assert!(puts >= ops, "{at}: {puts} puts"),
                        _ => assert_eq!(puts, ops, "{at}"),
                    }
                }
            }
        }
    }

    /// A 3-thread sequential fill leaves no key of the space unwritten (the
    /// old split dropped the remainder), and every read of it hits.
    #[test]
    fn sequential_fill_on_three_threads_writes_every_key() {
        let stores = store(EngineKind::HyperLevelDb);
        let shape = shape(5000, 3);
        let fill = Workload::FillSeq.run(&stores, 5000, &shape).unwrap();
        assert!(fill.driven.kops_per_second() > 0.0 && fill.write_amplification() >= 1.0);
        for index in [0, 1666, 1667, 4998, 4999] {
            assert!(
                stores[0].get(&bench_key(index)).unwrap().is_some(),
                "{index}"
            );
        }
        let read = Workload::ReadRandom.run(&stores, 1000, &shape).unwrap();
        assert_eq!((read.driven.operations, read.found), (1000, 1000));
        assert_eq!(
            Workload::ReadSeq.run(&stores, 1, &shape).unwrap().name,
            "readseq"
        );
    }

    /// Random fills sample keys with replacement, so roughly 1 - 1/e of the
    /// key space exists; seeks, scans, deletes and the two mixed workloads
    /// run on one thread and on four.
    #[test]
    fn every_micro_workload_executes() {
        let stores = store(EngineKind::RocksDb);
        Workload::FillRandom
            .run(&stores, 2000, &shape(2000, 2))
            .unwrap();
        let read = Workload::ReadRandom
            .run(&stores, 1000, &shape(2000, 1))
            .unwrap();
        assert!(
            read.found > 500 && read.found < 1000,
            "found {}",
            read.found
        );
        for (name, workload) in NAMES {
            assert_eq!(Workload::from_flag(name), Some(workload));
            assert!(workload.name().starts_with(name), "{name}");
            for threads in [1, 4] {
                let result = workload.run(&stores, 200, &shape(2000, threads)).unwrap();
                assert_eq!(result.driven.operations, 200, "{name} on {threads}");
            }
        }
        assert_eq!(Workload::from_flag("fillrandom "), None);
    }
}
