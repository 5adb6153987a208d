//! The workspace's load-generation crate: the closed-loop driver and the
//! Yahoo Cloud Serving Benchmark (YCSB) workloads.
//!
//! The paper evaluates PebblesDB with the six core YCSB workloads (Table 5.3
//! and Figure 5.5) and through the HyperDex / MongoDB application layers
//! (Figure 5.6). This crate holds what those experiments, `db_bench` and
//! `net_bench` generate load with:
//!
//! * [`drive`] — the one closed-loop run loop: it splits an operation budget
//!   exactly across threads, seeds each thread, times every operation into
//!   a [`Histogram`](pebblesdb_common::histogram::Histogram) and returns
//!   `{ operations, seconds, latency }`. The embedded `db_bench` workloads,
//!   the YCSB mixes and `net_bench`'s RESP clients are all workers of it;
//! * the request-distribution generators (zipfian, scrambled zipfian,
//!   latest);
//! * the core workload definitions Load A, A–D, Load E, E and F with the
//!   paper's operation mixes ([`CoreWorkload`]), whose threads share one
//!   insert sequence: `Load A` on any thread count writes exactly the
//!   records `0..record_count`, and the transaction phases insert distinct
//!   records past them; [`CoreWorkload::worker`] makes a workload a
//!   [`drive`] worker over any [`KvStore`](pebblesdb_common::KvStore).
//!
//! ```
//! # use std::sync::Arc;
//! # use pebblesdb_common::KvStore;
//! # use pebblesdb_ycsb::{drive, CoreWorkload, WorkloadKind};
//! # fn demo(store: Arc<dyn KvStore>) -> pebblesdb_common::Result<()> {
//! let load = CoreWorkload::preset(WorkloadKind::LoadA, 10_000).with_value_size(1024);
//! drive(4, load.record_count, 0xabcd_0000, load.worker(&store))?;
//! let a = CoreWorkload::preset(WorkloadKind::A, 10_000).with_value_size(1024);
//! let run = drive(4, 5_000, 0xabcd_0000, a.worker(&store))?;
//! println!("{:.1} KOps/s, p99 {} us", run.kops_per_second(), run.latency.percentile(99.0));
//! # Ok(()) }
//! ```

pub mod drive;
pub mod generators;
pub mod workload;

pub use drive::{drive, Driven};
pub use generators::{Generator, LatestGenerator, ScrambledZipfianGenerator, ZipfianGenerator};
pub use workload::{execute, CoreWorkload, Operation, WorkloadKind};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_presets_match_the_paper_table() {
        // Table 5.3: A = 50/50 read/update, B = 95/5, C = 100% reads,
        // D = 95/5 with latest distribution, E = 95% scans / 5% inserts,
        // F = 50% reads / 50% read-modify-writes.
        let a = CoreWorkload::preset(WorkloadKind::A, 1000);
        assert!((a.read_proportion - 0.5).abs() < 1e-9);
        assert!((a.update_proportion - 0.5).abs() < 1e-9);

        let b = CoreWorkload::preset(WorkloadKind::B, 1000);
        assert!((b.read_proportion - 0.95).abs() < 1e-9);

        let c = CoreWorkload::preset(WorkloadKind::C, 1000);
        assert!((c.read_proportion - 1.0).abs() < 1e-9);

        let d = CoreWorkload::preset(WorkloadKind::D, 1000);
        assert!((d.read_proportion - 0.95).abs() < 1e-9);
        assert!((d.insert_proportion - 0.05).abs() < 1e-9);

        let e = CoreWorkload::preset(WorkloadKind::E, 1000);
        assert!((e.scan_proportion - 0.95).abs() < 1e-9);
        assert!((e.insert_proportion - 0.05).abs() < 1e-9);

        let f = CoreWorkload::preset(WorkloadKind::F, 1000);
        assert!((f.read_proportion - 0.5).abs() < 1e-9);
        assert!((f.read_modify_write_proportion - 0.5).abs() < 1e-9);

        let load_a = CoreWorkload::preset(WorkloadKind::LoadA, 1000);
        assert!((load_a.insert_proportion - 1.0).abs() < 1e-9);
        let load_e = CoreWorkload::preset(WorkloadKind::LoadE, 1000);
        assert!((load_e.insert_proportion - 1.0).abs() < 1e-9);
    }

    #[test]
    fn operations_are_generated_in_roughly_the_requested_mix() {
        let mut workload = CoreWorkload::preset(WorkloadKind::B, 10_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut reads = 0usize;
        let mut writes = 0usize;
        let n = 20_000;
        for _ in 0..n {
            match workload.next_operation(&mut rng) {
                Operation::Read(_) => reads += 1,
                Operation::Update(_, _) | Operation::Insert(_, _) => writes += 1,
                _ => {}
            }
        }
        let read_fraction = reads as f64 / n as f64;
        assert!(
            (read_fraction - 0.95).abs() < 0.02,
            "read fraction {read_fraction}"
        );
        assert!(writes > 0);
    }

    use rand::SeedableRng;
}
