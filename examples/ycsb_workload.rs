//! Run a small YCSB session-store workload (Load A + workload A) against
//! PebblesDB and print throughput and latency percentiles.
//!
//! ```text
//! cargo run -p pebblesdb-examples --bin ycsb_workload
//! ```

use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::{KvStore, StoreOptions};
use pebblesdb_env::MemEnv;
use pebblesdb_ycsb::{drive, CoreWorkload, WorkloadKind};

fn main() {
    let records = 20_000u64;
    let operations = 10_000u64;
    let threads = 4;

    let env = Arc::new(MemEnv::new());
    let options = StoreOptions::default().scale_down(16);
    let store: Arc<dyn KvStore> = Arc::new(
        PebblesDb::open_with_options(env, std::path::Path::new("/ycsb"), options).expect("open"),
    );

    println!("loading {records} records with {threads} threads...");
    let load = CoreWorkload::preset(WorkloadKind::LoadA, records).with_value_size(1024);
    drive(threads, records, 0xabcd_0000, load.worker(&store)).expect("load phase");
    store.flush().expect("flush");

    for kind in [
        WorkloadKind::A,
        WorkloadKind::B,
        WorkloadKind::C,
        WorkloadKind::E,
    ] {
        let mix = CoreWorkload::preset(kind, records).with_value_size(1024);
        let report =
            drive(threads, operations, 0xabcd_0000, mix.worker(&store)).expect("run workload");
        println!(
            "workload {:<6} {:>8.1} KOps/s   p50 {:>6} us   p99 {:>8} us   ({} ops)",
            kind.name(),
            report.kops_per_second(),
            report.latency.percentile(50.0),
            report.latency.percentile(99.0),
            report.operations
        );
    }

    let stats = store.stats();
    println!(
        "\ntotal write IO {} for {} of user data (write amplification {:.2})",
        pebblesdb_examples::mib(stats.bytes_written),
        pebblesdb_examples::mib(stats.user_bytes_written),
        stats.write_amplification()
    );
}
