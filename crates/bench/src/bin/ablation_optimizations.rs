//! §5.2 "Impact of Different Optimizations": ablation of the PebblesDB
//! read-side techniques.
//!
//! The paper reports that, over FLSM without any optimisation, seek-based
//! compaction alone removes most of the range-query overhead (66% -> 7%),
//! parallel seeks help less (66% -> 48%), and sstable-level bloom filters
//! improve point reads by ~63%. This binary toggles the corresponding
//! `StoreOptions` settings and reports read and seek throughput for each
//! configuration.

use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_bench::engines::open_bench_env;
use pebblesdb_bench::report::format_kops;
use pebblesdb_bench::{scaled_options, Args, EngineKind, Report, Workload};
use pebblesdb_common::{KvStore, StoreOptions};

struct Variant {
    name: &'static str,
    bloom: bool,
    parallel_seeks: bool,
    seek_compaction: bool,
    aggressive: bool,
}

fn main() {
    let args = Args::parse();
    let keys = args.get_u64("keys", 50_000);
    let value_size = args.get_u64("value-size", 512) as usize;
    let scale = args.get_u64("scale-divisor", 16) as usize;

    let variants = [
        Variant {
            name: "no optimizations",
            bloom: false,
            parallel_seeks: false,
            seek_compaction: false,
            aggressive: false,
        },
        Variant {
            name: "+ sstable bloom filters",
            bloom: true,
            parallel_seeks: false,
            seek_compaction: false,
            aggressive: false,
        },
        Variant {
            name: "+ parallel seeks",
            bloom: true,
            parallel_seeks: true,
            seek_compaction: false,
            aggressive: false,
        },
        Variant {
            name: "+ seek compaction",
            bloom: true,
            parallel_seeks: true,
            seek_compaction: true,
            aggressive: false,
        },
        Variant {
            name: "full PebblesDB",
            bloom: true,
            parallel_seeks: true,
            seek_compaction: true,
            aggressive: true,
        },
    ];

    let mut report = Report::new(
        &format!("§5.2 ablation: PebblesDB optimizations ({keys} keys, {value_size} B values)"),
        vec![
            "configuration".to_string(),
            "write KOps/s".to_string(),
            "read KOps/s".to_string(),
            "seek KOps/s".to_string(),
        ],
    );

    for variant in &variants {
        let engine = EngineKind::PebblesDb;
        let (env, dir) = open_bench_env(
            &args.get_str("env", "mem"),
            engine,
            &args.get_str("dir", ""),
        );
        let mut options = scaled_options(engine, scale);
        if !variant.bloom {
            options.bloom_bits_per_key = 0;
        }
        if variant.parallel_seeks {
            options.parallel_seek_threads = StoreOptions::default().parallel_seek_threads;
        }
        if !variant.seek_compaction {
            options.seek_compaction_threshold = 0;
        }
        options.enable_aggressive_compaction = variant.aggressive;
        let store: Arc<dyn KvStore> =
            Arc::new(PebblesDb::open_with_options(env, &dir, options).expect("open"));

        let writes = Workload::FillRandom
            .run(&store, keys, 16, value_size, 1)
            .expect("writes");
        store.flush().expect("flush");
        let reads = Workload::ReadRandom
            .run(&store, keys / 2, 16, value_size, 1)
            .expect("reads");
        let seeks = Workload::RangeQuery { nexts: 20 }
            .run(&store, keys / 4, 16, value_size, 1)
            .expect("seeks");

        report.add_row(vec![
            variant.name.to_string(),
            format_kops(writes.kops_per_second()),
            format_kops(reads.kops_per_second()),
            format_kops(seeks.kops_per_second()),
        ]);
    }

    report.add_note("Paper: without optimisations range queries lose 66%; parallel seeks alone reduce that to 48%, seek-based compaction alone to 7%; bloom filters improve reads by 63%.");
    report.print();
}
