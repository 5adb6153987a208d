//! The evaluation driver: every figure and table of the paper by name, or
//! any micro-benchmark against any engine.
//!
//! ```text
//! db_bench --exp fig5_1_micro --part b            # a paper figure (README lists them)
//! db_bench --exp all --keys 2000                  # every experiment, small
//! db_bench --engine pebblesdb --benchmarks fillrandom,readrandom,seekrandom \
//!     --keys 100000 --value-size 1024 --threads 1 # ad-hoc mode
//! ```

use std::sync::Arc;

use pebblesdb_bench::engines::{open_env, open_store};
use pebblesdb_bench::experiments::{experiments, run_experiment, DB_BENCH_USAGE};
use pebblesdb_bench::report::{format_mib, format_ratio, row};
use pebblesdb_bench::workloads::Shape;
use pebblesdb_bench::{scaled_options, Args, EngineKind, Report, Workload};
use pebblesdb_common::{CfStats, CompressionType, KvStore, StatField, StoreStats};
use pebblesdb_shard::{PartitionerKind, ShardConfig};

/// Prints `message` and exits 2: a flag value outside its vocabulary.
fn reject(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

fn main() {
    let args = Args::parse(DB_BENCH_USAGE);
    let engine = EngineKind::from_flag(&args.get_str("engine", "pebblesdb")).unwrap_or_else(|| {
        reject("unknown --engine (pebblesdb|pebblesdb-1|hyperleveldb|rocksdb|btree)")
    });

    let exp = args.get_str("exp", "");
    if exp.is_empty() {
        return ad_hoc(&args, engine);
    }
    let part = args.get_str("part", &args.get_str("app", "all"));
    let table = experiments(engine);
    let selected: Vec<_> = (table.iter())
        .filter(|e| exp == "all" || e.name == exp)
        .filter(|e| exp == "all" || part == "all" || e.part == part)
        .collect();
    if selected.is_empty() {
        let mut names: Vec<_> = table.iter().map(|e| e.name).collect();
        names.dedup();
        reject(&format!(
            "no experiment {exp:?} with part {part:?}; --exp takes all|{}",
            names.join("|")
        ));
    }
    for experiment in selected {
        run_experiment(experiment, &args)
            .expect("run experiment")
            .print();
    }
}

/// `--engine … --benchmarks …`: a list of workloads against one store,
/// optionally sharded, over several column families, with a value log or
/// compression.
fn ad_hoc(args: &Args, engine: EngineKind) {
    let keys = args.get_u64("keys", 50_000).max(1);
    let scale = args.get_u64("scale-divisor", 16) as usize;
    let shape = Shape {
        first_key: 0,
        keys,
        value_size: args.get_u64("value-size", 1024) as usize,
        threads: args.get_u64("threads", 1) as usize,
        // `--compressibility R` makes generated values shrink to ~R of
        // their size under an ideal codec (1.0 = fully random).
        compressibility: args.get_f64("compressibility", 1.0),
    };

    let mut options = scaled_options(engine, scale);
    // Absent, the preset's pool size stays (PebblesDB: 2, baselines: 1);
    // an explicit 0 runs every background job on the writing thread.
    options.compaction_threads =
        args.get_u64("compaction-threads", options.compaction_threads as u64) as usize;
    // 0 (the default) keeps key-value separation off; any other value is the
    // minimum value size, in bytes, that goes to the per-family value log.
    options.value_separation_threshold = args.get_u64("value-separation-threshold", 0) as usize;
    // `--compression on|off` (also accepts lz/none) toggles block + vlog
    // compression.
    options.compression = CompressionType::parse(&args.get_str("compression", "off"))
        .unwrap_or_else(|| reject("unknown --compression (on|off|lz|none)"));
    // `--shards N` opens the engine as a ShardedDb of N instances. 0 (the
    // default) opens the plain engine; `--shards 1` goes through the
    // sharded facade with one shard, so 1-vs-N comparisons isolate the
    // scaling win from the coordinator's fixed overhead.
    let shard_count = args.get_u64("shards", 0) as usize;
    let partitioner = PartitionerKind::parse(&args.get_str("partitioner", "hash"))
        .unwrap_or_else(|_| reject("unknown --partitioner (hash|range)"));
    let sharding = (shard_count > 0).then_some(ShardConfig {
        shards: shard_count,
        partitioner,
    });

    let (env, dir) = open_env(
        &args.get_str("env", "mem"),
        engine.name(),
        &args.get_str("dir", ""),
        args.get_u64("write-latency-us", 0),
    );
    let compaction_threads = options.compaction_threads;
    let db = open_store(engine, env, &dir, options, sharding)
        .expect("open engine")
        .db;
    // `--cfs N` round-robins the key stream over N column families of one
    // database: family 0 is the default family, 1..N are created. With
    // N = 1 the run is byte-for-byte the single-namespace benchmark.
    let cfs = args.get_u64("cfs", 1).max(1) as usize;
    let mut families: Vec<Arc<dyn KvStore>> = vec![Arc::clone(&db) as Arc<dyn KvStore>];
    for i in 1..cfs {
        // `cf_or_create` keeps reruns against an existing --dir working:
        // the families persist in the database's catalog.
        let family = db.cf_or_create(&format!("cf{i}"));
        families.push(Arc::new(family.expect("create column family")));
    }

    let sharding = match shard_count {
        0 => String::new(),
        n => format!(", {n} {} shards", partitioner.name()),
    };
    let mut report = Report::new(
        &format!(
            "db_bench — {} ({keys} keys, {} B values, {} threads, {compaction_threads} compaction threads, {cfs} column families{sharding})",
            engine.name(),
            shape.value_size,
            shape.threads,
        ),
        [
            "benchmark", "KOps/s", "ops", "write IO", "read IO", "write amp", "stall ms",
            "max conc", "cache hit%",
        ]
        .map(String::from)
        .to_vec(),
    );

    for name in args
        .get_str("benchmarks", "fillrandom,readrandom,seekrandom")
        .split(',')
    {
        let workload = Workload::from_flag(name.trim())
            .unwrap_or_else(|| reject(&format!("unknown benchmark {name:?}")));
        let ops = match workload {
            Workload::ReadRandom
            | Workload::SeekRandom
            | Workload::RangeQuery { .. }
            | Workload::MixedScanWrite { .. } => (keys / 2).max(1),
            Workload::ReadSeq => 1,
            _ => keys,
        };
        let result = workload.run(&families, ops, &shape).expect("run workload");
        report.add_row(vec![
            result.name.clone(),
            result.kops(),
            result.driven.operations.to_string(),
            format_mib(result.delta(|s| s.bytes_written)),
            format_mib(result.delta(|s| s.bytes_read)),
            format_ratio(result.write_amplification()),
            format!(
                "{:.1}",
                result.delta(|s| s.write_stall_micros) as f64 / 1000.0
            ),
            result.after.max_concurrent_compactions.to_string(),
            result
                .block_cache_hit_pct()
                .map_or_else(|| "-".to_string(), |pct| format!("{pct:.1}%")),
        ]);
        db.flush().expect("flush between benchmarks");
    }
    report.add_note("Figure 5.1(b) of the paper runs fillseq/fillrandom/readrandom/seekrandom/deleterandom with 16 B keys and 1 KiB values.");
    report.add_note("'max conc' is the store-lifetime high-water mark of concurrently running compaction jobs (>1 means per-guard jobs overlapped).");
    report.add_note("'cache hit%' is the block-cache hit rate over the benchmark interval ('-' when the cache was never consulted: pure fills, and --env mem without compression, whose blocks are read in place).");
    report.print();

    // Per-family breakdown, so one namespace's compaction debt cannot hide
    // behind another's in the aggregate table above; per-shard breakdown, so
    // a skewed partitioner or a straggling shard is visible next to it.
    if cfs > 1 {
        let stats = db.cf_stats();
        let names = stats.iter().map(|cf| cf.name.clone()).collect();
        breakdown(
            "per column family",
            names,
            stats.iter().map(CfStats::fields).collect(),
        );
    }
    let stats = db.shard_stats();
    let names = (0..stats.len()).map(|i| format!("shard {i}")).collect();
    breakdown(
        "per shard",
        names,
        stats.iter().map(StoreStats::fields).collect(),
    );
}

/// Prints one column per family or shard and one row per stat. Field names
/// and order come from the shared stat tables, so this, the server's INFO
/// command and the Prometheus endpoint always show the same fields.
fn breakdown(title: &str, names: Vec<String>, fields: Vec<Vec<StatField>>) {
    let Some(first) = fields.first() else { return };
    let mut report = Report::new(title, row("stat", names.into_iter()));
    for (i, field) in first.iter().enumerate() {
        let values = fields.iter().map(|of| of[i].human_value());
        report.add_row(row(field.name, values));
    }
    report.print();
}
