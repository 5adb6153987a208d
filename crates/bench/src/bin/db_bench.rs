//! A `db_bench`-style driver: run any micro-benchmark against any engine.
//!
//! ```text
//! cargo run --release -p pebblesdb-bench --bin db_bench -- \
//!     --engine pebblesdb --benchmarks fillrandom,readrandom,seekrandom \
//!     --keys 100000 --value-size 1024 --threads 1
//! ```

use std::sync::Arc;

use pebblesdb_bench::engines::{
    open_bench_env_full, open_db_with_options, open_engine_with_options,
    open_sharded_db_with_options,
};
use pebblesdb_bench::report::{format_kops, format_mib, format_ratio};
use pebblesdb_bench::{scaled_options, Args, EngineKind, Report, Workload};
use pebblesdb_common::{CompressionType, Db, KvStore, StoreStats};

fn workload_from_name(name: &str) -> Option<Workload> {
    match name {
        "fillseq" => Some(Workload::FillSeq),
        "fillrandom" => Some(Workload::FillRandom),
        "overwrite" => Some(Workload::Overwrite),
        "readrandom" => Some(Workload::ReadRandom),
        "seekrandom" => Some(Workload::SeekRandom),
        "rangequery" => Some(Workload::RangeQuery { nexts: 50 }),
        "deleterandom" => Some(Workload::DeleteRandom),
        "readwhilewriting" => Some(Workload::ReadWhileWriting),
        "mixedscanwrite" | "mixed_scan_write" => Some(Workload::MixedScanWrite { nexts: 50 }),
        _ => None,
    }
}

/// `--value-sweep`: fillrandom across value sizes 64 B → 64 KiB, key-value
/// separation off vs on, a fresh store per cell. The logical volume per cell
/// is held roughly constant (`--sweep-mib`, default 8 MiB) so the write-amp
/// columns compare apples to apples: with separation on, compaction rewrites
/// 20-byte pointers instead of the values, so "on write amp" should fall well
/// below "off write amp" once values clear the threshold, while the sub-
/// threshold sizes stay within noise of each other.
fn run_value_sweep(args: &Args) {
    let engine = EngineKind::from_flag(&args.get_str("engine", "pebblesdb"))
        .expect("unknown --engine (pebblesdb|pebblesdb-1|hyperleveldb|leveldb|rocksdb|btree)");
    let threads = args.get_u64("threads", 1) as usize;
    let scale = args.get_u64("scale-divisor", 16) as usize;
    let threshold = args.get_u64("sweep-threshold", 512) as usize;
    let target_bytes = args.get_u64("sweep-mib", 8) << 20;
    let write_latency_us = args.get_u64("write-latency-us", 0);

    let mut report = Report::new(
        &format!(
            "value-size sweep — {} (fillrandom, ~{} MiB logical per cell, separation threshold {threshold} B)",
            engine.name(),
            target_bytes >> 20
        ),
        vec![
            "value size".to_string(),
            "ops".to_string(),
            "off KOps/s".to_string(),
            "off write amp".to_string(),
            "on KOps/s".to_string(),
            "on write amp".to_string(),
            "amp off/on".to_string(),
        ],
    );

    for value_size in [64usize, 256, 1024, 4096, 16384, 65536] {
        // 16-byte keys, constant logical volume → more ops at small sizes.
        let ops = (target_bytes / (16 + value_size as u64)).max(64);
        let mut cells = Vec::new();
        for separate in [false, true] {
            let (env, mem_env, dir) = open_bench_env_full(
                &args.get_str("env", "mem"),
                engine,
                &args.get_str("dir", ""),
            );
            if write_latency_us > 0 {
                if let Some(mem) = &mem_env {
                    mem.set_write_latency_micros_for(".sst", write_latency_us);
                }
            }
            let mut options = scaled_options(engine, scale);
            if separate {
                options.value_separation_threshold = threshold;
            }
            let store = open_engine_with_options(engine, env, &dir, options).expect("open engine");
            let result = Workload::FillRandom
                .run(&store, ops, 16, value_size, threads)
                .expect("run fillrandom");
            cells.push((result.kops_per_second(), result.write_amplification()));
        }
        let (off_kops, off_amp) = cells[0];
        let (on_kops, on_amp) = cells[1];
        report.add_row(vec![
            format!("{value_size} B"),
            ops.to_string(),
            format_kops(off_kops),
            format_ratio(off_amp),
            format_kops(on_kops),
            format_ratio(on_amp),
            if on_amp > 0.0 {
                format!("{:.2}x", off_amp / on_amp)
            } else {
                "-".to_string()
            },
        ]);
    }
    report.add_note("'write amp' is store bytes written per logical byte (WAL + vlog + sstables over key+value bytes).");
    report.add_note(&format!(
        "Separation only applies to values >= {threshold} B; smaller rows are the no-regression control."
    ));
    report.print();
}

/// `--compression-sweep`: fillrandom + readrandom at compressibility 0.25
/// and 1.0, block/vlog compression off vs on, a fresh store per cell. The
/// interesting numbers are the "bytes ratio" column — device bytes written
/// with compression off over on, which should clear ~1.8x for the
/// 0.25-compressible cell and sit at ~1.0x for the incompressible one — and
/// the read KOps columns, where decompression should hold at or above
/// parity because the block cache only holds uncompressed bytes.
fn run_compression_sweep(args: &Args) {
    let engine = EngineKind::from_flag(&args.get_str("engine", "pebblesdb"))
        .expect("unknown --engine (pebblesdb|pebblesdb-1|hyperleveldb|leveldb|rocksdb|btree)");
    let threads = args.get_u64("threads", 1) as usize;
    let scale = args.get_u64("scale-divisor", 16) as usize;
    let keys = args.get_u64("keys", 20_000);
    let value_size = args.get_u64("value-size", 1024) as usize;
    let write_latency_us = args.get_u64("write-latency-us", 0);

    let mut report = Report::new(
        &format!(
            "compression sweep — {} (fillrandom + readrandom, {keys} keys, {value_size} B values)",
            engine.name()
        ),
        vec![
            "compressibility".to_string(),
            "off fill KOps/s".to_string(),
            "off write IO".to_string(),
            "on fill KOps/s".to_string(),
            "on write IO".to_string(),
            "bytes ratio".to_string(),
            "off read KOps/s".to_string(),
            "on read KOps/s".to_string(),
        ],
    );

    for compressibility in [0.25f64, 1.0] {
        let mut cells = Vec::new();
        for compression in [CompressionType::None, CompressionType::Lz] {
            let (env, mem_env, dir) = open_bench_env_full(
                &args.get_str("env", "mem"),
                engine,
                &args.get_str("dir", ""),
            );
            if write_latency_us > 0 {
                if let Some(mem) = &mem_env {
                    mem.set_write_latency_micros_for(".sst", write_latency_us);
                }
            }
            let mut options = scaled_options(engine, scale);
            options.compression = compression;
            // Size the block cache for the working set: the cache holds
            // uncompressed bytes by design, so once warm, reads cost the
            // same with compression on or off — that is the property the
            // read columns measure (the cold-miss decompression cost shows
            // up separately in the decompress_micros stat).
            options.block_cache_capacity = ((keys as usize * (16 + value_size)) * 2).max(8 << 20);
            let store = open_engine_with_options(engine, env, &dir, options).expect("open engine");
            let shards = std::slice::from_ref(&store);
            let fill = Workload::FillRandom
                .run_sharded_compressible(shards, keys, 16, value_size, threads, compressibility)
                .expect("run fillrandom");
            store.flush().expect("flush after fill");
            // Warm the cache with one full scan so readrandom measures
            // steady-state reads, not first-touch block loads.
            let mut iter = store
                .iter(&pebblesdb_common::ReadOptions::default())
                .expect("open warming iterator");
            iter.seek_to_first();
            while iter.valid() {
                std::hint::black_box((iter.key(), iter.value()));
                iter.next();
            }
            drop(iter);
            let read = Workload::ReadRandom
                .run_sharded_compressible(
                    shards,
                    (keys / 2).max(1),
                    16,
                    value_size,
                    threads,
                    compressibility,
                )
                .expect("run readrandom");
            cells.push((fill, read));
        }
        let (off_fill, off_read) = &cells[0];
        let (on_fill, on_read) = &cells[1];
        report.add_row(vec![
            format!("{compressibility}"),
            format_kops(off_fill.kops_per_second()),
            format_mib(off_fill.bytes_written),
            format_kops(on_fill.kops_per_second()),
            format_mib(on_fill.bytes_written),
            if on_fill.bytes_written > 0 {
                format!(
                    "{:.2}x",
                    off_fill.bytes_written as f64 / on_fill.bytes_written as f64
                )
            } else {
                "-".to_string()
            },
            format_kops(off_read.kops_per_second()),
            format_kops(on_read.kops_per_second()),
        ]);
    }
    report.add_note("'bytes ratio' is device bytes written with compression off over on: >1 means the codec saved real IO.");
    report.add_note("Compressibility is the fraction an ideal codec shrinks each value to; 1.0 is fully random (the no-regression control).");
    report.print();
}

fn main() {
    let args = Args::parse();
    if args.has_flag("value-sweep") {
        run_value_sweep(&args);
        return;
    }
    if args.has_flag("compression-sweep") {
        run_compression_sweep(&args);
        return;
    }
    let keys = args.get_u64("keys", 50_000);
    let value_size = args.get_u64("value-size", 1024) as usize;
    let threads = args.get_u64("threads", 1) as usize;
    let scale = args.get_u64("scale-divisor", 16) as usize;
    let engine = EngineKind::from_flag(&args.get_str("engine", "pebblesdb"))
        .expect("unknown --engine (pebblesdb|pebblesdb-1|hyperleveldb|leveldb|rocksdb|btree)");
    let benchmarks = args.get_str("benchmarks", "fillrandom,readrandom,seekrandom");

    let (env, mem_env, dir) = open_bench_env_full(
        &args.get_str("env", "mem"),
        engine,
        &args.get_str("dir", ""),
    );
    // Emulate a slow device for sstable writes (flushes + compactions pay
    // it, the WAL does not). Only meaningful with the in-memory env; this is
    // how compaction-parallelism wins are made visible on a machine whose
    // page cache would otherwise absorb all compaction IO.
    let write_latency_us = args.get_u64("write-latency-us", 0);
    if write_latency_us > 0 {
        if let Some(mem) = &mem_env {
            mem.set_write_latency_micros_for(".sst", write_latency_us);
        } else {
            eprintln!("--write-latency-us is only supported with --env mem");
        }
    }
    let mut options = scaled_options(engine, scale);
    // 0 keeps the preset's pool size (PebblesDB: 2, baselines: 1).
    let compaction_threads = args.get_u64("compaction-threads", 0) as usize;
    if compaction_threads > 0 {
        options.compaction_threads = compaction_threads;
    }
    // 0 (the default) keeps key-value separation off; any other value is the
    // minimum value size, in bytes, that goes to the per-family value log.
    options.value_separation_threshold = args.get_u64("value-separation-threshold", 0) as usize;
    // `--compression on|off` (also accepts lz/none) toggles block + vlog
    // compression; `--compressibility R` makes generated values shrink to
    // ~R of their size under an ideal codec (1.0 = fully random).
    options.compression = CompressionType::parse(&args.get_str("compression", "off"))
        .expect("unknown --compression (on|off|lz|none)");
    let compressibility = args.get_f64("compressibility", 1.0);
    // `--cfs N` round-robins the key stream over N column families of one
    // database: shard 0 is the default family, shards 1..N are created. With
    // N = 1 the run is byte-for-byte the single-namespace benchmark.
    let cfs = args.get_u64("cfs", 1).max(1) as usize;
    // `--shards N` opens the engine as a ShardedDb of N instances. 0 (the
    // default) opens the plain engine; `--shards 1` goes through the
    // sharded facade with one shard, so 1-vs-N comparisons isolate the
    // scaling win from the coordinator's fixed overhead.
    let shard_count = args.get_u64("shards", 0) as usize;
    let partitioner = pebblesdb_shard::PartitionerKind::parse(&args.get_str("partitioner", "hash"))
        .expect("unknown --partitioner (hash|range)");
    let db: Arc<dyn Db> = if shard_count > 0 {
        let config = pebblesdb_shard::ShardConfig {
            shards: shard_count,
            partitioner,
        };
        open_sharded_db_with_options(engine, env, &dir, options.clone(), config)
            .expect("open sharded engine")
    } else {
        open_db_with_options(engine, env, &dir, options.clone()).expect("open engine")
    };
    let mut shards: Vec<Arc<dyn KvStore>> = vec![Arc::clone(&db) as Arc<dyn KvStore>];
    for i in 1..cfs {
        // `cf_or_create` keeps reruns against an existing --dir working:
        // the families persist in the database's catalog.
        shards.push(Arc::new(
            db.cf_or_create(&format!("cf{i}"))
                .expect("create column family"),
        ));
    }

    let sharding = if shard_count > 0 {
        format!(", {shard_count} {} shards", partitioner.name())
    } else {
        String::new()
    };
    let mut report = Report::new(
        &format!(
            "db_bench — {} ({keys} keys, {value_size} B values, {threads} threads, {} compaction threads, {cfs} column families{sharding})",
            engine.name(),
            options.compaction_threads
        ),
        vec![
            "benchmark".to_string(),
            "KOps/s".to_string(),
            "ops".to_string(),
            "write IO".to_string(),
            "read IO".to_string(),
            "write amp".to_string(),
            "stall ms".to_string(),
            "max conc".to_string(),
            "cache hit%".to_string(),
        ],
    );

    for name in benchmarks.split(',') {
        let Some(workload) = workload_from_name(name.trim()) else {
            eprintln!("skipping unknown benchmark {name:?}");
            continue;
        };
        let ops = match workload {
            Workload::ReadRandom
            | Workload::SeekRandom
            | Workload::RangeQuery { .. }
            | Workload::MixedScanWrite { .. } => keys / 2,
            _ => keys,
        }
        .max(1);
        let result = workload
            .run_sharded_compressible(&shards, ops, 16, value_size, threads, compressibility)
            .expect("run workload");
        report.add_row(vec![
            result.name.clone(),
            format_kops(result.kops_per_second()),
            result.operations.to_string(),
            format_mib(result.bytes_written),
            format_mib(result.bytes_read),
            format_ratio(result.write_amplification()),
            format!("{:.1}", result.stall_micros as f64 / 1000.0),
            result.max_concurrent_compactions.to_string(),
            result
                .block_cache_hit_pct()
                .map(|pct| format!("{pct:.1}%"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
        db.flush().expect("flush between benchmarks");
    }
    report.add_note("Figure 5.1(b) of the paper runs fillseq/fillrandom/readrandom/seekrandom/deleterandom with 16 B keys and 1 KiB values.");
    report.add_note("'max conc' is the store-lifetime high-water mark of concurrently running compaction jobs (>1 means per-guard jobs overlapped).");
    report.add_note("'cache hit%' is the block-cache hit rate over the benchmark interval ('-' when the cache was never consulted, e.g. pure fills).");
    report.print();

    if cfs > 1 {
        // Per-family breakdown, so one namespace's compaction debt cannot
        // hide behind another's in the aggregate table above. The columns
        // come from the shared field list, so this table, the server's INFO
        // command and the Prometheus endpoint always show the same fields.
        let cf_stats = db.cf_stats();
        let mut header = vec!["family".to_string()];
        if let Some(first) = cf_stats.first() {
            header.extend(first.fields().iter().map(|f| f.name.to_string()));
        }
        let mut cf_report = Report::new("per column family", header);
        for cf in cf_stats {
            let mut row = vec![cf.name.clone()];
            row.extend(cf.fields().iter().map(|f| f.human_value()));
            cf_report.add_row(row);
        }
        cf_report.print();
    }

    // Per-shard breakdown (transposed: one column per shard) so a skewed
    // partitioner or a straggling shard is visible next to the aggregate.
    // Field names and order come from the same shared list as INFO and the
    // Prometheus endpoint.
    let shard_stats = db.shard_stats();
    if !shard_stats.is_empty() {
        let mut header = vec!["stat".to_string()];
        header.extend((0..shard_stats.len()).map(|i| format!("shard {i}")));
        let mut shard_report = Report::new("per shard", header);
        let per_shard_fields: Vec<Vec<pebblesdb_common::StatField>> =
            shard_stats.iter().map(StoreStats::fields).collect();
        for (row_idx, field) in per_shard_fields[0].iter().enumerate() {
            let mut row = vec![field.name.to_string()];
            row.extend(
                per_shard_fields
                    .iter()
                    .map(|fields| fields[row_idx].human_value()),
            );
            shard_report.add_row(row);
        }
        shard_report.print();
    }
}
