//! Component probes: the leaf crates called directly, on the key and value
//! shape of the probe's home workload, for a fraction of a second each in
//! the traced run. They bound what a faster leaf can give `engine.op_self_us`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use pebblesdb_bench::keygen::bench_value_compressible;
use pebblesdb_bench::{scaled_options, EngineKind};
use pebblesdb_bloom::BloomFilterPolicy;
use pebblesdb_common::key::{encode_internal_key, LookupKey, ValueType};
use pebblesdb_common::resp::{RespCodec, RespLimits, RespValue};
use pebblesdb_common::{DbIterator, ReadOptions, Result, StoreOptions, MAX_SEQUENCE_NUMBER};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_server::{ServerCounters, Session, SessionOptions};
use pebblesdb_skiplist::MemTable;
use pebblesdb_sstable::table::BlockCache;
use pebblesdb_sstable::{Table, TableBuilder};
use pebblesdb_wal::LogWriter;

use super::gen::{bench_key, stream_rng, Stream, ValueGen, ENTRY_BYTES};
use super::measure::percentile_us;
use super::metrics::Metrics;
use super::stores::{Store, SCALE_DIVISOR};

/// Entries a 256 KiB memtable (and so a flushed sstable) holds.
const MEMTABLE_ENTRIES: u64 = (256 << 10) / ENTRY_BYTES;
/// Entries of the sstable the table probes read: 2 MiB, as a compaction
/// output at the scaled `max_file_size` would be.
const TABLE_ENTRIES: u64 = 2_000;
/// Size of the block the codec probes run on.
const BLOCK_LEN: usize = 4096;
/// Value lane of the session probe's SETs, apart from the connections'.
const NET_PROBE_LANE: u64 = 7;

/// Calls `op(i)` for `i = 0, 1, ...` in batches until `budget` is spent;
/// returns nanoseconds per call, or the first error `op` returned.
fn ns_per_call(budget: Duration, batch: u64, mut op: impl FnMut(u64) -> Result<()>) -> Result<f64> {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        for i in 0..batch {
            op(calls + i)?;
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return Ok(elapsed.as_nanos() as f64 / calls as f64);
        }
    }
}

fn mib_per_second(bytes_per_call: f64, ns_per_call: f64) -> f64 {
    bytes_per_call / (1 << 20) as f64 / (ns_per_call / 1e9)
}

fn options() -> StoreOptions {
    scaled_options(EngineKind::PebblesDb, SCALE_DIVISOR)
}

/// A generated value (for key 0).
fn probe_value(seed: u64) -> Vec<u8> {
    let mut value = Vec::new();
    ValueGen::new(seed, 0).fill(&mut value, 0, 0);
    value
}

fn filled_memtable(value: &[u8]) -> MemTable {
    let mem = MemTable::new();
    for key in 0..MEMTABLE_ENTRIES {
        mem.add(key + 1, ValueType::Value, &bench_key(key), value);
    }
    mem
}

/// Builds an sstable of `entries` bench keys at `path`; returns its size.
fn build_table(env: &MemEnv, path: &Path, entries: u64, value: &[u8]) -> Result<u64> {
    let mut builder = TableBuilder::new(&options(), env.new_writable_file(path)?);
    for key in 0..entries {
        builder.add(
            &encode_internal_key(&bench_key(key), 1, ValueType::Value),
            value,
        )?;
    }
    builder.finish()
}

fn open_table(
    env: &MemEnv,
    path: &Path,
    size: u64,
    cache: Option<Arc<BlockCache>>,
) -> Result<Arc<Table>> {
    Ok(Arc::new(Table::open(
        &options(),
        env.new_random_access_file(path)?,
        size,
        1,
        cache,
    )?))
}

fn compressible_block(rng: &mut StdRng) -> Vec<u8> {
    bench_value_compressible(0, BLOCK_LEN, 0.25, rng)
}

/// Probes of `write_heavy`: memtable insert, WAL append, filter and table
/// build, compression.
pub fn write_path(metrics: &mut Metrics, seed: u64, budget: Duration) -> Result<()> {
    let mut rng = stream_rng(seed, Stream::Probes);
    let value = probe_value(seed);

    // A memtable is replaced when it reaches the write buffer size, as the
    // engine rotates it.
    let mut mem = MemTable::new();
    metrics.set(
        "skiplist.insert_ns",
        ns_per_call(budget, MEMTABLE_ENTRIES, |i| {
            if i % MEMTABLE_ENTRIES == 0 {
                mem = MemTable::new();
            }
            mem.add(
                i + 1,
                ValueType::Value,
                &bench_key(rng.gen_range(0..1 << 20)),
                &value,
            );
            Ok(())
        })?,
    );

    // One record per put, as the commit path writes them; the log file is
    // replaced every 1024 records so it stays small.
    let env = MemEnv::new();
    let record = vec![0xa5u8; ENTRY_BYTES as usize + 12];
    let wal_path = Path::new("/probe.log");
    let mut writer = LogWriter::new(env.new_writable_file(wal_path)?);
    let mut records = 0u64;
    let ns = ns_per_call(budget, 1024, |i| {
        if i % 1024 == 0 {
            writer = LogWriter::new(env.new_writable_file(wal_path)?);
        }
        records += 1;
        writer.add_record(&record)
    })?;
    metrics.set("wal.add_record_ns", ns);
    metrics.set(
        "wal.overhead_ratio",
        env.io_stats().bytes_written() as f64 / (records * record.len() as u64) as f64,
    );

    let keys: Vec<Vec<u8>> = (0..MEMTABLE_ENTRIES).map(bench_key).collect();
    let policy = BloomFilterPolicy::new(options().bloom_bits_per_key);
    let ns = ns_per_call(budget, 1, |_| {
        std::hint::black_box(policy.create_filter(std::hint::black_box(&keys)));
        Ok(())
    })?;
    metrics.set("bloom.build_ns_per_key", ns / keys.len() as f64);

    let block = compressible_block(&mut rng);
    let ns = ns_per_call(budget, 16, |_| {
        std::hint::black_box(pebblesdb_compress::compress(std::hint::black_box(&block)));
        Ok(())
    })?;
    metrics.set(
        "compress.compress_mib_s",
        mib_per_second(block.len() as f64, ns),
    );
    metrics.set(
        "compress.ratio",
        pebblesdb_compress::compress(&block).len() as f64 / block.len() as f64,
    );

    // A flush-sized table, built again and again over the same file.
    let table_path = Path::new("/probe.sst");
    let mut size = 0;
    let ns = ns_per_call(budget, 1, |_| {
        size = build_table(&env, table_path, MEMTABLE_ENTRIES, &value)?;
        Ok(())
    })?;
    metrics.set("sstable.build_mib_s", mib_per_second(size as f64, ns));
    Ok(())
}

/// Probes of `read_point`: memtable lookup, filter probe, decompression,
/// table lookup with and without the block cache.
pub fn read_path(metrics: &mut Metrics, seed: u64, budget: Duration) -> Result<()> {
    let mut rng = stream_rng(seed, Stream::Probes);
    let value = probe_value(seed);

    let mem = filled_memtable(&value);
    metrics.set(
        "skiplist.get_ns",
        ns_per_call(budget, 256, |_| {
            let key = bench_key(rng.gen_range(0..MEMTABLE_ENTRIES));
            std::hint::black_box(mem.get(&LookupKey::new(&key, MAX_SEQUENCE_NUMBER)));
            Ok(())
        })?,
    );

    let keys: Vec<Vec<u8>> = (0..MEMTABLE_ENTRIES).map(bench_key).collect();
    let policy = BloomFilterPolicy::new(options().bloom_bits_per_key);
    let filter = policy.create_filter(&keys);
    metrics.set(
        "bloom.may_match_ns",
        ns_per_call(budget, 256, |i| {
            std::hint::black_box(
                policy.key_may_match(&keys[(i % MEMTABLE_ENTRIES) as usize], &filter),
            );
            Ok(())
        })?,
    );
    let absent = 100_000u64;
    let false_positives = (0..absent)
        .filter(|i| policy.key_may_match(&bench_key(MEMTABLE_ENTRIES + i), &filter))
        .count();
    metrics.set(
        "bloom.false_positive_ratio",
        false_positives as f64 / absent as f64,
    );

    let block = compressible_block(&mut rng);
    let compressed = pebblesdb_compress::compress(&block);
    let ns = ns_per_call(budget, 16, |_| {
        let block = pebblesdb_compress::decompress(std::hint::black_box(&compressed), BLOCK_LEN)?;
        std::hint::black_box(block);
        Ok(())
    })?;
    metrics.set(
        "compress.decompress_mib_s",
        mib_per_second(block.len() as f64, ns),
    );

    let env = MemEnv::new();
    let path = Path::new("/probe.sst");
    let size = build_table(&env, path, TABLE_ENTRIES, &value)?;
    let cache = Arc::new(BlockCache::new(2 * size as usize));
    for (name, table) in [
        (
            "sstable.get_cached_ns",
            open_table(&env, path, size, Some(cache))?,
        ),
        (
            "sstable.get_uncached_ns",
            open_table(&env, path, size, None)?,
        ),
    ] {
        let mut get = |_| {
            let key = bench_key(rng.gen_range(0..TABLE_ENTRIES));
            let target = encode_internal_key(&key, MAX_SEQUENCE_NUMBER, ValueType::Value);
            std::hint::black_box(table.get(&ReadOptions::default(), &target)?);
            Ok(())
        };
        // One pass over the keys first, so the cached table's blocks are in.
        (0..2 * TABLE_ENTRIES).try_for_each(&mut get)?;
        metrics.set(name, ns_per_call(budget, 64, &mut get)?);
    }
    Ok(())
}

/// Probes of `range_scan`: memtable and table iteration.
pub fn scan_path(metrics: &mut Metrics, seed: u64, budget: Duration) -> Result<()> {
    let mut rng = stream_rng(seed, Stream::Probes);
    let value = probe_value(seed);

    let mem = filled_memtable(&value);
    let mut iter = mem.iter();
    metrics.set(
        "skiplist.iter_next_ns",
        ns_per_call(budget, 64, |_| {
            if iter.valid() {
                iter.next();
            } else {
                iter.seek_to_first();
            }
            Ok(())
        })?,
    );

    let env = MemEnv::new();
    let path = Path::new("/probe.sst");
    let size = build_table(&env, path, TABLE_ENTRIES, &value)?;
    let cache = Arc::new(BlockCache::new(2 * size as usize));
    let table = open_table(&env, path, size, Some(cache))?;
    let mut iter = table.iter(&ReadOptions::default());
    iter.seek_to_first();
    while iter.valid() {
        iter.next();
    }
    metrics.set(
        "sstable.iter_seek_ns",
        ns_per_call(budget, 64, |_| {
            let key = bench_key(rng.gen_range(0..TABLE_ENTRIES));
            iter.seek(&encode_internal_key(
                &key,
                MAX_SEQUENCE_NUMBER,
                ValueType::Value,
            ));
            Ok(())
        })?,
    );
    metrics.set(
        "sstable.iter_next_ns",
        ns_per_call(budget, 64, |_| {
            if iter.valid() {
                iter.next();
            } else {
                iter.seek_to_first();
            }
            Ok(())
        })?,
    );
    iter.status()
}

/// Probes of `net_mixed`: the RESP codec, and `Session::execute` called in
/// process on the workload's own store, without a socket. `client_p50_us`
/// is what the connections saw; the difference is the wire.
pub fn wire_path(
    metrics: &mut Metrics,
    store: &Store,
    keys: u64,
    client_p50_us: f64,
    seed: u64,
    budget: Duration,
) -> Result<()> {
    let mut rng = stream_rng(seed, Stream::Probes);
    let mut values = ValueGen::new(seed, NET_PROBE_LANE);
    let mut value = probe_value(seed);

    let key = bench_key(0);
    let mut frame = Vec::new();
    metrics.set(
        "resp.encode_ns",
        ns_per_call(budget, 64, |_| {
            frame.clear();
            RespValue::command(&[b"SET", &key, &value]).encode_into(&mut frame);
            Ok(())
        })?,
    );
    let mut codec = RespCodec::new(RespLimits::default());
    let ns = ns_per_call(budget, 64, |_| {
        codec.feed(&frame);
        std::hint::black_box(codec.next_frame()?);
        Ok(())
    })?;
    metrics.set("resp.decode_ns", ns);

    let mut session = Session::new(
        store.db(),
        Arc::new(ServerCounters::default()),
        None,
        None,
        SessionOptions::default(),
    );
    let (mut gets, mut sets) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + budget * 2;
    let mut at = Instant::now();
    while at < deadline {
        let index = rng.gen_range(0..keys);
        let key = bench_key(index);
        let set = rng.gen_bool(0.5);
        let args = if set {
            values.fill(&mut value, index, NET_PROBE_LANE << 32);
            vec![b"SET".to_vec(), key, value.clone()]
        } else {
            vec![b"GET".to_vec(), key]
        };
        at = Instant::now();
        let reply = session.execute(args);
        let end = Instant::now();
        if let RespValue::Error(msg) = reply {
            return Err(pebblesdb_common::Error::internal(format!(
                "session probe: {msg}"
            )));
        }
        let ns = (end - at).as_nanos().min(u32::MAX as u128) as u32;
        if set { &mut sets } else { &mut gets }.push(ns);
        at = end;
    }
    gets.sort_unstable();
    sets.sort_unstable();
    metrics.set("server.session_get_us", percentile_us(&gets, 50.0));
    metrics.set("server.session_set_us", percentile_us(&sets, 50.0));
    let mut all = gets;
    all.extend(sets);
    all.sort_unstable();
    metrics.set("server.wire_us", client_p50_us - percentile_us(&all, 50.0));
    Ok(())
}
