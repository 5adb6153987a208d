//! The engine-agnostic key-value store interface.
//!
//! The benchmark harness, the YCSB runner and the application layers operate
//! on `dyn KvStore` so the same workload can be pointed at PebblesDB, the
//! baseline LSM presets or the B+Tree engine — mirroring how the paper runs
//! identical workloads against different stores.
//!
//! The interface is snapshot-aware and cursor-based:
//!
//! * [`KvStore::snapshot`] pins a consistent point-in-time view (a sequence
//!   number, released RAII-style when the handle drops),
//! * every read and write has an options-taking form ([`KvStore::get_opts`],
//!   [`KvStore::put_opts`], [`KvStore::write_opts`], ...) with the plain
//!   methods provided as default-option wrappers, and
//! * [`KvStore::iter`] returns a streaming [`DbIterator`] cursor over user
//!   keys, which the provided [`KvStore::scan`] drives — so range-query
//!   semantics (notably "empty `end` means unbounded") are defined once,
//!   here, and not re-decided per engine.

use crate::batch::WriteBatch;
use crate::error::Result;
use crate::iterator::DbIterator;
use crate::options::{ReadOptions, WriteOptions};
use crate::snapshot::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};

crate::stat_table! {
    /// Aggregate statistics a store exposes for the evaluation harness.
    ///
    /// `write_amplification()` is the paper's headline metric: total bytes the
    /// store wrote to the device divided by the bytes of user data handed to it.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct StoreStats {}
    /// The atomic cells behind the `counter` rows: one per store, bumped with
    /// `Relaxed` on the hot paths by the engine and by every component that
    /// works on its behalf (table builders, block readers, vlog appenders
    /// reach it through [`StoreOptions::counters`](crate::StoreOptions)).
    #[derive(Debug, Default)]
    pub sink EngineCounters {
        /// Level-compaction jobs currently running (claimed but not
        /// committed); feeds `max_concurrent_compactions`.
        pub active_compactions: AtomicU64,
    }
    rows {
        /// Bytes of user data (keys + values) accepted through the write path.
        counter user_bytes_written: Bytes, Sum;
        /// Total bytes written to storage (WAL + sstables/pages + metadata).
        computed bytes_written: Bytes, Shared;
        /// Total bytes read from storage.
        computed bytes_read: Bytes, Shared;
        /// Bytes currently live on disk (space amplification numerator).
        computed disk_bytes_live: Bytes, Sum;
        /// Number of live data files (sstables or b-tree page files).
        computed num_files: Count, Sum;
        /// Number of completed compactions, including memtable flushes (or
        /// checkpoints for the B+Tree).
        counter compactions: Count, Sum;
        /// Number of completed memtable flushes (imm -> level 0). Engines
        /// without a flush path report 0.
        counter flushes: Count, Sum;
        /// Largest number of compaction jobs ever running at the same instant.
        /// With the per-guard compaction pool this exceeds 1 whenever two
        /// disjoint guard subsets were compacted concurrently.
        counter max_concurrent_compactions: Count, Max;
        /// Total wall-clock time spent in compaction, in microseconds.
        counter compaction_micros: Micros, Sum;
        /// Bytes read by compactions.
        counter compaction_bytes_read: Bytes, Sum;
        /// Bytes written by compactions.
        counter compaction_bytes_written: Bytes, Sum;
        /// Approximate resident memory the store controls (memtables, bloom
        /// filters, block cache), in bytes.
        computed memory_usage_bytes: Bytes, Sum;
        /// Number of get operations served.
        counter gets: Count, Sum;
        /// Number of seek / range-query operations served.
        counter seeks: Count, Sum;
        /// Number of write stalls (level-0 slowdown or stop).
        counter write_stalls: Count, Sum;
        /// Total microseconds writers spent stalled — slowdown sleeps plus
        /// waits for memtable flushes and level-0 back-pressure (the duration
        /// companion to `write_stalls`; what the group-commit pipeline is
        /// meant to shrink).
        counter write_stall_micros: Micros, Sum;
        /// Block-cache lookups that were served from memory (sstable data
        /// blocks). Engines without a block cache report 0.
        computed block_cache_hits: Count, Sum;
        /// Block-cache lookups that had to read the device.
        computed block_cache_misses: Count, Sum;
        /// Table-cache lookups that found the sstable reader already open.
        computed table_cache_hits: Count, Sum;
        /// Table-cache lookups that had to open (and parse the footer of) the
        /// sstable.
        computed table_cache_misses: Count, Sum;
        /// Number of live column families (1 for single-namespace stores; see
        /// [`Db::cf_stats`](crate::cf::Db::cf_stats) for the per-family
        /// breakdown).
        computed num_column_families: Count, Shared;
        /// Number of independent shards serving this store (1 for plain
        /// engines; see [`Db::shard_stats`](crate::cf::Db::shard_stats) for the
        /// per-shard breakdown).
        computed num_shards: Count, Sum;
        /// Bytes appended to value-log files by key-value separation (0 when
        /// [`StoreOptions::value_separation_threshold`](crate::options::StoreOptions)
        /// is 0 or the engine has no value log).
        counter vlog_bytes_written: Bytes, Sum;
        /// Value-pointer resolutions served by an already-open vlog reader.
        counter vlog_cache_hits: Count, Sum;
        /// Value-pointer resolutions that had to open a vlog reader.
        counter vlog_cache_misses: Count, Sum;
        /// Live values relocated out of retiring vlog files by garbage
        /// collection.
        counter vlog_gc_relocations: Count, Sum;
        /// Background cleanup operations (obsolete-file deletes, dropped-family
        /// directory removal) that failed and were deferred to a later GC
        /// pass; the work is deferred, not lost, so this counter is how the
        /// failures stay observable.
        counter cleanup_failures: Count, Sum;
        /// Uncompressed bytes that ended up stored compressed (sstable
        /// data/index blocks plus separated vlog values; blocks kept raw for
        /// insufficient savings are excluded).
        counter compress_input_bytes: Bytes, Sum;
        /// Compressed bytes stored for those inputs; `output / input` is the
        /// achieved compression ratio.
        counter compress_output_bytes: Bytes, Sum;
        /// Blocks/values attempted but stored raw because compressing them
        /// saved less than the ~12.5% threshold.
        counter compress_skipped_blocks: Count, Sum;
        /// Total microseconds read paths spent decompressing blocks and values.
        counter decompress_micros: Micros, Sum;
        /// Replica stores: the sequence number of the last batch applied from
        /// the leader's change stream (0 on a primary).
        computed replica_applied_seq: Count, Max;
        /// Replica stores: sequences the leader had committed and not yet
        /// shipped to this replica, as last reported by the leader with a
        /// batch or a ping; zero iff the replica was caught up.
        computed replica_lag_seqs: Count, Max;
        /// Change streams (`Db::stream` cursors) currently open on this store.
        computed cdc_streams_active: Count, Sum;
        /// Bytes of committed batches handed to change streams (the WAL-shipping
        /// volume, counted once per stream that consumed each batch).
        counter wal_bytes_shipped: Bytes, Sum;
    }
}

impl StoreStats {
    /// Total write IO divided by user data written.
    ///
    /// Returns 0.0 when no user data has been written yet.
    pub fn write_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            self.bytes_written as f64 / self.user_bytes_written as f64
        }
    }

    /// Live on-disk bytes divided by user data written.
    pub fn space_amplification(&self) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            self.disk_bytes_live as f64 / self.user_bytes_written as f64
        }
    }
}

// A single counter is bumped in place
// (`counters.gets.fetch_add(1, Ordering::Relaxed)`); only events that move
// several cells together get a method here.
impl EngineCounters {
    /// Records one write stall that lasted `micros` microseconds.
    pub fn record_stall(&self, micros: u64) {
        self.write_stalls.fetch_add(1, Ordering::Relaxed);
        self.write_stall_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Marks a compaction job as running and returns how many are now
    /// in flight, updating the concurrency high-water mark.
    pub fn record_compaction_start(&self) -> u64 {
        let now = self.active_compactions.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_concurrent_compactions
            .fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Marks a compaction job as finished (committed or failed).
    pub fn record_compaction_end(&self) {
        self.active_compactions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one value-pointer resolution (`hit` = reader already open).
    pub fn record_vlog_resolution(&self, hit: bool) {
        if hit {
            self.vlog_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.vlog_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished compaction.
    pub fn record_compaction(&self, micros: u64, bytes_read: u64, bytes_written: u64) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compaction_micros.fetch_add(micros, Ordering::Relaxed);
        self.compaction_bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.compaction_bytes_written
            .fetch_add(bytes_written, Ordering::Relaxed);
    }

    /// Records one block or value stored compressed: `input` bytes in,
    /// `output` bytes stored.
    pub fn record_compressed(&self, input: u64, output: u64) {
        self.compress_input_bytes
            .fetch_add(input, Ordering::Relaxed);
        self.compress_output_bytes
            .fetch_add(output, Ordering::Relaxed);
    }
}

/// A key-value store, as defined in section 2.1 of the paper: `put`, `get`,
/// deletion, and iterator-style range queries — extended with snapshots and
/// per-operation options.
///
/// # Cursors
///
/// [`KvStore::iter`] returns a [`DbIterator`] over **user** keys: `seek`
/// takes a user key, `key()`/`value()` surface the newest visible version of
/// each live key, and tombstones are never surfaced. The cursor is a
/// consistent view as of its creation (or as of
/// [`ReadOptions::snapshot`] when set); writes issued afterwards are not
/// observed.
///
/// # Snapshots
///
/// [`KvStore::snapshot`] pins the store's current sequence number. Reads
/// issued with that sequence in [`ReadOptions::snapshot`] — most conveniently
/// via [`Snapshot::read_options`] — see exactly the data that was committed
/// when the snapshot was taken, regardless of later writes, flushes or
/// compactions. Dropping the handle releases the pin so compaction can
/// eventually drop the obsolete versions.
pub trait KvStore: Send + Sync {
    /// Stores `key -> value` with explicit write options.
    fn put_opts(&self, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()>;

    /// Returns the value for `key` visible under `opts` (honouring
    /// [`ReadOptions::snapshot`]), or `None` if absent or deleted.
    fn get_opts(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Removes `key` from the store with explicit write options.
    fn delete_opts(&self, opts: &WriteOptions, key: &[u8]) -> Result<()>;

    /// Applies every operation in `batch` atomically with explicit write
    /// options.
    fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()>;

    /// Returns a streaming cursor over the store's user keys.
    ///
    /// The cursor observes the state as of its creation, or as of
    /// [`ReadOptions::snapshot`] when set. Callers drive it lazily with
    /// `seek` / `next` / `prev` instead of receiving a materialised vector.
    fn iter(&self, opts: &ReadOptions) -> Result<Box<dyn DbIterator>>;

    /// Pins the current state of the store as a [`Snapshot`].
    fn snapshot(&self) -> Snapshot;

    /// Flushes in-memory writes to storage and waits for any resulting
    /// urgent compaction to finish. Used between benchmark phases.
    fn flush(&self) -> Result<()>;

    /// Current statistics snapshot.
    fn stats(&self) -> StoreStats;

    /// A short engine name used in benchmark output (for example
    /// `"PebblesDB"` or `"LevelDB"`).
    fn engine_name(&self) -> String;

    /// Stores `key -> value`, overwriting any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.put_opts(&WriteOptions::default(), key, value)
    }

    /// Returns the latest value for `key`, or `None` if absent or deleted.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_opts(&ReadOptions::default(), key)
    }

    /// Removes `key` from the store.
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.delete_opts(&WriteOptions::default(), key)
    }

    /// Applies every operation in `batch` atomically.
    fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opts(&WriteOptions::default(), batch)
    }

    /// Returns up to `limit` key/value pairs with `start <= key < end`, in
    /// ascending key order. An empty `end` means "no upper bound" — this is
    /// the one place that convention is defined; engines do not override
    /// `scan`.
    ///
    /// This is the paper's `range_query(key1, key2)`, implemented as a seek
    /// followed by next calls on the [`KvStore::iter`] cursor.
    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_opts(&ReadOptions::default(), start, end, limit)
    }

    /// [`KvStore::scan`] with explicit read options (e.g. a snapshot).
    fn scan_opts(
        &self,
        opts: &ReadOptions,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut iter = self.iter(opts)?;
        iter.seek(start);
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        // One key buffer serves each entry: `iter.key()` — a virtual call
        // through the pin/user/merge iterator stack — is read exactly once
        // per entry into the buffer, which serves the bound check and is
        // then *moved* into the result, so the key bytes are copied once
        // and never re-copied on acceptance.
        let mut key_buf: Vec<u8> = Vec::new();
        while iter.valid() && out.len() < limit {
            key_buf.clear();
            key_buf.extend_from_slice(iter.key());
            if !end.is_empty() && key_buf.as_slice() >= end {
                break;
            }
            out.push((std::mem::take(&mut key_buf), iter.value().to_vec()));
            iter.next();
        }
        // A cursor that hit corruption or an IO error stops early; surface
        // that instead of returning a silently truncated result.
        iter.status()?;
        Ok(out)
    }

    /// Sizes (bytes) of the live data files, for the sstable-size
    /// distribution experiment (Table 5.1 of the paper).
    ///
    /// Engines without a file-per-run layout may return an empty vector.
    fn live_file_sizes(&self) -> Vec<u64> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::{BytewiseOrder, VecIterator};
    use crate::snapshot::SnapshotList;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    #[test]
    fn write_amplification_is_ratio_of_device_to_user_bytes() {
        let stats = StoreStats {
            user_bytes_written: 100,
            bytes_written: 420,
            ..Default::default()
        };
        assert!((stats.write_amplification() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn amplification_of_empty_store_is_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.write_amplification(), 0.0);
        assert_eq!(stats.space_amplification(), 0.0);
    }

    #[test]
    fn space_amplification_uses_live_bytes() {
        let stats = StoreStats {
            user_bytes_written: 200,
            disk_bytes_live: 300,
            ..Default::default()
        };
        assert!((stats.space_amplification() - 1.5).abs() < 1e-9);
    }

    /// A minimal store exercising the provided-method defaults.
    #[derive(Default)]
    struct TinyStore {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
        snapshots: Arc<SnapshotList>,
    }

    impl KvStore for TinyStore {
        fn put_opts(&self, _opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get_opts(&self, _opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().unwrap().get(key).cloned())
        }
        fn delete_opts(&self, _opts: &WriteOptions, key: &[u8]) -> Result<()> {
            self.map.lock().unwrap().remove(key);
            Ok(())
        }
        fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
            for record in batch.iter() {
                let record = record?;
                match record.value_type {
                    crate::ValueType::Value => self.put_opts(opts, record.key, record.value)?,
                    crate::ValueType::Deletion => self.delete_opts(opts, record.key)?,
                    crate::ValueType::ValuePointer => {
                        return Err(crate::Error::invalid_argument(
                            "value-pointer records are engine-internal",
                        ))
                    }
                }
            }
            Ok(())
        }
        fn iter(&self, _opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
            let entries: Vec<_> = self
                .map
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            Ok(Box::new(VecIterator::<BytewiseOrder>::with_order(entries)))
        }
        fn snapshot(&self) -> Snapshot {
            self.snapshots.acquire(0)
        }
        fn flush(&self) -> Result<()> {
            Ok(())
        }
        fn stats(&self) -> StoreStats {
            StoreStats::default()
        }
        fn engine_name(&self) -> String {
            "TinyStore".to_string()
        }
    }

    #[test]
    fn provided_methods_wrap_the_opts_forms() {
        let store = TinyStore::default();
        store.put(b"a", b"1").unwrap();
        store.put(b"b", b"2").unwrap();
        store.put(b"c", b"3").unwrap();
        assert_eq!(store.get(b"b").unwrap(), Some(b"2".to_vec()));
        store.delete(b"b").unwrap();
        assert_eq!(store.get(b"b").unwrap(), None);

        let mut batch = WriteBatch::new();
        batch.put(b"d", b"4");
        batch.delete(b"a");
        store.write(batch).unwrap();
        assert_eq!(store.get(b"d").unwrap(), Some(b"4".to_vec()));
        assert_eq!(store.get(b"a").unwrap(), None);
    }

    #[test]
    fn default_scan_enforces_empty_end_is_unbounded() {
        let store = TinyStore::default();
        for i in 0..10u8 {
            store.put(&[b'k', b'0' + i], &[i]).unwrap();
        }
        // Bounded scan: [k2, k5).
        let got = store.scan(b"k2", b"k5", 100).unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![b"k2".to_vec(), b"k3".to_vec(), b"k4".to_vec()]
        );
        // Empty end: unbounded.
        let got = store.scan(b"k7", &[], 100).unwrap();
        assert_eq!(got.len(), 3);
        // Limit is respected.
        let got = store.scan(b"", &[], 4).unwrap();
        assert_eq!(got.len(), 4);
        // Zero limit yields nothing.
        assert!(store.scan(b"", &[], 0).unwrap().is_empty());
    }

    #[test]
    fn counters_accumulate_independently() {
        let counters = EngineCounters::default();
        counters
            .user_bytes_written
            .fetch_add(100, Ordering::Relaxed);
        counters.user_bytes_written.fetch_add(20, Ordering::Relaxed);
        counters.gets.fetch_add(1, Ordering::Relaxed);
        counters.record_stall(40);
        counters.record_stall(2);
        counters.record_compaction(500, 1000, 2000);
        counters.record_compaction(250, 10, 20);
        counters.record_vlog_resolution(true);
        counters.record_vlog_resolution(false);
        counters.record_vlog_resolution(false);
        counters.record_compressed(4096, 1024);

        // `snapshot_into` fills exactly the counter rows; a computed row
        // keeps what the caller put there.
        let mut stats = StoreStats {
            bytes_written: 77,
            ..Default::default()
        };
        counters.snapshot_into(&mut stats);
        let expected = StoreStats {
            bytes_written: 77,
            user_bytes_written: 120,
            gets: 1,
            write_stalls: 2,
            write_stall_micros: 42,
            compactions: 2,
            compaction_micros: 750,
            compaction_bytes_read: 1010,
            compaction_bytes_written: 2020,
            vlog_cache_hits: 1,
            vlog_cache_misses: 2,
            compress_input_bytes: 4096,
            compress_output_bytes: 1024,
            ..Default::default()
        };
        assert_eq!(stats, expected);
    }

    #[test]
    fn compaction_concurrency_high_water_mark_sticks() {
        let counters = EngineCounters::default();
        assert_eq!(counters.record_compaction_start(), 1);
        assert_eq!(counters.record_compaction_start(), 2);
        assert_eq!(counters.record_compaction_start(), 3);
        counters.record_compaction_end();
        counters.record_compaction_end();
        // A later lone job does not lower the recorded maximum.
        assert_eq!(counters.record_compaction_start(), 2);
        counters.record_compaction_end();
        counters.record_compaction_end();
        assert_eq!(counters.active_compactions.load(Ordering::Relaxed), 0);
        let mut stats = StoreStats::default();
        counters.snapshot_into(&mut stats);
        assert_eq!(stats.max_concurrent_compactions, 3);
    }
}
