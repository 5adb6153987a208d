//! Open [`Table`] readers: the slot a live sstable carries its reader in, and
//! the cache that fills the slots and bounds how many are full.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use pebblesdb_common::filename::table_file_name;
use pebblesdb_common::{Result, StoreOptions};
use pebblesdb_env::Env;

use crate::cache::LruCache;
use crate::table::{BlockCache, Table};

/// Where a live sstable's open reader is kept: on the file's own metadata,
/// so reaching it costs this one lock and a reference count. A reader in
/// use outlives the slot being emptied, and the slot goes with the last
/// version that names the file — when the file itself is deleted.
#[derive(Default)]
pub struct TableSlot {
    reader: RwLock<Option<Arc<Table>>>,
    /// Set by every probe, cleared by the sweep that spares the slot for it.
    touched: AtomicBool,
    /// Set once a reader of the file has opened: its blocks are checked,
    /// and a reopen after a sweep need not walk them again.
    checked: AtomicBool,
}

impl fmt::Debug for TableSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableSlot(open: {})", self.reader.read().is_some())
    }
}

/// Opens sstables into their [`TableSlot`]s, sharing one block cache, and
/// keeps at most `max_open_files` slots full (a file descriptor each on a
/// real disk).
pub struct TableCache {
    env: Arc<dyn Env>,
    db_path: PathBuf,
    options: StoreOptions,
    block_cache: Arc<BlockCache>,
    max_open_files: usize,
    /// The full slots, oldest first: a second-chance ring. A dead entry is a
    /// file that left its last version and took its reader along.
    ring: Mutex<VecDeque<Weak<TableSlot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TableCache {
    /// Creates a table cache for the database at `db_path`.
    pub fn new(
        env: Arc<dyn Env>,
        db_path: PathBuf,
        options: StoreOptions,
        max_open_files: usize,
    ) -> Self {
        let block_cache = Arc::new(LruCache::new(options.block_cache_capacity.max(1)));
        TableCache {
            env,
            db_path,
            options,
            block_cache,
            max_open_files: max_open_files.max(1),
            ring: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of slots currently holding an open reader.
    pub fn open_tables(&self) -> usize {
        let ring = self.ring.lock();
        ring.iter().filter(|slot| slot.strong_count() > 0).count()
    }

    /// Approximate memory pinned by open tables and cached blocks.
    pub fn memory_usage(&self) -> usize {
        self.block_cache.usage()
    }

    /// Hit and miss counters of the shared block cache (sstable data
    /// blocks), surfaced in `StoreStats` and the bench reports.
    pub fn block_cache_hit_miss(&self) -> (u64, u64) {
        self.block_cache.hit_miss()
    }

    /// Probes served from a full slot, and probes that had to open the file.
    pub fn table_cache_hit_miss(&self) -> (u64, u64) {
        let (hits, misses) = (&self.hits, &self.misses);
        (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed))
    }

    /// The open reader of the file whose metadata carries `slot`, opening
    /// the file if the slot is empty. Every reader of an sstable comes
    /// through here.
    pub fn table(
        &self,
        slot: &Arc<TableSlot>,
        file_number: u64,
        file_size: u64,
    ) -> Result<Arc<Table>> {
        if let Some(table) = slot.reader.read().as_ref() {
            // Written only when it changes, so probes of one file from
            // several threads share its cache line read-only.
            if !slot.touched.load(Ordering::Relaxed) {
                slot.touched.store(true, Ordering::Relaxed);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(table));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let path = table_file_name(&self.db_path, file_number);
        let file = self.env.new_random_access_file(&path)?;
        let block_cache = Some(Arc::clone(&self.block_cache));
        let checked = slot.checked.load(Ordering::Relaxed);
        let options = &self.options;
        let table = Table::open_with(options, file, file_size, file_number, block_cache, checked)?;
        slot.checked.store(true, Ordering::Relaxed);
        let table = Arc::new(table);
        match &mut *slot.reader.write() {
            // Another thread filled the slot meanwhile; its reader is the
            // enrolled one and ours closes.
            Some(raced) => return Ok(Arc::clone(raced)),
            empty => *empty = Some(Arc::clone(&table)),
        }
        slot.touched.store(true, Ordering::Relaxed);
        self.enrol(slot);
        Ok(table)
    }

    /// Adds a slot this cache just filled to the ring and, over budget,
    /// sweeps from the oldest entry: a slot probed since the sweep last
    /// passed is spared once, any other is emptied — its reader closes when
    /// the last cursor or job using it lets go.
    fn enrol(&self, slot: &Arc<TableSlot>) {
        let mut ring = self.ring.lock();
        ring.push_back(Arc::downgrade(slot));
        // Two laps at most: the first clears every flag it spares.
        for _ in 0..2 * ring.len() {
            if ring.len() <= self.max_open_files {
                break;
            }
            let Some(entry) = ring.pop_front() else { break };
            match entry.upgrade() {
                Some(slot) if slot.touched.swap(false, Ordering::Relaxed) => ring.push_back(entry),
                Some(slot) => *slot.reader.write() = None,
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_builder::TableBuilder;
    use pebblesdb_common::key::{encode_internal_key, ValueType};
    use pebblesdb_common::ReadOptions;
    use pebblesdb_env::MemEnv;
    use std::path::Path;

    /// A cache of `max_open_files` over tables `1..=files` of `/db`, each
    /// holding the one key `key<number>`, with the tables' sizes and slots.
    fn cache_over(files: u64, max_open_files: usize) -> (TableCache, Vec<(u64, Arc<TableSlot>)>) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Path::new("/db");
        env.create_dir_all(db).unwrap();
        let opts = StoreOptions::default();
        let build = |number: u64| {
            let file = env.new_writable_file(&table_file_name(db, number)).unwrap();
            let mut builder = TableBuilder::new(&opts, file);
            let key = encode_internal_key(format!("key{number}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, b"v").unwrap();
            (builder.finish().unwrap(), Arc::default())
        };
        let tables = (1..=files).map(build).collect();
        let cache = TableCache::new(Arc::clone(&env), db.to_path_buf(), opts, max_open_files);
        (cache, tables)
    }

    /// Opens table `number` (from 1) through the cache and checks it is that
    /// file by reading its one key.
    fn probe(cache: &TableCache, tables: &[(u64, Arc<TableSlot>)], number: u64) -> Arc<Table> {
        let (size, slot) = &tables[number as usize - 1];
        let table = cache.table(slot, number, *size).unwrap();
        let key = encode_internal_key(format!("key{number}").as_bytes(), 9, ValueType::Value);
        let found = table.get(&ReadOptions::default(), &key).unwrap();
        assert_eq!(found.unwrap().1, b"v", "table {number}");
        table
    }

    #[test]
    fn missing_files_surface_errors() {
        let (cache, _) = cache_over(0, 4);
        assert!(cache.table(&Arc::default(), 99, 1234).is_err());
        assert_eq!(cache.open_tables(), 0);
    }

    #[test]
    fn a_full_slot_serves_the_same_reader_without_reopening() {
        let (cache, tables) = cache_over(1, 4);
        let first = probe(&cache, &tables, 1);
        let second = probe(&cache, &tables, 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.table_cache_hit_miss(), (1, 1));
        assert_eq!(cache.open_tables(), 1);
    }

    #[test]
    fn the_sweep_keeps_open_readers_within_the_budget() {
        let (cache, tables) = cache_over(8, 2);
        // A reader in use survives its slot being emptied.
        let held = probe(&cache, &tables, 1);
        for number in 1..=8 {
            probe(&cache, &tables, number);
            assert!(cache.open_tables() <= 2, "after table {number}");
        }
        assert!(tables[0].1.reader.read().is_none(), "slot 1 was swept");
        let key = encode_internal_key(b"key1", 9, ValueType::Value);
        assert!(held.get(&ReadOptions::default(), &key).unwrap().is_some());
        let full = tables
            .iter()
            .filter(|(_, slot)| slot.reader.read().is_some());
        assert_eq!(full.count(), cache.open_tables());
    }

    #[test]
    fn a_slot_probed_since_the_last_sweep_is_spared_once() {
        let (cache, tables) = cache_over(4, 2);
        probe(&cache, &tables, 1);
        probe(&cache, &tables, 2);
        // Opening 3 sweeps: every flag is cleared on the first lap and the
        // oldest slot goes on the second.
        probe(&cache, &tables, 3);
        assert!(tables[0].1.reader.read().is_none());
        // 2 is probed again, 3 is not: opening 4 spares 2 and empties 3.
        probe(&cache, &tables, 2);
        probe(&cache, &tables, 4);
        assert!(tables[1].1.reader.read().is_some(), "2 was touched");
        assert!(tables[2].1.reader.read().is_none(), "3 was not");
        assert_eq!(cache.open_tables(), 2);
    }

    #[test]
    fn a_dropped_slot_closes_its_reader_and_leaves_the_count() {
        let (cache, mut tables) = cache_over(3, 4);
        for number in 1..=3 {
            probe(&cache, &tables, number);
        }
        assert_eq!(cache.open_tables(), 3);
        // The file's last version goes: nothing is evicted by hand.
        let (_, slot) = tables.remove(0);
        let reader = Arc::downgrade(slot.reader.read().as_ref().unwrap());
        drop(slot);
        assert!(reader.upgrade().is_none(), "the reader went with its slot");
        assert_eq!(cache.open_tables(), 2);
    }

    /// A file's blocks are checked once per slot: a reopen after a sweep
    /// reads the footer, index and filter again but not the data block.
    #[test]
    fn a_reopened_file_is_not_checked_again() {
        let (cache, tables) = cache_over(2, 1);
        let reads = || cache.env.io_stats().snapshot().reads;
        let before = reads();
        probe(&cache, &tables, 1);
        let first = reads() - before;
        probe(&cache, &tables, 2);
        assert!(tables[0].1.reader.read().is_none(), "slot 1 was swept");
        let before = reads();
        probe(&cache, &tables, 1);
        assert_eq!((first, reads() - before), (5, 4));
    }

    /// Threads racing through a budget far below the file count: every probe
    /// is a hit or a miss, every reader is its own file's, and the budget
    /// holds once the race is over.
    #[test]
    fn racing_probes_are_each_a_hit_or_a_miss() {
        const THREADS: u64 = 4;
        const PROBES: u64 = 2_000;
        let (cache, tables) = cache_over(16, 2);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (cache, tables, start) = (&cache, &tables, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PROBES {
                        // Mostly a shared hot pair, so fills of one slot race.
                        let number = if i % 4 == 0 { (i + thread) % 16 } else { i % 2 };
                        probe(cache, tables, number + 1);
                    }
                });
            }
        });
        let (hits, misses) = cache.table_cache_hit_miss();
        assert_eq!(hits + misses, THREADS * PROBES);
        assert!(misses >= 16 && hits > 0, "{hits} hits, {misses} misses");
        probe(&cache, &tables, 16);
        assert!(cache.open_tables() <= 2);
    }
}
