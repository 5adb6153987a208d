//! Cursor construction is O(levels): the heap allocations of one
//! `iter()` + `seek` + drop do not depend on how many guards (FLSM) or files
//! (LSM) the tree holds; neither do those of applying a flush's version edit
//! to an FLSM version, which shares every guard level it leaves alone, nor
//! those of picking an FLSM compaction, which copies nothing of the level
//! it writes.
//! Counted, not timed — a counting global allocator makes the check
//! deterministic, and living in its own test binary keeps the allocator away
//! from every other suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::{FlsmLevel, PebblesDb};
use pebblesdb_common::filename::table_file_name;
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::{Db, KvStore, ReadOptions, StoreOptions, StorePreset, NUM_LEVELS};
use pebblesdb_engine::{FileMetaDataEdit, Version, VersionEdit};
use pebblesdb_env::{DiskEnv, Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_sstable::{TableBuilder, BLOCK_SIZE};

thread_local! {
    /// Allocations made by this thread; background threads count into
    /// their own (unread) cells.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell` without a destructor,
// so touching it neither allocates nor outlives its thread.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Two cursors over trees of very different width may differ by the odd
/// level or level-0 file, never by a term in the guard or file count (the
/// deep-cloning cursor paid about two allocations per guard).
const SLACK: u64 = 32;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn load(db: &dyn KvStore, keys: u32) {
    for i in 0..keys {
        // A multiplicative shuffle, so every flush spans the key space.
        db.put(&key(i.wrapping_mul(2_654_435_761) % keys), &[b'v'; 100])
            .unwrap();
    }
    db.flush().unwrap();
}

/// Mean allocations of `iter()` + `seek` + drop at one (block-cached) key.
fn allocations_per_cursor(db: &dyn KvStore, target: &[u8]) -> u64 {
    let cursor = || {
        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek(target);
        assert!(iter.valid());
    };
    for _ in 0..32 {
        cursor();
    }
    const ROUNDS: u64 = 64;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        cursor();
    }
    (ALLOCATIONS.with(Cell::get) - before) / ROUNDS
}

fn small_options() -> StoreOptions {
    let mut options = StoreOptions::default();
    options.write_buffer_size = 64 << 10;
    options.base_level_bytes = 256 << 10;
    options
}

/// Opens an FLSM store, loads it and reads it to rest: cursors until
/// seek-based compaction has left at most one sstable in level 0 and no
/// guard with overlapping sstables. Returns the store and its guard count.
fn flsm_at_rest(top_level_bits: u32, bit_decrement: u32, keys: u32) -> (PebblesDb, usize) {
    let mut options = small_options();
    options.max_file_size = 16 << 20;
    options.top_level_bits = top_level_bits;
    options.bit_decrement = bit_decrement;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = PebblesDb::open_with_options(env, Path::new("/alloc-flsm"), options).unwrap();
    load(&db, keys);

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        db.flush().unwrap();
        let at_rest = db.engine().with_current_version(|v| {
            v.level0().len() <= 1 && v.runs().all(|l| !l.has_overlapping_guard())
        });
        if at_rest {
            let guards = db.guards_per_level().iter().sum();
            return (db, guards);
        }
        assert!(
            Instant::now() < deadline,
            "never came to rest: {}",
            db.level_summary()
        );
        for _ in 0..db.options().seek_compaction_threshold {
            let mut iter = db.iter(&ReadOptions::default()).unwrap();
            iter.seek(&key(0));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn flsm_cursor_allocations_do_not_grow_with_the_guard_count() {
    let (narrow, narrow_guards) = flsm_at_rest(16, 1, 12_000);
    let (wide, wide_guards) = flsm_at_rest(7, 1, 12_000);
    assert!(
        narrow_guards <= 100,
        "narrow tree has {narrow_guards} guards"
    );
    assert!(wide_guards >= 1_000, "wide tree has {wide_guards} guards");

    let target = key(6_000);
    let narrow_allocs = allocations_per_cursor(&narrow, &target);
    let wide_allocs = allocations_per_cursor(&wide, &target);
    assert!(
        narrow_allocs.abs_diff(wide_allocs) <= SLACK,
        "{narrow_guards} guards: {narrow_allocs} allocations per cursor, \
         {wide_guards} guards: {wide_allocs}"
    );
}

#[test]
fn lsm_cursor_allocations_do_not_grow_with_the_file_count() {
    let open = |max_file_size: usize| {
        let mut options = small_options();
        options.max_file_size = max_file_size;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let preset = StorePreset::HyperLevelDb;
        let db = LsmDb::open_with_options(env, Path::new("/alloc-lsm"), options, preset).unwrap();
        load(&db, 12_000);
        let files: usize = db.files_per_level().iter().sum();
        (db, files)
    };
    let (few, few_files) = open(1 << 20);
    let (many, many_files) = open(4 << 10);
    assert!(few_files <= 20, "coarse tree has {few_files} files");
    assert!(many_files >= 200, "fine tree has {many_files} files");

    let target = key(6_000);
    let few_allocs = allocations_per_cursor(&few, &target);
    let many_allocs = allocations_per_cursor(&many, &target);
    assert!(
        few_allocs.abs_diff(many_allocs) <= SLACK,
        "{few_files} files: {few_allocs} allocations per cursor, \
         {many_files} files: {many_allocs}"
    );
}

/// Allocations of applying a one-file level-0 edit — what a flush commits,
/// under the state mutex — to an FLSM version holding `guards` guards (and a
/// file in every tenth of them).
fn allocations_per_flush_edit(guards: usize) -> u64 {
    let file = |number: u64, smallest: &str, largest: &str| FileMetaDataEdit {
        number,
        file_size: 1000,
        smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
            .encoded()
            .to_vec(),
        largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Value)
            .encoded()
            .to_vec(),
    };
    let mut tree = VersionEdit::default();
    for n in 0..guards {
        let key = format!("guard{n:06}");
        tree.new_guards
            .push((NUM_LEVELS - 1, key.clone().into_bytes()));
        if n % 10 == 0 {
            tree.new_files
                .push((NUM_LEVELS - 1, file(n as u64 + 1, &key, &format!("{key}z"))));
        }
    }
    let version = Version::<FlsmLevel>::empty(NUM_LEVELS)
        .apply(&tree)
        .unwrap();
    let held: usize = version.runs().map(|l| l.guards().len() - 1).sum();
    assert_eq!(held, guards);

    let mut flush = VersionEdit::default();
    flush.new_files.push((0, file(1_000_000, "a", "z")));
    let before = ALLOCATIONS.with(Cell::get);
    let next = version.apply(&flush).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(next.level0().len(), 1);
    allocations
}

/// A flush's edit rebuilds level 0 and shares every guard level: it
/// allocated about two times per guard while each commit rebuilt the whole
/// guard tree.
#[test]
fn flsm_flush_edit_allocations_do_not_grow_with_the_guard_count() {
    assert_eq!(
        allocations_per_flush_edit(30),
        allocations_per_flush_edit(3_000)
    );
}

/// Allocations of claiming one FLSM compaction job — a pick, under the
/// state mutex — over level 1, whose one guard holds two tables against a
/// budget of one, when the output level 2 holds `guards` guards. The job
/// then runs, so the claim is released and the merge is seen to land.
fn allocations_per_claim(guards: usize) -> u64 {
    let mut options = StoreOptions::default();
    options.compaction_threads = 0;
    options.level0_compaction_trigger = 100;
    options.enable_aggressive_compaction = false;
    options.max_sstables_per_guard = 1;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/alloc-claim");
    let db = PebblesDb::open_with_options(Arc::clone(&env), dir, options.clone()).unwrap();
    let core = db.engine().core();
    let mut state = core.state.lock();
    let versions = &mut state.default_cf_mut().versions;
    let mut edit = VersionEdit::default();
    for n in 0..guards {
        edit.new_guards
            .push((2, format!("guard{n:06}").into_bytes()));
    }
    for keys in [["a", "c"], ["b", "d"]] {
        let number = versions.new_file_number();
        let file = env
            .new_writable_file(&table_file_name(dir, number))
            .unwrap();
        let mut builder = TableBuilder::new(&options, file);
        for key in keys {
            let key = InternalKey::new(key.as_bytes(), 1, ValueType::Value);
            builder.add(key.encoded(), b"value").unwrap();
        }
        let (smallest, largest) = (builder.first_key(), builder.last_key());
        let (smallest, largest) = (smallest.unwrap().to_vec(), largest.unwrap().to_vec());
        let file_size = builder.finish().unwrap();
        let meta = FileMetaDataEdit {
            number,
            file_size,
            smallest,
            largest,
        };
        edit.new_files.push((1, meta));
    }
    versions.log_and_apply(edit).unwrap();

    let before = ALLOCATIONS.with(Cell::get);
    let claimed = core
        .claim_job(&mut state)
        .expect("level 1 is over its budget");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let job = &claimed.job;
    assert_eq!((job.level(), job.inputs.len(), job.output_level), (1, 2, 2));
    core.run_claimed_job(&mut state, claimed);
    assert!(state.bg_error.is_none(), "{:?}", state.bg_error);
    drop(state);
    assert_eq!(db.files_per_level()[1..3], [0, 1]);
    assert_eq!(db.guards_per_level()[2], guards + 1);
    allocations
}

/// A job reads its output level's guards off the version its merge pins: a
/// pick copies none of them (it allocated once per output-level guard
/// while each job carried the level's guard keys).
#[test]
fn flsm_claim_allocations_do_not_grow_with_the_output_guard_count() {
    assert_eq!(allocations_per_claim(300), allocations_per_claim(3_000));
}

/// Mean allocations of one (block-cached) point `get`.
fn allocations_per_get(db: &dyn KvStore, target: &[u8]) -> u64 {
    for _ in 0..32 {
        assert!(db.get(target).unwrap().is_some());
    }
    const ROUNDS: u64 = 64;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        assert!(db.get(target).unwrap().is_some());
    }
    (ALLOCATIONS.with(Cell::get) - before) / ROUNDS
}

/// The derived views add nothing to a point read: a `get` through the
/// store's own `KvStore` and through its `default_cf()` handle allocates the
/// same, and exactly what the chassis `get` is known to allocate.
#[test]
fn point_get_allocations_are_the_same_through_store_and_handle() {
    /// What one cached `get` allocates, on either engine: the lookup key
    /// (framed once, for memtables and sstables alike) and the value. The
    /// found entry is parsed where it lies; key 0 starts a restart run, so
    /// no prefix-compressed key is assembled either. It was 4 while the
    /// index-block and data-block iterators each copied the keys they
    /// passed into a buffer of their own, and 6 while each memtable probe
    /// framed the key again and `Table::get` copied the found key for its
    /// caller to parse and drop; pinned exactly, so that the next
    /// allocation to creep in shows.
    const FORWARDED_ALLOCATIONS_PER_GET: u64 = 2;

    let env = || -> Arc<dyn Env> { Arc::new(MemEnv::new()) };
    let flsm = PebblesDb::open_with_options(env(), Path::new("/get-flsm"), small_options());
    let preset = StorePreset::HyperLevelDb;
    let lsm = LsmDb::open_with_options(env(), Path::new("/get-lsm"), small_options(), preset);
    let stores: [(&str, Box<dyn Db>); 2] = [
        ("flsm", Box::new(flsm.unwrap())),
        ("lsm", Box::new(lsm.unwrap())),
    ];
    for (name, db) in &stores {
        load(db.as_ref(), 4_000);
        let target = key(0); // `load` writes key 0 whatever its shuffle skips
        let through_store = allocations_per_get(db.as_ref(), &target);
        let through_handle = allocations_per_get(&db.default_cf(), &target);
        assert_eq!(through_store, through_handle, "{name}");
        assert_eq!(
            through_store, FORWARDED_ALLOCATIONS_PER_GET,
            "{name}: allocations per get"
        );
    }
}

/// Both engines, each on the env and in the directory `place` gives for its
/// name, loaded, with a block cache of one byte: every block a read needs
/// is a miss. No worker thread and no seek trigger: the store's shape is
/// settled when `load` returns, so no compaction reshapes it while a read
/// is counted (the warm-up cursors armed FLSM seek compactions, and a
/// background job landing mid-count moved the cursor's allocations).
fn uncached_stores(
    place: impl Fn(&str) -> (Arc<dyn Env>, PathBuf),
) -> [(&'static str, Box<dyn Db>); 2] {
    let mut options = small_options();
    options.block_cache_capacity = 1;
    options.compaction_threads = 0;
    options.seek_compaction_threshold = 0;
    let (env, dir) = place("flsm");
    let flsm = PebblesDb::open_with_options(env, &dir, options.clone());
    let (env, dir) = place("lsm");
    let preset = StorePreset::HyperLevelDb;
    let lsm = LsmDb::open_with_options(env, &dir, options, preset);
    let stores: [(&str, Box<dyn Db>); 2] = [
        ("flsm", Box::new(flsm.unwrap())),
        ("lsm", Box::new(lsm.unwrap())),
    ];
    for (_, db) in &stores {
        load(db.as_ref(), 4_000);
    }
    stores
}

/// A `MemEnv` file hands out views of its own bytes, so a read whose block
/// is in no cache allocates what a cached one does: the block costs neither
/// a copy nor a shared handle. They were 6 per `get` and 19 / 17 per cursor
/// (FLSM / LSM) while every block read was copied into a fresh buffer, and
/// 4 and 15 / 13 while every block iterator copied its keys.
#[test]
fn uncached_reads_of_a_resident_file_allocate_no_block() {
    const ALLOCATIONS_PER_GET: u64 = 2;
    const ALLOCATIONS_PER_CURSOR: [u64; 2] = [11, 9];

    let stores = uncached_stores(|name| (Arc::new(MemEnv::new()), PathBuf::from("/").join(name)));
    for ((name, db), per_cursor) in stores.iter().zip(ALLOCATIONS_PER_CURSOR) {
        let target = key(0);
        let per_get = allocations_per_get(db.as_ref(), &target);
        assert_eq!(per_get, ALLOCATIONS_PER_GET, "{name}: allocations per get");
        let cursor = allocations_per_cursor(db.as_ref(), &target);
        assert_eq!(cursor, per_cursor, "{name}: allocations per cursor");
        let stats = db.stats();
        assert_eq!((stats.block_cache_hits, stats.block_cache_misses), (0, 0));
    }
}

/// A file that copies what it reads (here, a real disk) still pays only
/// for the copy: the copy and the handle that owns it, on top of a cached
/// `get`'s lookup key and value. It was 6 while the block iterators copied
/// their keys.
#[test]
fn an_uncached_get_through_a_copying_file_allocates_only_the_copy() {
    const ALLOCATIONS_PER_GET: u64 = 4;

    let root = std::env::temp_dir().join(format!("pebbles-alloc-{}", std::process::id()));
    let stores = uncached_stores(|name| {
        let env: Arc<dyn Env> = Arc::new(DiskEnv::new());
        let dir = root.join(name);
        let _ = env.remove_dir_all(&dir);
        (env, dir)
    });
    for (name, db) in &stores {
        let per_get = allocations_per_get(db.as_ref(), &key(0));
        assert_eq!(per_get, ALLOCATIONS_PER_GET, "{name}: allocations per get");
        let misses = db.stats().block_cache_misses;
        assert!(misses >= 96, "{name}: {misses} block cache misses");
    }
    drop(stores);
    let _ = DiskEnv::new().remove_dir_all(&root);
}

/// Mean allocations of a cursor that seeks and steps 50 times (the
/// `range_scan` pattern) over a store holding 150 entries of `value_len`-byte
/// values, and the sizes of the tables holding them.
fn allocations_per_scan(engine: &str, value_len: usize) -> (u64, Vec<u64>) {
    let mut options = small_options();
    options.write_buffer_size = 4 << 20;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/scan");
    let db: Box<dyn Db> = match engine {
        "flsm" => Box::new(PebblesDb::open_with_options(env, dir, options).unwrap()),
        _ => {
            let preset = StorePreset::HyperLevelDb;
            Box::new(LsmDb::open_with_options(env, dir, options, preset).unwrap())
        }
    };
    for i in 0..150 {
        db.put(&key(i), &vec![b'v'; value_len]).unwrap();
    }
    db.flush().unwrap();
    let scan = || {
        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek(&key(50));
        for _ in 0..50 {
            assert!(iter.valid());
            iter.next();
        }
        assert!(iter.valid() && iter.status().is_ok());
    };
    for _ in 0..32 {
        scan();
    }
    const ROUNDS: u64 = 64;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        scan();
    }
    let allocations = (ALLOCATIONS.with(Cell::get) - before) / ROUNDS;
    (allocations, db.live_file_sizes())
}

/// A table cursor keeps one data-block iterator, key buffer and all, from
/// block to block: a 50-step scan over 1 KiB values, which crosses a block
/// every few entries, allocates exactly what one over 4-byte values inside
/// a single block does. It cost one key buffer per block entered while each
/// block got a fresh iterator.
#[test]
fn a_scan_across_blocks_allocates_what_one_inside_a_block_does() {
    // A block closes once its entries reach `BLOCK_SIZE`, so it holds at
    // most `BLOCK_SIZE / 1 KiB + 1` of them: the 51 entries a scan visits
    // span at least this many blocks.
    let blocks_crossed = 51 / (BLOCK_SIZE / 1024 + 1);
    assert!(blocks_crossed >= 10, "{blocks_crossed} blocks");
    for engine in ["flsm", "lsm"] {
        let (across, _) = allocations_per_scan(engine, 1024);
        let (inside, tables) = allocations_per_scan(engine, 4);
        // One table smaller than a block holds a single data block.
        assert_eq!(tables.len(), 1, "{engine}: {tables:?}");
        assert!(tables[0] < BLOCK_SIZE as u64, "{engine}: {tables:?}");
        assert_eq!(across, inside, "{engine}: allocations per 50-step scan");
    }
}

/// Mean allocations of one single-key `put` into a memtable with room.
fn allocations_per_put(db: &dyn KvStore) -> u64 {
    // One key over and over: nothing for the FLSM to pick as a new guard.
    let (key, value) = (key(7), [b'v'; 100]);
    for _ in 0..32 {
        db.put(&key, &value).unwrap();
    }
    const ROUNDS: u64 = 64;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        db.put(&key, &value).unwrap();
    }
    (ALLOCATIONS.with(Cell::get) - before) / ROUNDS
}

/// What the chassis adds between `put` and the memtable is paid by both
/// engines alike, so it is pinned like the read path: a `put` through the
/// store and through its `default_cf()` handle allocates the same, and
/// exactly this much.
#[test]
fn put_allocations_are_the_same_through_store_and_handle() {
    /// What one `put` allocates, on either engine: the batch, its queue
    /// ticket, the write group's vectors, the leader's maps. Pinned exactly,
    /// so that the next allocation to creep in shows.
    const ALLOCATIONS_PER_PUT: u64 = 8;

    let env = || -> Arc<dyn Env> { Arc::new(MemEnv::new()) };
    // The default 4 MiB write buffer: no rotation inside the measurement.
    let flsm = PebblesDb::open(env(), Path::new("/put-flsm"));
    let lsm = LsmDb::open(env(), Path::new("/put-lsm"));
    let stores: [(&str, Box<dyn Db>); 2] = [
        ("flsm", Box::new(flsm.unwrap())),
        ("lsm", Box::new(lsm.unwrap())),
    ];
    for (name, db) in &stores {
        let through_store = allocations_per_put(db.as_ref());
        let through_handle = allocations_per_put(&db.default_cf());
        assert_eq!(through_store, through_handle, "{name}");
        assert_eq!(
            through_store, ALLOCATIONS_PER_PUT,
            "{name}: allocations per put"
        );
    }
}

/// Allocations of building one `MemEnv` table of `entries` entries with
/// `value_len`-byte values, from `TableBuilder::new` to `finish`.
fn allocations_per_table_build(entries: u32, value_len: usize) -> u64 {
    let env = MemEnv::new();
    let path = Path::new("/build.sst");
    let file = env.new_writable_file(path).unwrap();
    let keys: Vec<Vec<u8>> = (0..entries)
        .map(|i| {
            InternalKey::new(&key(i), 1, ValueType::Value)
                .encoded()
                .to_vec()
        })
        .collect();
    let value = vec![b'v'; value_len];
    let before = ALLOCATIONS.with(Cell::get);
    let mut builder = TableBuilder::new(&StoreOptions::default(), file);
    for key in &keys {
        builder.add(key, &value).unwrap();
    }
    let size = builder.finish().unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(size > entries as u64 * value_len as u64);
    allocations
}

/// Building a table allocates per table, not per entry or per block: ten
/// times the entries cost the same allocations, give or take the doubling
/// of the file's and the index's buffers. The builder allocated 30,060
/// times for 10,000 entries of 1 KiB while it copied every user key for
/// the bloom filter and grew every data block from an empty buffer.
#[test]
fn a_table_build_allocates_per_table_not_per_entry() {
    for value_len in [100, 1024] {
        let small = allocations_per_table_build(1_000, value_len);
        let large = allocations_per_table_build(10_000, value_len);
        assert!(
            small.abs_diff(large) <= SLACK,
            "{value_len} B values: 1,000 entries allocate {small}, 10,000 allocate {large}"
        );
    }
}

/// Allocations of the `flush` of `entries` puts on a store with no worker
/// threads, where the flush — memtable walk, table build, version edit —
/// runs on the calling thread.
fn allocations_per_inline_flush(engine: &str, entries: u32) -> u64 {
    let mut options = StoreOptions::default();
    options.compaction_threads = 0;
    options.write_buffer_size = 64 << 20;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let dir = Path::new("/inline-flush");
    let db: Box<dyn Db> = match engine {
        "flsm" => Box::new(PebblesDb::open_with_options(env, dir, options).unwrap()),
        _ => {
            let preset = StorePreset::HyperLevelDb;
            Box::new(LsmDb::open_with_options(env, dir, options, preset).unwrap())
        }
    };
    for i in 0..entries {
        db.put(&key(i), &[b'v'; 100]).unwrap();
    }
    let before = ALLOCATIONS.with(Cell::get);
    db.flush().unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(db.live_file_sizes().len(), 1, "{engine}: one table");
    allocations
}

/// A flush builds its table like any other build: flushing ten times the
/// entries allocates the same.
#[test]
fn an_inline_flush_allocates_per_table_not_per_entry() {
    for engine in ["flsm", "lsm"] {
        let small = allocations_per_inline_flush(engine, 2_000);
        let large = allocations_per_inline_flush(engine, 20_000);
        assert!(
            small.abs_diff(large) <= SLACK,
            "{engine}: a flush of 2,000 entries allocates {small}, of 20,000 {large}"
        );
    }
}
