//! Sorted string tables: the immutable on-disk files both engines build.
//!
//! An sstable holds a sorted run of internal key/value pairs:
//!
//! ```text
//! +-----------------+
//! | data block 0    |   prefix-compressed entries + restart array
//! | data block 1    |
//! | ...             |
//! | filter block    |   sstable-level bloom filter over user keys
//! | index block     |   last-key-of-block -> block handle
//! | footer          |   handles of filter + index blocks, magic number
//! +-----------------+
//! ```
//!
//! Every block is followed by a one-byte compression tag (0 = raw, 1 = the
//! in-tree LZ codec from `pebblesdb-compress`) and a masked CRC32C over the
//! stored bytes plus the tag. Writers compress data/index blocks when
//! [`StoreOptions::compression`](pebblesdb_common::StoreOptions) says so and
//! it saves at least ~12.5%; readers always
//! dispatch on the stored tag, so raw and compressed blocks mix freely
//! within and across files, and tables written before compression existed
//! remain readable. The block cache only ever holds uncompressed bytes.
//!
//! Each block's CRC is checked once, on its way into memory: a resident
//! file's blocks when the table opens, any other block when it is copied
//! off the device or decoded, before the block cache sees it. No read of a
//! resident block and no cache hit checks it again.
//!
//! The sstable-level bloom filter is the PebblesDB optimisation from section
//! 4.1 of the paper: a `get()` that must examine every sstable in a guard can
//! skip, in memory, the tables that cannot contain the key.

pub mod block;
pub mod cache;
pub mod footer;
pub mod table;
pub mod table_builder;
pub mod table_cache;

pub use block::{Block, BlockBuilder, BlockIterator};
pub use cache::LruCache;
pub use footer::{BlockHandle, Footer, TABLE_MAGIC};
pub use table::Table;
pub use table_builder::TableBuilder;
pub use table_cache::{TableCache, TableSlot};

/// Target size (bytes) of a data block: the builder closes a block once its
/// entries reach this size, so a block holds one entry past it at most.
pub const BLOCK_SIZE: usize = 4096;

/// Number of trailer bytes appended to every block: 1-byte compression tag
/// plus a 4-byte masked CRC32C.
pub const BLOCK_TRAILER_SIZE: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::CopyingFile;
    use pebblesdb_common::key::{encode_internal_key, parse_internal_key, ValueType};
    use pebblesdb_common::{DbIterator, Error, ReadOptions, StoreOptions};
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;
    use std::sync::Arc;

    fn build_table(env: &MemEnv, path: &Path, n: u32) -> u64 {
        build_table_with(env, path, n, &StoreOptions::default())
    }

    fn build_table_with(env: &MemEnv, path: &Path, n: u32, opts: &StoreOptions) -> u64 {
        let file = env.new_writable_file(path).unwrap();
        let mut builder = TableBuilder::new(opts, file);
        for i in 0..n {
            let key = encode_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, format!("value-{i}").as_bytes()).unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn build_and_read_back_all_entries() {
        let env = MemEnv::new();
        let path = Path::new("/sst/000001.sst");
        let size = build_table(&env, path, 1000);
        assert_eq!(size, env.file_size(path).unwrap());

        let file = env.new_random_access_file(path).unwrap();
        let table = Table::open(&StoreOptions::default(), file, size, 1, None).unwrap();
        let table = Arc::new(table);

        // Point lookups through the internal-key get path.
        for i in [0u32, 1, 57, 999] {
            let target = encode_internal_key(
                format!("key{i:06}").as_bytes(),
                u64::MAX >> 8,
                ValueType::Value,
            );
            let (found_key, value) = table
                .get(&ReadOptions::default(), &target)
                .unwrap()
                .expect("key should be found");
            let parsed = parse_internal_key(&found_key).unwrap();
            assert_eq!(parsed.user_key, format!("key{i:06}").as_bytes());
            assert_eq!(value, format!("value-{i}").into_bytes());
        }

        // Full scan through the iterator.
        let mut iter = table.iter(&ReadOptions::default());
        iter.seek_to_first();
        let mut count = 0;
        let mut last_key: Option<Vec<u8>> = None;
        while iter.valid() {
            if let Some(prev) = &last_key {
                assert!(prev.as_slice() < iter.key());
            }
            last_key = Some(iter.key().to_vec());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn bloom_filter_excludes_absent_user_keys() {
        let env = MemEnv::new();
        let path = Path::new("/sst/000002.sst");
        let size = build_table(&env, path, 500);
        let file = env.new_random_access_file(path).unwrap();
        let table = Table::open(&StoreOptions::default(), file, size, 2, None).unwrap();

        assert!(table.may_contain_user_key(b"key000123"));
        let mut rejected = 0;
        for i in 0..200 {
            if !table.may_contain_user_key(format!("absent{i:06}").as_bytes()) {
                rejected += 1;
            }
        }
        assert!(rejected > 180, "bloom rejected only {rejected}/200");
    }

    #[test]
    fn seek_positions_at_lower_bound_and_supports_next() {
        let env = MemEnv::new();
        let path = Path::new("/sst/000003.sst");
        let size = build_table(&env, path, 100);
        let file = env.new_random_access_file(path).unwrap();
        let table = Arc::new(Table::open(&StoreOptions::default(), file, size, 3, None).unwrap());

        let mut iter = table.iter(&ReadOptions::default());
        let target = encode_internal_key(b"key000049x", u64::MAX >> 8, ValueType::Value);
        iter.seek(&target);
        assert!(iter.valid());
        let parsed = parse_internal_key(iter.key()).unwrap();
        assert_eq!(parsed.user_key, b"key000050");
        iter.next();
        let parsed = parse_internal_key(iter.key()).unwrap();
        assert_eq!(parsed.user_key, b"key000051");
    }

    /// A flipped byte in a data block is `Corruption` at the first point the
    /// block reaches memory: a resident file's `open`, which checks every
    /// block, or a copying file's first read of that block.
    #[test]
    fn corrupted_block_is_detected_when_checksums_are_verified() {
        let env = MemEnv::new();
        let path = Path::new("/sst/000004.sst");
        let size = build_table(&env, path, 200);

        // Flip a byte early in the file (inside the first data block).
        let mut contents = env.read_file_to_vec(path).unwrap();
        contents[10] ^= 0xff;
        let mut f = env.new_writable_file(path).unwrap();
        f.append(&contents).unwrap();
        f.close().unwrap();

        let opts = StoreOptions::default();
        let file = env.new_random_access_file(path).unwrap();
        let opened = Table::open(&opts, Arc::clone(&file), size, 4, None);
        assert!(matches!(opened, Err(Error::Corruption(_))));

        let table = Table::open(&opts, Arc::new(CopyingFile(file)), size, 4, None).unwrap();
        let target = encode_internal_key(b"key000000", u64::MAX >> 8, ValueType::Value);
        let found = table.get(&ReadOptions::default(), &target);
        assert!(matches!(found, Err(Error::Corruption(_))), "{found:?}");
    }

    #[test]
    fn compressed_table_is_smaller_and_reads_back_identically() {
        let env = MemEnv::new();
        let raw_path = Path::new("/sst/raw.sst");
        let lz_path = Path::new("/sst/lz.sst");
        let raw_size = build_table(&env, raw_path, 1000);

        let mut lz_opts = StoreOptions::default();
        lz_opts.compression = pebblesdb_common::CompressionType::Lz;
        let lz_size = build_table_with(&env, lz_path, 1000, &lz_opts);

        // The key/value stream is highly repetitive, so the codec must pay.
        assert!(
            lz_size < raw_size,
            "compressed table ({lz_size}) not smaller than raw ({raw_size})"
        );
        let stats = &lz_opts.counters;
        assert!(
            stats
                .compress_input_bytes
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );

        // Every entry reads back bit-identically.
        let file = env.new_random_access_file(lz_path).unwrap();
        let table = Arc::new(Table::open(&lz_opts, file, lz_size, 7, None).unwrap());
        let mut iter = table.iter(&ReadOptions::default());
        iter.seek_to_first();
        let mut count = 0;
        while iter.valid() {
            let parsed = parse_internal_key(iter.key()).unwrap();
            assert_eq!(parsed.user_key, format!("key{count:06}").as_bytes());
            assert_eq!(iter.value(), format!("value-{count}").as_bytes());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 1000);
        assert!(
            stats
                .decompress_micros
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
                || stats
                    .compress_input_bytes
                    .load(std::sync::atomic::Ordering::Relaxed)
                    > 0
        );
    }

    #[test]
    fn tag_zero_tables_stay_readable_under_compression_enabled_options() {
        // A file written with compression off must open and read under
        // options that enable compression (the reader keys off the stored
        // per-block tag, not the option) — and vice versa.
        let env = MemEnv::new();
        let raw_path = Path::new("/sst/old-format.sst");
        let raw_size = build_table(&env, raw_path, 300);

        let mut lz_opts = StoreOptions::default();
        lz_opts.compression = pebblesdb_common::CompressionType::Lz;
        let file = env.new_random_access_file(raw_path).unwrap();
        let table = Table::open(&lz_opts, file, raw_size, 8, None).unwrap();
        let target = encode_internal_key(b"key000123", u64::MAX >> 8, ValueType::Value);
        let (_, value) = table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .expect("tag-0 file must stay readable");
        assert_eq!(value, b"value-123");

        let lz_path = Path::new("/sst/new-format.sst");
        let lz_size = build_table_with(&env, lz_path, 300, &lz_opts);
        let file = env.new_random_access_file(lz_path).unwrap();
        let table = Table::open(&StoreOptions::default(), file, lz_size, 9, None).unwrap();
        let (_, value) = table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .expect("compressed file must be readable under raw options");
        assert_eq!(value, b"value-123");
    }

    #[test]
    fn corrupted_compressed_block_is_detected_not_garbage() {
        let env = MemEnv::new();
        let path = Path::new("/sst/corrupt-lz.sst");
        let mut lz_opts = StoreOptions::default();
        lz_opts.compression = pebblesdb_common::CompressionType::Lz;
        let size = build_table_with(&env, path, 500, &lz_opts);

        let pristine = env.read_file_to_vec(path).unwrap();
        // Flip one bit at a spread of offsets across the file body. Every
        // flip must surface as an error or a clean miss — never a panic or a
        // wrong value.
        for pos in (0..pristine.len().saturating_sub(60)).step_by(97) {
            let mut contents = pristine.clone();
            contents[pos] ^= 1 << (pos % 8);
            let mut f = env.new_writable_file(path).unwrap();
            f.append(&contents).unwrap();
            f.close().unwrap();

            let file = env.new_random_access_file(path).unwrap();
            let Ok(table) = Table::open(&lz_opts, file, size, 10, None) else {
                continue; // corruption caught at open time: fine
            };
            let target = encode_internal_key(b"key000250", u64::MAX >> 8, ValueType::Value);
            match table.get(&ReadOptions::default(), &target) {
                Err(_) | Ok(None) => {}
                Ok(Some((_, value))) => {
                    assert_eq!(value, b"value-250", "bit flip at {pos} corrupted a read");
                }
            }
        }
    }
}
