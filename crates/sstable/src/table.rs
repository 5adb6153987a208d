//! Reads entries back out of an sstable file.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use pebblesdb_bloom::BloomFilterPolicy;
use pebblesdb_common::coding::decode_fixed32;
use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::{crc32c, EngineCounters, Error, ReadOptions, Result, StoreOptions};
use pebblesdb_env::RandomAccessFile;

use crate::block::{Block, BlockIterator};
use crate::cache::LruCache;
use crate::footer::{BlockHandle, Footer, FOOTER_SIZE};
use crate::BLOCK_TRAILER_SIZE;

/// A shared block cache keyed by `(table id, block offset)`.
///
/// Cached blocks are always the **uncompressed** bytes: decompression
/// happens once, on the device-read path, so cache hits never pay decode
/// cost.
pub type BlockCache = LruCache<(u64, u64), Block>;

/// Hard ceiling a compressed block's claimed uncompressed size may reach.
/// Real blocks top out around `block_size` (plus one oversized entry); this
/// only exists so a corrupt length header is rejected as corruption instead
/// of trusted.
const MAX_DECOMPRESSED_BLOCK: usize = u32::MAX as usize;

/// An open, immutable sstable.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    index_block: Arc<Block>,
    filter: Option<Vec<u8>>,
    filter_policy: BloomFilterPolicy,
    block_cache: Option<Arc<BlockCache>>,
    /// Identifier used in block-cache keys (the engine's file number).
    cache_id: u64,
    verify_checksums_default: bool,
    size: u64,
    counters: Arc<EngineCounters>,
}

impl Table {
    /// Opens a table of `size` bytes stored in `file`.
    ///
    /// `cache_id` must be unique per file (the engines use the file number);
    /// `block_cache` may be shared across tables.
    pub fn open(
        options: &StoreOptions,
        file: Arc<dyn RandomAccessFile>,
        size: u64,
        cache_id: u64,
        block_cache: Option<Arc<BlockCache>>,
    ) -> Result<Self> {
        if (size as usize) < FOOTER_SIZE {
            return Err(Error::corruption("file too small to be an sstable"));
        }
        let footer_data = file.read(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_data)?;

        let counters = &options.counters;
        let index_contents =
            Self::read_block_contents(file.as_ref(), &footer.index_handle, true, counters)?;
        let index_block = Arc::new(Block::new(index_contents)?);

        let filter = if footer.filter_handle.size > 0 && options.bloom_bits_per_key > 0 {
            Some(Self::read_block_contents(
                file.as_ref(),
                &footer.filter_handle,
                true,
                counters,
            )?)
        } else {
            None
        };

        Ok(Table {
            file,
            index_block,
            filter,
            filter_policy: BloomFilterPolicy::new(options.bloom_bits_per_key.max(1)),
            block_cache,
            cache_id,
            verify_checksums_default: options.paranoid_checks,
            size,
            counters: Arc::clone(counters),
        })
    }

    /// Total file size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Approximate memory pinned by this open table (index block + filter).
    pub fn memory_usage(&self) -> usize {
        self.index_block.size() + self.filter.as_ref().map_or(0, |f| f.len())
    }

    /// Returns `false` only if the sstable-level bloom filter proves the user
    /// key is absent from this table.
    pub fn may_contain_user_key(&self, user_key: &[u8]) -> bool {
        match &self.filter {
            Some(filter) => self.filter_policy.key_may_match(user_key, filter),
            None => true,
        }
    }

    /// Looks up the first entry with internal key `>= target`.
    ///
    /// Returns the entry's internal key and value; the caller decides whether
    /// the user key actually matches and whether the sequence number is
    /// visible.
    pub fn get(
        &self,
        read_options: &ReadOptions,
        target: &[u8],
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut index_iter = self.index_block.iter();
        index_iter.seek(target);
        if !index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
        let block = self.read_data_block(read_options, &handle)?;
        let mut block_iter = block.iter();
        block_iter.seek(target);
        if !block_iter.valid() {
            return Ok(None);
        }
        let value = block_iter.value().to_vec();
        // The iterator is done with: its key buffer is handed on, not copied.
        Ok(Some((block_iter.key, value)))
    }

    /// Creates a two-level iterator over the whole table.
    pub fn iter(self: &Arc<Self>, read_options: &ReadOptions) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            read_options: read_options.clone(),
            index_iter: self.index_block.iter(),
            data_iter: None,
            error: None,
        }
    }

    /// Reads a block off the device and returns its **uncompressed**
    /// contents, dispatching on the per-block trailer tag. The CRC covers
    /// the stored (possibly compressed) bytes plus the tag, so it is checked
    /// before any decode; a tag this build does not know is corruption.
    fn read_block_contents(
        file: &dyn RandomAccessFile,
        handle: &BlockHandle,
        verify: bool,
        counters: &EngineCounters,
    ) -> Result<Vec<u8>> {
        let mut raw = file.read(handle.offset, handle.size as usize + BLOCK_TRAILER_SIZE)?;
        if raw.len() < handle.size as usize + BLOCK_TRAILER_SIZE {
            return Err(Error::corruption("truncated block read"));
        }
        let contents = &raw[..handle.size as usize];
        let compression = raw[handle.size as usize];
        if verify {
            let stored = decode_fixed32(&raw[handle.size as usize + 1..]);
            let mut crc = crc32c::crc32c(contents);
            crc = crc32c::extend(crc, &[compression]);
            if crc32c::mask(crc) != stored {
                return Err(Error::corruption("block checksum mismatch"));
            }
        }
        match compression {
            0 => {
                raw.truncate(handle.size as usize);
                Ok(raw)
            }
            1 => {
                let start = Instant::now();
                let decoded = pebblesdb_compress::decompress(contents, MAX_DECOMPRESSED_BLOCK)?;
                counters
                    .decompress_micros
                    .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                Ok(decoded)
            }
            _ => Err(Error::corruption("unsupported compression type")),
        }
    }

    fn read_data_block(
        &self,
        read_options: &ReadOptions,
        handle: &BlockHandle,
    ) -> Result<Arc<Block>> {
        let cache_key = (self.cache_id, handle.offset);
        if let Some(cache) = &self.block_cache {
            if let Some(block) = cache.get(&cache_key) {
                return Ok(block);
            }
        }
        let verify = read_options.verify_checksums || self.verify_checksums_default;
        let contents =
            Self::read_block_contents(self.file.as_ref(), handle, verify, &self.counters)?;
        // `contents` is already decompressed, so the cache below only ever
        // holds uncompressed blocks — a cache hit never decodes.
        let block = Block::new(contents)?;
        if let Some(cache) = &self.block_cache {
            if read_options.fill_cache {
                let charge = block.size();
                return Ok(cache.insert(cache_key, block, charge));
            }
        }
        Ok(Arc::new(block))
    }
}

/// A two-level iterator: index block entries point at data blocks.
pub struct TableIterator {
    table: Arc<Table>,
    read_options: ReadOptions,
    index_iter: BlockIterator,
    data_iter: Option<BlockIterator>,
    error: Option<Error>,
}

impl TableIterator {
    /// Returns any IO/corruption error hit while iterating.
    pub fn status(&self) -> Result<()> {
        match &self.error {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    fn load_data_block(&mut self) {
        self.data_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        match BlockHandle::decode_from(self.index_iter.value())
            .and_then(|(handle, _)| self.table.read_data_block(&self.read_options, &handle))
        {
            Ok(block) => self.data_iter = Some(block.iter()),
            Err(err) => self.error = Some(err),
        }
    }

    fn skip_empty_data_blocks_forward(&mut self) {
        while self
            .data_iter
            .as_ref()
            .map(|it| !it.valid())
            .unwrap_or(true)
        {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.load_data_block();
            if let Some(iter) = self.data_iter.as_mut() {
                iter.seek_to_first();
            }
        }
    }

    fn skip_empty_data_blocks_backward(&mut self) {
        while self
            .data_iter
            .as_ref()
            .map(|it| !it.valid())
            .unwrap_or(true)
        {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.prev();
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.load_data_block();
            if let Some(iter) = self.data_iter.as_mut() {
                iter.seek_to_last();
            }
        }
    }
}

impl DbIterator for TableIterator {
    fn status(&self) -> Result<()> {
        TableIterator::status(self)
    }

    fn valid(&self) -> bool {
        self.data_iter
            .as_ref()
            .map(|it| it.valid())
            .unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.load_data_block();
        if let Some(iter) = self.data_iter.as_mut() {
            iter.seek_to_first();
        }
        self.skip_empty_data_blocks_forward();
    }

    fn seek_to_last(&mut self) {
        self.index_iter.seek_to_last();
        self.load_data_block();
        if let Some(iter) = self.data_iter.as_mut() {
            iter.seek_to_last();
        }
        self.skip_empty_data_blocks_backward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.load_data_block();
        if let Some(iter) = self.data_iter.as_mut() {
            iter.seek(target);
        }
        self.skip_empty_data_blocks_forward();
    }

    fn next(&mut self) {
        if let Some(iter) = self.data_iter.as_mut() {
            iter.next();
        }
        self.skip_empty_data_blocks_forward();
    }

    fn prev(&mut self) {
        if let Some(iter) = self.data_iter.as_mut() {
            iter.prev();
        }
        self.skip_empty_data_blocks_backward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("iterator not valid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("iterator not valid").value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_builder::TableBuilder;
    use pebblesdb_common::key::{encode_internal_key, extract_user_key, ValueType};
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;

    fn build(env: &MemEnv, path: &Path, n: u32, opts: &StoreOptions) -> u64 {
        let file = env.new_writable_file(path).unwrap();
        let mut builder = TableBuilder::new(opts, file);
        for i in 0..n {
            let key = encode_internal_key(format!("k{i:05}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, format!("v{i}").as_bytes()).unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let env = MemEnv::new();
        let path = Path::new("/c.sst");
        let mut opts = StoreOptions::default();
        opts.block_size = 512;
        let size = build(&env, path, 500, &opts);

        let cache: Arc<BlockCache> = Arc::new(LruCache::new(1 << 20));
        let file = env.new_random_access_file(path).unwrap();
        let table = Arc::new(Table::open(&opts, file, size, 7, Some(Arc::clone(&cache))).unwrap());

        let target = encode_internal_key(b"k00100", u64::MAX >> 8, ValueType::Value);
        table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .unwrap();
        let misses_after_first = cache.hit_miss().1;
        table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .unwrap();
        let (hits, misses) = cache.hit_miss();
        assert!(hits >= 1);
        assert_eq!(misses, misses_after_first);
    }

    #[test]
    fn iterator_covers_block_boundaries() {
        let env = MemEnv::new();
        let path = Path::new("/b.sst");
        let mut opts = StoreOptions::default();
        opts.block_size = 256;
        let size = build(&env, path, 300, &opts);
        let file = env.new_random_access_file(path).unwrap();
        let table = Arc::new(Table::open(&opts, file, size, 1, None).unwrap());

        let mut iter = table.iter(&ReadOptions::default());
        iter.seek_to_first();
        let mut count = 0u32;
        while iter.valid() {
            let expected = format!("k{count:05}");
            assert_eq!(extract_user_key(iter.key()), expected.as_bytes());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 300);
        assert!(iter.status().is_ok());

        iter.seek_to_last();
        assert_eq!(extract_user_key(iter.key()), b"k00299");
        iter.prev();
        assert_eq!(extract_user_key(iter.key()), b"k00298");
    }

    #[test]
    fn open_rejects_tiny_files() {
        let env = MemEnv::new();
        let path = Path::new("/tiny.sst");
        let mut f = env.new_writable_file(path).unwrap();
        f.append(b"tiny").unwrap();
        f.close().unwrap();
        let file = env.new_random_access_file(path).unwrap();
        assert!(Table::open(&StoreOptions::default(), file, 4, 1, None).is_err());
    }

    #[test]
    fn tables_without_bloom_filters_still_work() {
        let env = MemEnv::new();
        let path = Path::new("/nofilter.sst");
        let mut opts = StoreOptions::default();
        opts.bloom_bits_per_key = 0;
        let size = build(&env, path, 50, &opts);
        let file = env.new_random_access_file(path).unwrap();
        let table = Table::open(&opts, file, size, 1, None).unwrap();
        // Without a filter, everything "may" be present.
        assert!(table.may_contain_user_key(b"definitely-absent"));
        let target = encode_internal_key(b"k00010", u64::MAX >> 8, ValueType::Value);
        assert!(table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .is_some());
    }
}
