//! Reads entries back out of an sstable file.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use pebblesdb_bloom::BloomFilterPolicy;
use pebblesdb_common::coding::decode_fixed32;
use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::{crc32c, EngineCounters, Error, ReadOptions, Result, StoreOptions};
use pebblesdb_env::{FileBytes, RandomAccessFile};

use crate::block::{Block, BlockIterator};
use crate::cache::LruCache;
use crate::footer::{BlockHandle, Footer, FOOTER_SIZE};
use crate::BLOCK_TRAILER_SIZE;

/// A shared block cache keyed by `(table id, block offset)`.
///
/// It holds the blocks that cost a copy off the device or a decode, always
/// as **uncompressed** bytes, so a hit never decodes. A table whose file is
/// resident (see [`FileBytes`]) parses its uncompressed blocks in place and
/// never caches them: taking the view again is as cheap as a hit, and a
/// cached view would pin the file's whole buffer past the file's deletion.
pub type BlockCache = LruCache<(u64, u64), Block>;

/// Hard ceiling a compressed block's claimed uncompressed size may reach.
/// Real blocks top out around `BLOCK_SIZE` (plus one oversized entry); this
/// only exists so a corrupt length header is rejected as corruption instead
/// of trusted.
const MAX_DECOMPRESSED_BLOCK: usize = u32::MAX as usize;

/// Trailer tag of a block stored as it is.
const UNCOMPRESSED: u8 = 0;
/// Trailer tag of a block stored through `pebblesdb-compress`.
const LZ: u8 = 1;

/// An open, immutable sstable.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    /// Whether `file` hands out views of its own bytes.
    resident: bool,
    index_block: Block,
    filter: Option<FileBytes>,
    filter_policy: BloomFilterPolicy,
    block_cache: Option<Arc<BlockCache>>,
    /// Identifier used in block-cache keys (the engine's file number).
    cache_id: u64,
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
        Table::open_with(options, file, size, cache_id, block_cache, false)
    }

    /// [`Table::open`]; `blocks_checked` says an earlier open of this very
    /// file checked its data blocks (its [`TableSlot`](crate::TableSlot)
    /// remembers), so a resident file's are not walked again: an sstable
    /// never changes.
    pub(crate) fn open_with(
        options: &StoreOptions,
        file: Arc<dyn RandomAccessFile>,
        size: u64,
        cache_id: u64,
        block_cache: Option<Arc<BlockCache>>,
        blocks_checked: bool,
    ) -> Result<Self> {
        if (size as usize) < FOOTER_SIZE {
            return Err(Error::corruption("file too small to be an sstable"));
        }
        let footer_data = file.read_bytes(size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_data)?;

        let counters = &options.counters;
        let read = |handle: &BlockHandle| StoredBlock::read(file.as_ref(), handle, size)?.verify();
        let index_block = Block::new(read(&footer.index_handle)?.contents(counters)?)?;
        let filter = if footer.filter_handle.size > 0 && options.bloom_bits_per_key > 0 {
            Some(read(&footer.filter_handle)?.contents(counters)?)
        } else {
            None
        };
        // A resident file's data blocks are parsed where they lie and never
        // copied again, so this is the one point at which each is checked.
        let resident = footer_data.is_resident();
        if resident && !blocks_checked {
            let mut index = index_block.iter();
            index.seek_to_first();
            while index.valid() {
                read(&BlockHandle::decode_from(index.value())?.0)?;
                index.next();
            }
            index.status()?;
        }

        Ok(Table {
            resident,
            file,
            index_block,
            filter,
            filter_policy: BloomFilterPolicy::new(options.bloom_bits_per_key.max(1)),
            block_cache,
            cache_id,
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
    /// Returns a copy of the entry's internal key and value; the caller
    /// decides whether the user key actually matches and whether the
    /// sequence number is visible. `_read_options` is ignored: every block
    /// is verified once on its way into memory, whoever reads it.
    pub fn get(
        &self,
        _read_options: &ReadOptions,
        target: &[u8],
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        self.get_with(target, |key, value| (key.to_vec(), value.to_vec()))
    }

    /// Looks up the first entry with internal key `>= target` and hands its
    /// internal key and value to `found` where they lie, so the caller
    /// copies only what it keeps. `Ok(None)` if the table holds no such
    /// entry; a malformed entry or a block that fails its checksum on the
    /// way is `Corruption`.
    pub fn get_with<T>(
        &self,
        target: &[u8],
        found: impl FnOnce(&[u8], &[u8]) -> T,
    ) -> Result<Option<T>> {
        let mut index_iter = self.index_block.iter();
        index_iter.seek(target);
        index_iter.status()?;
        if !index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
        let mut block_iter = BlockIterator::new(self.read_data_block(&handle)?);
        block_iter.seek(target);
        block_iter.status()?;
        Ok(block_iter
            .valid()
            .then(|| found(block_iter.key(), block_iter.value())))
    }

    /// Creates a two-level iterator over the whole table. `_read_options`
    /// is ignored, as [`Table::get`]'s is.
    pub fn iter(self: &Arc<Self>, _read_options: &ReadOptions) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            index_iter: self.index_block.iter(),
            data_iter: None,
            error: None,
        }
    }

    /// The data block `handle` names. A resident file's uncompressed block
    /// is parsed where it lies and bypasses the cache; any other block — a
    /// copy off the device, or a decode — is looked up in the cache first
    /// and inserted into it after. A resident file's blocks were verified
    /// at open; a copied one is verified here, before the cache sees it.
    fn read_data_block(&self, handle: &BlockHandle) -> Result<Block> {
        let mut stored = None;
        if self.resident {
            let block = StoredBlock::read(self.file.as_ref(), handle, self.size)?;
            if block.tag() == UNCOMPRESSED {
                return Block::new(block.contents(&self.counters)?);
            }
            stored = Some(block);
        }
        let cache_key = (self.cache_id, handle.offset);
        let cache = self.block_cache.as_ref();
        if let Some(block) = cache.and_then(|cache| cache.get(&cache_key)) {
            return Ok(block);
        }
        let stored = match stored {
            Some(stored) => stored,
            None => StoredBlock::read(self.file.as_ref(), handle, self.size)?.verify()?,
        };
        let block = Block::new(stored.contents(&self.counters)?)?;
        if let Some(cache) = cache {
            cache.insert(cache_key, block.clone(), block.size());
        }
        Ok(block)
    }
}

/// A block as the file stores it: the contents, then a one-byte compression
/// tag and a masked CRC32C over both.
struct StoredBlock(FileBytes);

impl StoredBlock {
    /// Reads the block `handle` names from a table of `table_size` bytes.
    /// The handle was read off the file too, so it is checked first: one
    /// that ends past the table is corruption, never an out-of-range read
    /// or an allocation of whatever size it claims.
    fn read(file: &dyn RandomAccessFile, handle: &BlockHandle, table_size: u64) -> Result<Self> {
        let len = handle.size.checked_add(BLOCK_TRAILER_SIZE as u64);
        let end = len.and_then(|len| handle.offset.checked_add(len));
        let len = match (len, end) {
            (Some(len), Some(end)) if end <= table_size => len as usize,
            _ => return Err(Error::corruption("block handle points past the table")),
        };
        let raw = file.read_bytes(handle.offset, len)?;
        if raw.len() < len {
            return Err(Error::corruption("truncated block read"));
        }
        Ok(StoredBlock(raw))
    }

    fn tag(&self) -> u8 {
        self.0[self.0.len() - BLOCK_TRAILER_SIZE]
    }

    /// Checks the masked CRC32C, which covers the stored (possibly
    /// compressed) bytes plus the tag, so it runs before any decode.
    fn verify(self) -> Result<Self> {
        let size = self.0.len() - BLOCK_TRAILER_SIZE;
        let crc = crc32c::crc32c(&self.0[..size + 1]);
        if crc32c::mask(crc) != decode_fixed32(&self.0[size + 1..]) {
            return Err(Error::corruption("block checksum mismatch"));
        }
        Ok(self)
    }

    /// The **uncompressed** contents, dispatching on the trailer tag; a tag
    /// this build does not know is corruption. Uncompressed contents are a
    /// sub-view of the bytes read; compressed ones decode into memory of
    /// their own.
    fn contents(self, counters: &EngineCounters) -> Result<FileBytes> {
        let (size, tag) = (self.0.len() - BLOCK_TRAILER_SIZE, self.tag());
        let contents = &self.0[..size];
        match tag {
            UNCOMPRESSED => Ok(self.0.slice(0..size)),
            LZ => {
                let start = Instant::now();
                let decoded = pebblesdb_compress::decompress(contents, MAX_DECOMPRESSED_BLOCK)?;
                counters
                    .decompress_micros
                    .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                Ok(decoded.into())
            }
            _ => Err(Error::corruption("unsupported compression type")),
        }
    }
}

/// A two-level iterator: index block entries point at data blocks.
///
/// One data-block iterator is reused from block to block, key buffer and
/// all. The first error — a block that cannot be read, or a malformed entry
/// in either block — ends iteration: the iterator stays invalid and
/// [`TableIterator::status`] reports it, rather than moving on to the next
/// block and skipping what the damage hid.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIterator,
    /// `None` until the first data block is loaded.
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

    /// Latches the first error of either block iterator; `true` once the
    /// iterator has failed.
    fn failed(&mut self) -> bool {
        if self.error.is_none() {
            let data = self
                .data_iter
                .as_ref()
                .map_or(Ok(()), BlockIterator::status);
            self.error = self.index_iter.status().and(data).err();
        }
        self.error.is_some()
    }

    /// Loads the data block the index iterator is on and positions in it
    /// with `position`. Does nothing past the last block or once failed.
    fn enter_block(&mut self, position: impl FnOnce(&mut BlockIterator)) {
        if self.failed() || !self.index_iter.valid() {
            return;
        }
        let block = BlockHandle::decode_from(self.index_iter.value())
            .and_then(|(handle, _)| self.table.read_data_block(&handle));
        match (block, self.data_iter.as_mut()) {
            (Ok(block), Some(iter)) => {
                iter.reset(block);
                position(iter);
            }
            (Ok(block), None) => position(self.data_iter.insert(BlockIterator::new(block))),
            (Err(err), _) => self.error = Some(err),
        }
    }

    /// Whether the data iterator is loaded and exhausted, with more blocks
    /// to go: the cue to step to the next block.
    fn block_exhausted(&mut self) -> bool {
        let exhausted = self.data_iter.as_ref().is_some_and(|it| !it.valid());
        exhausted && !self.failed() && self.index_iter.valid()
    }

    fn skip_empty_data_blocks(&mut self) {
        while self.block_exhausted() {
            self.index_iter.next();
            self.enter_block(DbIterator::seek_to_first);
        }
    }
}

impl DbIterator for TableIterator {
    fn status(&self) -> Result<()> {
        TableIterator::status(self)
    }

    #[inline]
    fn valid(&self) -> bool {
        self.error.is_none()
            && self.index_iter.valid()
            && self.data_iter.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.enter_block(DbIterator::seek_to_first);
        self.skip_empty_data_blocks();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.enter_block(|iter| iter.seek(target));
        self.skip_empty_data_blocks();
    }

    fn next(&mut self) {
        let iter = self.data_iter.as_mut();
        iter.expect("next() on invalid table iterator").next();
        self.skip_empty_data_blocks();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("iterator not valid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("iterator not valid").value()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::table_builder::TableBuilder;
    use pebblesdb_common::coding::put_fixed32;
    use pebblesdb_common::key::{encode_internal_key, extract_user_key, ValueType};
    use pebblesdb_env::{DiskEnv, Env, MemEnv};
    use std::path::{Path, PathBuf};

    /// Builds a table of `n` entries `k00000 -> v0`, ... of some 16 bytes
    /// each, so `n` alone decides how many data blocks it has.
    fn build(env: &MemEnv, path: &Path, n: u32, opts: &StoreOptions) -> u64 {
        let file = env.new_writable_file(path).unwrap();
        let mut builder = TableBuilder::new(opts, file);
        for i in 0..n {
            let key = encode_internal_key(format!("k{i:05}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, format!("v{i}").as_bytes()).unwrap();
        }
        builder.finish().unwrap()
    }

    impl Table {
        /// How many data blocks the table has: one index entry each.
        pub(crate) fn data_blocks(&self) -> usize {
            let mut index = self.index_block.iter();
            index.seek_to_first();
            let mut blocks = 0;
            while index.valid() {
                blocks += 1;
                index.next();
            }
            blocks
        }
    }

    /// A file that holds its bytes elsewhere: it implements only `read`,
    /// so every read is a copy, as off a disk.
    pub(crate) struct CopyingFile(pub(crate) Arc<dyn RandomAccessFile>);

    impl RandomAccessFile for CopyingFile {
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.0.read(offset, len)
        }
        fn len(&self) -> Result<u64> {
            self.0.len()
        }
    }

    fn open_cached(
        env: &MemEnv,
        path: &Path,
        size: u64,
        opts: &StoreOptions,
        copying: bool,
    ) -> (Arc<Table>, Arc<BlockCache>) {
        let cache: Arc<BlockCache> = Arc::new(LruCache::new(1 << 20));
        let mut file = env.new_random_access_file(path).unwrap();
        if copying {
            file = Arc::new(CopyingFile(file));
        }
        let table = Table::open(opts, file, size, 7, Some(Arc::clone(&cache))).unwrap();
        (Arc::new(table), cache)
    }

    fn get_k100(table: &Table) {
        let target = encode_internal_key(b"k00100", u64::MAX >> 8, ValueType::Value);
        let (_, value) = table
            .get(&ReadOptions::default(), &target)
            .unwrap()
            .unwrap();
        assert_eq!(value, b"v100");
    }

    /// Blocks read through a copying file are cached: the second read of a
    /// block is a hit, not a second copy.
    #[test]
    fn block_cache_serves_repeat_reads() {
        let env = MemEnv::new();
        let path = Path::new("/c.sst");
        let opts = StoreOptions::default();
        let size = build(&env, path, 2000, &opts);
        let (table, cache) = open_cached(&env, path, size, &opts, true);
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        get_k100(&table);
        assert_eq!(cache.hit_miss(), (0, 1));
        get_k100(&table);
        assert_eq!(cache.hit_miss(), (1, 1));
        assert!(cache.usage() > 0);
    }

    /// A resident file's uncompressed blocks are read in place: gets and
    /// cursors neither look the cache up nor fill it.
    #[test]
    fn a_resident_table_leaves_the_block_cache_untouched() {
        let env = MemEnv::new();
        let path = Path::new("/r.sst");
        let opts = StoreOptions::default();
        let size = build(&env, path, 2000, &opts);
        let (table, cache) = open_cached(&env, path, size, &opts, false);
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        get_k100(&table);
        get_k100(&table);
        let mut iter = table.iter(&ReadOptions::default());
        iter.seek_to_first();
        let mut count = 0;
        while iter.valid() {
            count += 1;
            iter.next();
        }
        assert_eq!(count, 2000);
        iter.seek(&encode_internal_key(
            b"k01999",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        assert_eq!(extract_user_key(iter.key()), b"k01999");
        assert_eq!((cache.usage(), cache.hit_miss()), (0, (0, 0)));
    }

    /// A compressed block costs a decode even when its file is resident, so
    /// it goes through the cache: decoded on the first read, a hit after.
    #[test]
    fn compressed_blocks_of_a_resident_file_are_cached_and_decoded_once() {
        let env = MemEnv::new();
        let path = Path::new("/lz.sst");
        let mut opts = StoreOptions::default();
        opts.compression = pebblesdb_common::CompressionType::Lz;
        let size = build(&env, path, 2000, &opts);
        let (table, cache) = open_cached(&env, path, size, &opts, false);
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        get_k100(&table);
        assert_eq!(cache.hit_miss(), (0, 1));
        let decoded = cache.usage();
        assert!(decoded > 0);
        get_k100(&table);
        assert_eq!((cache.usage(), cache.hit_miss()), (decoded, (1, 1)));
    }

    #[test]
    fn iterator_covers_block_boundaries() {
        let env = MemEnv::new();
        let path = Path::new("/b.sst");
        let opts = StoreOptions::default();
        let size = build(&env, path, 2000, &opts);
        let file = env.new_random_access_file(path).unwrap();
        let table = Arc::new(Table::open(&opts, file, size, 1, None).unwrap());
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        let mut iter = table.iter(&ReadOptions::default());
        iter.seek_to_first();
        let mut count = 0u32;
        while iter.valid() {
            let expected = format!("k{count:05}");
            assert_eq!(extract_user_key(iter.key()), expected.as_bytes());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 2000);
        assert!(iter.status().is_ok());

        iter.seek(&encode_internal_key(
            b"k01998",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        assert_eq!(extract_user_key(iter.key()), b"k01998");
        iter.next();
        assert_eq!(extract_user_key(iter.key()), b"k01999");
        iter.next();
        assert!(!iter.valid() && iter.status().is_ok());
    }

    /// Re-seals the first data block's CRC over the bytes it now holds, so
    /// that only the block decoder can see what a test planted in it.
    fn reseal_first_block(contents: &mut [u8]) {
        let footer = Footer::decode(&contents[contents.len() - FOOTER_SIZE..]).unwrap();
        let index = footer.index_handle;
        let index = &contents[index.offset as usize..(index.offset + index.size) as usize];
        let mut iter = Block::new(index.to_vec().into()).unwrap().iter();
        iter.seek_to_first();
        let (first, _) = BlockHandle::decode_from(iter.value()).unwrap();
        let tag = (first.offset + first.size) as usize;
        let crc = crc32c::mask(crc32c::crc32c(&contents[first.offset as usize..=tag]));
        contents[tag + 1..tag + 5].copy_from_slice(&crc.to_le_bytes());
    }

    /// A malformed entry — entry 2 of the first data block claims 127
    /// shared key bytes after a 14-byte key, under a CRC re-sealed over it —
    /// stops every reader at it with `Corruption`; the blocks after it
    /// still read. It used to end its block quietly: a scan skipped the
    /// rest of that block with an `Ok` status and `get("k00003")` returned
    /// `Ok(None)`.
    #[test]
    fn a_malformed_entry_is_corruption_not_the_end_of_its_block() {
        let env = MemEnv::new();
        let path = Path::new("/bad-entry.sst");
        let opts = StoreOptions::default();
        let size = build(&env, path, 2000, &opts);
        // Entries 0 and 1 take 3 + 14 + 2 and 3 + 9 + 2 bytes (`k00001`
        // shares `k0000`); entry 2 starts with its shared length.
        const ENTRY_2: usize = 19 + 14;
        let mut contents = env.read_file_to_vec(path).unwrap();
        assert_eq!(contents[ENTRY_2], 5, "`k00002` shares `k0000`");
        contents[ENTRY_2] = 127;
        reseal_first_block(&mut contents);
        let mut file = env.new_writable_file(path).unwrap();
        file.append(&contents).unwrap();
        file.close().unwrap();
        let file = env.new_random_access_file(path).unwrap();
        let table = Arc::new(Table::open(&opts, file, size, 1, None).unwrap());
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        let read = ReadOptions::default();
        let mut iter = table.iter(&read);
        iter.seek_to_first();
        let mut seen = Vec::new();
        while iter.valid() {
            seen.push(extract_user_key(iter.key()).to_vec());
            iter.next();
        }
        assert_eq!(seen, [b"k00000", b"k00001"]);
        assert!(is_corruption(iter.status()));
        iter.seek_to_first();
        assert!(!iter.valid(), "the iterator stays stopped");

        let mut iter = table.iter(&read);
        iter.seek(&encode_internal_key(
            b"k00003",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        assert!(!iter.valid() && is_corruption(iter.status()));

        let get = |user: &str| {
            let target = encode_internal_key(user.as_bytes(), u64::MAX >> 8, ValueType::Value);
            table
                .get(&read, &target)
                .map(|found| found.map(|(_, value)| value))
        };
        assert!(is_corruption(get("k00003")));
        assert_eq!(get("k00001").unwrap().unwrap(), b"v1");
        assert_eq!(get("k01999").unwrap().unwrap(), b"v1999");
    }

    /// A table file whose index block maps one key to `data`, behind a
    /// footer that names `index` as the index block (`None`: the real one).
    fn forged_table(data: BlockHandle, index: Option<BlockHandle>) -> Vec<u8> {
        let mut builder = BlockBuilder::new(1);
        builder.add(
            &encode_internal_key(b"k", 1, ValueType::Value),
            &data.encode(),
        );
        let mut file = builder.finish().to_vec();
        let index_handle = BlockHandle::new(0, file.len() as u64);
        file.push(UNCOMPRESSED);
        let crc = crc32c::mask(crc32c::crc32c(&file));
        put_fixed32(&mut file, crc);
        let footer = Footer {
            filter_handle: BlockHandle::default(),
            index_handle: index.unwrap_or(index_handle),
        };
        file.extend(footer.encode());
        file
    }

    fn is_corruption<T>(result: Result<T>) -> bool {
        matches!(result, Err(Error::Corruption(_)))
    }

    /// A block handle is read off the file, so a corrupt one — in the footer
    /// or in the index block; wrapping the offset arithmetic, or claiming
    /// 64 GiB — is `Corruption` on either env: never a panic, never an
    /// allocation of the size it claims. A resident (`MemEnv`) file meets
    /// a bad data-block handle at `open`, which checks every data block; a
    /// copying (`DiskEnv`) one at the `get` or cursor that follows it.
    #[test]
    fn a_corrupt_block_handle_is_corruption_on_both_envs() {
        let disk_dir = std::env::temp_dir().join(format!("pebbles-handles-{}", std::process::id()));
        let envs: [(Arc<dyn Env>, PathBuf, bool); 2] = [
            (Arc::new(MemEnv::new()), PathBuf::from("/handles"), true),
            (Arc::new(DiskEnv::new()), disk_dir.clone(), false),
        ];
        let corrupt = [
            BlockHandle::new(0, u64::MAX - 1),
            BlockHandle::new(0, 1 << 36),
            BlockHandle::new(u64::MAX - 2, 1),
        ];
        let opts = StoreOptions::default();
        for (env, dir, resident) in envs {
            env.create_dir_all(&dir).unwrap();
            let open = |contents: Vec<u8>| {
                let path = dir.join("forged.sst");
                let mut file = env.new_writable_file(&path).unwrap();
                file.append(&contents).unwrap();
                file.close().unwrap();
                let file = env.new_random_access_file(&path).unwrap();
                Table::open(&opts, file, contents.len() as u64, 1, None)
            };
            let target = encode_internal_key(b"k", 1, ValueType::Value);
            for handle in corrupt {
                assert!(
                    is_corruption(open(forged_table(handle, Some(handle)))),
                    "{handle:?}"
                );

                let opened = open(forged_table(handle, None));
                if resident {
                    assert!(is_corruption(opened), "{handle:?}");
                    continue;
                }
                let table = Arc::new(opened.unwrap());
                assert!(is_corruption(table.get(&ReadOptions::default(), &target)));
                let mut iter = table.iter(&ReadOptions::default());
                iter.seek_to_first();
                assert!(!iter.valid() && is_corruption(iter.status()), "{handle:?}");
            }
        }
        DiskEnv::new().remove_dir_all(&disk_dir).unwrap();
    }

    /// A flipped value byte breaks no structure; only the block CRC sees
    /// it. A copying file's block is checked on the cache-miss path, so a
    /// default `get` into it is `Corruption` (it used to return `v1` for
    /// `k00000`), every time: the block never enters the cache. Gets into
    /// other blocks still read.
    #[test]
    fn a_copied_block_is_verified_before_it_enters_the_cache() {
        let env = MemEnv::new();
        let path = Path::new("/flipped.sst");
        let opts = StoreOptions::default();
        let size = build(&env, path, 2000, &opts);
        // Entry 0 of the first block: 3 header bytes, a 14-byte key, `v0`.
        let mut contents = env.read_file_to_vec(path).unwrap();
        assert_eq!(&contents[17..19], b"v0");
        contents[18] ^= 1;
        let mut file = env.new_writable_file(path).unwrap();
        file.append(&contents).unwrap();
        file.close().unwrap();
        let (table, cache) = open_cached(&env, path, size, &opts, true);
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());

        let get = |user: &str| {
            let target = encode_internal_key(user.as_bytes(), u64::MAX >> 8, ValueType::Value);
            let found = table.get(&ReadOptions::default(), &target);
            found.map(|found| found.map(|(_, value)| value))
        };
        assert!(is_corruption(get("k00000")));
        assert!(is_corruption(get("k00001")));
        assert_eq!((cache.usage(), cache.hit_miss()), (0, (0, 2)));
        assert_eq!(get("k01999").unwrap().unwrap(), b"v1999");
        assert_eq!(get("k01999").unwrap().unwrap(), b"v1999");
        assert_eq!(cache.hit_miss(), (1, 3));
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
