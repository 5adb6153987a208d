//! Builds an sstable file from a sorted stream of entries.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pebblesdb_bloom::BloomFilterBuilder;
use pebblesdb_common::hash::bloom_hash;
use pebblesdb_common::key::extract_user_key;
use pebblesdb_common::{crc32c, CompressionType, EngineCounters, Result, StoreOptions};
use pebblesdb_env::WritableFile;

use crate::block::BlockBuilder;
use crate::footer::{BlockHandle, Footer};
use crate::BLOCK_SIZE;

/// Entries between restart points in a data block.
const BLOCK_RESTART_INTERVAL: usize = 16;

/// Streams sorted internal key/value pairs into an sstable file.
///
/// Entries must be added in increasing internal-key order. Call
/// [`TableBuilder::finish`] to write the filter block, index block and footer
/// and obtain the final file size. A build allocates per table, not per
/// entry or per block: every buffer below is reused from block to block.
pub struct TableBuilder {
    writer: BlockWriter,
    /// The open data block; its buffer outlives the block.
    data_block: BlockBuilder,
    /// One entry per data block written: its last key, whole, as the
    /// separator, and its handle.
    index_block: BlockBuilder,
    /// `bloom_hash` of every entry's user key, for the sstable-level bloom
    /// filter. The filter is sized from the real key count at `finish` time,
    /// which keeps the false positive rate at the configured bits-per-key
    /// regardless of table size, and it sees nothing of a key but its hash.
    bloom_hashes: Vec<u32>,
    bloom_bits_per_key: usize,
    num_entries: u64,
    /// Scratch for an index entry's encoded block handle.
    handle_encoding: Vec<u8>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `file` with the filter parameters of
    /// `options`, compressing with [`StoreOptions::compression`].
    pub fn new(options: &StoreOptions, file: Box<dyn WritableFile>) -> Self {
        TableBuilder {
            writer: BlockWriter {
                file,
                offset: 0,
                compression: options.compression,
                counters: Arc::clone(&options.counters),
            },
            data_block: BlockBuilder::new(BLOCK_RESTART_INTERVAL),
            index_block: BlockBuilder::new(1),
            bloom_hashes: Vec::new(),
            bloom_bits_per_key: options.bloom_bits_per_key,
            num_entries: 0,
            handle_encoding: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
        }
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate size of the file written so far.
    pub fn file_size(&self) -> u64 {
        self.writer.offset + self.data_block.current_size_estimate() as u64
    }

    /// The first internal key added (if any).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// The last internal key added (if any).
    pub fn last_key(&self) -> Option<&[u8]> {
        if self.last_key.is_empty() {
            None
        } else {
            Some(&self.last_key)
        }
    }

    /// Adds an entry. Keys must arrive in ascending internal-key order.
    pub fn add(&mut self, internal_key: &[u8], value: &[u8]) -> Result<()> {
        if self.first_key.is_none() {
            self.first_key = Some(internal_key.to_vec());
        }
        if self.bloom_bits_per_key > 0 {
            self.bloom_hashes
                .push(bloom_hash(extract_user_key(internal_key)));
        }
        self.data_block.add(internal_key, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(internal_key);
        self.num_entries += 1;

        if self.data_block.current_size_estimate() >= BLOCK_SIZE {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Finishes the table: flushes the last data block, writes the filter and
    /// index blocks and the footer, syncs the file and returns its size.
    pub fn finish(mut self) -> Result<u64> {
        if !self.data_block.is_empty() {
            self.flush_data_block()?;
        }

        // Filter block: raw bloom filter bytes (not block-formatted).
        let filter_handle = if self.bloom_hashes.is_empty() {
            BlockHandle::default()
        } else {
            let mut filter =
                BloomFilterBuilder::new(self.bloom_bits_per_key, self.bloom_hashes.len());
            for &hash in &self.bloom_hashes {
                filter.add_hash(hash);
            }
            self.writer.write_block_with_tag(&filter.finish(), 0)?
        };

        // Index block (compressed like data blocks when the codec pays).
        let index_handle = self.writer.write_block(self.index_block.finish())?;

        let footer = Footer {
            filter_handle,
            index_handle,
        };
        self.writer.append(&footer.encode())?;
        self.writer.file.sync()?;
        self.writer.file.close()?;
        Ok(self.writer.offset)
    }

    /// Writes the data block and its index entry, and readies the block's
    /// buffer for the next one.
    fn flush_data_block(&mut self) -> Result<()> {
        let handle = self.writer.write_block(self.data_block.finish())?;
        self.handle_encoding.clear();
        handle.encode_to(&mut self.handle_encoding);
        self.index_block
            .add(self.data_block.last_key(), &self.handle_encoding);
        self.data_block.reset();
        Ok(())
    }
}

/// The file end of a [`TableBuilder`]: appends blocks, each followed by its
/// trailer, and knows where the next one starts.
struct BlockWriter {
    file: Box<dyn WritableFile>,
    offset: u64,
    /// Codec for data and index blocks (the filter block is raw bloom bits —
    /// incompressible by construction — and always stored with tag 0).
    compression: CompressionType,
    counters: Arc<EngineCounters>,
}

impl BlockWriter {
    /// Writes a data/index block through the configured codec, falling back
    /// to raw storage when compression saves less than ~12.5% — the stored
    /// trailer tag always matches what was actually written, so readers
    /// dispatch per block and a mixed-tag file is perfectly normal.
    fn write_block(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        match self.compression {
            CompressionType::None => self.write_block_with_tag(contents, 0),
            CompressionType::Lz => match pebblesdb_compress::compress_if_worthwhile(contents) {
                Some(compressed) => {
                    self.counters
                        .record_compressed(contents.len() as u64, compressed.len() as u64);
                    self.write_block_with_tag(&compressed, CompressionType::Lz.tag())
                }
                None => {
                    self.counters
                        .compress_skipped_blocks
                        .fetch_add(1, Ordering::Relaxed);
                    self.write_block_with_tag(contents, 0)
                }
            },
        }
    }

    /// Writes block contents followed by the 5-byte trailer
    /// (compression tag + masked CRC of contents and tag).
    fn write_block_with_tag(&mut self, contents: &[u8], tag: u8) -> Result<BlockHandle> {
        let handle = BlockHandle::new(self.offset, contents.len() as u64);
        let crc = crc32c::extend(crc32c::crc32c(contents), &[tag]);
        let mut trailer = [0u8; 5];
        trailer[0] = tag;
        trailer[1..].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        self.append(contents)?;
        self.append(&trailer)?;
        Ok(handle)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.append(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{encode_internal_key, ValueType};
    use pebblesdb_env::{Env, MemEnv};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::path::Path;

    #[test]
    fn builder_tracks_entry_count_and_keys() {
        let env = MemEnv::new();
        let file = env.new_writable_file(Path::new("/t.sst")).unwrap();
        let mut builder = TableBuilder::new(&StoreOptions::default(), file);
        assert_eq!(builder.num_entries(), 0);
        assert!(builder.first_key().is_none());

        let k1 = encode_internal_key(b"aaa", 1, ValueType::Value);
        let k2 = encode_internal_key(b"bbb", 2, ValueType::Value);
        builder.add(&k1, b"1").unwrap();
        builder.add(&k2, b"2").unwrap();
        assert_eq!(builder.num_entries(), 2);
        assert_eq!(builder.first_key().unwrap(), k1.as_slice());
        assert_eq!(builder.last_key().unwrap(), k2.as_slice());
        let size = builder.finish().unwrap();
        assert_eq!(size, env.file_size(Path::new("/t.sst")).unwrap());
        assert!(size > 0);
    }

    /// Blocks are cut by size: 200 entries of ~80 bytes fill several.
    #[test]
    fn small_blocks_force_multiple_data_blocks() {
        let env = MemEnv::new();
        let path = Path::new("/t3.sst");
        let file = env.new_writable_file(path).unwrap();
        let opts = StoreOptions::default();
        let mut builder = TableBuilder::new(&opts, file);
        for i in 0..200u32 {
            let key = encode_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, &[b'v'; 64]).unwrap();
        }
        let size = builder.finish().unwrap();
        assert!(size > 3 * BLOCK_SIZE as u64, "{size}");
        let file = env.new_random_access_file(path).unwrap();
        let table = crate::Table::open(&opts, file, size, 1, None).unwrap();
        assert!(table.data_blocks() >= 4, "{}", table.data_blocks());
    }

    /// A seeded table — a dozen data blocks, a bloom filter, one user key in
    /// five versions — hashes to the CRC32C its bytes had while the builder
    /// copied every user key for the filter and gave each block a fresh
    /// buffer: building without allocating per entry changed no byte.
    #[test]
    fn a_seeded_table_has_the_recorded_bytes() {
        const FILE_CRC32C: u32 = 0x4138_0a29;

        let env = MemEnv::new();
        let path = Path::new("/golden.sst");
        let opts = StoreOptions::default();
        assert!(opts.bloom_bits_per_key > 0);
        let mut builder = TableBuilder::new(&opts, env.new_writable_file(path).unwrap());
        let mut rng = StdRng::seed_from_u64(47);
        for i in 0..400u32 {
            let user = format!("key{:06}", i * 7);
            let versions = if i == 200 { 5 } else { 1 };
            for sequence in (1..=versions).rev() {
                let kind = if sequence == 3 {
                    ValueType::Deletion
                } else {
                    ValueType::Value
                };
                let key = encode_internal_key(user.as_bytes(), sequence, kind);
                let len = rng.gen_range(0..240usize);
                let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                builder.add(&key, &value).unwrap();
            }
        }
        let size = builder.finish().unwrap();
        let bytes = env.read_file_to_vec(path).unwrap();
        assert_eq!(bytes.len() as u64, size);

        let file = env.new_random_access_file(path).unwrap();
        let table = crate::Table::open(&opts, file, size, 1, None).unwrap();
        assert!(table.data_blocks() >= 10, "{}", table.data_blocks());
        let footer = Footer::decode(&bytes).unwrap();
        assert!(footer.filter_handle.size > 0);
        let crc = crc32c::crc32c(&bytes);
        assert_eq!(crc, FILE_CRC32C, "{crc:#010x}");
    }
}
