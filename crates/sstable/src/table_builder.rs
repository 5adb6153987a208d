//! Builds an sstable file from a sorted stream of entries.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pebblesdb_bloom::BloomFilterPolicy;
use pebblesdb_common::coding::put_fixed32;
use pebblesdb_common::key::extract_user_key;
use pebblesdb_common::{crc32c, CompressionType, EngineCounters, Error, Result, StoreOptions};
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
/// and obtain the final file size.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    offset: u64,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    /// User keys buffered for the sstable-level bloom filter. The filter is
    /// sized from the real key count at `finish` time, which keeps the false
    /// positive rate at the configured bits-per-key regardless of table size.
    filter_keys: Vec<Vec<u8>>,
    bloom_bits_per_key: usize,
    num_entries: u64,
    /// Pending index entry: the last key of the block that was just flushed,
    /// written lazily so it could be shortened (we keep the full key).
    pending_index_entry: Option<(Vec<u8>, BlockHandle)>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    closed: bool,
    /// Codec for data and index blocks (the filter block is raw bloom bits —
    /// incompressible by construction — and always stored with tag 0).
    compression: CompressionType,
    counters: Arc<EngineCounters>,
}

impl TableBuilder {
    /// Creates a builder writing to `file` with the filter parameters of
    /// `options`, compressing with [`StoreOptions::compression`].
    pub fn new(options: &StoreOptions, file: Box<dyn WritableFile>) -> Self {
        TableBuilder {
            file,
            offset: 0,
            data_block: BlockBuilder::new(BLOCK_RESTART_INTERVAL),
            index_block: BlockBuilder::new(1),
            filter_keys: Vec::new(),
            bloom_bits_per_key: options.bloom_bits_per_key,
            num_entries: 0,
            pending_index_entry: None,
            first_key: None,
            last_key: Vec::new(),
            closed: false,
            compression: options.compression,
            counters: Arc::clone(&options.counters),
        }
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate size of the file written so far.
    pub fn file_size(&self) -> u64 {
        self.offset + self.data_block.current_size_estimate() as u64
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
        if self.closed {
            return Err(Error::internal("add() after finish()"));
        }
        self.maybe_flush_pending_index(internal_key)?;

        if self.first_key.is_none() {
            self.first_key = Some(internal_key.to_vec());
        }
        if self.bloom_bits_per_key > 0 {
            self.filter_keys
                .push(extract_user_key(internal_key).to_vec());
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
        self.maybe_flush_pending_index(&[])?;
        self.closed = true;

        // Filter block: raw bloom filter bytes (not block-formatted).
        let filter_handle = if self.bloom_bits_per_key > 0 && !self.filter_keys.is_empty() {
            let policy = BloomFilterPolicy::new(self.bloom_bits_per_key);
            let keys = std::mem::take(&mut self.filter_keys);
            let contents = policy.create_filter(&keys);
            let handle = BlockHandle::new(self.offset, contents.len() as u64);
            self.write_raw_block(&contents)?;
            handle
        } else {
            BlockHandle::default()
        };

        // Index block (compressed like data blocks when the codec pays).
        let index_contents = self.index_block.finish();
        let index_handle = self.write_block(&index_contents)?;

        let footer = Footer {
            filter_handle,
            index_handle,
        };
        let encoded = footer.encode();
        self.file.append(&encoded)?;
        self.offset += encoded.len() as u64;

        self.file.sync()?;
        self.file.close()?;
        Ok(self.offset)
    }

    /// Abandons the table without writing trailing metadata.
    pub fn abandon(mut self) -> Result<()> {
        self.closed = true;
        self.file.close()
    }

    fn maybe_flush_pending_index(&mut self, next_key: &[u8]) -> Result<()> {
        if let Some((last_key, handle)) = self.pending_index_entry.take() {
            let _ = next_key; // The full last key is used as the separator.
            self.index_block.add(&last_key, &handle.encode());
        }
        Ok(())
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let last_key = self.data_block.last_key().to_vec();
        let contents = self.data_block.finish();
        let handle = self.write_block(&contents)?;
        self.data_block.reset();
        self.pending_index_entry = Some((last_key, handle));
        Ok(())
    }

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
    fn write_raw_block(&mut self, contents: &[u8]) -> Result<()> {
        self.write_block_with_tag(contents, 0)?;
        Ok(())
    }

    fn write_block_with_tag(&mut self, contents: &[u8], tag: u8) -> Result<BlockHandle> {
        let handle = BlockHandle::new(self.offset, contents.len() as u64);
        self.file.append(contents)?;
        let mut trailer = Vec::with_capacity(5);
        trailer.push(tag);
        let mut crc = crc32c::crc32c(contents);
        crc = crc32c::extend(crc, &[tag]);
        put_fixed32(&mut trailer, crc32c::mask(crc));
        self.file.append(&trailer)?;
        self.offset += (contents.len() + trailer.len()) as u64;
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{encode_internal_key, ValueType};
    use pebblesdb_env::{Env, MemEnv};
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

    #[test]
    fn add_after_finish_is_rejected() {
        let env = MemEnv::new();
        let file = env.new_writable_file(Path::new("/t2.sst")).unwrap();
        let builder = TableBuilder::new(&StoreOptions::default(), file);
        // `finish` consumes the builder, so "add after finish" is prevented at
        // compile time; `abandon` must also close cleanly.
        builder.abandon().unwrap();
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
}
