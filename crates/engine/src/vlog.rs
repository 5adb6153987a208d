//! Per-column-family value-log state: the active appender the group-commit
//! leader writes through, the sealed/retired file registries the garbage
//! collector works from, and the pointer-resolving reader cache shared with
//! in-flight gets and cursors.
//!
//! Lifecycle of a vlog file:
//!
//! 1. **Active** — created lazily by the first commit that separates a value
//!    for the family; appended to by commit leaders (never by readers).
//! 2. **Sealed** — rotated out once it reaches
//!    [`StoreOptions::vlog_file_size`](pebblesdb_common::StoreOptions), or
//!    found on disk at open (recovered files are never appended to again, so
//!    a torn tail from a crash stays inert).
//! 3. **Retired** — a GC pass relocated every live record out of it; the
//!    file is deleted once no pinned snapshot can still observe a pointer
//!    into it.
//!
//! Vlog files are deliberately **not** recorded in the MANIFEST: the
//! directory listing is the registry (like WAL segments), their numbers are
//! re-marked used at open, and `remove_obsolete_files` always keeps them —
//! their lifecycle is owned by [`vlog_gc`](crate::chassis::EngineDb::vlog_gc),
//! which is the only code that ever deletes one.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::filename::{parse_file_name, vlog_file_name, FileType};
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::vlog::{
    encode_vlog_record_with, parse_vlog_record, ValuePointer, ValueResolver,
};
use pebblesdb_common::{CompressionType, EngineCounters, Error, Result};
use pebblesdb_env::{Env, RandomAccessFile, WritableFile};

/// Open readers a family's cache keeps before evicting; pointer resolution
/// is one ranged read, so a handful of hot files covers real workloads.
const READER_CACHE_CAP: usize = 8;

/// Allocation bound handed to the codec when inflating a compressed vlog
/// value: record lengths are `u32`, so no legitimate value exceeds this.
const MAX_DECOMPRESSED_VALUE: usize = u32::MAX as usize;

/// One family's value-log registry, owned by its
/// [`CfState`](crate::chassis::CfState) under the engine state mutex.
pub struct CfVlog {
    /// The appender, taken by the group-commit leader exactly like the
    /// engine's `state.log`; `None` until the first separated write.
    pub active: Option<ActiveVlog>,
    /// Append-complete files by number, with their sizes: rotation targets
    /// and everything recovered from the directory at open.
    pub sealed: BTreeMap<u64, u64>,
    /// Files a GC pass emptied, keyed by number, with the sequence at which
    /// they were retired: deletable once the snapshot floor passes it.
    pub retired: BTreeMap<u64, SequenceNumber>,
    /// The pointer-resolving reader cache; cloned out of the state lock by
    /// point gets, cursors and the GC scan.
    pub readers: Arc<VlogReaderCache>,
}

impl CfVlog {
    /// Builds the registry for a family rooted at `dir`, scanning the
    /// directory for vlog files a previous incarnation left behind. Every
    /// recovered file is sealed — appending to a file with a possibly-torn
    /// tail would bury the tear mid-file where it reads as corruption.
    pub fn recover(
        env: &Arc<dyn Env>,
        dir: &Path,
        counters: &Arc<EngineCounters>,
    ) -> Result<CfVlog> {
        let mut vlog = CfVlog::new(env, dir, counters);
        for name in env.children(dir)? {
            let Some((FileType::ValueLog, number)) = parse_file_name(&name) else {
                continue;
            };
            let size = env.file_size(&dir.join(&name))?;
            vlog.sealed.insert(number, size);
        }
        Ok(vlog)
    }

    /// An empty registry for a freshly created family.
    pub fn new(env: &Arc<dyn Env>, dir: &Path, counters: &Arc<EngineCounters>) -> CfVlog {
        CfVlog {
            active: None,
            sealed: BTreeMap::new(),
            retired: BTreeMap::new(),
            readers: Arc::new(VlogReaderCache {
                env: Arc::clone(env),
                dir: dir.to_path_buf(),
                counters: Arc::clone(counters),
                readers: Mutex::new(HashMap::new()),
            }),
        }
    }
}

/// The live appender of one family's value log.
pub struct ActiveVlog {
    /// The file's number (allocated by the family's version set).
    pub number: u64,
    /// The open file handle.
    pub file: Box<dyn WritableFile>,
    /// Bytes appended so far — the offset the next record lands at.
    pub offset: u64,
}

/// The writer-side handle a commit leader carries into its unlocked IO
/// section for one touched family: the current appender (if any), plus the
/// pre-allocated number to rotate to. File creation and the seal of the
/// previous file both happen unlocked; only the number allocation needed
/// the state mutex.
pub struct TakenVlog {
    /// The family this appender belongs to.
    pub cf: pebblesdb_common::CfId,
    /// The family's environment.
    pub env: Arc<dyn Env>,
    /// The family's directory.
    pub dir: PathBuf,
    /// The appender taken from the family, if one was already open.
    pub active: Option<ActiveVlog>,
    /// A fresh file number, present when the leader must open a new file
    /// (first separated write, or the current file crossed the size cap).
    pub open_number: Option<u64>,
    /// Files sealed during this group: `(number, final size)`, reinstalled
    /// into the family's registry after the IO section.
    pub sealed: Vec<(u64, u64)>,
    /// Whether this group appended any record (gates the flush/sync calls).
    pub dirty: bool,
    /// Codec applied to values before they are framed into records.
    pub compression: CompressionType,
}

impl TakenVlog {
    /// Appends one `(key, value)` record, opening or rotating the file if
    /// the taker said so, and returns the tree-resident pointer.
    pub fn append(
        &mut self,
        key: &[u8],
        value: &[u8],
        counters: &EngineCounters,
    ) -> Result<ValuePointer> {
        if let Some(number) = self.open_number.take() {
            if let Some(mut old) = self.active.take() {
                old.file.sync()?;
                old.file.close()?;
                self.sealed.push((old.number, old.offset));
            }
            let path = vlog_file_name(&self.dir, number);
            let file = self.env.new_writable_file(&path)?;
            // The file's directory entry must be durable before any synced
            // WAL record carries a pointer into it; one directory sync per
            // rotation is noise next to the 64 MiB of appends it covers.
            self.env.sync_dir(&self.dir)?;
            self.active = Some(ActiveVlog {
                number,
                file,
                offset: 0,
            });
        }
        let active = self
            .active
            .as_mut()
            .expect("taken appender always has a file by now");
        // Separated values are exactly the large, often-compressible blobs
        // block compression never sees (they bypass the sstable), so they
        // get the same codec-with-fallback treatment here. The flag rides
        // in the record header under the CRC; raw records are bit-identical
        // to the pre-compression format.
        let record = match self.compression {
            CompressionType::None => encode_vlog_record_with(key, value, false),
            CompressionType::Lz => match pebblesdb_compress::compress_if_worthwhile(value) {
                Some(compressed) => {
                    counters.record_compressed(value.len() as u64, compressed.len() as u64);
                    encode_vlog_record_with(key, &compressed, true)
                }
                None => {
                    counters
                        .compress_skipped_blocks
                        .fetch_add(1, Ordering::Relaxed);
                    encode_vlog_record_with(key, value, false)
                }
            },
        };
        let pointer = ValuePointer {
            file_number: active.number,
            offset: active.offset,
            len: record.len() as u32,
        };
        active.file.append(&record)?;
        active.offset += record.len() as u64;
        self.dirty = true;
        counters
            .vlog_bytes_written
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(pointer)
    }

    /// Flushes (and on `sync` groups, fsyncs) the appends of this group.
    /// Runs **before** the WAL write: a pointer must never be durable in the
    /// log while the record it names is still in a user-space buffer.
    pub fn finish_group(&mut self, sync: bool) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(active) = self.active.as_mut() {
            active.file.flush()?;
            if sync {
                active.file.sync()?;
            }
        }
        Ok(())
    }
}

/// A bounded cache of open vlog readers, doubling as the
/// [`ValueResolver`] handed to cursors.
pub struct VlogReaderCache {
    env: Arc<dyn Env>,
    dir: PathBuf,
    counters: Arc<EngineCounters>,
    readers: Mutex<HashMap<u64, Arc<dyn RandomAccessFile>>>,
}

impl VlogReaderCache {
    /// The open reader for `file_number`, opening (and caching) it on miss.
    fn reader(&self, file_number: u64) -> Result<Arc<dyn RandomAccessFile>> {
        let mut readers = self.readers.lock();
        if let Some(reader) = readers.get(&file_number) {
            self.counters.record_vlog_resolution(true);
            return Ok(Arc::clone(reader));
        }
        self.counters.record_vlog_resolution(false);
        let reader = self
            .env
            .new_random_access_file(&vlog_file_name(&self.dir, file_number))?;
        if readers.len() >= READER_CACHE_CAP {
            // Evict the lowest-numbered (coldest: vlog numbers grow with
            // time, and GC always drains the oldest file first) entry.
            if let Some(&coldest) = readers.keys().min() {
                readers.remove(&coldest);
            }
        }
        readers.insert(file_number, Arc::clone(&reader));
        Ok(reader)
    }

    /// Drops the cached reader of a deleted file.
    pub fn evict(&self, file_number: u64) {
        self.readers.lock().remove(&file_number);
    }

    /// Reads a whole vlog file (for the GC scan), bypassing the cache so
    /// the scan does not evict the readers point gets are using.
    pub fn read_file(&self, file_number: u64) -> Result<Vec<u8>> {
        let file = self
            .env
            .new_random_access_file(&vlog_file_name(&self.dir, file_number))?;
        let len = file.len()?;
        file.read(0, len as usize)
    }
}

impl ValueResolver for VlogReaderCache {
    fn resolve(&self, pointer: &ValuePointer) -> Result<Vec<u8>> {
        let reader = self.reader(pointer.file_number)?;
        let data = reader.read(pointer.offset, pointer.len as usize)?;
        if data.len() < pointer.len as usize {
            return Err(Error::corruption(format!(
                "vlog file {:06} ends inside the record at offset {}",
                pointer.file_number, pointer.offset
            )));
        }
        let record = parse_vlog_record(&data)?;
        if record.compressed {
            let start = std::time::Instant::now();
            let value = pebblesdb_compress::decompress(record.value, MAX_DECOMPRESSED_VALUE)?;
            self.counters
                .decompress_micros
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            Ok(value)
        } else {
            Ok(record.value.to_vec())
        }
    }
}

/// What one [`vlog_gc`](crate::chassis::EngineDb::vlog_gc) pass did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VlogGcReport {
    /// Sealed files scanned (at most one per family per pass).
    pub scanned_files: u64,
    /// Live records rewritten through the commit path.
    pub relocated: u64,
    /// Value bytes those relocations carried.
    pub relocated_bytes: u64,
    /// Records left in place because their live version occupies the very
    /// sequence slot the pass reserved — only reachable when an external
    /// allocator (a sharded coordinator) numbers writes into the engine;
    /// the next pass, with a fresh slot, collects them.
    pub skipped: u64,
    /// Retired files whose deletion finally went through.
    pub reclaimed_files: u64,
}
