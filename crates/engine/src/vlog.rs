//! Key-value separation: per-column-family value-log state — the active
//! appender the group-commit leader writes through, the sealed/retired file
//! registries, and the pointer-resolving reader cache shared with in-flight
//! gets and cursors — plus the garbage collector that works from them.
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
//! directory listing at open is the registry, their numbers are re-marked
//! used there, and neither the open sweep nor the obsolete-file pass after
//! a commit touches them — their lifecycle is owned by
//! [`EngineCore::vlog_gc`], which is the only code that ever deletes one.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::batch::BatchRecord;
use pebblesdb_common::commit::{GroupKind, Numbering};
use pebblesdb_common::filename::{parse_file_name, vlog_file_name, FileType};
use pebblesdb_common::key::{SequenceNumber, ValueType};
use pebblesdb_common::vlog::{
    encode_vlog_record_with, iter_vlog_records, parse_vlog_record, LookupValue, ValuePointer,
    ValueResolver,
};
use pebblesdb_common::{
    CfId, CompressionType, EngineCounters, Error, ReadOptions, Result, WriteBatch,
};
use pebblesdb_env::{Env, RandomAccessFile, WritableFile};

use crate::chassis::EngineCore;
use crate::policy::{EngineIo, ShapePolicy};

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
    /// directory for vlog files a previous incarnation left behind (none,
    /// for a freshly created family). Every recovered file is sealed —
    /// appending to a file with a possibly-torn tail would bury the tear
    /// mid-file where it reads as corruption.
    pub fn recover(
        env: &Arc<dyn Env>,
        dir: &Path,
        counters: &Arc<EngineCounters>,
    ) -> Result<CfVlog> {
        let mut sealed = BTreeMap::new();
        for name in env.children(dir)? {
            if let Some((FileType::ValueLog, number)) = parse_file_name(&name) {
                sealed.insert(number, env.file_size(&dir.join(&name))?);
            }
        }
        Ok(CfVlog {
            active: None,
            sealed,
            retired: BTreeMap::new(),
            readers: Arc::new(VlogReaderCache {
                env: Arc::clone(env),
                dir: dir.to_path_buf(),
                counters: Arc::clone(counters),
                readers: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// Hands the appender to a commit leader (exactly like the engine's
    /// `state.log`). Rotation is decided here, under the state mutex the
    /// number allocation needs, and performed by the leader unlocked. A
    /// single over-large group may overshoot `vlog_file_size`; the next
    /// group rotates, so files stay within one group of the cap.
    pub(crate) fn take(&mut self, io: &EngineIo, new_number: impl FnOnce() -> u64) -> TakenVlog {
        let max_size = io.options.vlog_file_size.max(1) as u64;
        let active = self.active.take();
        let open_number = match &active {
            Some(a) if a.offset < max_size => None,
            _ => Some(new_number()),
        };
        TakenVlog {
            env: Arc::clone(&io.env),
            dir: io.db_path.clone(),
            active,
            open_number,
            sealed: Vec::new(),
            dirty: false,
            compression: io.options.compression,
        }
    }

    /// Takes the appender (and whatever it sealed) back from the leader.
    pub(crate) fn reinstall(&mut self, taken: TakenVlog) {
        self.sealed.extend(taken.sealed);
        self.active = taken.active;
    }
}

/// Copies `batch` with some records' type and value replaced: `replace`
/// sees every record in order and returns the new `(type, value)` for the
/// ones to change. Sequence, record order, keys and families are preserved.
/// Returns `None` — without copying anything — when `replace` changed
/// nothing. Both directions of key-value separation are this loop: the
/// commit path swaps large values for pointers, a change stream swaps them
/// back.
pub(crate) fn rewrite_batch(
    batch: &WriteBatch,
    mut replace: impl FnMut(&BatchRecord<'_>) -> Result<Option<(ValueType, Vec<u8>)>>,
) -> Result<Option<WriteBatch>> {
    fn push(out: &mut WriteBatch, record: &BatchRecord<'_>, ty: ValueType, value: &[u8]) {
        match ty {
            ValueType::Value => out.put_cf(record.cf, record.key, value),
            ValueType::Deletion => out.delete_cf(record.cf, record.key),
            ValueType::ValuePointer => out.put_pointer_cf(record.cf, record.key, value),
        }
    }
    let mut out: Option<WriteBatch> = None;
    for (index, record) in batch.iter().enumerate() {
        let record = record?;
        let replaced = replace(&record)?;
        if replaced.is_none() && out.is_none() {
            continue;
        }
        // The first change starts the copy, with everything before it.
        let out = out.get_or_insert_with(|| {
            let mut copy = WriteBatch::new();
            copy.set_sequence(batch.sequence());
            for earlier in batch.iter().take(index).flatten() {
                push(&mut copy, &earlier, earlier.value_type, earlier.value);
            }
            copy
        });
        match &replaced {
            Some((ty, value)) => push(out, &record, *ty, value),
            None => push(out, &record, record.value_type, record.value),
        }
    }
    Ok(out)
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
/// section for one family (see [`CfVlog::take`]): file creation and the seal
/// of the previous file both happen there.
pub struct TakenVlog {
    env: Arc<dyn Env>,
    dir: PathBuf,
    /// The appender taken from the family, if one was already open.
    active: Option<ActiveVlog>,
    /// A fresh file number, present when the leader must open a new file
    /// (first separated write, or the current file crossed the size cap).
    open_number: Option<u64>,
    /// Files sealed during this group: `(number, final size)`, reinstalled
    /// into the family's registry after the IO section.
    sealed: Vec<(u64, u64)>,
    /// Whether this group appended any record (gates the flush/sync calls).
    dirty: bool,
    /// Codec applied to values before they are framed into records.
    compression: CompressionType,
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
            let start = self.env.now();
            let value = pebblesdb_compress::decompress(record.value, MAX_DECOMPRESSED_VALUE)?;
            let spent = self.env.now() - start;
            self.counters
                .decompress_micros
                .fetch_add(spent.as_micros() as u64, Ordering::Relaxed);
            Ok(value)
        } else {
            Ok(record.value.to_vec())
        }
    }
}

/// What one [`EngineCore::vlog_gc`] pass did.
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

impl<P: ShapePolicy> EngineCore<P> {
    /// One garbage-collection pass over every family's value log.
    ///
    /// Per family: scan the **coldest** sealed file (lowest number — vlog
    /// numbers grow with time), relocate every record that is still the
    /// live version's backing store by re-writing its `(key, value)` through
    /// the normal commit path, then retire the file. Retired files are
    /// deleted only once the snapshot floor passes their retire sequence,
    /// so no pinned snapshot (and no cursor, which pins its sequence) can
    /// ever observe a pointer into a missing file.
    pub fn vlog_gc(&self) -> Result<VlogGcReport> {
        // Two concurrent passes would relocate the same records into the
        // same sequence slot; one at a time, always.
        let _serial = self.vlog_gc_lock.lock();
        let mut report = VlogGcReport::default();
        let cf_ids: Vec<CfId> = self.state.lock().cfs.keys().copied().collect();
        for cf_id in cf_ids {
            self.vlog_gc_cf(cf_id, &mut report)?;
        }
        self.vlog_reclaim(&mut report);
        Ok(report)
    }

    fn vlog_gc_cf(&self, cf_id: CfId, report: &mut VlogGcReport) -> Result<()> {
        // Pick the coldest sealed file first: reserving a horizon for a
        // family with nothing to scan would burn sequence slots for no work.
        let (file_number, readers) = {
            let state = self.state.lock();
            state.healthy()?;
            let Some(cf) = state.cf(cf_id) else {
                return Ok(());
            };
            let Some((&number, _)) = cf.vlog.sealed.iter().next() else {
                return Ok(());
            };
            (number, Arc::clone(&cf.vlog.readers))
        };

        // Capture the GC horizon — the sequence every relocation will be
        // pinned at — as a slot *reserved* through the commit queue. The
        // reservation guarantees no write, past or future, is numbered into
        // the slot, so a relocation at the horizon can never collide with a
        // user version of the same key in the same sequence slot. It also
        // makes GC self-sufficient on a quiescent store: the horizon always
        // moves past the newest user write, so the pass can relocate records
        // written in the very last slot instead of waiting for traffic that
        // may never come.
        let slot = Arc::new(AtomicU64::new(0));
        let reserve = GroupKind::Reserve(Arc::clone(&slot));
        self.submit(reserve, WriteBatch::new(), false)?;
        let s_check = slot.load(Ordering::Acquire);
        let data = readers.read_file(file_number)?;
        report.scanned_files += 1;

        // Collect the records still live at the horizon. A record is live
        // iff the version visible at `s_check` is a pointer to exactly this
        // (file, offset); a torn tail ends the scan silently (those bytes
        // were never acknowledged), mid-file corruption aborts the pass.
        let points_here = |snapshot: SequenceNumber, key: &[u8], offset: u64| {
            let opts = ReadOptions {
                snapshot: Some(snapshot),
            };
            Ok::<bool, Error>(matches!(
                self.lookup_value(cf_id, &opts, key)?,
                Some((LookupValue::Pointer(p), _)) if p.file_number == file_number && p.offset == offset
            ))
        };
        let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut retire_ok = true;
        for entry in iter_vlog_records(&data) {
            let (offset, record, _len) = entry?;
            let key = record.key;
            if !points_here(s_check, key, offset)? {
                continue;
            }
            // Relocations are written at `s_check` itself, so a version
            // born in that exact sequence slot could not be shadowed
            // without a duplicate internal key. The reservation makes
            // this unreachable for engine-numbered writes, but a sharded
            // coordinator assigns sequences externally and could, in
            // principle, land a version in the reserved slot. Detectable
            // without sequence plumbing — a slot-`s_check` version is
            // invisible one sequence earlier — and safe to leave for the
            // next pass, whose horizon is reserved past it.
            if !points_here(s_check.saturating_sub(1), key, offset)? {
                report.skipped += 1;
                retire_ok = false;
                continue;
            }
            // Relocation re-enters the commit path, which re-frames (and
            // re-compresses, if configured) the value — so hand it the
            // original bytes, not the stored compressed form.
            let value = if record.compressed {
                pebblesdb_compress::decompress(record.value, MAX_DECOMPRESSED_VALUE)?
            } else {
                record.value.to_vec()
            };
            live.push((key.to_vec(), value));
        }

        // Relocate through the commit path as single-record pre-sequenced
        // batches pinned at the horizon: a concurrent user write carries a
        // later sequence and shadows the relocation, never the reverse.
        // The final relocation syncs, so by the time the file can be
        // deleted no pointer into it lives only in volatile buffers.
        let total = live.len();
        for (idx, (key, value)) in live.into_iter().enumerate() {
            self.restart_seek_count();
            let mut batch = WriteBatch::new();
            batch.put_cf(cf_id, &key, &value);
            batch.set_sequence(s_check);
            let relocation = GroupKind::Write(Numbering::Presequenced);
            self.submit(relocation, batch, idx + 1 == total)?;
            self.counters
                .vlog_gc_relocations
                .fetch_add(1, Ordering::Relaxed);
            report.relocated += 1;
            report.relocated_bytes += value.len() as u64;
        }

        if retire_ok {
            let mut state = self.state.lock();
            if let Some(cf) = state.cf_mut(cf_id) {
                cf.vlog.sealed.remove(&file_number);
                cf.vlog.retired.insert(file_number, s_check);
            }
        }
        Ok(())
    }

    /// Deletes retired vlog files once both the snapshot floor and the
    /// cursor-pin floor pass their retire sequence. In-flight point gets
    /// that raced the deletion retry their lookup and land on the relocated
    /// pointer.
    fn vlog_reclaim(&self, report: &mut VlogGcReport) {
        let mut candidates: Vec<(CfId, u64, PathBuf, Arc<VlogReaderCache>)> = Vec::new();
        {
            let state = self.state.lock();
            let floor = self
                .snapshots
                .compaction_floor(state.last_sequence)
                .min(self.cursor_pins.compaction_floor(state.last_sequence));
            for cf in state.cfs.values() {
                for (&number, &retire_seq) in &cf.vlog.retired {
                    if floor >= retire_seq {
                        let path = vlog_file_name(&cf.io.db_path, number);
                        candidates.push((cf.id, number, path, Arc::clone(&cf.vlog.readers)));
                    }
                }
            }
        }
        for (cf_id, number, path, readers) in candidates {
            // A failed delete is deferred, not lost: the file stays in
            // `retired` and the next pass retries it.
            let removed = self.remove(&path);
            let mut state = self.state.lock();
            let Some(cf) = state.cf_mut(cf_id) else {
                continue; // family dropped; its files died with it
            };
            if removed {
                readers.evict(number);
                report.reclaimed_files += 1;
                cf.vlog.retired.remove(&number);
            }
        }
    }
}
