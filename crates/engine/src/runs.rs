//! Sstable mechanics, written once for every tree shape.
//!
//! The paper's framing (section 3.4): "the level iterators are themselves
//! implemented by merging iterators on the sstables inside the guard", and a
//! classic LSM is an FLSM with one implicit guard per level. So the shapes
//! differ only in how a level is *cut into runs* — the [`RunSource`] a
//! version hands out per level, a slot being a guard or a file. Everything
//! that reads or carries out that cut lives here, once: the point `get` of a
//! version, the lazy level cursor and a cursor's level iterators, and the
//! compaction merge loop (driven by the plain
//! [`CompactionJob`](crate::CompactionJob) record) with the table-writing
//! tail it shares with the memtable flush, both naming their outputs on
//! demand.

use std::path::PathBuf;
use std::sync::Arc;

use pebblesdb_common::filename::table_file_name;
use pebblesdb_common::iterator::{DbIterator, MergingIterator};
use pebblesdb_common::key::{
    extract_user_key, parse_internal_key, InternalKey, LookupKey, SequenceNumber, ValueType,
    MAX_SEQUENCE_NUMBER,
};
use pebblesdb_common::vlog::{LookupValue, ValuePointer};
use pebblesdb_common::{Error, ReadOptions, Result};
use pebblesdb_sstable::table::TableIterator;
use pebblesdb_sstable::{Table, TableBuilder, TableCache};

use crate::meta::FileMetaData;
use crate::policy::{CompactionJob, EngineIo};
use crate::version_set::{LevelRow, VersionShape};

// ------------------------------------------------------------- point probes

/// The open reader of `file`: the one place the chassis reaches a table, for
/// point probes, cursors and compaction inputs alike. The reader sits in the
/// slot the file's metadata carries; `table_cache` fills an empty slot and
/// keeps the number of full ones within `max_open_files`.
fn reader(table_cache: &TableCache, file: &FileMetaData) -> Result<Arc<Table>> {
    table_cache.table(&file.table, file.number, file.file_size)
}

/// Searches one sstable for the newest version of `key` visible at its
/// snapshot. `None` means the file holds no such version; otherwise the
/// payload is that version's sequence and stored value (`None` = tombstone),
/// so a caller can pick the newest match across files that overlap.
fn probe_file(
    table_cache: &TableCache,
    read_options: &ReadOptions,
    file: &FileMetaData,
    key: &LookupKey,
) -> Result<Option<(SequenceNumber, Option<LookupValue>)>> {
    let table = reader(table_cache, file)?;
    if !table.may_contain_user_key(key.user_key()) {
        return Ok(None);
    }
    // The entry is parsed where it lies; only a matching value is copied.
    let found = table.get_with(read_options, key.internal_key(), |found_key, value| {
        let parsed = parse_internal_key(found_key).filter(|p| p.user_key == key.user_key())?;
        let value = match parsed.value_type {
            ValueType::Value => Ok(Some(LookupValue::Inline(value.to_vec()))),
            ValueType::ValuePointer => ValuePointer::decode(value)
                .map(LookupValue::Pointer)
                .map(Some),
            ValueType::Deletion => Ok(None),
        };
        Some(value.map(|value| (parsed.sequence, value)))
    })?;
    found.flatten().transpose()
}

/// Point lookup in the on-disk structure of `version` (the chassis has
/// already consulted the memtables). Returns the stored form of the newest
/// visible version — an inline value or an unresolved vlog pointer, which
/// the caller resolves outside the state lock; `None` is "deleted or never
/// written".
pub fn get<V: VersionShape>(
    version: &V,
    table_cache: &TableCache,
    read_options: &ReadOptions,
    key: &LookupKey,
) -> Result<Option<LookupValue>> {
    let user_key = key.user_key();
    let holds_key =
        |file: &&Arc<FileMetaData>| file.overlaps_user_range(Some(user_key), Some(user_key));
    // Level 0 is ordered newest first, as every `VersionShape::apply` leaves
    // it: flushes are serialized by the single flush thread, so file numbers
    // order level-0 tables by recency and the first file that knows the key
    // decides.
    for file in version.level0().iter().filter(holds_key) {
        if let Some((_, decided)) = probe_file(table_cache, read_options, file, key)? {
            return Ok(decided);
        }
    }
    // Deeper levels: one slot per level can own the key. Its sstables may
    // overlap, and concurrent jobs deliver files into a guard out of
    // file-number order, so numbers do not order recency: every candidate
    // is consulted (bloom filters skip most) and the highest sequence wins.
    // A leveled run's slot is one file.
    for run in version.runs() {
        let mut best = None;
        let slot = run.slot_for(key.internal_key());
        for file in run.files(slot).iter().filter(holds_key) {
            if let Some(found) = probe_file(table_cache, read_options, file, key)? {
                if best.as_ref().is_none_or(|(newest, _)| found.0 > *newest) {
                    best = Some(found);
                }
            }
        }
        if let Some((_, decided)) = best {
            return Ok(decided);
        }
    }
    Ok(None)
}

// ------------------------------------------------------------ level cursor

/// How one level (from 1 down) of a version is cut into *slots*, in key
/// order. A slot is the unit a point `get` probes and a [`LevelCursor`]
/// opens lazily: a guard with its (possibly overlapping) sstables for the
/// FLSM, a single file for a leveled run.
pub trait RunSource {
    /// Number of slots in the level.
    fn slots(&self) -> usize;
    /// The slot a seek to the internal key `target` starts in; `slots()`
    /// when every slot sorts before `target`.
    fn slot_for(&self, target: &[u8]) -> usize;
    /// The sstables of `slot`; none for a slot at or past `slots()`. A file
    /// that reaches into several slots is listed in each of them, and —
    /// slots being in key order — those are adjacent.
    fn files(&self, slot: usize) -> &[Arc<FileMetaData>];
    /// The user-key range `[lower, upper)` the cursor emits from `slot`;
    /// `None` leaves that side unclipped. A slot whose files may reach into
    /// its neighbours (a guard holding a file written before the guard was
    /// committed) must clip, so that every entry is emitted exactly once and
    /// in global key order.
    fn bounds(&self, slot: usize) -> (Option<&[u8]>, Option<&[u8]>);
}

/// The distinct files of one level, in slot order: a file listed in several
/// slots is yielded for the first of them only.
pub fn distinct_files<R: RunSource>(run: &R) -> impl Iterator<Item = &Arc<FileMetaData>> {
    (0..run.slots()).flat_map(move |slot| {
        let earlier = slot.checked_sub(1).map_or(&[][..], |slot| run.files(slot));
        let files = run.files(slot).iter();
        files.filter(move |file| !earlier.iter().any(|seen| Arc::ptr_eq(seen, file)))
    })
}

/// The level a cursor reads, in the version it pins.
struct PinnedLevel<V> {
    version: Arc<V>,
    level: usize,
}

impl<V: VersionShape> PinnedLevel<V> {
    fn run(&self) -> &V::Runs {
        &self.version.runs()[self.level - 1]
    }
}

/// The open iterator of one slot: a one-file slot reads its table directly
/// (no merge heap, no boxing), a many-file slot merges its tables. The
/// one-file variant is the larger by two block cursors held inline; boxing it
/// would cost an allocation per slot opened.
#[allow(clippy::large_enum_variant)]
enum SlotIter {
    One(TableIterator),
    Many(MergingIterator),
}

/// Runs `$body` on whichever iterator the slot holds, statically dispatched.
macro_rules! on_slot {
    ($slot:expr, $iter:ident => $body:expr) => {
        match $slot {
            SlotIter::One($iter) => $body,
            SlotIter::Many($iter) => $body,
        }
    };
}

impl DbIterator for SlotIter {
    #[inline]
    fn valid(&self) -> bool {
        on_slot!(self, iter => iter.valid())
    }
    #[inline]
    fn seek_to_first(&mut self) {
        on_slot!(self, iter => iter.seek_to_first())
    }
    #[inline]
    fn seek_to_last(&mut self) {
        on_slot!(self, iter => iter.seek_to_last())
    }
    #[inline]
    fn seek(&mut self, target: &[u8]) {
        on_slot!(self, iter => iter.seek(target))
    }
    #[inline]
    fn next(&mut self) {
        on_slot!(self, iter => iter.next())
    }
    #[inline]
    fn prev(&mut self) {
        on_slot!(self, iter => iter.prev())
    }
    #[inline]
    fn key(&self) -> &[u8] {
        on_slot!(self, iter => iter.key())
    }
    #[inline]
    fn value(&self) -> &[u8] {
        on_slot!(self, iter => iter.value())
    }
    #[inline]
    fn status(&self) -> Result<()> {
        on_slot!(self, iter => iter.status())
    }
}

/// A lazy iterator over one level: it walks the level's slots in key order
/// and opens a slot's sstables only when the cursor reaches it. The slots
/// are read in place from the version the cursor pins, so building one
/// costs the same whatever the number of guards or files.
pub struct LevelCursor<V: VersionShape> {
    source: PinnedLevel<V>,
    table_cache: Arc<TableCache>,
    read_options: ReadOptions,
    /// The slot the cursor is in; the level's `slots()` = unpositioned.
    slot: usize,
    current: Option<SlotIter>,
    /// First error hit while opening a slot; ends iteration.
    error: Option<Error>,
    /// Threads used to pre-position a many-file slot's sstables on `seek`
    /// (the paper's "parallel seeks"); `<= 1` disables the optimisation.
    parallel_seek_threads: usize,
}

impl<V: VersionShape> LevelCursor<V> {
    /// Creates an unpositioned cursor over level `level` (from 1 down) of
    /// `version`.
    pub fn new(
        table_cache: Arc<TableCache>,
        read_options: ReadOptions,
        version: Arc<V>,
        level: usize,
    ) -> Self {
        let source = PinnedLevel { version, level };
        LevelCursor {
            slot: source.run().slots(),
            source,
            table_cache,
            read_options,
            current: None,
            error: None,
            parallel_seek_threads: 1,
        }
    }

    /// Enables parallel positioning of a many-file slot's sstables on `seek`.
    ///
    /// Section 4.2 of the paper: a seek into a guard must position an
    /// iterator in *every* sstable of the guard; doing so with a thread pool
    /// hides the per-sstable IO latency on the coldest (deepest) level.
    pub fn with_parallel_seeks(mut self, threads: usize) -> Self {
        self.parallel_seek_threads = threads.max(1);
        self
    }

    /// Warms `files` for `target` with a thread pool, so the serial merged
    /// seek that follows hits cache.
    fn parallel_warm(&self, files: &[Arc<FileMetaData>], target: &[u8]) {
        let chunk_size = files.len().div_ceil(self.parallel_seek_threads).max(1);
        // Capture only the Sync pieces; `self` also holds the (non-Sync)
        // open slot iterator.
        let table_cache = &self.table_cache;
        let read_options = &self.read_options;
        std::thread::scope(|scope| {
            for chunk in files.chunks(chunk_size) {
                scope.spawn(move || {
                    for file in chunk {
                        if let Ok(table) = reader(table_cache, file) {
                            table.iter(read_options).seek(target);
                        }
                    }
                });
            }
        });
    }

    /// Makes `slot` the current one, opens its sstables and positions the
    /// iterator over them with `position` (a slot without files, such as the
    /// one past the end, opens nothing).
    /// Returns `false`, with the error latched and the cursor invalid, if a
    /// table cannot be opened.
    fn open_slot(&mut self, slot: usize, position: impl FnOnce(&mut SlotIter)) -> bool {
        self.slot = slot;
        self.current = None;
        let opened = match self.source.run().files(slot) {
            [] => return true,
            [file] => reader(&self.table_cache, file)
                .map(|table| SlotIter::One(table.iter(&self.read_options))),
            files => {
                let mut children = Vec::with_capacity(files.len());
                push_table_iterators(&self.table_cache, &self.read_options, files, &mut children)
                    .map(|()| SlotIter::Many(MergingIterator::new(children)))
            }
        };
        match opened {
            Ok(mut iter) => {
                position(&mut iter);
                self.current = Some(iter);
            }
            Err(err) => self.error = Some(err),
        }
        self.current.is_some()
    }

    /// Latches the current slot's error, if it has one, ending iteration
    /// there rather than moving on past the damage; `true` once failed.
    fn failed(&mut self) -> bool {
        if let Some(Err(err)) = self.current.as_ref().map(DbIterator::status) {
            (self.error, self.current) = (Some(err), None);
        }
        self.error.is_some()
    }

    /// Returns `true` if the cursor sits on an entry inside the current
    /// slot's key range.
    fn in_bounds(&self) -> bool {
        let Some(iter) = self.current.as_ref() else {
            return false;
        };
        if !iter.valid() {
            return false;
        }
        // An unclipped slot (every slot of a leveled run) never looks at the
        // key: for such a source this is `valid()` and nothing else.
        let (lower, upper) = self.source.run().bounds(self.slot);
        let user_key = || extract_user_key(iter.key());
        lower.is_none_or(|lower| user_key() >= lower)
            && upper.is_none_or(|upper| user_key() < upper)
    }

    /// Moves forward, slot by slot, until the cursor is on an entry inside
    /// its slot's range (or the level is exhausted).
    fn settle_forward(&mut self) {
        while !self.in_bounds() && !self.failed() {
            // Either the slot is exhausted or the next entry spills past its
            // upper bound; move on to the following slot.
            let next = self.slot + 1;
            if next >= self.source.run().slots() {
                self.current = None;
                self.slot = self.source.run().slots();
                return;
            }
            if !self.open_slot(next, DbIterator::seek_to_first) {
                return;
            }
            // Entries below the lower bound belong to an earlier slot and
            // were emitted there.
            if let (Some(iter), Some(lower)) =
                (self.current.as_mut(), self.source.run().bounds(next).0)
            {
                while iter.valid() && extract_user_key(iter.key()) < lower {
                    iter.next();
                }
            }
        }
    }

    /// Moves backward, slot by slot, until the cursor is on an entry inside
    /// its slot's range (or the level is exhausted).
    fn settle_backward(&mut self) {
        while !self.in_bounds() && !self.failed() {
            // An entry merely above the upper bound: walk backwards within
            // the same slot first.
            if let (Some(iter), Some(upper)) =
                (self.current.as_mut(), self.source.run().bounds(self.slot).1)
            {
                if iter.valid() && extract_user_key(iter.key()) >= upper {
                    iter.prev();
                    continue;
                }
            }
            if self.slot == 0 {
                self.current = None;
                return;
            }
            let previous = self.slot.min(self.source.run().slots()) - 1;
            if !self.open_slot(previous, DbIterator::seek_to_last) {
                return;
            }
        }
    }
}

impl<V: VersionShape> DbIterator for LevelCursor<V> {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) {
        if self.open_slot(0, DbIterator::seek_to_first) {
            self.settle_forward();
        }
    }

    fn seek_to_last(&mut self) {
        let last = self.source.run().slots().saturating_sub(1);
        if self.open_slot(last, DbIterator::seek_to_last) {
            self.settle_backward();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        let slot = self.source.run().slot_for(target);
        let files = self.source.run().files(slot);
        if self.parallel_seek_threads > 1 && files.len() > 1 {
            self.parallel_warm(files, target);
        }
        if self.open_slot(slot, |iter| iter.seek(target)) {
            self.settle_forward();
        }
    }

    fn next(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.next();
        }
        self.settle_forward();
    }

    fn prev(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.prev();
        }
        self.settle_backward();
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().expect("iterator not valid").key()
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().expect("iterator not valid").value()
    }

    fn status(&self) -> Result<()> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        self.current.as_ref().map_or(Ok(()), |it| it.status())
    }
}

/// Pushes one table iterator per file onto a merge's child list: the
/// level-0 files of a cursor (they overlap freely, so each is its own sorted
/// run), the sstables of a guard, or the inputs of a compaction.
pub fn push_table_iterators<'a>(
    table_cache: &TableCache,
    read_options: &ReadOptions,
    files: impl IntoIterator<Item = &'a Arc<FileMetaData>>,
    children: &mut Vec<Box<dyn DbIterator>>,
) -> Result<()> {
    for file in files {
        children.push(Box::new(reader(table_cache, file)?.iter(read_options)));
    }
    Ok(())
}

/// Appends a cursor's view of `version` to its child list: one iterator per
/// level-0 file plus one lazy [`LevelCursor`] per non-empty deeper level
/// (`levels` is the version's table). The cursors read the pinned version's
/// slots in place, so building them copies no per-file or per-guard state.
/// The deepest non-empty level — whose sstables are the least likely to be
/// cached — positions a many-file slot with `parallel_seek_threads` threads
/// (the paper's "parallel seeks"; a no-op on one-file slots).
pub fn push_version_iterators<V: VersionShape>(
    table_cache: &Arc<TableCache>,
    read_options: &ReadOptions,
    version: &Arc<V>,
    levels: &[LevelRow],
    parallel_seek_threads: usize,
    children: &mut Vec<Box<dyn DbIterator>>,
) -> Result<()> {
    push_table_iterators(table_cache, read_options, version.level0(), children)?;
    let nonempty = levels.iter().skip(1).filter(|row| row.files > 0);
    let deepest = nonempty.clone().next_back().map(|row| row.level);
    for row in nonempty {
        let threads = if Some(row.level) == deepest {
            parallel_seek_threads
        } else {
            1
        };
        let (cache, version) = (Arc::clone(table_cache), Arc::clone(version));
        let cursor = LevelCursor::new(cache, read_options.clone(), version, row.level);
        children.push(Box::new(cursor.with_parallel_seeks(threads)));
    }
    Ok(())
}

// ------------------------------------------------------------ table writing

/// The tables one job has opened. Dropped before [`Outputs::done`] — the
/// job failed — it deletes them: the failure poisons the store, so no
/// version will ever name them (and reopen's sweep is the backstop).
struct Outputs<'a>(&'a EngineIo, Vec<PathBuf>);

impl Outputs<'_> {
    /// Opens the directory's next table for writing, drawing its file number
    /// on demand.
    fn open_table(&mut self) -> Result<(u64, TableBuilder)> {
        let number = self.0.file_numbers.next();
        let path = table_file_name(&self.0.db_path, number);
        let file = self.0.env.new_writable_file(&path)?;
        self.1.push(path);
        let builder = TableBuilder::new(&self.0.options, file);
        Ok((number, builder))
    }

    /// The job succeeded: once the directory entries of its tables are
    /// durable — a MANIFEST commit will name them — they are the caller's.
    fn done<T>(mut self, outputs: T) -> Result<T> {
        if !self.1.is_empty() {
            self.0.env.sync_dir(&self.0.db_path)?;
        }
        self.1.clear();
        Ok(outputs)
    }
}

impl Drop for Outputs<'_> {
    fn drop(&mut self) {
        for path in &self.1 {
            let _ = self.0.env.remove_file(path);
        }
    }
}

/// Finishes a table that holds at least one entry and describes it.
fn finish_table(number: u64, builder: TableBuilder) -> Result<FileMetaData> {
    let smallest = builder.first_key().unwrap_or_default().to_vec();
    let largest = builder.last_key().unwrap_or_default().to_vec();
    let file_size = builder.finish()?;
    Ok(FileMetaData::new(
        number,
        file_size,
        InternalKey::from_encoded(smallest),
        InternalKey::from_encoded(largest),
    ))
}

/// Writes everything `iter` yields (a memtable) into one new level-0
/// sstable, syncing the directory so the new entry is durable before a
/// MANIFEST references it. Returns `None` for an empty iterator.
pub fn flush_to_table(io: &EngineIo, mut iter: impl DbIterator) -> Result<Option<FileMetaData>> {
    iter.seek_to_first();
    if !iter.valid() {
        return Ok(None);
    }
    let mut outputs = Outputs(io, Vec::new());
    let (number, mut builder) = outputs.open_table()?;
    while iter.valid() {
        builder.add(iter.key(), iter.value())?;
        iter.next();
    }
    outputs.done(Some(finish_table(number, builder)?))
}

/// What a compaction merge needs to know besides its inputs.
#[derive(Debug)]
pub struct MergeSpec {
    /// The level the outputs are written for.
    pub output_level: usize,
    /// Versions superseded at or below this sequence are invisible to every
    /// live snapshot and are garbage-collected by the merge.
    pub smallest_snapshot: SequenceNumber,
    /// Whether tombstones at or below `smallest_snapshot` may be dropped
    /// (where the job's `full_partitions` agree): only safe when no older
    /// version of the key can survive outside the merge.
    pub drop_tombstones: bool,
}

/// The compaction IO loop: merges the job's inputs, drops every version a
/// newer one shadows for all live snapshots (and droppable tombstones), and
/// writes the survivors to new tables of `io`'s directory.
///
/// An output table never crosses one of the job's `partition_keys` — the
/// FLSM partitions by the output level's guards, a leveled run is one
/// partition — nor splits the versions of one user key, and is rotated at
/// the first key past `max_file_size`, unless the
/// job rewrites its level in place: then each partition is one table, so a
/// guard it rewrites holds one sstable however much live data it keeps (cut
/// by size, a guard holding more than its budget's worth of tables would
/// come back over budget and be picked again, forever). Outputs are
/// returned in key order, their directory entries synced; they exist only
/// on disk until the caller commits them.
pub fn merge_to_tables(io: &EngineIo, job: &CompactionJob) -> Result<Vec<FileMetaData>> {
    if job.move_only {
        return Ok(Vec::new()); // a move reads and writes nothing
    }
    let spec = &job.spec;
    let max_file_size = if job.level() == spec.output_level {
        u64::MAX
    } else {
        io.options.max_file_size as u64
    };
    let read_options = ReadOptions::default();
    let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
    let inputs = job.inputs.iter().map(|(_, file)| file);
    push_table_iterators(&io.table_cache, &read_options, inputs, &mut children)?;
    let mut merged = MergingIterator::new(children);
    merged.seek_to_first();

    let mut tables = Outputs(io, Vec::new());
    let mut outputs: Vec<FileMetaData> = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;
    let mut builder_partition = 0;
    let mut last_user_key: Option<Vec<u8>> = None;
    let mut last_sequence_for_key = MAX_SEQUENCE_NUMBER;
    let (mut partition, mut tombstone_droppable) = (0, false);

    while merged.valid() {
        let parsed = parse_internal_key(merged.key())
            .ok_or_else(|| Error::corruption("malformed key during compaction"))?;
        let new_key = last_user_key.as_deref() != Some(parsed.user_key);
        if new_key {
            last_user_key = Some(parsed.user_key.to_vec());
            last_sequence_for_key = MAX_SEQUENCE_NUMBER;
            partition = job
                .partition_keys
                .partition_point(|key| key.as_slice() <= parsed.user_key);
            let covered = job.full_partitions.get(partition);
            tombstone_droppable = covered.copied().unwrap_or(true);
        }
        // A version may be dropped once a newer version of the same key is
        // visible to every live snapshot; a tombstone additionally needs the
        // job and the key's partition to rule out an older value it still
        // shadows.
        let drop_entry = last_sequence_for_key <= spec.smallest_snapshot
            || (spec.drop_tombstones
                && tombstone_droppable
                && parsed.value_type == ValueType::Deletion
                && parsed.sequence <= spec.smallest_snapshot);
        last_sequence_for_key = parsed.sequence;

        if !drop_entry {
            // Two tables of a leveled run sharing a key would let the next
            // job take the newer versions down a level and leave the older
            // ones above them, where a read finds them first.
            let past_size = |b: &TableBuilder| new_key && b.file_size() >= max_file_size;
            if let Some((number, full)) =
                builder.take_if(|(_, b)| builder_partition != partition || past_size(b))
            {
                outputs.push(finish_table(number, full)?);
            }
            if builder.is_none() {
                builder = Some(tables.open_table()?);
                builder_partition = partition;
            }
            let (_, open) = builder.as_mut().expect("opened above");
            open.add(merged.key(), merged.value())?;
        }
        merged.next();
    }
    // The merge stops at a damaged input: outputs that end there must not
    // replace the inputs (dropping `tables` deletes them).
    merged.status()?;
    if let Some((number, last)) = builder {
        outputs.push(finish_table(number, last)?);
    }
    tables.done(outputs)
}
