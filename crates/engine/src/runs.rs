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
//! demand. The merge cuts its outputs where the output level's slots end,
//! the same [`RunSource::bounds`] a cursor clips its reads at: one
//! definition of where a guard ends, for reads and writes. It also says,
//! once for both shapes and per key, when a tombstone may go: when no file
//! outside the job can hold an older version of its key, as in LevelDB.

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
use crate::version::Version;
use crate::version_set::LevelRow;

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
    file: &FileMetaData,
    key: &LookupKey,
) -> Result<Option<(SequenceNumber, Option<LookupValue>)>> {
    let table = reader(table_cache, file)?;
    if !table.may_contain_user_key(key.user_key()) {
        return Ok(None);
    }
    // The entry is parsed where it lies; only a matching value is copied.
    let found = table.get_with(key.internal_key(), |found_key, value| {
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
pub fn get<R: RunSource>(
    version: &Version<R>,
    table_cache: &TableCache,
    key: &LookupKey,
) -> Result<Option<LookupValue>> {
    let user_key = key.user_key();
    let holds_key =
        |file: &&Arc<FileMetaData>| file.overlaps_user_range(Some(user_key), Some(user_key));
    // Level 0 is ordered newest first, as `Version::apply` leaves it: a
    // family flushes one `imm` at a time (`CfState::flush_running`), and
    // freezes the next only once that one is written, so file numbers order
    // level-0 tables by recency and the first file that knows the key decides.
    for file in version.level0().iter().filter(holds_key) {
        if let Some((_, decided)) = probe_file(table_cache, file, key)? {
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
            if let Some(found) = probe_file(table_cache, file, key)? {
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

/// What a tree shape supplies: its type of a level from 1 down of a
/// [`Version`] (`Default` is an empty one), cut into *slots* in key order —
/// the unit a point `get` probes and a [`LevelCursor`] opens lazily: a guard
/// and its (possibly overlapping) sstables for the FLSM, a single file for a
/// leveled run — with how an edit rebuilds it and its invariant.
pub trait RunSource: Default + Send + Sync + 'static {
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
    /// This level without the files numbered `gone`, with `added` and with
    /// the guard keys `guards` (any order, some maybe held already): what
    /// [`Version::apply`] asks of a level its edit touches. Fails with
    /// `Corruption` on a level the shape cannot hold.
    fn apply(&self, gone: &[u64], added: &[Arc<FileMetaData>], guards: &[&[u8]]) -> Result<Self>;
    /// Checks the level's invariant as level `level`, with `deeper` the level
    /// below it, describing the first violation found.
    fn validate(&self, level: usize, deeper: Option<&Self>) -> std::result::Result<(), String>;
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
    fn seek(&mut self, target: &[u8]) {
        on_slot!(self, iter => iter.seek(target))
    }
    #[inline]
    fn next(&mut self) {
        on_slot!(self, iter => iter.next())
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
pub struct LevelCursor<R: RunSource> {
    /// The version the cursor pins, and the level of it that it reads.
    version: Arc<Version<R>>,
    level: usize,
    table_cache: Arc<TableCache>,
    /// The slot the cursor is in; the level's `slots()` = unpositioned.
    slot: usize,
    current: Option<SlotIter>,
    /// First error hit while opening a slot; ends iteration.
    error: Option<Error>,
}

impl<R: RunSource> LevelCursor<R> {
    /// Creates an unpositioned cursor over level `level` (from 1 down) of
    /// `version`.
    pub fn new(table_cache: Arc<TableCache>, version: Arc<Version<R>>, level: usize) -> Self {
        LevelCursor {
            slot: version.run(level).slots(),
            version,
            level,
            table_cache,
            current: None,
            error: None,
        }
    }

    /// The level the cursor reads.
    fn run(&self) -> &R {
        self.version.run(self.level)
    }

    /// Makes `slot` the current one, opens its sstables and positions the
    /// iterator over them with `position` (a slot without files, such as the
    /// one past the end, opens nothing).
    /// Returns `false`, with the error latched and the cursor invalid, if a
    /// table cannot be opened.
    fn open_slot(&mut self, slot: usize, position: impl FnOnce(&mut SlotIter)) -> bool {
        self.slot = slot;
        self.current = None;
        let opened = match self.run().files(slot) {
            [] => return true,
            [file] => reader(&self.table_cache, file)
                .map(|table| SlotIter::One(table.iter(&ReadOptions::default()))),
            files => {
                let mut children = Vec::with_capacity(files.len());
                push_table_iterators(&self.table_cache, files, &mut children)
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
    /// slot's key range. Only the upper bound needs a look: a seek starts
    /// in the slot whose range holds its target, and `settle` steps over
    /// the entries under a slot's lower bound as it opens the slot.
    fn in_bounds(&self) -> bool {
        let Some(iter) = self.current.as_ref() else {
            return false;
        };
        // An unclipped slot (every slot of a leveled run) never looks at the
        // key: for such a source this is `valid()` and nothing else.
        let (_, upper) = self.run().bounds(self.slot);
        iter.valid() && upper.is_none_or(|upper| extract_user_key(iter.key()) < upper)
    }

    /// Moves forward, slot by slot, until the cursor is on an entry inside
    /// its slot's range (or the level is exhausted).
    fn settle(&mut self) {
        while !self.in_bounds() && !self.failed() {
            // Either the slot is exhausted or the next entry spills past its
            // upper bound; move on to the following slot.
            let next = self.slot + 1;
            if next >= self.run().slots() {
                self.current = None;
                self.slot = self.run().slots();
                return;
            }
            if !self.open_slot(next, DbIterator::seek_to_first) {
                return;
            }
            // Entries below the lower bound belong to an earlier slot and
            // were emitted there.
            let lower = self.version.run(self.level).bounds(next).0;
            if let (Some(iter), Some(lower)) = (self.current.as_mut(), lower) {
                while iter.valid() && extract_user_key(iter.key()) < lower {
                    iter.next();
                }
            }
        }
    }
}

impl<R: RunSource> DbIterator for LevelCursor<R> {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) {
        if self.open_slot(0, DbIterator::seek_to_first) {
            self.settle();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        let slot = self.run().slot_for(target);
        if self.open_slot(slot, |iter| iter.seek(target)) {
            self.settle();
        }
    }

    fn next(&mut self) {
        if let Some(iter) = self.current.as_mut() {
            iter.next();
        }
        self.settle();
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
    files: impl IntoIterator<Item = &'a Arc<FileMetaData>>,
    children: &mut Vec<Box<dyn DbIterator>>,
) -> Result<()> {
    for file in files {
        let table = reader(table_cache, file)?;
        children.push(Box::new(table.iter(&ReadOptions::default())));
    }
    Ok(())
}

/// Appends a cursor's view of `version` to its child list: one iterator per
/// level-0 file plus one lazy [`LevelCursor`] per non-empty deeper level
/// (`levels` is the version's table). The cursors read the pinned version's
/// slots in place, so building them copies no per-file or per-guard state.
pub fn push_version_iterators<R: RunSource>(
    table_cache: &Arc<TableCache>,
    version: &Arc<Version<R>>,
    levels: &[LevelRow],
    children: &mut Vec<Box<dyn DbIterator>>,
) -> Result<()> {
    push_table_iterators(table_cache, version.level0(), children)?;
    for row in levels.iter().skip(1).filter(|row| row.files > 0) {
        let (cache, version) = (Arc::clone(table_cache), Arc::clone(version));
        children.push(Box::new(LevelCursor::new(cache, version, row.level)));
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

/// Whether a file of `version` that `job` does not take may hold `user_key`
/// at the job's level or deeper: LevelDB's `IsBaseLevelForKey`, asked of
/// every level from the job's own, so it covers a file a job leaves behind
/// at its input level and the files an FLSM push lands beside. Shallower
/// levels hold only newer versions. Metadata only: a level's files that
/// reach the key sit in adjacent slots from the one a seek to its newest
/// possible version starts in (a guard, or a leveled run's file).
fn held_outside<R: RunSource>(version: &Version<R>, job: &CompactionJob, user_key: &[u8]) -> bool {
    let holds = |file: &Arc<FileMetaData>| file.overlaps_user_range(Some(user_key), Some(user_key));
    let outside =
        |file: &Arc<FileMetaData>| job.inputs.iter().all(|(_, f)| f.number != file.number);
    let held = |file: &Arc<FileMetaData>| holds(file) && outside(file);
    let level0 = if job.level() == 0 {
        version.level0()
    } else {
        &[]
    };
    let seek = LookupKey::new(user_key, MAX_SEQUENCE_NUMBER);
    let mut runs = version.runs().skip(job.level().max(1) - 1);
    level0.iter().any(held)
        || runs.any(|run| {
            let slots = run.slot_for(seek.internal_key())..run.slots();
            let reaching = slots.map(|slot| run.files(slot));
            let mut reaching = reaching.take_while(|files| files.iter().any(holds));
            reaching.any(|files| files.iter().any(held))
        })
}

/// The compaction IO loop: merges the job's inputs, drops every version a
/// newer one shadows for all live snapshots, and every tombstone they all
/// see that no file outside the job can still need ([`held_outside`]), and
/// writes the survivors to new tables of `io`'s directory.
/// `smallest_snapshot` is the floor: versions superseded at or below it are
/// invisible to every live snapshot.
///
/// `version` is the one the job was picked from, and the output level's
/// slots in it are where the merge cuts: a table opened in a slot ends
/// before the first key at or past the slot's upper bound, the bound a
/// [`LevelCursor`] clips the slot's reads at. A guard is an FLSM slot; a
/// leveled run's slots are unbounded, so its output is cut by size alone.
///
/// A job that moves data down a level also picks the output level's new
/// guards: each key it writes whose newest version is not a tombstone, that
/// `guard_level` puts at or above the output level and that is not already
/// a guard there (the lower bound of its slot). An in-place rewrite picks
/// none.
///
/// An output table never crosses a slot bound or a new guard, nor splits
/// the versions of one user key, and is rotated at the first key past
/// `max_file_size`, unless the job rewrites its level in place: then each
/// slot it writes is one table, so a guard it rewrites holds one sstable
/// however much live data it keeps (cut by size, a guard holding more than
/// its budget's worth of tables would come back over budget and be picked
/// again, forever). Returns the outputs in key order, their directory
/// entries synced (they exist only on disk until the caller commits them),
/// and the new guards in key order.
pub fn merge_to_tables<R: RunSource>(
    io: &EngineIo,
    job: &CompactionJob,
    version: &Version<R>,
    smallest_snapshot: SequenceNumber,
    guard_level: impl Fn(&[u8]) -> Option<usize>,
) -> Result<(Vec<FileMetaData>, Vec<Vec<u8>>)> {
    if job.move_only {
        return Ok((Vec::new(), Vec::new())); // a move reads and writes nothing
    }
    let output = version.run(job.output_level);
    let in_place = job.level() == job.output_level;
    let max_file_size = if in_place {
        u64::MAX
    } else {
        io.options.max_file_size as u64
    };
    // A compaction rewrites its inputs under fresh CRCs; every block it
    // reads was checked on its way into memory, so a flipped value byte is
    // `Corruption` here, not a wrong value the outputs vouch for.
    let mut children: Vec<Box<dyn DbIterator>> = Vec::new();
    let inputs = job.inputs.iter().map(|(_, file)| file);
    push_table_iterators(&io.table_cache, inputs, &mut children)?;
    let mut merged = MergingIterator::new(children);
    merged.seek_to_first();

    let mut tables = Outputs(io, Vec::new());
    let mut outputs: Vec<FileMetaData> = Vec::new();
    let mut guards: Vec<Vec<u8>> = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;
    // The upper bound of the slot the open table was opened in.
    let mut slot_end: Option<&[u8]> = None;
    let mut last_user_key: Option<Vec<u8>> = None;
    let mut last_sequence_for_key = MAX_SEQUENCE_NUMBER;

    while merged.valid() {
        let parsed = parse_internal_key(merged.key())
            .ok_or_else(|| Error::corruption("malformed key during compaction"))?;
        let new_key = last_user_key.as_deref() != Some(parsed.user_key);
        let mut new_guard = false;
        if new_key {
            let last = last_user_key.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(parsed.user_key);
            last_sequence_for_key = MAX_SEQUENCE_NUMBER;
            new_guard = !in_place
                && parsed.value_type != ValueType::Deletion
                && guard_level(parsed.user_key).is_some_and(|level| level <= job.output_level)
                && output.bounds(output.slot_for(merged.key())).0 != Some(parsed.user_key);
        }
        // A version may be dropped once a newer version of the same key is
        // visible to every live snapshot; a tombstone they all see, once no
        // file outside the job can hold an older value it still shadows.
        let drop_entry = last_sequence_for_key <= smallest_snapshot
            || (parsed.value_type == ValueType::Deletion
                && parsed.sequence <= smallest_snapshot
                && !held_outside(version, job, parsed.user_key));
        last_sequence_for_key = parsed.sequence;

        if !drop_entry {
            // Two tables of a leveled run sharing a key would let the next
            // job take the newer versions down a level and leave the older
            // ones above them, where a read finds them first.
            let past_size = |b: &TableBuilder| new_key && b.file_size() >= max_file_size;
            let past_slot = slot_end.is_some_and(|end| parsed.user_key >= end);
            let cut = |b: &TableBuilder| past_slot || new_guard || past_size(b);
            if let Some((number, full)) = builder.take_if(|(_, b)| cut(b)) {
                outputs.push(finish_table(number, full)?);
            }
            if new_guard {
                guards.push(parsed.user_key.to_vec());
            }
            if builder.is_none() {
                builder = Some(tables.open_table()?);
                slot_end = output.bounds(output.slot_for(merged.key())).1;
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
    tables.done((outputs, guards))
}
