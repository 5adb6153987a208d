//! The version set: one MANIFEST record format and one installer for every
//! tree shape.
//!
//! A [`Version`] is an immutable snapshot of which sstables live where.
//! Every mutation (memtable flush, compaction) is a [`VersionEdit`] appended
//! to the MANIFEST log and applied to produce the next version — the LevelDB
//! descriptor scheme PebblesDB inherits, extended only by the guard record
//! (section 4.3.1 of the paper). [`VersionSet`] owns CURRENT/MANIFEST
//! recovery and rewriting, file numbering, log-number/last-sequence
//! bookkeeping and the list of files commits made obsolete, over a
//! `Version<R>` whose level type `R` is all a tree shape supplies
//! ([`RunSource`]). Everything that *reads* a version is written once: the
//! point `get` and the level cursors in [`crate::runs`], and here the
//! live-file walk, the per-level [`LevelTable`], computed once per installed
//! version, and the MANIFEST [`snapshot`], whose guard records are the
//! slots' lower bounds. Likewise the two edits a store ever commits are
//! built here: [`VersionSet::commit_level0`] and [`VersionEdit::compaction`].
//! When a version wants compacting is its policy's to say, at the pick.
//!
//! # MANIFEST records
//!
//! A record is a sequence of tagged fields (tags and levels are varint32,
//! numbers varint64, keys length-prefixed):
//!
//! | tag | field | payload |
//! |-----|-------|---------|
//! | 1 | log number | number |
//! | 2 | next file number | number |
//! | 3 | last sequence | sequence |
//! | 4 | deleted file | level, file number |
//! | 5 | new file | level, file number, file size, smallest key, largest key |
//! | 7 | new guard (FLSM only) | level, guard key |

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use pebblesdb_common::coding::{put_length_prefixed_slice, put_varint32, put_varint64, Decoder};
use pebblesdb_common::filename::{
    current_file_name, descriptor_file_name, parse_file_name, FileType,
};
use pebblesdb_common::key::{compare_internal_keys, SequenceNumber};
use pebblesdb_common::{Error, Result, StoreOptions, NUM_LEVELS};
use pebblesdb_env::Env;
use pebblesdb_wal::{LogWriter, Record, Replay, Tail};

use crate::meta::{FileMetaData, FileMetaDataEdit};
use crate::policy::CompactionJob;
use crate::runs::{distinct_files, RunSource};
use crate::version::Version;

/// A record of changes to the file layout, persisted in the MANIFEST.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VersionEdit {
    /// New write-ahead log number (older logs are no longer needed).
    pub log_number: Option<u64>,
    /// Next file number to allocate.
    pub next_file_number: Option<u64>,
    /// Last sequence number.
    pub last_sequence: Option<SequenceNumber>,
    /// Files removed: `(level, file number)`.
    pub deleted_files: Vec<(usize, u64)>,
    /// Files added: `(level, metadata)`. The shape decides where in the level
    /// a file lands when the version is rebuilt (FLSM: its guards).
    pub new_files: Vec<(usize, FileMetaDataEdit)>,
    /// Guard keys committed at a level (FLSM only; they also apply to deeper
    /// levels, which is re-derived when the version is rebuilt).
    pub new_guards: Vec<(usize, Vec<u8>)>,
}

const TAG_LOG_NUMBER: u32 = 1;
const TAG_NEXT_FILE_NUMBER: u32 = 2;
const TAG_LAST_SEQUENCE: u32 = 3;
const TAG_DELETED_FILE: u32 = 4;
const TAG_NEW_FILE: u32 = 5;
const TAG_NEW_GUARD: u32 = 7;

impl VersionEdit {
    /// Serialises the edit for the MANIFEST log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint32(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint32(&mut out, TAG_NEXT_FILE_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint32(&mut out, TAG_LAST_SEQUENCE);
            put_varint64(&mut out, v);
        }
        for (level, number) in &self.deleted_files {
            put_varint32(&mut out, TAG_DELETED_FILE);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, *number);
        }
        for (level, file) in &self.new_files {
            put_varint32(&mut out, TAG_NEW_FILE);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, file.number);
            put_varint64(&mut out, file.file_size);
            put_length_prefixed_slice(&mut out, &file.smallest);
            put_length_prefixed_slice(&mut out, &file.largest);
        }
        for (level, key) in &self.new_guards {
            put_varint32(&mut out, TAG_NEW_GUARD);
            put_varint32(&mut out, *level as u32);
            put_length_prefixed_slice(&mut out, key);
        }
        out
    }

    /// Decodes an edit from a MANIFEST record.
    pub fn decode(data: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let mut dec = Decoder::new(data);
        while !dec.is_empty() {
            let tag = dec.read_varint32()?;
            match tag {
                TAG_LOG_NUMBER => edit.log_number = Some(dec.read_varint64()?),
                TAG_NEXT_FILE_NUMBER => edit.next_file_number = Some(dec.read_varint64()?),
                TAG_LAST_SEQUENCE => edit.last_sequence = Some(dec.read_varint64()?),
                TAG_DELETED_FILE => {
                    let level = dec.read_varint32()? as usize;
                    let number = dec.read_varint64()?;
                    edit.deleted_files.push((level, number));
                }
                TAG_NEW_FILE => {
                    let level = dec.read_varint32()? as usize;
                    let number = dec.read_varint64()?;
                    let file_size = dec.read_varint64()?;
                    let smallest = dec.read_length_prefixed_slice()?.to_vec();
                    let largest = dec.read_length_prefixed_slice()?.to_vec();
                    // Every consumer takes the user key of these bounds, which
                    // panics on anything shorter than the 8-byte trailer; and
                    // a file whose bounds are inverted covers no key range,
                    // so no level would hold it.
                    if smallest.len() < 8
                        || largest.len() < 8
                        || compare_internal_keys(&smallest, &largest) == Ordering::Greater
                    {
                        return Err(Error::corruption(format!(
                            "file {number} has malformed key bounds"
                        )));
                    }
                    edit.new_files.push((
                        level,
                        FileMetaDataEdit {
                            number,
                            file_size,
                            smallest,
                            largest,
                        },
                    ));
                }
                TAG_NEW_GUARD => {
                    let level = dec.read_varint32()? as usize;
                    let key = dec.read_length_prefixed_slice()?.to_vec();
                    edit.new_guards.push((level, key));
                }
                other => {
                    return Err(Error::corruption(format!(
                        "unknown version edit tag {other}"
                    )))
                }
            }
        }
        Ok(edit)
    }

    /// Records a new file.
    pub fn add_file(&mut self, level: usize, file: &FileMetaData) {
        self.new_files.push((
            level,
            FileMetaDataEdit {
                number: file.number,
                file_size: file.file_size,
                smallest: file.smallest.encoded().to_vec(),
                largest: file.largest.encoded().to_vec(),
            },
        ));
    }

    /// Records a deleted file.
    pub fn delete_file(&mut self, level: usize, number: u64) {
        self.deleted_files.push((level, number));
    }

    /// `file`, which this edit adds to `base`, as the next version holds it.
    /// A file the edit also deletes from `base` unchanged — a trivial move —
    /// keeps the `Arc` `base` holds it by, and with it its open reader: one
    /// live file is one `Arc` across versions, so its strong count counts
    /// every version, cursor and job that can still read it.
    /// [`Version::apply`] builds every file it adds through this.
    pub fn added_file<R: RunSource>(
        &self,
        base: &Version<R>,
        file: &FileMetaDataEdit,
    ) -> Arc<FileMetaData> {
        let moved = self.deleted_files.iter().filter(|(_, n)| *n == file.number);
        let mut found = moved.flat_map(|(level, _)| level_files(base, *level));
        let found = found.find(|meta| file.describes(meta));
        found.cloned().unwrap_or_else(|| file.to_meta())
    }

    /// The edit a finished compaction commits, for every tree shape: delete
    /// the job's inputs, add its `outputs` (a move-only job's input itself)
    /// at the output level and persist the `guards` its merge picked there.
    pub fn compaction(
        job: &CompactionJob,
        outputs: &[FileMetaData],
        guards: &[Vec<u8>],
    ) -> VersionEdit {
        let mut edit = VersionEdit::default();
        for (level, file) in &job.inputs {
            edit.delete_file(*level, file.number);
            if job.move_only {
                edit.add_file(job.output_level, file);
            }
        }
        for meta in outputs {
            edit.add_file(job.output_level, meta);
        }
        let guards = guards.iter().map(|key| (job.output_level, key.clone()));
        edit.new_guards.extend(guards);
        edit
    }

    /// Folds `later` into this edit, so that applying the result once equals
    /// applying both in order. Recovery replays a whole MANIFEST as one edit
    /// instead of rebuilding the version once per record.
    pub fn absorb(&mut self, later: VersionEdit) {
        self.log_number = later.log_number.or(self.log_number);
        self.next_file_number = later.next_file_number.or(self.next_file_number);
        self.last_sequence = later.last_sequence.or(self.last_sequence);
        for (level, number) in later.deleted_files {
            // `apply` runs an edit's deletes before its adds, so deleting a
            // file this edit added has to cancel the add instead.
            let adds = self.new_files.len();
            self.new_files
                .retain(|(l, file)| (*l, file.number) != (level, number));
            if self.new_files.len() == adds {
                self.deleted_files.push((level, number));
            }
        }
        self.new_files.extend(later.new_files);
        self.new_guards.extend(later.new_guards);
    }

    /// Rejects records no version of `max_levels` levels can hold: a file or
    /// guard at a level that does not exist (dropping it would silently lose
    /// an sstable at reopen), a guard at level 0, which has none, and an
    /// empty guard key, which every guarded level already holds as its
    /// sentinel. [`Version::apply`] starts with this check.
    pub fn check_levels(&self, max_levels: usize) -> Result<()> {
        let deleted = self.deleted_files.iter().map(|(level, _)| *level);
        let added = self.new_files.iter().map(|(level, _)| *level);
        let guards = self.new_guards.iter().map(|(level, _)| *level);
        if let Some(level) = deleted
            .chain(added)
            .chain(guards)
            .find(|l| *l >= max_levels)
        {
            return Err(Error::corruption(format!(
                "version edit names level {level} of a {max_levels}-level store"
            )));
        }
        if (self.new_guards.iter()).any(|(level, key)| *level == 0 || key.is_empty()) {
            return Err(Error::corruption(
                "version edit commits a guard at level 0 or an empty one",
            ));
        }
        Ok(())
    }
}

impl Record for VersionEdit {
    fn encode(&self) -> Vec<u8> {
        VersionEdit::encode(self)
    }

    fn decode(bytes: Vec<u8>) -> Result<VersionEdit> {
        VersionEdit::decode(&bytes)
    }
}

/// Every distinct file `version` references, level 0 first.
pub fn version_files<R: RunSource>(v: &Version<R>) -> impl Iterator<Item = &Arc<FileMetaData>> {
    v.level0().iter().chain(v.runs().flat_map(distinct_files))
}

/// The records that rebuild `version` from an empty one: the level-0 files,
/// then for each deeper level every slot's lower bound as a guard and the
/// level's distinct files. A slot without a lower bound (the LSM's every
/// slot, the FLSM's sentinel) adds no guard.
pub fn snapshot<R: RunSource>(version: &Version<R>) -> VersionEdit {
    let mut edit = VersionEdit::default();
    for file in version.level0() {
        edit.add_file(0, file);
    }
    for (level, run) in (1..).zip(version.runs()) {
        let bounds = (0..run.slots()).filter_map(|slot| run.bounds(slot).0);
        edit.new_guards
            .extend(bounds.map(|key| (level, key.to_vec())));
        for file in distinct_files(run) {
            edit.add_file(level, file);
        }
    }
    edit
}

/// The distinct files `version` holds at `level`.
pub fn level_files<R: RunSource>(
    version: &Version<R>,
    level: usize,
) -> impl Iterator<Item = &Arc<FileMetaData>> {
    let level0 = if level == 0 { version.level0() } else { &[] };
    let run = level.checked_sub(1).and_then(|i| version.runs().nth(i));
    let deeper = run.into_iter().flat_map(distinct_files);
    level0.iter().chain(deeper)
}

/// The files of `version` that `edit` deletes and does not add back: what
/// committing `edit` over `version` makes obsolete.
fn unlinked<R: RunSource>(version: &Version<R>, edit: &VersionEdit) -> Vec<Arc<FileMetaData>> {
    let readded = |number| edit.new_files.iter().any(|(_, f)| f.number == number);
    let gone = |level, f: &Arc<FileMetaData>| {
        edit.deleted_files.contains(&(level, f.number)) && !readded(f.number)
    };
    let levels: BTreeSet<usize> = edit.deleted_files.iter().map(|(level, _)| *level).collect();
    let files = levels
        .into_iter()
        .flat_map(|level| level_files(version, level).filter(move |f| gone(level, f)));
    files.cloned().collect()
}

/// One level of a version in numbers. Level 0, whose files overlap freely,
/// is a single slot holding all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelRow {
    /// The level the row describes.
    pub level: usize,
    /// Distinct files (one spanning several slots counts once).
    pub files: usize,
    /// Their total size.
    pub bytes: u64,
    /// Slots the level is cut into: guards (sentinel included) or files.
    pub slots: usize,
    /// Slots holding no file (Figure 5.4 of the paper).
    pub empty_slots: usize,
    /// Files in the fullest slot.
    pub max_files_per_slot: usize,
}

/// The per-level table of one version, a row per level from 0 down. The
/// version set computes it once when a version is installed; clones share
/// it. Displays as `L0:4 L1:3 ...`, or with `{:#}` — for a shape whose slots
/// are guards — as `L0:4 L1:3f/2g ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTable(Arc<[LevelRow]>);

impl LevelTable {
    /// Walks `version` once.
    pub fn of<R: RunSource>(version: &Version<R>) -> LevelTable {
        let level0 = version.level0();
        let mut rows = vec![LevelRow {
            level: 0,
            files: level0.len(),
            bytes: level0.iter().map(|f| f.file_size).sum(),
            slots: 1,
            empty_slots: usize::from(level0.is_empty()),
            max_files_per_slot: level0.len(),
        }];
        for (index, run) in version.runs().enumerate() {
            let attached = (0..run.slots()).map(|slot| run.files(slot).len());
            let sizes = distinct_files(run).map(|f| f.file_size);
            let (files, bytes) =
                sizes.fold((0, 0), |(files, bytes), size| (files + 1, bytes + size));
            rows.push(LevelRow {
                level: index + 1,
                files,
                bytes,
                slots: run.slots(),
                empty_slots: attached.clone().filter(|n| *n == 0).count(),
                max_files_per_slot: attached.max().unwrap_or(0),
            });
        }
        LevelTable(rows.into())
    }

    /// Total number of live files.
    pub fn num_files(&self) -> usize {
        self.iter().map(|row| row.files).sum()
    }

    /// Total bytes across all live files.
    pub fn total_bytes(&self) -> u64 {
        self.iter().map(|row| row.bytes).sum()
    }
}

impl std::ops::Deref for LevelTable {
    type Target = [LevelRow];
    fn deref(&self) -> &[LevelRow] {
        &self.0
    }
}

impl fmt::Display for LevelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.iter() {
            let separator = if row.level == 0 { "" } else { " " };
            write!(f, "{separator}L{}:{}", row.level, row.files)?;
            if f.alternate() && row.level > 0 {
                write!(f, "f/{}g", row.slots)?;
            }
        }
        Ok(())
    }
}

/// The file-number counter of one store directory, shared between the
/// directory's [`VersionSet`] (which persists it with every MANIFEST edit)
/// and the background jobs that name their output tables while they run,
/// outside the state mutex.
///
/// The counter only hands out unique, growing numbers and publishes no
/// other data.
#[derive(Debug, Clone)]
pub struct FileNumbers(Arc<AtomicU64>);

impl FileNumbers {
    /// A counter whose first number is `next`.
    pub fn starting_at(next: u64) -> Self {
        FileNumbers(Arc::new(AtomicU64::new(next)))
    }

    /// Draws a fresh file number.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, AtomicOrdering::SeqCst)
    }

    /// The number the next draw will return (or exceed, under concurrency).
    pub fn peek(&self) -> u64 {
        self.0.load(AtomicOrdering::SeqCst)
    }

    /// Makes every later draw return at least `next`.
    fn advance_to(&self, next: u64) {
        self.0.fetch_max(next, AtomicOrdering::SeqCst);
    }
}

/// Owns the current version, the MANIFEST log and file-number allocation.
pub struct VersionSet<R: RunSource> {
    env: Arc<dyn Env>,
    db_path: PathBuf,
    options: StoreOptions,
    current: Arc<Version<R>>,
    /// The table of `current`.
    levels: LevelTable,
    /// Files commits have unlinked that are still on disk. Each waits here
    /// until this list holds its only `Arc`: no version, cursor or job can
    /// read it any more.
    obsolete: Vec<Arc<FileMetaData>>,
    manifest: Option<LogWriter>,
    manifest_number: u64,
    file_numbers: FileNumbers,
    last_sequence: SequenceNumber,
    log_number: u64,
}

impl<R: RunSource> VersionSet<R> {
    /// Opens the version set of the directory `db_path`: recovers from the
    /// MANIFEST named by `CURRENT` if there is one, starts empty otherwise.
    /// Either way a fresh full-snapshot MANIFEST is written, which keeps
    /// recovery time bounded by the edits of one run.
    pub fn open(env: Arc<dyn Env>, db_path: PathBuf, options: StoreOptions) -> Result<Self> {
        let current = Arc::new(Version::empty(NUM_LEVELS));
        let mut set = VersionSet {
            levels: LevelTable::of(&*current),
            current,
            env,
            db_path,
            options,
            obsolete: Vec::new(),
            manifest: None,
            manifest_number: 1,
            file_numbers: FileNumbers::starting_at(2),
            last_sequence: 0,
            log_number: 0,
        };
        if set.env.file_exists(&current_file_name(&set.db_path)) {
            set.recover()?;
        }
        set.rewrite_manifest()?;
        Ok(set)
    }

    /// Deletes what a past run left in the directory that nothing names:
    /// tables no version holds (a crash's uncommitted outputs, deletes that
    /// failed or never ran), MANIFESTs older than the one `open` wrote and
    /// temp files. Run once the store's recovery has succeeded: an open that
    /// fails to recover deletes nothing. The one listing of the directory for
    /// garbage: once open, a store deletes exactly what its commits unlink
    /// (WAL segments are the change log's to let go of, value logs
    /// `vlog_gc`'s).
    pub(crate) fn sweep(&self) {
        let Ok(names) = self.env.children(&self.db_path) else {
            return;
        };
        let live: BTreeSet<u64> = version_files(&*self.current).map(|f| f.number).collect();
        for name in names {
            let orphan = match parse_file_name(&name) {
                Some((FileType::Table, number)) => !live.contains(&number),
                Some((FileType::Descriptor, number)) => number < self.manifest_number,
                Some((FileType::Temp, _)) => true,
                // Unknown names (the `CFS` catalog, `cf-<id>` subdirs on a
                // real filesystem) are never the sweep's to delete.
                _ => false,
            };
            if orphan && self.env.remove_file(&self.db_path.join(&name)).is_err() {
                // Space, not correctness: the next open retries.
                let failures = &self.options.counters.cleanup_failures;
                failures.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }

    /// The current version. A caller that keeps a clone past the state lock
    /// pins the version's files: each holds its files' `Arc`s, and a file
    /// is deleted only once its `Arc` is held by the obsolete list alone.
    pub fn current(&self) -> &Arc<Version<R>> {
        &self.current
    }

    /// The per-level table of the current version. Plain reads: nothing is
    /// walked, so stats, back-pressure and compaction picking may ask under
    /// the state mutex.
    pub fn levels(&self) -> &LevelTable {
        &self.levels
    }

    /// The directory's file-number counter; clones share it.
    pub fn file_numbers(&self) -> &FileNumbers {
        &self.file_numbers
    }

    /// Allocates a new file number.
    pub fn new_file_number(&self) -> u64 {
        self.file_numbers.next()
    }

    /// Marks `number` as used (during recovery).
    pub fn mark_file_number_used(&self, number: u64) {
        self.file_numbers.advance_to(number.saturating_add(1));
    }

    /// The file number of the live MANIFEST.
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// Write-ahead log number whose contents are reflected in `current`.
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// Sequence number of the most recent committed write.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.last_sequence
    }

    /// Publishes a new last sequence (called before a MANIFEST commit).
    pub fn set_last_sequence(&mut self, seq: SequenceNumber) {
        self.last_sequence = seq;
    }

    /// The files commits have unlinked from the current version that are
    /// still on disk, held or not.
    pub fn obsolete_files(&self) -> &[Arc<FileMetaData>] {
        &self.obsolete
    }

    /// Hands every obsolete file nothing else holds to `delete` and forgets
    /// those it deleted; the rest wait for the next pass. Holders clone from
    /// a version under the lock that also guards this call, so a file held
    /// by this list alone stays that way.
    pub fn delete_obsolete(&mut self, mut delete: impl FnMut(&FileMetaData) -> bool) {
        self.obsolete
            .retain(|file| Arc::strong_count(file) > 1 || !delete(file));
    }

    /// Makes `next` the current version, with its table.
    fn install(&mut self, next: Arc<Version<R>>) {
        self.levels = LevelTable::of(&*next);
        self.current = next;
    }

    /// Recovers state from the MANIFEST named by `CURRENT`.
    fn recover(&mut self) -> Result<()> {
        let current = self
            .env
            .read_file_to_vec(&current_file_name(&self.db_path))?;
        let name = String::from_utf8_lossy(&current);
        let name = name.trim();
        let manifest_number: u64 = name
            .strip_prefix("MANIFEST-")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| Error::corruption("CURRENT does not name a manifest"))?;
        let file = self.env.new_sequential_file(&self.db_path.join(name))?;
        let mut edits = Replay::<VersionEdit>::new(file, Tail::Committed(u64::MAX));

        let mut replay = VersionEdit::default();
        while let Some(edit) = edits.next_record()? {
            replay.absorb(edit);
        }
        self.log_number = replay.log_number.unwrap_or(self.log_number);
        self.file_numbers
            .advance_to(replay.next_file_number.unwrap_or(0));
        self.last_sequence = replay.last_sequence.unwrap_or(self.last_sequence);
        self.install(Arc::new(self.current.apply(&replay)?));
        self.mark_file_number_used(manifest_number);
        Ok(())
    }

    /// Applies `edit` to the current version, logs it and installs the result.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version<R>>> {
        if edit.log_number.is_none() {
            edit.log_number = Some(self.log_number);
        }
        edit.next_file_number = Some(self.file_numbers.peek());
        edit.last_sequence = Some(self.last_sequence);

        let next = Arc::new(self.current.apply(&edit)?);
        // With concurrent compaction jobs merging their edits through this
        // serialized path, a violation here means two jobs claimed
        // overlapping work.
        #[cfg(debug_assertions)]
        if let Err(violation) = next.validate() {
            panic!("version invariant violated after commit: {violation}");
        }

        let manifest = self.manifest.as_mut().expect("open wrote a MANIFEST");
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
        self.obsolete.extend(unlinked(&*self.current, &edit));
        self.install(Arc::clone(&next));
        Ok(next)
    }

    /// Commits "switch to WAL `log_number`, optionally adding a level-0
    /// table" (WAL rotation at open, recovery flushes, memtable flushes) —
    /// with [`VersionEdit::compaction`], every edit a store produces.
    pub fn commit_level0(
        &mut self,
        meta: Option<&FileMetaData>,
        log_number: Option<u64>,
    ) -> Result<()> {
        let mut edit = VersionEdit {
            log_number,
            ..Default::default()
        };
        if let Some(meta) = meta {
            edit.add_file(0, meta);
        }
        self.log_and_apply(edit).map(|_| ())
    }

    /// Writes a new MANIFEST holding a full snapshot of the current state and
    /// points `CURRENT` at it.
    fn rewrite_manifest(&mut self) -> Result<()> {
        let manifest_number = self.new_file_number();
        let path = descriptor_file_name(&self.db_path, manifest_number);
        let mut writer = LogWriter::new(self.env.new_writable_file(&path)?);

        let snapshot = VersionEdit {
            next_file_number: Some(self.file_numbers.peek()),
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            ..snapshot(&*self.current)
        };
        writer.add_record(&snapshot.encode())?;
        writer.sync()?;
        self.manifest = Some(writer);
        self.manifest_number = manifest_number;
        self.env.write_string_to_file_sync(
            &current_file_name(&self.db_path),
            format!("MANIFEST-{manifest_number:06}\n").as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};

    fn file_edit(number: u64, smallest: &str, largest: &str) -> FileMetaDataEdit {
        FileMetaDataEdit {
            number,
            file_size: 1000,
            smallest: InternalKey::new(smallest.as_bytes(), 9, ValueType::Value)
                .encoded()
                .to_vec(),
            largest: InternalKey::new(largest.as_bytes(), 1, ValueType::Value)
                .encoded()
                .to_vec(),
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One roundtrip body for what used to be two formats.
    fn roundtrip(guards: &[(usize, Vec<u8>)]) {
        let mut edit = VersionEdit {
            log_number: Some(12),
            next_file_number: Some(55),
            last_sequence: Some(9000),
            new_guards: guards.to_vec(),
            ..Default::default()
        };
        edit.delete_file(2, 40);
        edit.new_files.push((1, file_edit(41, "a", "m")));
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded.log_number, Some(12));
        assert_eq!(decoded.next_file_number, Some(55));
        assert_eq!(decoded.last_sequence, Some(9000));
        assert_eq!(decoded.deleted_files, vec![(2, 40)]);
        assert_eq!(decoded.new_files.len(), 1);
        assert_eq!(decoded.new_files[0].0, 1);
        assert_eq!(decoded.new_files[0].1.number, 41);
        assert_eq!(
            decoded.new_files[0].1.smallest,
            edit.new_files[0].1.smallest
        );
        assert_eq!(decoded.new_guards, guards);
    }

    #[test]
    fn version_edit_roundtrip() {
        roundtrip(&[]);
    }

    #[test]
    fn edit_roundtrip_including_guards() {
        roundtrip(&[(1, b"m".to_vec()), (2, b"t".to_vec())]);
    }

    /// Bytes produced by the per-engine `encode`s this module replaced (the
    /// FLSM edit carries two guards): both must decode and re-encode
    /// byte-identically, or existing store directories would not reopen.
    #[test]
    fn golden_bytes_of_both_former_formats_roundtrip() {
        const LSM: &str = "010c02ac0203f0a20404000904028201050183018180040d6170706c65\
            01090000000000000d6d616e676f007011010000000005038401010801010000000000000a7a7a\
            0202000000000000";
        const FLSM_GUARDS: &str = "0701046b69776907030470656172";
        for hex in [LSM.to_string(), format!("{LSM}{FLSM_GUARDS}")] {
            let bytes = unhex(&hex);
            let edit = VersionEdit::decode(&bytes).unwrap();
            assert_eq!(edit.encode(), bytes);
            assert_eq!(edit.log_number, Some(12));
            assert_eq!(edit.next_file_number, Some(300));
            assert_eq!(edit.last_sequence, Some(70_000));
            assert_eq!(edit.deleted_files, vec![(0, 9), (2, 130)]);
            assert_eq!(edit.new_files[0].1.number, 131);
            assert_eq!(edit.new_files[0].1.file_size, 65_537);
            assert_eq!(edit.new_files[1].0, 3);
            assert_eq!(
                edit.new_files[1].1.largest,
                InternalKey::new(b"zz", 2, ValueType::ValuePointer).encoded()
            );
        }
        let flsm = VersionEdit::decode(&unhex(&format!("{LSM}{FLSM_GUARDS}"))).unwrap();
        assert_eq!(
            flsm.new_guards,
            vec![(1, b"kiwi".to_vec()), (3, b"pear".to_vec())]
        );
    }

    /// Folding keeps "deletes run before adds" true across the fold: a later
    /// delete cancels an earlier add, a trivial move survives, and the newest
    /// bookkeeping fields win.
    #[test]
    fn absorb_equals_applying_in_order() {
        let mut first = VersionEdit {
            log_number: Some(3),
            last_sequence: Some(10),
            ..Default::default()
        };
        first.new_files.push((1, file_edit(5, "a", "c")));
        first.new_files.push((1, file_edit(6, "d", "f")));
        first.new_guards.push((1, b"d".to_vec()));
        let mut second = VersionEdit {
            last_sequence: Some(20),
            ..Default::default()
        };
        second.delete_file(1, 5); // cancels the add above
        second.delete_file(1, 6); // a trivial move of 6 to level 2
        second.new_files.push((2, file_edit(6, "d", "f")));
        second.delete_file(0, 2); // not added here: stays a delete

        first.absorb(second);
        assert_eq!(first.log_number, Some(3));
        assert_eq!(first.last_sequence, Some(20));
        assert_eq!(first.deleted_files, vec![(0, 2)]);
        let added: Vec<(usize, u64)> = first
            .new_files
            .iter()
            .map(|(l, f)| (*l, f.number))
            .collect();
        assert_eq!(added, vec![(2, 6)]);
        assert_eq!(first.new_guards, vec![(1, b"d".to_vec())]);
    }

    #[test]
    fn corrupt_edit_is_rejected() {
        assert!(VersionEdit::decode(&[99, 1, 2, 3]).is_err());
        // Tag 6 was never written by either engine.
        assert!(VersionEdit::decode(&[6, 1]).is_err());
    }

    /// A new-file record whose bounds cannot be internal keys used to reach
    /// `extract_user_key`'s assert when the version was rebuilt.
    #[test]
    fn short_or_inverted_file_bounds_are_corruption() {
        for len in 0..8 {
            let mut edit = VersionEdit::default();
            edit.new_files.push((1, file_edit(7, "a", "b")));
            edit.new_files[0].1.largest.truncate(len);
            let err = VersionEdit::decode(&edit.encode()).unwrap_err();
            assert!(err.is_corruption(), "{len}-byte bound: {err}");
        }
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, file_edit(7, "b", "a")));
        assert!(VersionEdit::decode(&edit.encode())
            .unwrap_err()
            .is_corruption());
    }

    #[test]
    fn check_levels_rejects_missing_levels_and_level0_guards() {
        let mut edit = VersionEdit::default();
        edit.new_files.push((6, file_edit(7, "a", "b")));
        edit.delete_file(6, 3);
        edit.new_guards.push((6, b"g".to_vec()));
        assert!(edit.check_levels(7).is_ok());
        assert!(edit.check_levels(6).unwrap_err().is_corruption());

        for field in 0..3 {
            let mut edit = VersionEdit::default();
            match field {
                0 => edit.new_files.push((4, file_edit(7, "a", "b"))),
                1 => edit.delete_file(4, 3),
                _ => edit.new_guards.push((4, b"g".to_vec())),
            }
            assert!(edit.check_levels(4).unwrap_err().is_corruption());
        }

        let mut edit = VersionEdit::default();
        edit.new_guards.push((0, b"g".to_vec()));
        assert!(edit.check_levels(7).unwrap_err().is_corruption());
    }
}
