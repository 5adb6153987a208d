//! The [`ShapePolicy`] trait: everything that differs between tree shapes.
//!
//! The chassis (see the crate docs) owns the write pipeline, the read path,
//! the flush thread, the compaction worker pool and the garbage collector. A
//! policy supplies three things and nothing that merely reads or carries
//! them out: the version *definition* and its *run cut*
//! ([`VersionShape`], [`RunSource`](crate::RunSource)), and the *job pick* —
//! which files a compaction takes and where their merge goes, handed over as
//! a plain [`CompactionJob`] record the chassis merges and commits. The
//! remaining hooks are which keys a merge makes guards (the FLSM's hash of a
//! key) and whether a seek-triggered compaction could help.

use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::StoreOptions;
use pebblesdb_env::Env;
use pebblesdb_sstable::TableCache;

use crate::meta::FileMetaData;
use crate::runs::MergeSpec;
use crate::version_set::{FileNumbers, VersionSet, VersionShape};

/// The IO handles one column family runs against, shared by the chassis and
/// its policy: the environment, the family's directory, the open options and
/// the family's table cache and file-number counter. Built once per family
/// at open/create time; the default family's directory is the database
/// root. Cloning is cheap (three `Arc`s, a path and the options) and is how
/// background jobs carry their IO handles outside the state mutex.
#[derive(Clone)]
pub struct EngineIo {
    /// The filesystem abstraction.
    pub env: Arc<dyn Env>,
    /// The database directory.
    pub db_path: std::path::PathBuf,
    /// The options the store was opened with.
    pub options: StoreOptions,
    /// Open sstable readers plus the shared block cache.
    pub table_cache: Arc<TableCache>,
    /// The directory's file-number counter, shared with its version set: a
    /// job names each output table when it opens it.
    pub file_numbers: FileNumbers,
}

/// A fully described unit of compaction work: what a policy decides, as
/// data. The chassis reserves the inputs' file numbers to keep other workers
/// off them, runs [`merge_to_tables`](crate::runs::merge_to_tables) over the
/// record outside the state mutex and commits
/// [`VersionEdit::compaction`](crate::VersionEdit::compaction) of it.
/// (Outputs need no reservation: the garbage collector deletes only what a
/// commit unlinked, never a table no commit has named.)
#[derive(Debug)]
pub struct CompactionJob {
    /// The input files with the level each lives at, in the order the
    /// commit deletes them: the compacted level's files (whole guards, all
    /// of level 0, or one file of a leveled run), then — for a leveled run —
    /// the next level's files they overlap.
    pub inputs: Vec<(usize, Arc<FileMetaData>)>,
    /// How the inputs are merged and the level the outputs are written for.
    pub spec: MergeSpec,
    /// Sorted user keys no output table may cross: the output level's
    /// guards. Empty for a leveled run.
    pub partition_keys: Vec<Vec<u8>>,
    /// With `spec.drop_tombstones`, which output partitions have every one
    /// of their files among the inputs. A tombstone is dropped only in such
    /// a partition: a file left behind in the owning guard may still hold an
    /// older value it must keep shadowing. A partition past the end (every
    /// partition of a leveled run) counts as covered.
    pub full_partitions: Vec<bool>,
    /// A single input with nothing to merge below it: no IO runs, the commit
    /// just moves the file down to `spec.output_level`.
    pub move_only: bool,
}

impl CompactionJob {
    /// The level being compacted.
    pub fn level(&self) -> usize {
        self.inputs.first().map_or(0, |(level, _)| *level)
    }

    /// File numbers of every input the job reads.
    pub fn input_numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.inputs.iter().map(|(_, file)| file.number)
    }

    /// Total bytes of input.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(|(_, file)| file.file_size).sum()
    }
}

/// The policy-relevant parts of one column family's state, handed to
/// [`ShapePolicy::pick_job`] under the chassis state mutex.
pub struct PolicyCtx<'a, P: ShapePolicy> {
    /// The family's version set.
    pub versions: &'a VersionSet<P::Version>,
    /// The policy's own mutable state (the LSM's compaction pointers).
    pub state: &'a mut P::State,
    /// Whether the family's cursors have asked for a seek-triggered
    /// compaction (`seek_compaction_threshold` consecutive cursors over a
    /// version [`ShapePolicy::seek_compaction_helps`] answered yes for). The
    /// pick clears it once it schedules that job, or finds none ever could.
    pub seek_requested: &'a mut bool,
    /// Input file numbers of every in-flight compaction job. A new job's
    /// inputs must not intersect this set.
    pub claimed_inputs: &'a BTreeSet<u64>,
    /// Versions superseded at or below this sequence are invisible to every
    /// live snapshot and may be garbage-collected by a merge.
    pub smallest_snapshot: SequenceNumber,
}

/// The shape of one engine: how levels are organised and what a compaction
/// takes.
///
/// The same chassis instance drives the FLSM (guards per level) and the
/// classic LSM (one implicit guard per level) purely through this trait.
/// The chassis counts the seek trigger (section 4.2 of the paper) itself;
/// a shape says only whether a seek-triggered compaction could help, and
/// picks the job.
pub trait ShapePolicy: Send + Sync + Sized + 'static {
    /// The immutable version snapshot: how this shape organises its levels.
    type Version: VersionShape;
    /// Per-family mutable policy state, kept inside the chassis state mutex
    /// and created empty with each family.
    type State: Default + Send + 'static;

    /// The engine name reported in benchmark output.
    fn engine_name(&self) -> String;

    /// Whether a seek-triggered compaction could leave a cursor over
    /// `version` fewer sstables to visit. Only cursors over such a version
    /// count towards the trigger, so over a tree with nothing to collapse it
    /// stays silent. The LSM never asks for one.
    fn seek_compaction_helps(&self, version: &Self::Version) -> bool {
        let _ = version;
        false
    }

    /// Describes the next unit of compaction work whose inputs do not
    /// intersect `ctx.claimed_inputs`, or `None` when nothing is claimable.
    /// The chassis registers the job's input numbers before releasing the
    /// state lock.
    fn pick_job(&self, ctx: &mut PolicyCtx<'_, Self>) -> Option<CompactionJob>;

    /// The topmost level at which `user_key` is a guard, if any; a key that
    /// is a guard at a level is one at every deeper level. A job that moves
    /// data down a level makes each key it writes that qualifies at the
    /// output level a guard there (FLSM: a pure hash of the key, section 4.4
    /// of the paper). The LSM has no guards.
    fn guard_level(&self, user_key: &[u8]) -> Option<usize> {
        let _ = user_key;
        None
    }
}
