//! The [`ShapePolicy`] trait: everything that differs between tree shapes.
//!
//! The chassis (see the crate docs) owns the write pipeline, the flush
//! thread, the compaction worker pool and the garbage collector; a policy
//! plugs in the level *organization* — how a version routes reads, how
//! compaction work is picked and committed, and which per-key observations
//! the write path must make (guard selection in the FLSM).

use std::collections::BTreeSet;
use std::sync::Arc;

use pebblesdb_common::iterator::DbIterator;
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::{ReadOptions, Result, StoreOptions};
use pebblesdb_env::Env;
use pebblesdb_sstable::TableCache;

use crate::meta::FileMetaData;
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

/// A claimed unit of compaction work, with the input file numbers the
/// chassis must reserve to keep other workers off the same inputs. (Outputs
/// need no reservation: the chassis shields every table numbered at or
/// above the claim-time counter from the GC until the job is released.)
pub struct JobClaim<J> {
    /// The policy-specific job description.
    pub job: J,
    /// File numbers of every input the job reads.
    pub input_numbers: Vec<u64>,
}

/// Mutable access to the policy-relevant parts of the engine state, handed
/// to [`ShapePolicy::pick_job`] and [`ShapePolicy::commit_job`] under the
/// chassis state mutex.
pub struct PolicyCtx<'a, P: ShapePolicy> {
    /// The engine's version set.
    pub versions: &'a mut VersionSet<P::Version>,
    /// The policy's own mutable state (uncommitted guards, compaction
    /// pointers, pending seek requests, ...).
    pub state: &'a mut P::State,
    /// Input file numbers of every in-flight compaction job. A new job's
    /// inputs must not intersect this set.
    pub claimed_inputs: &'a BTreeSet<u64>,
    /// Versions superseded at or below this sequence are invisible to every
    /// live snapshot and may be garbage-collected by a merge.
    pub smallest_snapshot: SequenceNumber,
}

/// The shape of one engine: how levels are organised, read and compacted.
///
/// The same chassis instance drives the FLSM (guards per level) and the
/// classic LSM (one implicit guard per level) purely through this trait.
pub trait ShapePolicy: Send + Sync + Sized + 'static {
    /// The immutable version snapshot: how this shape organises its levels.
    type Version: VersionShape;
    /// Per-store mutable policy state, kept inside the chassis state mutex.
    type State: Send + 'static;
    /// A fully described unit of compaction work.
    type Job: Send + 'static;

    /// The engine name reported in benchmark output.
    fn engine_name(&self) -> String;
    /// Creates the initial policy state.
    fn new_state(&self) -> Self::State;

    // ------------------------------------------------------------ write path

    /// Called once per write batch before it commits (FLSM: resets the
    /// consecutive-seek counter, section 4.2 of the paper).
    fn note_write(&self) {}

    /// Inspects one inserted key during the *unlocked* group-commit apply;
    /// whatever it returns is handed to [`ShapePolicy::absorb_observations`]
    /// under the state lock after the apply (FLSM: guard selection, a pure
    /// hash of the key).
    fn observe_key(&self, key: &[u8]) -> Option<(usize, Vec<u8>)> {
        let _ = key;
        None
    }

    /// Registers the keys observed by [`ShapePolicy::observe_key`] (FLSM:
    /// uncommitted guards for their level and all deeper ones).
    fn absorb_observations(&self, state: &mut Self::State, observed: Vec<(usize, Vec<u8>)>) {
        let _ = (state, observed);
    }

    // ------------------------------------------------------------- read path

    /// Appends the version's level iterators (level-0 files plus one lazy
    /// [`LevelCursor`](crate::LevelCursor) per deeper level, over the shape's
    /// [`RunSource`](crate::RunSource)) to a cursor's child list. The source
    /// keeps a clone of the `Arc` and reads the version's file lists in
    /// place, so building a cursor copies no per-file or per-guard state.
    fn append_version_iterators(
        &self,
        io: &EngineIo,
        version: &Arc<Self::Version>,
        opts: &ReadOptions,
        children: &mut Vec<Box<dyn DbIterator>>,
    ) -> Result<()>;

    /// Called on every cursor creation, outside the state lock, with the
    /// version the cursor pinned. Returning `true` asks the chassis to call
    /// [`ShapePolicy::arm_requested_compaction`] under the state lock and
    /// wake the worker pool (FLSM: the consecutive-seek trigger, which stays
    /// silent while `version` has no guard a compaction could collapse).
    fn note_seek(&self, version: &Self::Version) -> bool {
        let _ = version;
        false
    }

    /// Arms the compaction requested by [`ShapePolicy::note_seek`].
    fn arm_requested_compaction(&self, state: &mut Self::State) {
        let _ = state;
    }

    // ------------------------------------------------------------ compaction

    /// Claims the next unit of compaction work whose inputs do not intersect
    /// `ctx.claimed_inputs`, or `None` when nothing is claimable. The chassis
    /// registers the claim's input numbers before releasing the state lock.
    fn pick_job(&self, ctx: &mut PolicyCtx<'_, Self>) -> Option<JobClaim<Self::Job>>;

    /// Runs the job's IO. Called **without** the state mutex held; must not
    /// touch shared engine state.
    fn run_job_io(&self, io: &EngineIo, job: &Self::Job) -> Result<Vec<FileMetaData>>;

    /// Commits a finished job under the state lock (build the version edit,
    /// `log_and_apply` it, update policy state). Returns
    /// `(bytes_read, bytes_written)` for the compaction counters.
    fn commit_job(
        &self,
        ctx: &mut PolicyCtx<'_, Self>,
        job: &Self::Job,
        outputs: Vec<FileMetaData>,
    ) -> Result<(u64, u64)>;
}
