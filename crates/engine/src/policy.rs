//! The [`ShapePolicy`] trait: everything that differs between tree shapes.
//!
//! The chassis (see the crate docs) owns the write pipeline, the read path,
//! the flush thread, the compaction worker pool, the garbage collector and
//! the one [`Version`]. A policy supplies two things and nothing that merely
//! reads or carries them out: its *level type* ([`RunSource`]: a level's cut
//! into slots, how an edit rebuilds it, its invariant) and the *job pick* —
//! which files a compaction takes and where their merge goes, handed over as
//! a plain [`CompactionJob`] record the chassis merges and commits. Where
//! the merge cuts its outputs is the output level's run cut, and which
//! tombstones it may drop is what the rest of the version holds: the
//! chassis reads both off the version, so a job carries neither, nor the
//! snapshot floor. The remaining hooks are which keys a merge makes guards
//! (the FLSM's hash of a key) and whether a seek-triggered compaction could
//! help.

use std::sync::Arc;

use pebblesdb_common::StoreOptions;
use pebblesdb_env::Env;
use pebblesdb_sstable::TableCache;

use crate::meta::{user_key_range, FileMetaData};
use crate::runs::RunSource;
use crate::version::Version;
use crate::version_set::{FileNumbers, VersionSet};

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
/// data — what a job takes and where it goes. The chassis holds its inputs'
/// [`Claims`] to keep other jobs off them, runs
/// [`merge_to_tables`](crate::runs::merge_to_tables) over the record and the
/// version it was picked from, outside the state mutex, and commits
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
    /// The level the outputs are written for.
    pub output_level: usize,
    /// A single input with nothing to merge below it: no IO runs, the commit
    /// just moves the file down to `output_level`.
    pub move_only: bool,
}

impl CompactionJob {
    /// The level being compacted.
    pub fn level(&self) -> usize {
        self.inputs.first().map_or(0, |(level, _)| *level)
    }

    /// Total bytes of input.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(|(_, file)| file.file_size).sum()
    }
}

/// The one rule that lets a family's compaction jobs run side by side: at
/// every level a job takes inputs from it holds the user-key hull of all its
/// inputs, and it may start only when no held claim at that level overlaps
/// the hull (bounds inclusive). So running jobs share no input, and never
/// write overlapping ranges into one level: a job's outputs cover its hull.
#[derive(Default)]
pub struct Claims(Vec<Claim>);

/// What one in-flight job holds: a bit per level it reads, and its hull.
#[derive(Clone, PartialEq)]
pub struct Claim(u32, Vec<u8>, Vec<u8>);

impl Claims {
    /// Whether no held claim at `level` overlaps `[smallest, largest]`.
    pub fn free(&self, level: usize, smallest: &[u8], largest: &[u8]) -> bool {
        let overlaps = |Claim(at, lo, hi): &Claim| {
            at >> level & 1 == 1 && **lo <= *largest && *smallest <= **hi
        };
        !self.0.iter().any(overlaps)
    }

    /// The number of jobs in flight: one claim each.
    pub fn jobs(&self) -> usize {
        self.0.len()
    }

    /// Holds the claim of a job over `inputs`, which must be free.
    pub fn hold(&mut self, inputs: &[(usize, Arc<FileMetaData>)]) -> Claim {
        let (lo, hi) = user_key_range(inputs.iter().map(|(_, file)| file));
        let free = inputs.iter().all(|(level, _)| self.free(*level, lo, hi));
        assert!(free, "a job was picked over a held claim");
        let levels = inputs.iter().fold(0, |bits, (level, _)| bits | 1 << level);
        let claim = Claim(levels, lo.to_vec(), hi.to_vec());
        self.0.push(claim.clone());
        claim
    }

    /// Releases a claim [`hold`](Claims::hold) returned.
    pub(crate) fn release(&mut self, claim: &Claim) {
        self.0.retain(|held| held != claim);
    }
}

/// The policy-relevant parts of one column family's state, handed to
/// [`ShapePolicy::pick_job`] under the chassis state mutex.
pub struct PolicyCtx<'a, P: ShapePolicy> {
    /// The family's version set.
    pub versions: &'a VersionSet<P::Runs>,
    /// The policy's own mutable state (the LSM's compaction pointers).
    pub state: &'a mut P::State,
    /// Whether the family's cursors have asked for a seek-triggered
    /// compaction (`seek_compaction_threshold` consecutive cursors over a
    /// version [`ShapePolicy::seek_compaction_helps`] answered yes for). The
    /// pick clears it once it schedules that job, or finds none ever could.
    pub seek_requested: &'a mut bool,
    /// The key ranges the family's in-flight jobs hold.
    pub claims: &'a Claims,
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
    /// The shape's level type: each level from 1 down of its [`Version`].
    type Runs: RunSource;
    /// Per-family mutable policy state, kept inside the chassis state mutex
    /// and created empty with each family.
    type State: Default + Send + 'static;

    /// The engine name reported in benchmark output.
    fn engine_name(&self) -> String;

    /// Whether a seek-triggered compaction could leave a cursor over
    /// `version` fewer sstables to visit. Only cursors over such a version
    /// count towards the trigger, so over a tree with nothing to collapse it
    /// stays silent. The LSM never asks for one.
    fn seek_compaction_helps(&self, version: &Version<Self::Runs>) -> bool {
        let _ = version;
        false
    }

    /// Describes the next unit of compaction work that `ctx.claims` leaves
    /// free: at each level it takes inputs from, no held claim overlaps the
    /// user-key hull of all its inputs. `None` when nothing is claimable.
    /// The chassis holds the job's claim before releasing the state lock.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::{InternalKey, ValueType};
    use pebblesdb_common::NUM_LEVELS;

    /// An input at `level` covering user keys `[smallest, largest]`.
    fn input(level: usize, smallest: &str, largest: &str) -> (usize, Arc<FileMetaData>) {
        let key = |user: &str, seq| InternalKey::new(user.as_bytes(), seq, ValueType::Value);
        let file = FileMetaData::new(1, 100, key(smallest, 9), key(largest, 1));
        (level, Arc::new(file))
    }

    /// A job holds the hull of all its inputs at each level it reads, with
    /// inclusive bounds: a shared boundary key conflicts, the next key over
    /// does not, and no claim reaches another level.
    #[test]
    fn a_claim_holds_its_hull_at_its_levels_and_nowhere_else() {
        let mut claims = Claims::default();
        assert!(claims.free(1, b"", b"\xff"), "nothing held");
        let claim = claims.hold(&[input(1, "d", "f"), input(2, "b", "e")]);
        assert_eq!(claims.jobs(), 1);
        for level in [1, 2] {
            assert!(!claims.free(level, b"a", b"b"), "shares the key b");
            assert!(!claims.free(level, b"f", b"z"), "shares the key f");
            assert!(!claims.free(level, b"c", b"c"), "inside the hull");
            assert!(claims.free(level, b"a", b"ab"));
            assert!(claims.free(level, b"f\0", b"z"));
        }
        for level in [0, 3, NUM_LEVELS - 1] {
            assert!(claims.free(level, b"a", b"z"), "level {level}");
        }

        // A second job beside the first, at the levels they share.
        let beside = claims.hold(&[input(1, "g", "h")]);
        assert_eq!(claims.jobs(), 2);
        assert!(!claims.free(1, b"g", b"g"));
        assert!(claims.free(2, b"g", b"h"));
        claims.release(&claim);
        assert!(claims.free(1, b"a", b"f") && claims.free(2, b"a", b"f"));
        assert!(!claims.free(1, b"h", b"h"));
        claims.release(&beside);
        assert_eq!(claims.jobs(), 0);
    }

    #[test]
    #[should_panic(expected = "a job was picked over a held claim")]
    fn a_job_over_a_held_claim_is_refused() {
        let mut claims = Claims::default();
        claims.hold(&[input(0, "a", "c")]);
        claims.hold(&[input(0, "c", "d")]);
    }
}
