//! The one version type of every tree shape: level 0's files, newest first,
//! and one level type `R` per deeper level, which is all a shape supplies
//! ([`RunSource`]). PebblesDB changes only how a level is organised (section
//! 3 of the paper), and the LSM is the FLSM with one implicit guard per
//! level, so level 0, the routing of an edit to its levels and moved files
//! are written here once.

use std::cmp::Reverse;
use std::sync::Arc;

use pebblesdb_common::Result;

use crate::meta::FileMetaData;
use crate::runs::RunSource;
use crate::version_set::VersionEdit;

/// An immutable snapshot of which sstables live where. Each level sits
/// behind its own `Arc`: a version shares every level its edit leaves alone
/// with the version before it.
#[derive(Debug)]
pub struct Version<R> {
    level0: Arc<[Arc<FileMetaData>]>,
    runs: Vec<Arc<R>>,
}

impl<R: RunSource> Version<R> {
    /// An empty version with `levels` levels (a store has
    /// [`NUM_LEVELS`](pebblesdb_common::NUM_LEVELS)).
    pub fn empty(levels: usize) -> Self {
        let runs = (1..levels).map(|_| Arc::new(R::default())).collect();
        Version {
            level0: Arc::new([]),
            runs,
        }
    }

    /// Number of levels, level 0 included.
    pub fn num_levels(&self) -> usize {
        self.runs.len() + 1
    }

    /// The level-0 files, newest first.
    pub fn level0(&self) -> &[Arc<FileMetaData>] {
        &self.level0
    }

    /// Level `level`, 1 or deeper.
    pub fn run(&self, level: usize) -> &R {
        &self.runs[level - 1]
    }

    /// The levels from 1 down.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = &R> + ExactSizeIterator {
        self.runs.iter().map(|run| &**run)
    }

    /// The version `edit` makes of this one. A level is rebuilt only if the
    /// edit adds or deletes a file there or commits a guard at or above it
    /// (a guard at level i is one at every deeper level); every other level
    /// is shared. Level 0 takes the deletes, then the adds, newest first and
    /// one entry per file number; a deeper level is its `R`'s
    /// [`RunSource::apply`]. Fails with `Corruption` on an edit that
    /// [`VersionEdit::check_levels`] or a level type refuses: edits come from
    /// the MANIFEST as well as from the engine.
    pub fn apply(&self, edit: &VersionEdit) -> Result<Self> {
        edit.check_levels(self.num_levels())?;
        let mut deltas = vec![(Vec::new(), Vec::new()); self.num_levels()];
        for (level, number) in &edit.deleted_files {
            deltas[*level].0.push(*number);
        }
        for (level, file) in &edit.new_files {
            deltas[*level].1.push(edit.added_file(self, file));
        }
        let untouched = |delta: &(Vec<u64>, Vec<_>)| delta.0.is_empty() && delta.1.is_empty();
        let mut deltas = deltas.into_iter();
        let level0 = match deltas.next().filter(|delta| !untouched(delta)) {
            Some((deleted, added)) => {
                let kept = self.level0.iter().filter(|f| !deleted.contains(&f.number));
                let mut files: Vec<_> = kept.cloned().chain(added).collect();
                files.sort_by_key(|f| Reverse(f.number));
                // MANIFEST snapshots written before the chassis owned the
                // version set could list a file twice.
                files.dedup_by_key(|f| f.number);
                files.into()
            }
            None => Arc::clone(&self.level0),
        };
        let levels = (1..).zip(&self.runs).zip(deltas);
        let runs = levels.map(|((level, run), delta)| {
            let guards = edit.new_guards.iter().filter(|(at, _)| *at <= level);
            let guards: Vec<&[u8]> = guards.map(|(_, key)| key.as_slice()).collect();
            if untouched(&delta) && guards.is_empty() {
                return Ok(Arc::clone(run));
            }
            run.apply(&delta.0, &delta.1, &guards).map(Arc::new)
        });
        let runs = runs.collect::<Result<_>>()?;
        Ok(Version { level0, runs })
    }

    /// Checks every level's invariant, describing the first violation found.
    /// Debug builds run it after every commit.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let deeper = self.runs().skip(1).map(Some).chain([None]);
        let mut levels = (1..).zip(self.runs()).zip(deeper);
        levels.try_for_each(|((level, run), deeper)| run.validate(level, deeper))
    }
}
