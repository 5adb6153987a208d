//! Snapshot handles: pinned sequence numbers with RAII release.
//!
//! Every engine in the workspace versions its data with sequence numbers, so
//! a consistent point-in-time view is simply "read as of sequence S". A
//! [`Snapshot`] pins such a sequence in the engine's [`SnapshotList`]; while
//! any snapshot at or below a version's sequence is live, compaction must not
//! garbage-collect that version (the engines consult
//! [`SnapshotList::oldest`] when deciding which superseded entries to drop).
//! Dropping the handle releases the pin, letting compaction reclaim the
//! obsolete versions eventually.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::key::SequenceNumber;
use crate::options::ReadOptions;

/// The set of sequence numbers currently pinned by live [`Snapshot`]s.
///
/// Engines own one list each (behind an `Arc` so snapshot handles can
/// unregister themselves on drop) and consult [`SnapshotList::oldest`] during
/// compaction: a superseded version may only be dropped once no live snapshot
/// can still observe it.
#[derive(Debug, Default)]
pub struct SnapshotList {
    /// Pinned sequence number -> number of live handles at that sequence.
    pinned: Mutex<BTreeMap<SequenceNumber, usize>>,
}

impl SnapshotList {
    /// Creates an empty list.
    pub fn new() -> Arc<SnapshotList> {
        Arc::new(SnapshotList::default())
    }

    /// Pins `sequence` and returns the RAII handle that releases it.
    pub fn acquire(self: &Arc<Self>, sequence: SequenceNumber) -> Snapshot {
        let mut pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        *pinned.entry(sequence).or_insert(0) += 1;
        Snapshot {
            sequence,
            list: Arc::clone(self),
            children: Vec::new(),
        }
    }

    /// The smallest pinned sequence number, if any snapshot is live.
    pub fn oldest(&self) -> Option<SequenceNumber> {
        let pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        pinned.keys().next().copied()
    }

    /// The sequence number compaction may garbage-collect up to: versions
    /// superseded at or below this floor are invisible to every reader.
    ///
    /// `last_sequence` is the store's current sequence, used as the floor
    /// when no snapshot is live (then every committed write is visible and
    /// only the newest version of each key needs to be kept). Engines must
    /// not substitute [`MAX_SEQUENCE_NUMBER`] here: compaction compares the
    /// previous version's sequence — initialised to the MAX sentinel at each
    /// new user key — against this floor, and a MAX floor would drop the
    /// newest version itself.
    pub fn compaction_floor(&self, last_sequence: SequenceNumber) -> SequenceNumber {
        self.oldest().unwrap_or(last_sequence)
    }

    /// Returns `true` while at least one snapshot handle is live.
    pub fn has_active(&self) -> bool {
        let pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        !pinned.is_empty()
    }

    /// Number of live snapshot handles.
    pub fn len(&self) -> usize {
        let pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        pinned.values().sum()
    }

    /// Returns `true` if no snapshot handle is live.
    pub fn is_empty(&self) -> bool {
        !self.has_active()
    }

    fn release(&self, sequence: SequenceNumber) {
        let mut pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(count) = pinned.get_mut(&sequence) {
            *count -= 1;
            if *count == 0 {
                pinned.remove(&sequence);
            }
        }
    }
}

/// A consistent point-in-time view of a store.
///
/// Obtained from [`KvStore::snapshot`](crate::KvStore::snapshot); reads
/// issued with [`Snapshot::read_options`] (or any [`ReadOptions`] carrying
/// [`Snapshot::sequence`]) observe exactly the writes that were acknowledged
/// before the snapshot was taken. Dropping the handle unpins the sequence.
#[derive(Debug)]
pub struct Snapshot {
    sequence: SequenceNumber,
    list: Arc<SnapshotList>,
    /// Pins this handle keeps alive alongside its own (a sharded store pins
    /// the same global sequence in every shard's list). Released when this
    /// handle drops, like any other snapshot.
    children: Vec<Snapshot>,
}

impl Snapshot {
    /// The pinned sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        self.sequence
    }

    /// Attaches `children` whose pins live exactly as long as this handle.
    ///
    /// Used by stores composed of several engines: the composite snapshot is
    /// one pin per engine, surfaced as a single RAII handle.
    pub fn with_children(mut self, children: Vec<Snapshot>) -> Snapshot {
        self.children = children;
        self
    }

    /// Read options that read as of this snapshot.
    pub fn read_options(&self) -> ReadOptions {
        ReadOptions {
            snapshot: Some(self.sequence),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.list.release(self.sequence);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_drop_tracks_the_oldest_pin() {
        let list = SnapshotList::new();
        assert_eq!(list.oldest(), None);
        assert_eq!(list.compaction_floor(42), 42);

        let s10 = list.acquire(10);
        let s5 = list.acquire(5);
        let s5b = list.acquire(5);
        assert_eq!(list.oldest(), Some(5));
        assert_eq!(list.compaction_floor(42), 5);
        assert_eq!(list.len(), 3);

        drop(s5);
        assert_eq!(list.oldest(), Some(5), "second handle still pins 5");
        drop(s5b);
        assert_eq!(list.oldest(), Some(10));
        drop(s10);
        assert_eq!(list.oldest(), None);
        assert!(list.is_empty());
    }

    #[test]
    fn children_pins_live_and_die_with_the_parent() {
        let parents = SnapshotList::new();
        let shard_a = SnapshotList::new();
        let shard_b = SnapshotList::new();
        let composite = parents
            .acquire(9)
            .with_children(vec![shard_a.acquire(9), shard_b.acquire(9)]);
        assert_eq!(shard_a.oldest(), Some(9));
        assert_eq!(shard_b.oldest(), Some(9));
        drop(composite);
        assert!(parents.is_empty());
        assert!(shard_a.is_empty());
        assert!(shard_b.is_empty());
    }

    #[test]
    fn read_options_carry_the_sequence() {
        let list = SnapshotList::new();
        let snap = list.acquire(77);
        assert_eq!(snap.sequence(), 77);
        assert_eq!(snap.read_options().snapshot, Some(77));
    }
}
