//! Change-data capture: the WAL is the change log. This module holds the
//! frontier the commit leader publishes, the WAL retention floors and the
//! [`EngineChangeStream`] cursor that reads segments up to that frontier.
//!
//! The chassis commits every batch through one WAL in one total order;
//! [`ChangeLog`] is the bookkeeping that lets change streams read that log
//! without perturbing the write path:
//!
//! * the **frontier**: three integers — the live segment, how many of its
//!   bytes are committed, and the last committed sequence — stored by the
//!   commit leader after its appends succeeded. A stream reads the live
//!   segment up to that length and no further, so it never sees an append
//!   in flight, and reads closed segments to their end;
//! * a **birth** map, `WAL segment -> last sequence committed before the
//!   segment was opened`, so a stream knows which segment its cursor starts
//!   in — and so WAL reclamation knows which segments a lagging cursor
//!   still needs;
//! * the registered **cursors** themselves, which pin WAL segments the way
//!   snapshots pin versions; and
//! * the **truncated floor**: the highest sequence whose history is gone.
//!   Streams at or below it fail with `SequenceTruncated` instead of
//!   silently skipping reclaimed batches.
//!
//! Locking: `ChangeLog` has its own mutex and is safe to lock while holding
//! the engine state mutex (the commit publish, the rotation note and the
//! segment reclaim all do). The reverse order — taking the state mutex
//! while holding this one — is forbidden, and so is file IO under it: the
//! stream copies what it needs out and drops this lock first.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use pebblesdb_common::filename::log_file_name;
use pebblesdb_common::key::{SequenceNumber, ValueType};
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::vlog::{ValuePointer, ValueResolver};
use pebblesdb_common::{CfId, ChangeEvent, ChangeStream, Error, Result, WriteBatch};
use pebblesdb_wal::{Replay, Tail};

use crate::chassis::EngineShared;
use crate::policy::ShapePolicy;
use crate::vlog::{rewrite_batch, VlogReaderCache};

/// How far change streams may read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frontier {
    /// The live (still-appending) segment; never reclaimed.
    pub log_number: u64,
    /// Bytes of it that hold committed records. Always a record boundary.
    pub log_len: u64,
    /// The last committed sequence.
    pub last_seq: SequenceNumber,
}

struct ChangeLogInner {
    frontier: Frontier,
    /// Sequences at or below this are unreadable (their WAL segments were
    /// reclaimed).
    truncated_floor: SequenceNumber,
    /// WAL segment number -> last sequence committed before it was opened
    /// (its records all carry later sequences... except pre-sequenced
    /// batches, see `segment_floor_for`). Maintained for every segment
    /// still on disk, the live one included.
    births: BTreeMap<u64, SequenceNumber>,
    /// Registered stream cursors: id -> next sequence to deliver.
    cursors: HashMap<u64, SequenceNumber>,
    next_cursor_id: u64,
}

/// The frontier, segment births and cursor registry of one store.
pub struct ChangeLog {
    inner: Mutex<ChangeLogInner>,
    /// Signalled by a publish when cursors exist; streams at the frontier
    /// wait here.
    data_ready: Condvar,
}

impl ChangeLog {
    /// Bootstraps the log at open time. `births` covers every WAL segment
    /// recovery left on disk plus the fresh one; `current_log` is the fresh, still
    /// empty segment; `last_sequence` is the recovered frontier. Everything
    /// earlier is in the surviving closed segments, bounded below by the
    /// oldest one.
    pub fn new(
        births: BTreeMap<u64, SequenceNumber>,
        current_log: u64,
        last_sequence: SequenceNumber,
    ) -> ChangeLog {
        let truncated_floor = births.values().next().copied().unwrap_or(last_sequence);
        ChangeLog {
            inner: Mutex::new(ChangeLogInner {
                frontier: Frontier {
                    log_number: current_log,
                    log_len: 0,
                    last_seq: last_sequence,
                },
                truncated_floor,
                births,
                cursors: HashMap::new(),
                next_cursor_id: 1,
            }),
            data_ready: Condvar::new(),
        }
    }

    /// Moves the frontier and wakes waiting streams. Called by the commit
    /// leader after the group's appends were flushed and applied, while it
    /// still holds the engine state mutex — commits are serialized, so the
    /// frontier only moves forward. With no stream registered this is the
    /// store of three integers and nothing else.
    pub fn publish(&self, frontier: Frontier) {
        let mut inner = self.inner.lock();
        inner.frontier = frontier;
        if !inner.cursors.is_empty() {
            self.data_ready.notify_all();
        }
    }

    /// Notes a WAL rotation: `new_log` is now the live segment, empty so
    /// far, and every sequence committed from here on is `> last_sequence`.
    /// The segment it replaces was appended to by committed groups only (a
    /// failed append poisons the store before any rotation), so streams
    /// read it to its end from now on.
    pub fn note_rotation(&self, new_log: u64, last_sequence: SequenceNumber) {
        let mut inner = self.inner.lock();
        inner.births.insert(new_log, last_sequence);
        inner.frontier.log_number = new_log;
        inner.frontier.log_len = 0;
    }

    /// Registers a cursor at `from_seq`, pinning the WAL segments it needs.
    /// Fails immediately when that history is already reclaimed.
    pub fn register(&self, from_seq: SequenceNumber) -> Result<u64> {
        let mut inner = self.inner.lock();
        if from_seq <= inner.truncated_floor {
            return Err(Error::sequence_truncated(from_seq, inner.truncated_floor));
        }
        let id = inner.next_cursor_id;
        inner.next_cursor_id += 1;
        inner.cursors.insert(id, from_seq);
        Ok(id)
    }

    /// Advances a cursor's pin to `next_seq` (its next undelivered sequence).
    pub fn update_cursor(&self, id: u64, next_seq: SequenceNumber) {
        let mut inner = self.inner.lock();
        if let Some(seq) = inner.cursors.get_mut(&id) {
            *seq = next_seq;
        }
    }

    /// Drops a cursor's pin.
    pub fn deregister(&self, id: u64) {
        self.inner.lock().cursors.remove(&id);
    }

    /// Number of live cursors.
    pub fn streams_active(&self) -> u64 {
        self.inner.lock().cursors.len() as u64
    }

    /// The current frontier.
    pub fn frontier(&self) -> Frontier {
        self.inner.lock().frontier
    }

    /// The sequence at or below which history is unreadable.
    pub fn truncated_floor(&self) -> SequenceNumber {
        self.inner.lock().truncated_floor
    }

    /// Lets go of the WAL segments below the oldest one still needed — by
    /// the column-family floors (`cf_min_log`) or a registered cursor — and
    /// returns them, oldest first, for the caller to delete. Also the
    /// **commit point of truncation**: their births are forgotten and the
    /// truncated floor advances, so callers must actually treat the returned
    /// segments as deleted.
    ///
    /// * The newest closed segment that holds history is always kept, as if
    ///   a cursor sat on its last sequence: a stream or follower attaching
    ///   just after a flush still finds the recent past.
    /// * A live cursor pins every closed segment its position still needs,
    ///   without bound; once it is dropped, a cursor that would resume below
    ///   the new floor gets `SequenceTruncated`.
    pub fn reclaim_wal_segments(&self, cf_min_log: u64) -> Vec<u64> {
        let mut inner = self.inner.lock();
        let live = inner.frontier.log_number;
        let opened_at = inner.births.get(&live).copied().unwrap_or(0);
        let mut floor = cf_min_log.min(segment_floor_for(&inner.births, live, opened_at));
        for &seq in inner.cursors.values() {
            floor = floor.min(segment_floor_for(&inner.births, live, seq));
        }
        // Segments below the floor are about to disappear; record what that
        // makes unreadable. The oldest *surviving* segment's birth is the
        // highest sequence whose history is gone.
        let kept = inner.births.split_off(&floor);
        let reclaimed = std::mem::replace(&mut inner.births, kept);
        if let Some(&birth) = inner.births.values().next() {
            if birth > inner.truncated_floor {
                inner.truncated_floor = birth;
            }
        }
        reclaimed.into_keys().collect()
    }

    /// The WAL segments not yet let go of, the live one included.
    pub fn segments(&self) -> Vec<u64> {
        self.inner.lock().births.keys().copied().collect()
    }

    /// The segment a cursor at `next_seq` reads next, having finished every
    /// segment up to and including `done`; fails when the cursor's history
    /// has been reclaimed.
    fn segment_for(&self, next_seq: SequenceNumber, done: u64) -> Result<u64> {
        let inner = self.inner.lock();
        if next_seq <= inner.truncated_floor {
            return Err(Error::sequence_truncated(next_seq, inner.truncated_floor));
        }
        let live = inner.frontier.log_number;
        let from = segment_floor_for(&inner.births, live, next_seq).max(done + 1);
        Ok(inner
            .births
            .range(from..)
            .next()
            .map_or(live, |(&log, _)| log))
    }

    /// Parks for up to `timeout` unless the frontier already differs from
    /// `seen`; returns whether it does now. A wake-up may be spurious: a
    /// caller with a deadline re-reads the clock and comes back.
    fn wait_past(&self, seen: Frontier, timeout: Duration) -> bool {
        let mut inner = self.inner.lock();
        if inner.frontier == seen {
            self.data_ready.wait_for(&mut inner, timeout);
        }
        inner.frontier != seen
    }
}

/// The oldest segment a cursor at `seq` can still need: the newest segment
/// opened when strictly fewer than `seq` sequences were committed. Every
/// batch with `last_seq >= seq` lives in that segment or a later one,
/// because a segment's birth is the store's frontier at its open — no
/// earlier segment can hold a later last sequence. (Pre-sequenced batches
/// may put *old* sequences in *new* segments; that direction is harmless —
/// the floor errs toward keeping more, never less.)
fn segment_floor_for(
    births: &BTreeMap<u64, SequenceNumber>,
    current_log: u64,
    seq: SequenceNumber,
) -> u64 {
    births
        .iter()
        .rev()
        .find(|(_, &birth)| birth < seq)
        .map(|(&log, _)| log)
        .unwrap_or_else(|| births.keys().next().copied().unwrap_or(current_log))
}

/// A cursor over one store's committed batches, in commit order.
///
/// The stream reads the WAL: closed segments from the one its cursor starts
/// in to their ends, then the live segment up to the published frontier,
/// where it blocks on the commit signal up to the caller's timeout; one
/// [`Replay`] serves both, under [`Tail::Torn`] and [`Tail::Committed`].
/// Value-separated records are resolved back inline on delivery, so a
/// consumer sees exactly the user data — it never needs this store's value
/// log. While alive the stream pins what its cursor can still reach:
///
/// * the WAL segments at or past the cursor, through its registered
///   change-log cursor, and
/// * the value-log files the cursor's sequence can reference, through a
///   sliding `cursor_pins` sequence pin.
///
/// Both pins advance as events are delivered and drop with the stream.
pub struct EngineChangeStream<P: ShapePolicy> {
    shared: Arc<EngineShared<P>>,
    cursor_id: u64,
    /// The next undelivered sequence: every committed batch whose last
    /// sequence is at or past this is still owed to the consumer.
    next_seq: SequenceNumber,
    /// The segment `replay` reads or, between segments, the one it last
    /// read to its end (0 before the first).
    segment: u64,
    replay: Option<Replay<WriteBatch>>,
    /// Value-log pin at the cursor's sequence (swapped forward on delivery,
    /// new pin acquired before the old one drops).
    pin: Snapshot,
}

impl<P: ShapePolicy> EngineChangeStream<P> {
    pub(crate) fn open(
        shared: Arc<EngineShared<P>>,
        from_seq: SequenceNumber,
    ) -> Result<EngineChangeStream<P>> {
        let from_seq = from_seq.max(1);
        let cursor_id = shared.core.change_log.register(from_seq)?;
        let pin = shared.core.cursor_pins.acquire(from_seq);
        Ok(EngineChangeStream {
            shared,
            cursor_id,
            next_seq: from_seq,
            segment: 0,
            replay: None,
            pin,
        })
    }

    /// Finishes a delivery: resolves separated values, advances the cursor
    /// and both pins, and wraps the batch as an event.
    fn deliver(&mut self, batch: WriteBatch) -> Result<Option<ChangeEvent>> {
        let batch = self.resolve_pointers(batch)?;
        let core = &self.shared.core;
        core.counters
            .wal_bytes_shipped
            .fetch_add(batch.contents().len() as u64, Ordering::Relaxed);
        let event = ChangeEvent::from_batch(batch);
        self.next_seq = self.next_seq.max(event.last_seq + 1);
        core.change_log.update_cursor(self.cursor_id, self.next_seq);
        // Acquire the new vlog pin before the old one drops, so the reclaim
        // floor never momentarily passes the cursor.
        self.pin = core.cursor_pins.acquire(self.next_seq);
        Ok(Some(event))
    }

    /// Rewrites a batch's value-pointer records back to inline values. The
    /// WAL holds post-separation bytes; consumers get the user data. A
    /// pointer whose value log is gone — the family was dropped, or GC
    /// retired the file before this cursor existed — is unrecoverable
    /// history and truncates the stream.
    fn resolve_pointers(&self, batch: WriteBatch) -> Result<WriteBatch> {
        // Each family's reader cache, grabbed under a brief state lock at
        // its first pointer. Never taken while holding the change-log lock.
        let mut resolvers: BTreeMap<CfId, Option<Arc<VlogReaderCache>>> = BTreeMap::new();
        let resolved = rewrite_batch(&batch, |record| {
            if record.value_type != ValueType::ValuePointer {
                return Ok(None);
            }
            let truncated = || Error::sequence_truncated(record.sequence, record.sequence);
            let resolver = resolvers.entry(record.cf).or_insert_with(|| {
                let state = self.shared.core.state.lock();
                state.cf(record.cf).map(|cf| Arc::clone(&cf.vlog.readers))
            });
            let resolver = resolver.as_ref().ok_or_else(truncated)?;
            let pointer = ValuePointer::decode(record.value)?;
            let value = resolver.resolve(&pointer).map_err(|_| truncated())?;
            Ok(Some((ValueType::Value, value)))
        })?;
        Ok(resolved.unwrap_or(batch))
    }
}

impl<P: ShapePolicy> ChangeStream for EngineChangeStream<P> {
    fn next_event(&mut self, timeout: Duration) -> Result<Option<ChangeEvent>> {
        let deadline = self.shared.core.io.env.now() + timeout;
        loop {
            let core = &self.shared.core;
            if core.shutting_down.load(Ordering::SeqCst) {
                return Err(Error::ShuttingDown);
            }
            let replay = match self.replay.as_mut() {
                Some(replay) => replay,
                None => {
                    self.segment = core.change_log.segment_for(self.next_seq, self.segment)?;
                    let path = log_file_name(&core.io.db_path, self.segment);
                    // An open fails when the segment was reclaimed since the
                    // lookup.
                    let file = core.io.env.new_sequential_file(&path).map_err(|_| {
                        let floor = core.change_log.truncated_floor();
                        Error::sequence_truncated(self.next_seq, floor)
                    })?;
                    self.replay.insert(Replay::new(file, Tail::Torn))
                }
            };
            // Taken after the segment was chosen, so the segment is the
            // live one or an older, closed one. What the frontier allows of
            // the live one was flushed before it was published.
            let frontier = core.change_log.frontier();
            let live = self.segment == frontier.log_number;
            replay.set_tail(if live {
                Tail::Committed(frontier.log_len)
            } else {
                Tail::Torn
            });
            let next = replay.next_record();
            if next.is_err() {
                // Reread from the cursor next time: the error repeats
                // rather than turning into a gap.
                self.replay = None;
            }
            match next? {
                // Delivered already, or a pre-sequenced relocation of old
                // data.
                Some(batch) if batch.last_sequence() < self.next_seq => {}
                Some(batch) => return self.deliver(batch),
                None if live => {
                    let remaining = deadline.saturating_sub(core.io.env.now());
                    if remaining.is_zero() {
                        return Ok(None);
                    }
                    core.change_log.wait_past(frontier, remaining);
                }
                None => self.replay = None,
            }
        }
    }

    fn cursor(&self) -> SequenceNumber {
        self.next_seq
    }

    fn backlog(&self) -> u64 {
        let frontier = self.shared.core.change_log.frontier();
        frontier.last_seq.saturating_sub(self.next_seq - 1)
    }
}

impl<P: ShapePolicy> Drop for EngineChangeStream<P> {
    fn drop(&mut self) {
        self.shared.core.change_log.deregister(self.cursor_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> ChangeLog {
        // A store opened empty: fresh segment 2, nothing committed.
        ChangeLog::new(BTreeMap::from([(2, 0)]), 2, 0)
    }

    fn at(log_number: u64, log_len: u64, last_seq: u64) -> Frontier {
        Frontier {
            log_number,
            log_len,
            last_seq,
        }
    }

    #[test]
    fn frontier_moves_with_publish_and_rotation_and_wakes_a_waiter() {
        let log = Arc::new(fresh());
        assert_eq!(log.frontier(), at(2, 0, 0));
        log.publish(at(2, 40, 3));
        assert_eq!(log.frontier(), at(2, 40, 3));
        // A rotation opens an empty live segment at the same sequence.
        log.note_rotation(3, 3);
        assert_eq!(log.frontier(), at(3, 0, 3));

        // A stale view returns at once; a current one waits out its
        // deadline, or for the next publish.
        let soon = Duration::from_millis(20);
        assert!(log.wait_past(at(2, 40, 3), soon));
        assert!(!log.wait_past(at(3, 0, 3), soon));
        let _cursor = log.register(4).unwrap();
        let waiter = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.wait_past(at(3, 0, 3), Duration::from_secs(60)))
        };
        log.publish(at(3, 25, 4));
        assert!(waiter.join().unwrap(), "a publish wakes the parked stream");
    }

    #[test]
    fn a_cursor_walks_segments_from_the_oldest_it_needs_to_the_live_one() {
        let log = fresh();
        log.note_rotation(3, 10);
        log.note_rotation(4, 20);
        // From the start: every segment, in order, ending at the live one.
        assert_eq!(log.segment_for(1, 0).unwrap(), 2);
        assert_eq!(log.segment_for(1, 2).unwrap(), 3);
        assert_eq!(log.segment_for(1, 3).unwrap(), 4);
        // Mid-history: the segment opened when fewer than 11 were committed.
        assert_eq!(log.segment_for(11, 0).unwrap(), 3);
        assert_eq!(log.segment_for(20, 0).unwrap(), 3);
        // At or past the frontier: the live segment.
        assert_eq!(log.segment_for(21, 0).unwrap(), 4);
        assert_eq!(log.segment_for(99, 0).unwrap(), 4);
        // A cursor that delivered past a segment's range skips it.
        assert_eq!(log.segment_for(25, 2).unwrap(), 4);
    }

    #[test]
    fn reclaim_floor_pins_for_cursors_without_a_cap() {
        let rotated_twice = || {
            let log = fresh();
            log.note_rotation(3, 10);
            log.note_rotation(4, 20);
            log
        };
        // No cursors: the families are done with everything below 4, and
        // the newest closed segment with history in it (3: 11..=20) stays.
        let log = rotated_twice();
        assert_eq!(log.reclaim_wal_segments(4), [2]);
        assert_eq!(log.truncated_floor(), 10);
        assert_eq!(log.segments(), [3, 4]);
        // A segment is handed out once.
        assert_eq!(log.reclaim_wal_segments(4), [0u64; 0]);
        // A rotation that closes an empty segment does not push it out.
        log.note_rotation(5, 20);
        assert_eq!(log.reclaim_wal_segments(5), [0u64; 0]);
        // A cursor at 11 needs segment 3 (birth 10 < 11 <= 20) as well.
        let _at_11 = log.register(11).unwrap();
        assert_eq!(log.reclaim_wal_segments(5), [0u64; 0]);
        assert_eq!(log.segments(), [3, 4, 5]);
        // A cursor at 5 needs segment 2 (birth 0 < 5): nothing may go until
        // it does.
        let log = rotated_twice();
        let id = log.register(5).unwrap();
        assert_eq!(log.reclaim_wal_segments(4), [0u64; 0]);
        log.deregister(id);
        assert_eq!(log.reclaim_wal_segments(4), [2]);
    }

    #[test]
    fn bootstrap_truncation_floor_comes_from_the_oldest_surviving_segment() {
        // Reopened store: segments 7 (birth 100) and 9 (fresh, birth 130)
        // survive; history at or below 100 was reclaimed in a past life.
        let log = ChangeLog::new(BTreeMap::from([(7, 100), (9, 130)]), 9, 130);
        assert_eq!(log.truncated_floor(), 100);
        assert!(log.register(100).unwrap_err().is_sequence_truncated());
        let cursor = log.register(101).unwrap();
        // The retained segment first, then the fresh one.
        assert_eq!(log.segment_for(101, 0).unwrap(), 7);
        assert_eq!(log.segment_for(101, 7).unwrap(), 9);
        assert_eq!(log.frontier(), at(9, 0, 130));
        log.deregister(cursor);
    }

    #[test]
    fn shipped_bytes_and_stream_counts_accumulate() {
        let log = fresh();
        assert_eq!(log.streams_active(), 0);
        let a = log.register(1).unwrap();
        let _b = log.register(1).unwrap();
        assert_eq!(log.streams_active(), 2);
        log.deregister(a);
        assert_eq!(log.streams_active(), 1);
    }
}
