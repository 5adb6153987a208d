//! Change-data capture: the in-memory commit tail, WAL retention floors and
//! the [`EngineChangeStream`] cursor that reads through both.
//!
//! The chassis commits every batch through one WAL in one total order;
//! [`ChangeLog`] is the bookkeeping that lets change streams observe that
//! order without perturbing the write path:
//!
//! * a bounded **tail** of recently committed batches (their post-separation
//!   WAL payloads), so a stream near the frontier never touches the disk;
//! * a **birth** map, `WAL segment -> last sequence committed before the
//!   segment was opened`, so a stream that predates the tail knows exactly
//!   which closed segments to replay — and so WAL reclamation knows which
//!   segments a lagging cursor still needs;
//! * the registered **cursors** themselves, which pin WAL segments the way
//!   snapshots pin versions; and
//! * the **truncated floor**: the highest sequence whose history is gone.
//!   Streams at or below it fail with `SequenceTruncated` instead of
//!   silently skipping reclaimed batches.
//!
//! Locking: `ChangeLog` has its own mutex and is safe to lock while holding
//! the engine state mutex (the commit publish, the rotation note and the
//! reclaim-floor query all do). The reverse order — taking the state mutex
//! while holding this one — is forbidden; the stream implementation copies
//! what it needs out and drops this lock first.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pebblesdb_common::filename::log_file_name;
use pebblesdb_common::key::{SequenceNumber, ValueType};
use pebblesdb_common::snapshot::Snapshot;
use pebblesdb_common::vlog::{ValuePointer, ValueResolver};
use pebblesdb_common::{CfId, ChangeEvent, ChangeStream, Error, Result, WriteBatch};
use pebblesdb_wal::SegmentReplay;

use crate::chassis::EngineShared;
use crate::policy::ShapePolicy;
use crate::vlog::{rewrite_batch, VlogReaderCache};

/// One committed batch retained in the tail: its WAL payload (header
/// included, value separation already applied) plus where it landed.
#[derive(Clone)]
pub struct TailBatch {
    /// The WAL segment the batch was appended to.
    pub log_number: u64,
    /// Sequence number of the batch's last record.
    pub last_seq: SequenceNumber,
    /// `WriteBatch::contents()` as written to the WAL.
    pub contents: Arc<Vec<u8>>,
}

/// What [`ChangeLog::read_tail`] resolved the cursor's position to.
pub enum TailRead {
    /// The next committed batch at or past the cursor.
    Batch(TailBatch),
    /// The cursor predates the tail: replay these closed segments (sorted
    /// ascending), then ask again.
    Replay(Vec<u64>),
    /// Cursor at the frontier and nothing committed within the wait.
    Idle,
    /// The cursor's history has been reclaimed.
    Truncated {
        /// The highest reclaimed sequence number.
        floor: SequenceNumber,
    },
}

struct ChangeLogInner {
    /// Recently committed batches, in commit order.
    tail: VecDeque<TailBatch>,
    /// Total payload bytes currently in `tail`.
    tail_bytes: usize,
    /// The first sequence the tail still fully covers: every committed
    /// batch with `last_seq >= tail_start` is present in `tail`.
    tail_start: SequenceNumber,
    /// Batches ever evicted off the tail's front; `evicted + index` is a
    /// stable absolute position in the commit order for cursors.
    evicted: u64,
    /// Sequences at or below this are unreadable (their WAL segments were
    /// reclaimed). Only consulted when a cursor needs WAL replay — the tail
    /// serves its range regardless.
    truncated_floor: SequenceNumber,
    /// WAL segment number -> last sequence committed before it was opened
    /// (its records all carry later sequences... except pre-sequenced
    /// batches, see `segment_floor_for`). Maintained for every segment
    /// still on disk.
    births: BTreeMap<u64, SequenceNumber>,
    /// The live (still-appending) segment; never replayed, never evictable
    /// from the tail, never reclaimed.
    current_log: u64,
    /// Registered stream cursors: id -> next sequence to deliver.
    cursors: HashMap<u64, SequenceNumber>,
    next_cursor_id: u64,
}

/// The commit tail, segment births and cursor registry of one store.
pub struct ChangeLog {
    inner: Mutex<ChangeLogInner>,
    /// Signalled by every publish; tail-mode streams wait here.
    data_ready: Condvar,
    /// Byte budget for the tail (see `StoreOptions::cdc_tail_bytes`).
    cap_bytes: usize,
    /// Closed-segment retention cap (see
    /// `StoreOptions::cdc_wal_retain_segments`).
    retain_segments: usize,
}

impl ChangeLog {
    /// Bootstraps the log at open time. `births` covers every WAL segment
    /// found on disk plus the fresh one; `current_log` is the fresh segment;
    /// `last_sequence` is the recovered frontier. The tail starts empty, so
    /// it covers exactly the not-yet-committed future; everything earlier is
    /// WAL-replay territory, bounded below by the oldest surviving segment.
    pub fn new(
        cap_bytes: usize,
        retain_segments: usize,
        births: BTreeMap<u64, SequenceNumber>,
        current_log: u64,
        last_sequence: SequenceNumber,
    ) -> ChangeLog {
        let truncated_floor = births.values().next().copied().unwrap_or(last_sequence);
        ChangeLog {
            inner: Mutex::new(ChangeLogInner {
                tail: VecDeque::new(),
                tail_bytes: 0,
                tail_start: last_sequence + 1,
                evicted: 0,
                truncated_floor,
                births,
                current_log,
                cursors: HashMap::new(),
                next_cursor_id: 1,
            }),
            data_ready: Condvar::new(),
            cap_bytes: cap_bytes.max(1),
            retain_segments,
        }
    }

    /// Appends freshly committed batches (one commit group) to the tail and
    /// wakes waiting streams. Called by the commit leader after the group
    /// succeeded, while it still holds the engine state mutex — commits are
    /// serialized, so the tail sees them in commit order.
    pub fn publish(&self, batches: Vec<TailBatch>) {
        if batches.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for batch in batches {
            inner.tail_bytes += batch.contents.len();
            inner.tail.push_back(batch);
        }
        // Evict oldest-first down to the budget — but never a batch that
        // only exists in the live WAL segment: replay reads only *closed*
        // segments (a live segment can tear under a concurrent append), so
        // everything the live segment holds must stay in memory. The tail
        // can therefore overshoot the budget by up to one segment.
        while inner.tail_bytes > self.cap_bytes {
            let Some(front) = inner.tail.front() else {
                break;
            };
            if front.log_number >= inner.current_log {
                break;
            }
            let front = inner.tail.pop_front().expect("checked above");
            inner.tail_bytes -= front.contents.len();
            inner.evicted += 1;
            // Every evicted batch satisfies `last_seq < tail_start` after
            // this, so the tail still covers [tail_start, frontier] whole.
            inner.tail_start = inner.tail_start.max(front.last_seq + 1);
        }
        drop(inner);
        self.data_ready.notify_all();
    }

    /// Notes a WAL rotation: `new_log` is now the live segment and every
    /// sequence committed from here on is `> last_sequence`.
    pub fn note_rotation(&self, new_log: u64, last_sequence: SequenceNumber) {
        let mut inner = self.inner.lock();
        inner.births.insert(new_log, last_sequence);
        inner.current_log = new_log;
    }

    /// Registers a cursor at `from_seq`, pinning the WAL segments it needs.
    /// Fails immediately when that history is already reclaimed.
    pub fn register(&self, from_seq: SequenceNumber) -> Result<u64> {
        let mut inner = self.inner.lock();
        if from_seq < inner.tail_start && from_seq <= inner.truncated_floor {
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

    /// Committed batches past the absolute tail position `pos` — a cursor's
    /// lag in batches (a lower bound while the cursor is in WAL replay).
    pub fn backlog_after(&self, pos: u64) -> u64 {
        let inner = self.inner.lock();
        (inner.evicted + inner.tail.len() as u64).saturating_sub(pos)
    }

    /// The sequence at or below which history is unreadable.
    pub fn truncated_floor(&self) -> SequenceNumber {
        self.inner.lock().truncated_floor
    }

    /// The oldest WAL segment the garbage collector must keep, taking the
    /// column-family floors (`cf_min_log`), the retention cap and every
    /// registered cursor into account. Also the **commit point of
    /// truncation**: births below the returned floor are forgotten and the
    /// truncated floor advances, so callers must actually treat segments
    /// below the returned number as deleted.
    ///
    /// * With no retention cap (`cdc_wal_retain_segments == 0`) a live
    ///   cursor pins every closed segment its position still needs, without
    ///   bound; with no cursors the family floors decide alone (the
    ///   pre-replication behaviour).
    /// * With a cap of `N`, the newest `N` closed segments are always kept —
    ///   even below the family floors, so a follower can resume across a
    ///   restart — and cursors get **at most** that window: one that lags
    ///   past it is truncated rather than stalling reclamation forever.
    pub fn wal_reclaim_floor(&self, cf_min_log: u64) -> u64 {
        let mut inner = self.inner.lock();
        let mut floor = cf_min_log;
        if self.retain_segments == 0 {
            let needed: Vec<u64> = inner
                .cursors
                .values()
                .map(|&seq| segment_floor_for(&inner.births, inner.current_log, seq))
                .collect();
            for log in needed {
                floor = floor.min(log);
            }
        } else {
            let closed: Vec<u64> = inner
                .births
                .keys()
                .copied()
                .filter(|log| *log < inner.current_log)
                .collect();
            let window_floor = if closed.len() <= self.retain_segments {
                closed.first().copied().unwrap_or(floor)
            } else {
                closed[closed.len() - self.retain_segments]
            };
            floor = floor.min(window_floor);
        }
        // Segments below the floor are about to disappear; record what that
        // makes unreadable. The oldest *surviving* segment's birth is the
        // highest sequence whose history is gone.
        inner.births.retain(|log, _| *log >= floor);
        if let Some(&birth) = inner.births.values().next() {
            if birth > inner.truncated_floor {
                inner.truncated_floor = birth;
            }
        }
        floor
    }

    /// Resolves a cursor's position against the tail.
    ///
    /// `pos` is the cursor's absolute tail position (opaque to the caller;
    /// start at 0). When the cursor's sequence predates the tail, returns
    /// the closed segments to replay instead. With a `wait`, blocks up to
    /// that long for a commit when the cursor is at the frontier.
    pub fn read_tail(
        &self,
        next_seq: SequenceNumber,
        pos: &mut u64,
        wait: Option<Duration>,
    ) -> TailRead {
        let deadline = wait.map(|w| Instant::now() + w);
        let mut inner = self.inner.lock();
        loop {
            if next_seq < inner.tail_start {
                if next_seq <= inner.truncated_floor {
                    return TailRead::Truncated {
                        floor: inner.truncated_floor,
                    };
                }
                let from = segment_floor_for(&inner.births, inner.current_log, next_seq);
                let segments: Vec<u64> = inner
                    .births
                    .keys()
                    .copied()
                    .filter(|log| *log >= from && *log < inner.current_log)
                    .collect();
                return TailRead::Replay(segments);
            }
            // The tail covers the cursor. Clamp the position to the tail's
            // front (everything evicted is below `tail_start`, hence below
            // `next_seq`), then skip batches the cursor is already past —
            // pre-sequenced relocations of old data land in commit order
            // with old sequences and are not re-delivered.
            if *pos < inner.evicted {
                *pos = inner.evicted;
            }
            loop {
                let index = (*pos - inner.evicted) as usize;
                let Some(entry) = inner.tail.get(index) else {
                    break;
                };
                *pos += 1;
                if entry.last_seq >= next_seq {
                    return TailRead::Batch(entry.clone());
                }
            }
            // At the frontier.
            let Some(deadline) = deadline else {
                return TailRead::Idle;
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.data_ready.wait_for(&mut inner, remaining).timed_out() {
                return TailRead::Idle;
            }
        }
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
/// Near the frontier the stream follows the in-memory commit tail, blocking
/// on the commit signal up to the caller's timeout; a cursor that predates
/// the tail transparently replays closed WAL segments, then switches back.
/// Value-separated records are resolved back inline on delivery, so a
/// consumer sees exactly the user data — it never needs this store's value
/// log. While alive the stream pins what its cursor can still reach:
///
/// * the WAL segments at or past the cursor (until the retention cap says
///   otherwise), through its registered change-log cursor, and
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
    /// Absolute position in the commit tail (see [`ChangeLog::read_tail`]).
    tail_pos: u64,
    /// An in-flight closed-segment replay: `(segment number, replay)`.
    replay: Option<(u64, SegmentReplay)>,
    /// The highest closed segment fully replayed; guards against re-reading
    /// a segment whose relevant batches were all below the cursor.
    replayed_through: u64,
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
            tail_pos: 0,
            replay: None,
            replayed_through: 0,
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
    /// WAL (and the tail) hold post-separation bytes; consumers get the user
    /// data. A pointer whose value log is gone — the family was dropped, or
    /// GC retired the file before this cursor existed — is unrecoverable
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
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.core.shutting_down.load(Ordering::SeqCst) {
                return Err(Error::ShuttingDown);
            }
            // Drain an in-flight segment replay first.
            if let Some((number, replay)) = self.replay.as_mut() {
                let number = *number;
                match replay.next_batch()? {
                    // Delivered through an earlier segment (a batch range
                    // can straddle a rotation replayed twice) or a
                    // pre-sequenced relocation of old data.
                    Some(batch) if batch.last_sequence() < self.next_seq => {}
                    Some(batch) => return self.deliver(batch),
                    None => {
                        self.replayed_through = self.replayed_through.max(number);
                        self.replay = None;
                    }
                }
                continue;
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            let wait = if wait.is_zero() { None } else { Some(wait) };
            let change_log = &self.shared.core.change_log;
            match change_log.read_tail(self.next_seq, &mut self.tail_pos, wait) {
                TailRead::Batch(entry) => {
                    let batch = WriteBatch::from_contents(entry.contents.as_ref().clone())?;
                    return self.deliver(batch);
                }
                TailRead::Replay(segments) => {
                    let Some(&number) = segments.iter().find(|n| **n > self.replayed_through)
                    else {
                        // Every closed segment is replayed and the tail still
                        // starts later: the gap is the live segment's data,
                        // which never leaves the tail — so it simply has not
                        // committed yet. Report an idle tick.
                        return Ok(None);
                    };
                    let core = &self.shared.core;
                    let path = log_file_name(&core.io.db_path, number);
                    // An open fails when the segment was reclaimed since the
                    // listing (the retention cap outran this cursor).
                    let file = core.io.env.new_sequential_file(&path).map_err(|_| {
                        let floor = core.change_log.truncated_floor();
                        Error::sequence_truncated(self.next_seq, floor)
                    })?;
                    self.replay = Some((number, SegmentReplay::new(file, self.next_seq)));
                }
                TailRead::Idle => return Ok(None),
                TailRead::Truncated { floor } => {
                    return Err(Error::sequence_truncated(self.next_seq, floor))
                }
            }
        }
    }

    fn cursor(&self) -> SequenceNumber {
        self.next_seq
    }

    fn backlog(&self) -> u64 {
        self.shared.core.change_log.backlog_after(self.tail_pos)
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

    fn batch(log_number: u64, last_seq: u64, len: usize) -> TailBatch {
        TailBatch {
            log_number,
            last_seq,
            contents: Arc::new(vec![0u8; len]),
        }
    }

    fn fresh(cap: usize, retain: usize) -> ChangeLog {
        // A store opened empty: fresh segment 2, nothing committed.
        ChangeLog::new(cap, retain, BTreeMap::from([(2, 0)]), 2, 0)
    }

    #[test]
    fn tail_serves_batches_in_commit_order() {
        let log = fresh(1 << 20, 0);
        log.publish(vec![batch(2, 1, 10), batch(2, 3, 10)]);
        let mut pos = 0;
        match log.read_tail(1, &mut pos, None) {
            TailRead::Batch(b) => assert_eq!(b.last_seq, 1),
            _ => panic!("expected a batch"),
        }
        match log.read_tail(2, &mut pos, None) {
            TailRead::Batch(b) => assert_eq!(b.last_seq, 3),
            _ => panic!("expected a batch"),
        }
        assert!(matches!(log.read_tail(4, &mut pos, None), TailRead::Idle));
        assert_eq!(log.backlog_after(pos), 0);
    }

    #[test]
    fn eviction_respects_the_live_segment_and_advances_tail_start() {
        let log = fresh(25, 0);
        // Three 10-byte batches in the live segment: none may evict.
        log.publish(vec![batch(2, 1, 10), batch(2, 2, 10), batch(2, 3, 10)]);
        let mut pos = 0;
        assert!(matches!(
            log.read_tail(1, &mut pos, None),
            TailRead::Batch(_)
        ));
        // Rotation closes segment 2; the next publish can evict its batches.
        log.note_rotation(3, 3);
        log.publish(vec![batch(3, 4, 10)]);
        // 40 bytes > 25: evict from the front until within budget.
        let mut pos2 = 0;
        match log.read_tail(1, &mut pos2, None) {
            TailRead::Replay(segments) => assert_eq!(segments, vec![2]),
            _ => panic!("cursor at 1 must now replay the closed segment"),
        }
        // A cursor past the evicted range still reads from the tail.
        let mut pos3 = 0;
        match log.read_tail(4, &mut pos3, None) {
            TailRead::Batch(b) => assert_eq!(b.last_seq, 4),
            _ => panic!("expected a batch"),
        }
    }

    #[test]
    fn reclaim_floor_pins_for_cursors_without_a_cap() {
        let log = fresh(1 << 20, 0);
        log.note_rotation(3, 10);
        log.note_rotation(4, 20);
        // No cursors: the family floor decides alone.
        assert_eq!(log.wal_reclaim_floor(4), 4);
        // After reclaiming below 4, sequences <= 10 are gone... but births
        // were pruned, so re-derive on a fresh log for the cursor case.
        let log = fresh(1 << 20, 0);
        log.note_rotation(3, 10);
        log.note_rotation(4, 20);
        let _cursor = log.register(5).unwrap();
        // A cursor at 5 needs segment 2 (birth 0 < 5); nothing may go.
        assert_eq!(log.wal_reclaim_floor(4), 2);
        // A cursor at 11 needs segment 3 (birth 10 < 11 <= 20).
        let log = fresh(1 << 20, 0);
        log.note_rotation(3, 10);
        log.note_rotation(4, 20);
        let id = log.register(11).unwrap();
        assert_eq!(log.wal_reclaim_floor(4), 3);
        log.deregister(id);
        assert_eq!(log.wal_reclaim_floor(4), 4);
    }

    #[test]
    fn retention_cap_keeps_a_window_and_truncates_laggards() {
        // A 1-byte tail budget: every closed-segment batch evicts on the
        // next publish, so old history lives only in the WAL segments —
        // the situation the retention cap exists for.
        let log = fresh(1, 2);
        log.publish(vec![batch(2, 10, 10)]);
        log.note_rotation(3, 10);
        log.publish(vec![batch(3, 20, 10)]);
        log.note_rotation(4, 20);
        log.publish(vec![batch(4, 30, 10)]);
        log.note_rotation(5, 30);
        let cursor = log.register(1).unwrap();
        // Closed segments: 2, 3, 4. Cap 2 keeps {3, 4} even though the
        // cursor would need 2 — and even though the families only need 5.
        assert_eq!(log.wal_reclaim_floor(5), 3);
        // Segment 2's range (sequences <= 10, segment 3's birth) is gone.
        assert_eq!(log.truncated_floor(), 10);
        let mut pos = 0;
        match log.read_tail(1, &mut pos, None) {
            TailRead::Truncated { floor } => assert_eq!(floor, 10),
            _ => panic!("lagging cursor must be truncated"),
        }
        log.deregister(cursor);
        // A fresh register below the floor fails immediately.
        assert!(log.register(9).unwrap_err().is_sequence_truncated());
        assert!(log.register(11).is_ok());
    }

    #[test]
    fn retention_cap_keeps_the_window_with_no_cursors() {
        let log = fresh(1 << 20, 2);
        log.note_rotation(3, 10);
        log.note_rotation(4, 20);
        log.note_rotation(5, 30);
        // Families are done with everything below 5; the window still
        // keeps the two newest closed segments for follower restarts.
        assert_eq!(log.wal_reclaim_floor(5), 3);
    }

    #[test]
    fn bootstrap_truncation_floor_comes_from_the_oldest_surviving_segment() {
        // Reopened store: segments 7 (birth 100) and 9 (fresh, birth 130)
        // survive; history at or below 100 was reclaimed in a past life.
        let log = ChangeLog::new(1 << 20, 2, BTreeMap::from([(7, 100), (9, 130)]), 9, 130);
        assert_eq!(log.truncated_floor(), 100);
        assert!(log.register(100).unwrap_err().is_sequence_truncated());
        let cursor = log.register(101).unwrap();
        let mut pos = 0;
        match log.read_tail(101, &mut pos, None) {
            TailRead::Replay(segments) => assert_eq!(segments, vec![7]),
            _ => panic!("expected replay of the retained segment"),
        }
        log.deregister(cursor);
    }

    #[test]
    fn shipped_bytes_and_stream_counts_accumulate() {
        let log = fresh(1 << 20, 0);
        assert_eq!(log.streams_active(), 0);
        let a = log.register(1).unwrap();
        let _b = log.register(1).unwrap();
        assert_eq!(log.streams_active(), 2);
        log.deregister(a);
        assert_eq!(log.streams_active(), 1);
    }
}
