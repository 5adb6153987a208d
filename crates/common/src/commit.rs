//! The group-commit writer queue shared by the LSM and FLSM engines.
//!
//! Concurrent writers enqueue their batches; the writer at the front of the
//! queue becomes the *leader*, gathers the batches queued behind it into one
//! group, commits the group (WAL append + sync + memtable insert — performed
//! by the engine, outside its state mutex), and then completes the followers
//! so they return without ever touching the WAL themselves. This is the
//! LevelDB/HyperLevelDB write-group protocol: one `fsync` and one log append
//! amortised over every batch in the group.
//!
//! The queue deliberately knows nothing about engines. An engine calls
//! [`CommitQueue::submit`] + [`CommitQueue::wait_turn`]; when it is handed a
//! [`Role::Leader`] it performs the durable work and calls
//! [`CommitQueue::complete`], which reports the shared result to every
//! follower in the group and wakes the next leader.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::batch::WriteBatch;
use crate::error::Result;

/// Stop growing a group past this many bytes of batch payload.
const MAX_GROUP_BYTES: usize = 1 << 20;
/// When the leader's own batch is small, cap the group lower so small writes
/// keep low latency (LevelDB's heuristic).
const SMALL_BATCH_BYTES: usize = 128 << 10;

/// Who assigns a write's sequence numbers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Numbering {
    /// The engine, at commit: a group's batches merge into one WAL record.
    Engine,
    /// An external allocator (e.g. a sharded coordinator), before submit:
    /// the batch is never renumbered or merged, so each stays its own WAL
    /// record.
    Presequenced,
}

/// What a queued request — and the group its leader forms — asks of the
/// engine. Only writes carry records; the other two always commit alone and
/// are never completed by another leader, so their submitter always leads.
#[derive(Clone)]
pub enum GroupKind {
    /// Records to log and apply. The two numberings never share a group:
    /// the engine would have to invent sequences that interleave with the
    /// external allocator's.
    Write(Numbering),
    /// Freeze every non-empty memtable (used by `flush`).
    Rotate,
    /// Claim one fresh sequence number — which no concurrent or future write
    /// group can be assigned — and deposit it into the cell.
    Reserve(Arc<AtomicU64>),
}

/// One queued request: what it asks for, its batch, its durability
/// requirement, and the slot the leader deposits the group's result into.
struct Waiter {
    kind: GroupKind,
    /// Taken (under the queue lock) by the leader that commits this write.
    batch: Mutex<Option<WriteBatch>>,
    sync: bool,
    /// Set (under the queue lock) once a leader has committed this write.
    done: Mutex<Option<Result<()>>>,
    cv: Condvar,
}

/// A handle for a submitted write, redeemed with [`CommitQueue::wait_turn`].
pub struct Ticket {
    waiter: Arc<Waiter>,
}

/// What [`CommitQueue::wait_turn`] resolved a ticket into.
pub enum Role {
    /// A leader already committed this write; here is the group's result.
    Done(Result<()>),
    /// This writer is the leader and must commit the group, then call
    /// [`CommitQueue::complete`].
    Leader(CommitGroup),
}

/// The work handed to a leader: the group's WAL records plus the queue
/// members the commit covers (leader first).
pub struct CommitGroup {
    members: Vec<Arc<Waiter>>,
    /// What the group asks of the engine (the leader's own kind).
    pub kind: GroupKind,
    /// The group's WAL records, in queue order: one merged batch for an
    /// engine-numbered write group, one batch per member for a pre-sequenced
    /// one, none for a rotation or a reservation.
    pub batches: Vec<WriteBatch>,
    /// Whether the WAL must be synced before the group is acknowledged.
    pub sync: bool,
}

/// A FIFO queue of pending writes with leader election and batch merging.
#[derive(Default)]
pub struct CommitQueue {
    queue: Mutex<VecDeque<Arc<Waiter>>>,
}

impl CommitQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CommitQueue::default()
    }

    /// Enqueues a request. `batch` holds the records of a
    /// [`GroupKind::Write`] and is ignored (pass an empty one) otherwise.
    pub fn submit(&self, kind: GroupKind, batch: WriteBatch, sync: bool) -> Ticket {
        let waiter = Arc::new(Waiter {
            kind,
            batch: Mutex::new(Some(batch)),
            sync,
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        self.queue.lock().push_back(Arc::clone(&waiter));
        Ticket { waiter }
    }

    /// Blocks until the ticket's write either was committed by another
    /// leader ([`Role::Done`]) or reached the front of the queue, in which
    /// case the caller becomes the leader of a freshly gathered group.
    pub fn wait_turn(&self, ticket: &Ticket) -> Role {
        let mut queue = self.queue.lock();
        loop {
            if let Some(result) = ticket.waiter.done.lock().take() {
                return Role::Done(result);
            }
            let is_front = queue
                .front()
                .is_some_and(|front| Arc::ptr_eq(front, &ticket.waiter));
            if is_front {
                return Role::Leader(Self::build_group(&queue));
            }
            ticket.waiter.cv.wait(&mut queue);
        }
    }

    /// Gathers the front of the queue into one group. Called with the queue
    /// lock held and the leader at the front.
    fn build_group(queue: &VecDeque<Arc<Waiter>>) -> CommitGroup {
        let leader = Arc::clone(queue.front().expect("leader is at the front"));
        let kind = leader.kind.clone();
        let sync = leader.sync;
        let mut members = vec![Arc::clone(&leader)];
        let mut batches = Vec::new();
        // A rotation or reservation request commits alone, with no records.
        if let GroupKind::Write(numbering) = kind {
            let first = leader.batch.lock().take();
            batches.push(first.expect("a queued write keeps its batch"));
            // Cap the group: 1 MiB normally, leader size + 128 KiB when the
            // leader batch is small, so a tiny write is never stuck behind
            // the merge cost of a huge group.
            let mut total = batches[0].approximate_size();
            let max_bytes = if total <= SMALL_BATCH_BYTES {
                total + SMALL_BATCH_BYTES
            } else {
                MAX_GROUP_BYTES
            };
            for follower in queue.iter().skip(1) {
                // Only writes numbered the way the leader's is may join, and
                // a non-sync leader must not absorb a sync write: the
                // follower would be acknowledged without the sync it asked
                // for.
                let joins = matches!(follower.kind, GroupKind::Write(n) if n == numbering)
                    && (sync || !follower.sync);
                let mut slot = follower.batch.lock();
                let size = slot.as_ref().map_or(0, WriteBatch::approximate_size);
                if !joins || total + size > max_bytes {
                    break;
                }
                total += size;
                let batch = slot.take().expect("a queued write keeps its batch");
                match numbering {
                    Numbering::Engine => batches[0].append(&batch),
                    Numbering::Presequenced => batches.push(batch),
                }
                members.push(Arc::clone(follower));
            }
        }
        CommitGroup {
            members,
            kind,
            batches,
            sync,
        }
    }

    /// Reports the leader's `result` to every follower in the group, removes
    /// the group from the queue, and wakes the next leader (if any).
    ///
    /// The leader's own result is *not* deposited; the leader already has it.
    pub fn complete(&self, group: CommitGroup, result: &Result<()>) {
        let mut queue = self.queue.lock();
        for (position, member) in group.members.iter().enumerate() {
            let front = queue.pop_front().expect("group members are queued");
            debug_assert!(Arc::ptr_eq(&front, member), "queue order changed");
            if position > 0 {
                *front.done.lock() = Some(result.clone());
                front.cv.notify_one();
            }
        }
        if let Some(next_leader) = queue.front() {
            next_leader.cv.notify_one();
        }
    }

    /// Number of writes currently queued (for tests and introspection).
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Returns `true` when no writes are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use std::sync::atomic::Ordering;

    const ENGINE: GroupKind = GroupKind::Write(Numbering::Engine);
    const PRE: GroupKind = GroupKind::Write(Numbering::Presequenced);

    fn batch_of(keys: &[&str]) -> WriteBatch {
        let mut batch = WriteBatch::new();
        for key in keys {
            batch.put(key.as_bytes(), b"v");
        }
        batch
    }

    fn reserve() -> GroupKind {
        GroupKind::Reserve(Arc::new(AtomicU64::new(0)))
    }

    /// One queued request: `(kind, value bytes, sync)`.
    type Request = (GroupKind, usize, bool);

    /// Queues one request per row — a write is a
    /// single put numbered by its queue position — and returns the group the
    /// first of them leads.
    fn lead(requests: &[Request]) -> (CommitQueue, CommitGroup) {
        let queue = CommitQueue::new();
        let mut tickets = Vec::new();
        for (position, (kind, bytes, sync)) in requests.iter().enumerate() {
            let mut batch = WriteBatch::new();
            if matches!(kind, GroupKind::Write(_)) {
                batch.put(format!("k{position}").as_bytes(), &vec![b'v'; *bytes]);
                batch.set_sequence(100 * (position as u64 + 1));
            }
            tickets.push(queue.submit(kind.clone(), batch, *sync));
        }
        let Role::Leader(group) = queue.wait_turn(&tickets[0]) else {
            panic!("first writer must lead");
        };
        (queue, group)
    }

    /// The one-list group, case by case: who joins the leader, and how many
    /// WAL records (batches) and user records the group then carries.
    #[test]
    fn group_membership_table() {
        const KIB: usize = 1 << 10;
        // (case, queue, members, batches, records)
        let cases: Vec<(&str, Vec<Request>, usize, usize, u32)> = vec![
            (
                "engine writes merge into one record",
                vec![(ENGINE, 1, false); 3],
                3,
                1,
                3,
            ),
            (
                "pre-sequenced writes stay one record each",
                vec![(PRE, 1, false); 3],
                3,
                3,
                3,
            ),
            (
                "an engine leader stops at a pre-sequenced follower",
                vec![(ENGINE, 1, false), (PRE, 1, false), (ENGINE, 1, false)],
                1,
                1,
                1,
            ),
            (
                "a pre-sequenced leader stops at an engine follower",
                vec![(PRE, 1, false), (ENGINE, 1, false), (PRE, 1, false)],
                1,
                1,
                1,
            ),
            (
                "a non-sync engine leader leaves a sync follower",
                vec![(ENGINE, 1, false), (ENGINE, 1, true)],
                1,
                1,
                1,
            ),
            (
                "a non-sync pre leader leaves a sync follower",
                vec![(PRE, 1, false), (PRE, 1, true)],
                1,
                1,
                1,
            ),
            (
                "a non-sync engine follower rides a sync leader",
                vec![(ENGINE, 1, true), (ENGINE, 1, false)],
                2,
                1,
                2,
            ),
            (
                "a non-sync pre follower rides a sync leader",
                vec![(PRE, 1, true), (PRE, 1, false)],
                2,
                2,
                2,
            ),
            (
                "a small engine leader caps its group at leader + 128 KiB",
                vec![
                    (ENGINE, KIB, false),
                    (ENGINE, 100 * KIB, false),
                    (ENGINE, 100 * KIB, false),
                ],
                2,
                1,
                2,
            ),
            (
                "a small pre leader caps its group at leader + 128 KiB",
                vec![
                    (PRE, KIB, false),
                    (PRE, 100 * KIB, false),
                    (PRE, 100 * KIB, false),
                ],
                2,
                2,
                2,
            ),
            (
                "a large engine leader caps its group at 1 MiB",
                vec![(ENGINE, 400 * KIB, false); 4],
                2,
                1,
                2,
            ),
            (
                "a large pre leader caps its group at 1 MiB",
                vec![(PRE, 400 * KIB, false); 4],
                2,
                2,
                2,
            ),
            (
                "a rotation commits alone",
                vec![(GroupKind::Rotate, 0, false), (ENGINE, 1, false)],
                1,
                0,
                0,
            ),
            (
                "a reservation commits alone",
                vec![(reserve(), 0, false), (ENGINE, 1, false)],
                1,
                0,
                0,
            ),
            (
                "a merge stops before a rotation",
                vec![
                    (ENGINE, 1, false),
                    (GroupKind::Rotate, 0, false),
                    (ENGINE, 1, false),
                ],
                1,
                1,
                1,
            ),
            (
                "a merge stops before a reservation",
                vec![(PRE, 1, false), (reserve(), 0, false), (PRE, 1, false)],
                1,
                1,
                1,
            ),
        ];
        for (case, requests, members, batches, records) in cases {
            let (queue, group) = lead(&requests);
            assert_eq!(group.members.len(), members, "{case}: members");
            assert_eq!(group.batches.len(), batches, "{case}: WAL records");
            let total: u32 = group.batches.iter().map(WriteBatch::count).sum();
            assert_eq!(total, records, "{case}: user records");
            queue.complete(group, &Ok(()));
            assert_eq!(queue.len(), requests.len() - members, "{case}: left queued");
        }
    }

    #[test]
    fn sole_writer_becomes_leader_with_its_own_batch() {
        let queue = CommitQueue::new();
        let ticket = queue.submit(ENGINE, batch_of(&["a"]), false);
        let Role::Leader(group) = queue.wait_turn(&ticket) else {
            panic!("first writer must lead");
        };
        assert_eq!(group.batches.len(), 1);
        assert_eq!(group.batches[0].count(), 1);
        assert!(matches!(group.kind, GroupKind::Write(Numbering::Engine)));
        queue.complete(group, &Ok(()));
        assert!(queue.is_empty());
    }

    #[test]
    fn leader_merges_followers_and_completes_them() {
        let queue = CommitQueue::new();
        let leader_ticket = queue.submit(ENGINE, batch_of(&["a"]), false);
        let follower_ticket = queue.submit(ENGINE, batch_of(&["b", "c"]), false);

        let Role::Leader(group) = queue.wait_turn(&leader_ticket) else {
            panic!("first writer must lead");
        };
        assert_eq!(group.batches.len(), 1, "one merged WAL record");
        assert_eq!(group.batches[0].count(), 3, "follower batch merged");
        assert_eq!(group.members.len(), 2);
        queue.complete(group, &Ok(()));

        // The follower finds its deposited result without leading.
        match queue.wait_turn(&follower_ticket) {
            Role::Done(result) => assert!(result.is_ok()),
            Role::Leader(_) => panic!("follower was already committed"),
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn sync_follower_is_not_merged_into_non_sync_group() {
        let (queue, group) = lead(&[(ENGINE, 1, false), (ENGINE, 1, true)]);
        assert_eq!(
            group.batches[0].count(),
            1,
            "sync write left for its own group"
        );
        assert_eq!(group.members.len(), 1);
        queue.complete(group, &Ok(()));
        assert_eq!(queue.len(), 1, "sync write still queued");
    }

    #[test]
    fn non_sync_follower_joins_sync_group() {
        let (queue, group) = lead(&[(ENGINE, 1, true), (ENGINE, 1, false)]);
        assert!(group.sync);
        assert_eq!(group.batches[0].count(), 2, "non-sync write rides the sync");
        queue.complete(group, &Ok(()));
    }

    #[test]
    fn rotation_request_commits_alone() {
        let (queue, group) = lead(&[(GroupKind::Rotate, 0, false), (ENGINE, 1, false)]);
        assert!(matches!(group.kind, GroupKind::Rotate));
        assert!(group.batches.is_empty());
        assert_eq!(group.members.len(), 1);
        queue.complete(group, &Ok(()));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn merge_stops_before_a_rotation_request() {
        let (queue, group) = lead(&[
            (ENGINE, 1, false),
            (GroupKind::Rotate, 0, false),
            (ENGINE, 1, false),
        ]);
        assert_eq!(group.batches[0].count(), 1);
        queue.complete(group, &Ok(()));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn reservation_request_commits_alone_and_always_leads() {
        let queue = CommitQueue::new();
        let slot = Arc::new(AtomicU64::new(0));
        let reserve_ticket = queue.submit(
            GroupKind::Reserve(Arc::clone(&slot)),
            WriteBatch::new(),
            false,
        );
        let _write = queue.submit(ENGINE, batch_of(&["a"]), false);

        let Role::Leader(group) = queue.wait_turn(&reserve_ticket) else {
            panic!("reservation submitter must lead");
        };
        assert!(group.batches.is_empty(), "a reservation carries no records");
        let GroupKind::Reserve(cell) = &group.kind else {
            panic!("a reservation is not a rotation or a write");
        };
        cell.store(41, Ordering::Relaxed); // as the engine's commit would
        queue.complete(group, &Ok(()));
        assert_eq!(slot.load(Ordering::Relaxed), 41);
        assert_eq!(queue.len(), 1, "the write is left for its own group");
    }

    #[test]
    fn merge_stops_before_a_reservation_request() {
        let (queue, group) = lead(&[
            (ENGINE, 1, false),
            (reserve(), 0, false),
            (ENGINE, 1, false),
        ]);
        assert_eq!(
            group.batches[0].count(),
            1,
            "merge must stop at the reservation"
        );
        queue.complete(group, &Ok(()));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn errors_propagate_to_every_follower() {
        let queue = CommitQueue::new();
        let leader_ticket = queue.submit(ENGINE, batch_of(&["a"]), false);
        let follower_ticket = queue.submit(ENGINE, batch_of(&["b"]), false);

        let Role::Leader(group) = queue.wait_turn(&leader_ticket) else {
            panic!("first writer must lead");
        };
        queue.complete(group, &Err(Error::internal("disk on fire")));
        match queue.wait_turn(&follower_ticket) {
            Role::Done(result) => assert!(result.is_err()),
            Role::Leader(_) => panic!("follower shared the leader's failure"),
        }
    }

    #[test]
    fn presequenced_batches_group_together_but_never_merge() {
        let queue = CommitQueue::new();
        let mut first = batch_of(&["a"]);
        first.set_sequence(100);
        let mut second = batch_of(&["b", "c"]);
        second.set_sequence(200);
        let leader_ticket = queue.submit(PRE, first, false);
        let follower_ticket = queue.submit(PRE, second, false);

        let Role::Leader(group) = queue.wait_turn(&leader_ticket) else {
            panic!("first writer must lead");
        };
        assert_eq!(group.batches.len(), 2, "both batches in one group");
        assert_eq!(group.batches[0].sequence(), 100);
        assert_eq!(group.batches[1].sequence(), 200, "sequences intact");
        assert_eq!(group.batches[1].count(), 2, "never merged");
        queue.complete(group, &Ok(()));
        match queue.wait_turn(&follower_ticket) {
            Role::Done(result) => assert!(result.is_ok()),
            Role::Leader(_) => panic!("pre follower was already committed"),
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn normal_and_presequenced_groups_never_mix() {
        let queue = CommitQueue::new();
        let normal_ticket = queue.submit(ENGINE, batch_of(&["a"]), false);
        let mut pre = batch_of(&["b"]);
        pre.set_sequence(500);
        let pre_ticket = queue.submit(PRE, pre, false);
        let _normal2 = queue.submit(ENGINE, batch_of(&["c"]), false);

        // A normal leader stops merging at the pre-sequenced follower.
        let Role::Leader(group) = queue.wait_turn(&normal_ticket) else {
            panic!("first writer must lead");
        };
        assert_eq!(group.batches.len(), 1);
        assert_eq!(group.batches[0].count(), 1);
        queue.complete(group, &Ok(()));

        // The pre-sequenced write now leads and stops at the normal one.
        let Role::Leader(group) = queue.wait_turn(&pre_ticket) else {
            panic!("the pre-sequenced write is at the front");
        };
        assert_eq!(group.members.len(), 1);
        assert_eq!(group.batches[0].sequence(), 500);
        queue.complete(group, &Ok(()));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn concurrent_writers_all_complete() {
        let queue = Arc::new(CommitQueue::new());
        let committed = Arc::new(Mutex::new(0u64));
        std::thread::scope(|scope| {
            for i in 0..16u32 {
                let queue = Arc::clone(&queue);
                let committed = Arc::clone(&committed);
                scope.spawn(move || {
                    let ticket = queue.submit(ENGINE, batch_of(&[&format!("k{i}")]), false);
                    match queue.wait_turn(&ticket) {
                        Role::Done(result) => result.unwrap(),
                        Role::Leader(group) => {
                            *committed.lock() += u64::from(group.batches[0].count());
                            queue.complete(group, &Ok(()));
                        }
                    }
                });
            }
        });
        assert_eq!(*committed.lock(), 16, "every batch committed exactly once");
        assert!(queue.is_empty());
    }
}
