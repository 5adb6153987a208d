//! The WAL as the change log: change streams read WAL segments — closed ones
//! to their end, the live one up to the frontier the commit leader
//! publishes — so these tests hold the live segment to what a stream needs
//! of it: every committed batch exactly once and in commit order beside a
//! running writer and across rotations (in memory and on a real disk),
//! nothing of a failed group, an error and never a gap where committed bytes
//! went bad, a wake-up for every commit, the recent past still there after a
//! flush, and (on a real disk) acknowledged bytes that have left the process.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_common::replication::{ChangeEvent, ChangeStream};
use pebblesdb_common::{CfId, Db, KvStore, StoreOptions, ValueType, WriteBatch, WriteOptions};
use pebblesdb_env::{DiskEnv, Env, MemEnv};
use pebblesdb_tests::sim_over;

const WAIT: Duration = Duration::from_secs(60);

type Model = BTreeMap<(CfId, Vec<u8>), Vec<u8>>;

fn apply_event(event: &ChangeEvent, model: &mut Model) {
    for record in event.batch.iter() {
        let record = record.unwrap();
        let slot = (record.cf, record.key.to_vec());
        match record.value_type {
            ValueType::Value => model.insert(slot, record.value.to_vec()),
            ValueType::Deletion => model.remove(&slot),
            ValueType::ValuePointer => panic!("streams must resolve pointers inline"),
        };
    }
}

/// Reads `stream` until it has delivered through `target_seq`, counting in
/// `idles` how often it found itself at the frontier on the way.
fn follow(
    stream: &mut dyn ChangeStream,
    target_seq: impl Fn() -> Option<u64>,
    idles: &AtomicU64,
) -> Vec<ChangeEvent> {
    let mut events = Vec::new();
    let deadline = Instant::now() + WAIT;
    loop {
        if target_seq().is_some_and(|target| stream.cursor() > target) {
            return events;
        }
        match stream.next_event(Duration::from_millis(1)).unwrap() {
            Some(event) => events.push(event),
            None => _ = idles.fetch_add(1, Ordering::SeqCst),
        }
        assert!(Instant::now() < deadline, "stalled at {}", stream.cursor());
    }
}

/// Every committed batch exactly once and in commit order: engine-numbered
/// sequences are dense, so each event starts where the last one ended.
fn assert_dense(events: &[ChangeEvent], from_seq: u64) {
    let mut next = events.first().map_or(from_seq, |e| e.first_seq);
    assert!(
        next <= from_seq,
        "first event starts at {next}, past {from_seq}"
    );
    for event in events {
        assert_eq!(event.first_seq, next, "gap or repeat in the stream");
        assert!(event.last_seq >= event.first_seq);
        next = event.last_seq + 1;
    }
}

#[test]
fn streams_beside_a_writer_deliver_every_batch_once_across_rotations() {
    const OPS: u32 = 3_000;
    const ROTATE_EVERY: u32 = 500;
    let mut options = StoreOptions::default();
    options.value_separation_threshold = 256;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Arc::new(PebblesDb::open_with_options(env, Path::new("/beside"), options).unwrap());
    let aux = db.create_cf("aux").unwrap().id();

    // A cursor's pin slides with what it delivers; an idle one keeps every
    // segment, so the mid-history stream can start in one long closed.
    let _history = db.stream(1).unwrap();
    let mut from_start = db.stream(1).unwrap();
    let (mid_tx, mid_rx) = mpsc::channel::<u64>();
    // The last sequence the writer commits; 0 until it is done.
    let final_seq = Arc::new(AtomicU64::new(0));
    // How often the reader from the start has reached the frontier. The
    // writer lets it get there before every rotation, so each segment is
    // read while live (and stopped in mid-block) however the threads run.
    let idles = Arc::new(AtomicU64::new(0));
    let done =
        |final_seq: &AtomicU64| Some(final_seq.load(Ordering::Acquire)).filter(|seq| *seq > 0);
    let writer = {
        let (db, final_seq) = (Arc::clone(&db), Arc::clone(&final_seq));
        let idles = Arc::clone(&idles);
        std::thread::spawn(move || {
            for op in 0..OPS {
                let key = format!("key{:04}", op.wrapping_mul(2_654_435_761) % 400).into_bytes();
                let mut batch = WriteBatch::new();
                match op % 5 {
                    0 => batch.delete_cf(if op % 2 == 0 { 0 } else { aux }, &key),
                    // Past the separation threshold: the WAL holds a pointer.
                    1 => batch.put_cf(
                        0,
                        &key,
                        &vec![b'a' + (op % 26) as u8; 300 + op as usize % 64],
                    ),
                    2 => {
                        // One atomic batch across both families.
                        batch.put_cf(0, &key, format!("pair{op}").as_bytes());
                        batch.put_cf(aux, &key, format!("pair{op}").as_bytes());
                        batch.delete_cf(aux, format!("key{:04}", op % 400).as_bytes());
                    }
                    _ => batch.put_cf(aux, &key, format!("v{op}").as_bytes()),
                }
                db.write(batch).unwrap();
                if op % ROTATE_EVERY == ROTATE_EVERY - 1 {
                    let before = idles.load(Ordering::SeqCst);
                    let deadline = Instant::now() + WAIT;
                    while idles.load(Ordering::SeqCst) == before {
                        assert!(Instant::now() < deadline, "the reader never caught up");
                        std::thread::yield_now();
                    }
                    KvStore::flush(db.as_ref()).unwrap(); // closes the live segment
                }
                if op == OPS / 2 {
                    mid_tx.send(db.committed_sequence()).unwrap();
                }
            }
            final_seq.store(db.committed_sequence(), Ordering::Release);
        })
    };
    let from_mid = {
        let (db, final_seq) = (Arc::clone(&db), Arc::clone(&final_seq));
        std::thread::spawn(move || {
            // A cursor inside a segment two rotations closed.
            let from_seq = mid_rx.recv().unwrap() / 3;
            let mut stream = db.stream(from_seq).unwrap();
            let events = follow(stream.as_mut(), || done(&final_seq), &AtomicU64::new(0));
            (from_seq, events)
        })
    };
    let events = follow(from_start.as_mut(), || done(&final_seq), &idles);
    writer.join().unwrap();
    let (mid_seq, mid_events) = from_mid.join().unwrap();

    assert!(idles.load(Ordering::SeqCst) >= (OPS / ROTATE_EVERY) as u64);
    assert_dense(&events, 1);
    assert_eq!(events.last().unwrap().last_seq, db.committed_sequence());
    assert_eq!(from_start.backlog(), 0);
    // The mid-history stream saw exactly the suffix of the same history.
    assert_dense(&mid_events, mid_seq);
    let identity = |e: &ChangeEvent| (e.first_seq, e.last_seq, e.batch.contents().to_vec());
    let suffix = events.iter().filter(|e| e.last_seq >= mid_seq);
    assert!(mid_events.iter().map(identity).eq(suffix.map(identity)));

    // Replaying the stream rebuilds the store.
    let mut model = Model::new();
    events
        .iter()
        .for_each(|event| apply_event(event, &mut model));
    for (name, id) in [("default", 0), ("aux", aux)] {
        let stored: Vec<(Vec<u8>, Vec<u8>)> =
            db.cf(name).unwrap().scan(b"", &[], usize::MAX).unwrap();
        let replayed: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|((cf, _), _)| *cf == id)
            .map(|((_, key), value)| (key.clone(), value.clone()))
            .collect();
        assert_eq!(stored, replayed, "family {name}");
    }
}

/// The delivery rule, against a cursor that moves: every batch whose *last*
/// sequence is at or past the cursor, in commit order. A batch the cursor
/// lands inside is delivered whole; a pre-sequenced batch committed late at
/// an old sequence lies behind a cursor that has moved past it, and is
/// skipped like one delivered already.
#[test]
fn a_stream_delivers_by_last_sequence_and_skips_what_lies_behind_its_cursor() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = PebblesDb::open(env, Path::new("/delivery-rule")).unwrap();
    // Commit order: [1,2] [3,5] [6] [20] [8] [21].
    for (first_seq, records) in [(1, 2), (3, 3), (6, 1), (20, 1), (8, 1), (21, 1)] {
        let mut batch = WriteBatch::new();
        for i in 0..records {
            batch.put(format!("key{first_seq}-{i}").as_bytes(), b"v");
        }
        batch.set_sequence(first_seq);
        let engine = db.engine();
        engine
            .write_presequenced(&WriteOptions::default(), batch)
            .unwrap();
    }
    let delivered = |from_seq: u64| -> Vec<(u64, u64)> {
        let mut stream = db.stream(from_seq).unwrap();
        let next = |stream: &mut Box<dyn ChangeStream>| stream.next_event(Duration::ZERO);
        std::iter::from_fn(|| next(&mut stream).unwrap())
            .map(|event| (event.first_seq, event.last_seq))
            .collect()
    };
    assert_eq!(delivered(1), [(1, 2), (3, 5), (6, 6), (20, 20), (21, 21)]);
    // Cursors inside the second batch's range get it whole.
    assert_eq!(delivered(4), [(3, 5), (6, 6), (20, 20), (21, 21)]);
    assert_eq!(delivered(5), delivered(4));
    // At or before the late batch the cursor still passes it: commit order
    // put sequence 20 in front of it.
    assert_eq!(delivered(7), [(20, 20), (21, 21)]);
    assert_eq!(delivered(21), [(21, 21)]);
    assert_eq!(delivered(22), []);
}

#[test]
fn a_failed_group_is_never_delivered_and_the_stream_idles_at_the_last_good_batch() {
    // (appends the failing put gets through, sync): one append leaves a torn
    // record in the file; two leave a whole record whose fsync failed. Both
    // are bytes past the published frontier.
    for (budget, sync) in [(1, false), (2, true)] {
        let (sim, env) = sim_over(MemEnv::new());
        let db = PebblesDb::open(env, Path::new("/failing")).unwrap();
        let mut stream = db.stream(1).unwrap();
        for i in 0..3u32 {
            db.put(format!("good{i}").as_bytes(), b"v").unwrap();
        }
        for expected in 1..=3u64 {
            let event = stream.next_event(WAIT).unwrap().expect("committed batch");
            assert_eq!(event.last_seq, expected);
        }

        sim.fail_writes_after(".log", budget);
        let opts = WriteOptions { sync };
        assert!(db.put_opts(&opts, b"lost", b"v").is_err());
        sim.heal();

        assert!(stream
            .next_event(Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert_eq!((stream.cursor(), stream.backlog()), (4, 0));
        // The store is poisoned: nothing commits after the failed group, so
        // nothing is ever delivered after it either.
        assert!(db.put(b"after", b"v").is_err());
        assert!(stream
            .next_event(Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert_eq!(db.get(b"lost").unwrap(), None);
    }
}

#[test]
fn a_stream_at_the_frontier_wakes_for_a_commit_and_survives_the_rotation() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Arc::new(PebblesDb::open(env, Path::new("/parked")).unwrap());
    let mut stream = db.stream(1).unwrap();
    assert!(stream
        .next_event(Duration::from_millis(1))
        .unwrap()
        .is_none());

    // Each round parks the stream (or finds the commit already there — the
    // wake-up must not be lost either way), commits once, and then closes
    // the segment the stream was reading.
    for round in 1..=4u64 {
        let (calling_tx, calling_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            calling_tx.send(()).unwrap();
            let started = Instant::now();
            let event = stream.next_event(WAIT).unwrap();
            (stream, event, started.elapsed())
        });
        calling_rx.recv().unwrap();
        db.put(format!("round{round}").as_bytes(), b"v").unwrap();
        let (returned, event, waited) = waiter.join().unwrap();
        stream = returned;
        assert_eq!(event.expect("the commit wakes the stream").last_seq, round);
        assert!(waited < WAIT / 2, "woken by the timeout, not the commit");
        assert_eq!(stream.backlog(), 0);
        KvStore::flush(db.as_ref()).unwrap();
    }
    assert!(stream
        .next_event(Duration::from_millis(1))
        .unwrap()
        .is_none());
}

#[test]
fn recent_history_outlives_a_flush_and_older_history_is_truncated() {
    // Default options, no stream open while writing: each flush closes a
    // segment, and the newest closed one that holds history stays on disk.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = PebblesDb::open(env, Path::new("/recent")).unwrap();
    let users = db.create_cf("users").unwrap();
    let mut round_ends = Vec::new();
    for round in 0..3u32 {
        for i in 0..10u32 {
            db.put(format!("r{round}k{i}").as_bytes(), b"v").unwrap();
            users.put(format!("r{round}u{i}").as_bytes(), b"v").unwrap();
        }
        // Two families freeze, so this rotates twice: the segment closed
        // last is empty and must not push the round's history out.
        KvStore::flush(&db).unwrap();
        round_ends.push(db.committed_sequence());
    }
    db.put(b"live", b"v").unwrap();

    // The last round and the live segment are served ...
    let mut recent = db.stream(round_ends[1] + 1).unwrap();
    let target = db.committed_sequence();
    let events = follow(recent.as_mut(), || Some(target), &AtomicU64::new(0));
    assert_dense(&events, round_ends[1] + 1);
    assert_eq!(events.last().unwrap().last_seq, target);
    // ... and what came before is an explicit truncation that names the
    // boundary, from the first sequence to the last one before it.
    for from_seq in [1, round_ends[1]] {
        let Err(err) = db.stream(from_seq) else {
            panic!("history at {from_seq} is in a reclaimed segment");
        };
        assert!(err.is_sequence_truncated(), "unexpected error: {err}");
        assert!(
            err.to_string().contains(&round_ends[1].to_string()),
            "{err}"
        );
    }
}

#[test]
fn idle_reopens_keep_the_retained_history_and_pile_up_no_segments() {
    let mem = Arc::new(MemEnv::new());
    let open = || {
        let env: Arc<dyn Env> = Arc::clone(&mem) as Arc<dyn Env>;
        PebblesDb::open(env, Path::new("/idle")).unwrap()
    };
    let db = open();
    for i in 0..10u32 {
        db.put(format!("flushed{i}").as_bytes(), b"v").unwrap();
    }
    KvStore::flush(&db).unwrap();
    db.put(b"last", b"v").unwrap(); // sequence 11, alone in the live segment
    drop(db);

    // Every open starts a fresh segment. The one that holds sequence 11
    // stays behind it as the recent past; the empty ones in between go.
    for reopen in 1..=4 {
        let db = open();
        let segments = mem.children(Path::new("/idle")).unwrap();
        let segments = segments.iter().filter(|name| name.ends_with(".log"));
        assert_eq!(segments.count(), 2, "after reopen {reopen}");
        let mut stream = db.stream(11).unwrap();
        assert_eq!(stream.next_event(WAIT).unwrap().unwrap().last_seq, 11);
        assert!(db.stream(10).is_err_and(|err| err.is_sequence_truncated()));
    }
}

#[test]
fn damage_inside_the_frontier_is_an_error_on_every_call_never_a_gap() {
    let mem = Arc::new(MemEnv::new());
    let env: Arc<dyn Env> = Arc::clone(&mem) as Arc<dyn Env>;
    let db = PebblesDb::open(env, Path::new("/damaged")).unwrap();
    for i in 0..3u32 {
        db.put(format!("key{i}").as_bytes(), b"value").unwrap();
    }
    // Flip a byte of the second record in the live segment, the way a bad
    // sector would: the frontier still covers all three.
    let live = mem
        .children(Path::new("/damaged"))
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".log"))
        .max()
        .unwrap();
    let path = Path::new("/damaged").join(live);
    let mut bytes = mem.read_file_to_vec(&path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x40;
    let mut file = mem.new_writable_file(&path).unwrap();
    file.append(&bytes).unwrap();
    file.close().unwrap();

    let mut stream = db.stream(1).unwrap();
    assert_eq!(stream.next_event(WAIT).unwrap().unwrap().last_seq, 1);
    for _ in 0..3 {
        assert!(stream.next_event(Duration::from_millis(10)).is_err());
        assert_eq!(
            stream.cursor(),
            2,
            "the third batch is not delivered past it"
        );
    }
}

/// A unique, emptied directory under the system's temporary one.
fn temp_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("pebbles-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn a_stream_follows_a_writer_across_rotations_on_a_real_disk() {
    let root = temp_root("wal-follow");
    let mut options = StoreOptions::default();
    options.write_buffer_size = 32 << 10;
    let env: Arc<dyn Env> = Arc::new(DiskEnv::new());
    let db = Arc::new(PebblesDb::open_with_options(env, &root, options).unwrap());
    let mut stream = db.stream(1).unwrap();

    // Non-sync puts: what the stream reads of the live file is what each
    // group flushed out of the writer's buffer before publishing it.
    let done = Arc::new(AtomicU64::new(0));
    let writer = {
        let (db, done) = (Arc::clone(&db), Arc::clone(&done));
        std::thread::spawn(move || {
            for i in 0..3000u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'v'; 64])
                    .unwrap();
            }
            done.store(db.committed_sequence(), Ordering::SeqCst);
        })
    };
    let finished = || Some(done.load(Ordering::SeqCst)).filter(|&seq| seq > 0);
    let events = follow(stream.as_mut(), finished, &AtomicU64::new(0));
    writer.join().unwrap();
    assert_dense(&events, 1);
    assert_eq!(events.last().unwrap().last_seq, 3000);
    let mut model = Model::new();
    events
        .iter()
        .for_each(|event| apply_event(event, &mut model));
    assert_eq!(model.len(), 3000);
    assert!(
        db.stats().flushes >= 3,
        "3000 x 64-byte values rotate a 32 KiB buffer several times"
    );

    drop((stream, db));
    std::fs::remove_dir_all(&root).unwrap();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// ROADMAP item 9b, first case: what a `kill -9` right after the
/// acknowledgement would leave on disk is what the process has handed to
/// the operating system by then, which a copy of the directory sees.
#[test]
fn an_acknowledged_non_sync_put_has_left_the_process_on_a_real_disk() {
    let root = temp_root("wal-flush");
    let (live, copy) = (root.join("live"), root.join("copy"));
    let env: Arc<dyn Env> = Arc::new(DiskEnv::new());
    let db = PebblesDb::open(Arc::clone(&env), &live).unwrap();
    db.put(b"acked", b"not synced").unwrap();

    // The store is still open: nothing below comes from a close or a drop.
    let log_bytes: u64 = std::fs::read_dir(&live)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".log"))
        .map(|entry| entry.metadata().unwrap().len())
        .sum();
    assert!(
        log_bytes > (b"acked".len() + b"not synced".len()) as u64,
        "{log_bytes} bytes of WAL on disk after an acknowledged put"
    );
    copy_dir(&live, &copy);
    let recovered = PebblesDb::open(env, &copy).unwrap();
    assert_eq!(
        recovered.get(b"acked").unwrap(),
        Some(b"not synced".to_vec())
    );

    drop((db, recovered));
    std::fs::remove_dir_all(&root).unwrap();
}
