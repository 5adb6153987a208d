//! End-to-end replication tests: the CDC change stream at the engine level
//! (live tailing, WAL-segment replay, truncation and pinning contracts),
//! the `SYNC` wire protocol, and full leader–follower topologies — a
//! [`FollowerDb`] converging to byte-equality with its leader, resuming
//! across a leader kill + restart and across its own restart, serving
//! snapshot-consistent reads at its applied frontier while the leader keeps
//! writing, and a model-based differential workload over mixed
//! column-family batches.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::{FlsmPolicy, PebblesDb};
use pebblesdb_common::replication::{ChangeEvent, ChangeStream};
use pebblesdb_common::{
    CfId, Db, KvStore, ReadOptions, ReplicationFrame, StoreOptions, ValueType, WriteBatch,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_replica::{FollowerConfig, FollowerDb};
use pebblesdb_server::{RespClient, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WAIT: Duration = Duration::from_secs(60);

fn open_leader(env: &Arc<MemEnv>, path: &str) -> Arc<dyn Db> {
    let env: Arc<dyn Env> = Arc::clone(env) as Arc<dyn Env>;
    Arc::new(PebblesDb::open(env, Path::new(path)).unwrap())
}

fn open_follower(leader_addr: std::net::SocketAddr) -> (FollowerDb<FlsmPolicy>, Arc<MemEnv>) {
    let env = Arc::new(MemEnv::new());
    (reopen_follower(&env, leader_addr), env)
}

fn reopen_follower(env: &Arc<MemEnv>, leader_addr: std::net::SocketAddr) -> FollowerDb<FlsmPolicy> {
    FollowerDb::open_with(
        FlsmPolicy::new,
        Arc::clone(env) as Arc<dyn Env>,
        Path::new("/follower"),
        StoreOptions::default(),
        FollowerConfig {
            leader_addr: leader_addr.to_string(),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Blocks until the follower's applied frontier reaches the leader's
/// committed frontier (sampled after the leader quiesces).
fn wait_caught_up(follower: &FollowerDb<FlsmPolicy>, leader: &dyn Db) {
    let deadline = Instant::now() + WAIT;
    loop {
        let target = leader.committed_sequence();
        if follower.applied_sequence() >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at {} < {} (connected={}, truncated={}, last_error={:?})",
            follower.applied_sequence(),
            target,
            follower.is_connected(),
            follower.truncated(),
            follower.last_error(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Full contents of one column family as a map.
fn dump_cf(db: &dyn Db, name: &str) -> BTreeMap<Vec<u8>, Vec<u8>> {
    db.cf(name)
        .unwrap_or_else(|| panic!("column family {name:?} missing"))
        .scan(b"", &[], usize::MAX)
        .unwrap()
        .into_iter()
        .collect()
}

/// Drains `stream` until its cursor passes `target_seq`.
fn drain(stream: &mut dyn ChangeStream, target_seq: u64) -> Vec<ChangeEvent> {
    let mut out = Vec::new();
    let deadline = Instant::now() + WAIT;
    while stream.cursor() <= target_seq {
        match stream.next_event(Duration::from_millis(100)).unwrap() {
            Some(event) => out.push(event),
            None => assert!(
                Instant::now() < deadline,
                "stream stalled at cursor {}",
                stream.cursor()
            ),
        }
    }
    out
}

/// Applies delivered events to a model map keyed by `(cf, key)`.
fn apply_events(events: &[ChangeEvent], model: &mut BTreeMap<(CfId, Vec<u8>), Vec<u8>>) {
    for event in events {
        for record in event.batch.iter() {
            let record = record.unwrap();
            match record.value_type {
                ValueType::Value => {
                    model.insert((record.cf, record.key.to_vec()), record.value.to_vec());
                }
                ValueType::Deletion => {
                    model.remove(&(record.cf, record.key.to_vec()));
                }
                ValueType::ValuePointer => panic!("streams must resolve pointers inline"),
            }
        }
    }
}

#[test]
fn change_stream_tails_live_commits_and_replays_closed_segments() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = PebblesDb::open(env, Path::new("/cdc")).unwrap();

    for i in 0..20u32 {
        db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let mut stream = db.stream(1).unwrap();
    let mut model = BTreeMap::new();
    apply_events(&drain(stream.as_mut(), db.committed_sequence()), &mut model);
    assert_eq!(model.len(), 20);

    // Live tailing: a commit after the stream reached the frontier arrives.
    db.put(b"live", b"yes").unwrap();
    let event = stream
        .next_event(Duration::from_secs(5))
        .unwrap()
        .expect("live commit must be delivered");
    apply_events(&[event], &mut model);
    assert_eq!(model.get(&(0, b"live".to_vec())).unwrap(), b"yes");

    // Close the current segment (flush rotates the WAL), write more, then a
    // fresh cursor from 1 must replay the closed segment and splice into the
    // tail transparently.
    KvStore::flush(&db).unwrap();
    for i in 20..40u32 {
        db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let mut replayed = db.stream(1).unwrap();
    let mut replay_model = BTreeMap::new();
    apply_events(
        &drain(replayed.as_mut(), db.committed_sequence()),
        &mut replay_model,
    );
    assert_eq!(replay_model.len(), 41, "all 40 keys + the live one");

    // Events arrive in commit order: last_seq strictly increasing.
    let events = {
        let mut s = db.stream(1).unwrap();
        drain(s.as_mut(), db.committed_sequence())
    };
    assert!(events.windows(2).all(|w| w[0].last_seq < w[1].last_seq));
}

#[test]
fn wal_reclamation_honors_stream_floors_and_retention_cap() {
    // An idle cursor pins its WAL history through any amount of flushing;
    // a fresh cursor from 1 still replays everything.
    let mut options = StoreOptions::default();
    options.write_buffer_size = 32 << 10;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = PebblesDb::open_with_options(env, Path::new("/pin"), options).unwrap();
    let pinned = db.stream(1).unwrap();
    for round in 0..5u32 {
        for i in 0..200u32 {
            db.put(
                format!("r{round}k{i:04}").as_bytes(),
                vec![b'x'; 64].as_slice(),
            )
            .unwrap();
        }
        KvStore::flush(&db).unwrap();
    }
    let mut fresh = db.stream(1).expect("idle cursor must pin WAL history");
    let mut model = BTreeMap::new();
    apply_events(&drain(fresh.as_mut(), db.committed_sequence()), &mut model);
    assert_eq!(model.len(), 1000);
    drop((pinned, fresh));

    // With no cursor left, flushing reclaims everything but the newest
    // closed segment: a stream from 1 reports truncation as an explicit
    // error, never a silent gap.
    for round in 5..8u32 {
        for i in 0..200u32 {
            db.put(
                format!("r{round}k{i:04}").as_bytes(),
                vec![b'y'; 64].as_slice(),
            )
            .unwrap();
        }
        KvStore::flush(&db).unwrap();
    }
    match db.stream(1) {
        Err(err) => assert!(err.is_sequence_truncated(), "unexpected error: {err}"),
        Ok(_) => panic!("reclaimed history must not reopen"),
    }
}

#[test]
fn sync_verb_ships_catalog_batches_and_pings_over_the_wire() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/wire");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();

    let users = db.create_cf("users").unwrap();
    db.put(b"a", b"1").unwrap();
    users.put(b"b", b"2").unwrap();

    let mut client = RespClient::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();

    // Malformed cursors are error replies, not closed connections.
    let reply = client.command(&[b"SYNC", b"not-a-number"]).unwrap();
    assert!(matches!(reply, pebblesdb_common::RespValue::Error(_)));

    client.command_ok(&[b"SYNC", b"1"]).unwrap();
    let first = ReplicationFrame::parse(client.read_reply().unwrap()).unwrap();
    let ReplicationFrame::Catalog(cfs) = first else {
        panic!("stream must open with the catalog, got {first:?}");
    };
    assert!(cfs.contains(&(0, "default".to_string())));
    assert!(cfs.iter().any(|(id, name)| *id != 0 && name == "users"));

    // Both committed batches arrive in order, then idle pings carry the
    // leader's frontier.
    let mut last_seq = 0;
    let mut batches = 0;
    let deadline = Instant::now() + WAIT;
    while batches < 2 {
        assert!(Instant::now() < deadline, "batches never arrived");
        match ReplicationFrame::parse(client.read_reply().unwrap()).unwrap() {
            ReplicationFrame::Batch {
                last_seq: seq,
                contents,
                ..
            } => {
                assert!(seq > last_seq, "batches must arrive in commit order");
                last_seq = seq;
                batches += 1;
                assert!(WriteBatch::from_contents(contents).unwrap().count() > 0);
            }
            ReplicationFrame::Ping { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(Instant::now() < deadline, "no ping while idle");
        if let ReplicationFrame::Ping { last_seq: seq, .. } =
            ReplicationFrame::parse(client.read_reply().unwrap()).unwrap()
        {
            assert_eq!(seq, db.committed_sequence());
            break;
        }
    }
    server.shutdown();
}

#[test]
fn follower_converges_serves_snapshot_reads_and_rejects_writes() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/leader");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mirror = db.create_cf("mirror").unwrap();

    let (follower, _fenv) = open_follower(server.local_addr());

    // Writer commits paired cross-family batches while the follower reads.
    const PAIRS: u32 = 400;
    let writer = {
        let db = Arc::clone(&db);
        let mirror_id = mirror.id();
        std::thread::spawn(move || {
            for i in 0..PAIRS {
                let key = format!("pair{i:04}").into_bytes();
                let mut batch = WriteBatch::new();
                batch.put_cf(0, &key, b"x");
                batch.put_cf(mirror_id, &key, b"x");
                db.write(batch).unwrap();
            }
        })
    };

    // Snapshot-consistent reads at the applied frontier: within one pinned
    // sequence, a pair key is either fully present or fully absent.
    let mut checked = 0u32;
    while checked < 50 {
        let Some(follower_mirror) = follower.cf("mirror") else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let snap = follower.snapshot();
        let opts = ReadOptions {
            snapshot: Some(snap.sequence()),
            ..Default::default()
        };
        let probe = format!("pair{:04}", checked * 7 % PAIRS).into_bytes();
        let default_half = follower.get_opts(&opts, &probe).unwrap();
        let mirror_half = follower_mirror.get_opts(&opts, &probe).unwrap();
        assert_eq!(
            default_half.is_some(),
            mirror_half.is_some(),
            "snapshot at seq {} observed half a batch",
            snap.sequence()
        );
        checked += 1;
    }

    writer.join().unwrap();
    wait_caught_up(&follower, db.as_ref());

    // Byte equality across every family at the common sequence.
    assert_eq!(follower.applied_sequence(), db.committed_sequence());
    assert_eq!(
        dump_cf(db.as_ref(), "default"),
        dump_cf(&follower, "default")
    );
    assert_eq!(dump_cf(db.as_ref(), "mirror"), dump_cf(&follower, "mirror"));
    assert_eq!(dump_cf(&follower, "mirror").len(), PAIRS as usize);

    // The replica is read-only on every surface.
    for err in [
        follower.put(b"nope", b"x").unwrap_err(),
        follower.delete(b"nope").unwrap_err(),
        follower.write(WriteBatch::new()).unwrap_err(),
        follower.create_cf("nope").unwrap_err(),
        follower.drop_cf("mirror").unwrap_err(),
        follower
            .cf("mirror")
            .unwrap()
            .put(b"nope", b"x")
            .unwrap_err(),
    ] {
        assert!(err.to_string().contains("read-only"), "got: {err}");
    }

    // Replication stats surface through the shared field list.
    let stats = follower.stats();
    assert_eq!(stats.replica_applied_seq, follower.applied_sequence());
    assert!(db.stats().cdc_streams_active >= 1);
    assert!(db.stats().wal_bytes_shipped > 0);

    server.shutdown();
}

/// A follower's family handle and the follower itself are two views of one
/// read-only core, so they answer alike: the handle carries the replication
/// rows and the `-follower` name, which the separately written handle path
/// used to drop.
#[test]
fn follower_handles_answer_like_the_follower() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/leader");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let mirror = db.create_cf("mirror").unwrap();
    for i in 0..50u32 {
        db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        mirror.put(format!("m{i:03}").as_bytes(), b"v").unwrap();
    }
    let (follower, _fenv) = open_follower(server.local_addr());
    wait_caught_up(&follower, db.as_ref());

    let store = follower.stats();
    assert_eq!(store.replica_applied_seq, db.committed_sequence());
    assert_eq!(follower.engine_name(), "PebblesDB-follower");
    let default = follower.default_cf();
    let mirror = follower.cf("mirror").expect("catalog is mirrored");
    for handle in [&default, &mirror] {
        let stats = handle.stats();
        assert_eq!(stats.replica_applied_seq, store.replica_applied_seq);
        assert_eq!(stats.replica_lag_seqs, store.replica_lag_seqs);
        assert_eq!(stats.gets, store.gets, "counters are store-wide");
    }
    assert_eq!(default.engine_name(), follower.engine_name());
    assert_eq!(mirror.engine_name(), "PebblesDB-follower#mirror");
    // Reads through the handle and through the store are the same read.
    assert_eq!(
        default.get(b"k007").unwrap(),
        follower.get(b"k007").unwrap()
    );
    assert_eq!(mirror.get(b"m007").unwrap(), Some(b"v".to_vec()));

    server.shutdown();
}

#[test]
fn follower_catches_up_across_leader_kill_and_restart() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/restart-leader");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let port = server.local_addr().port();

    let (follower, _fenv) = open_follower(server.local_addr());

    const FIRST: u32 = 300;
    const SECOND: u32 = 300;
    for i in 0..FIRST {
        db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    // Catch the follower up before the crash so its resume cursor sits in
    // history the restarted leader still retains (an offline follower pins
    // nothing: the leader keeps only its newest closed segment for it).
    wait_caught_up(&follower, db.as_ref());

    // Kill the server abruptly (sockets severed mid-stream) and drop the
    // store, then restart both on the same port from the surviving files.
    server.kill();
    drop(db);
    let db = open_leader(&env, "/restart-leader");
    let config = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        ..Default::default()
    };
    let server = Server::start(Arc::clone(&db), config).unwrap();
    for i in FIRST..FIRST + SECOND {
        db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }

    wait_caught_up(&follower, db.as_ref());
    assert!(!follower.truncated(), "{:?}", follower.last_error());
    let contents = dump_cf(&follower, "default");
    assert_eq!(contents.len(), (FIRST + SECOND) as usize);
    assert_eq!(contents, dump_cf(db.as_ref(), "default"));
    // Exactly-once apply: every distinct batch applied once — re-deliveries
    // after the torn stream are skipped, none are lost.
    assert_eq!(follower.batches_applied(), u64::from(FIRST + SECOND));

    server.shutdown();
}

#[test]
fn follower_restart_resumes_from_its_durable_applied_sequence() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/resume-leader");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();

    let (follower, fenv) = open_follower(server.local_addr());
    const FIRST: u32 = 250;
    const SECOND: u32 = 250;
    for i in 0..FIRST {
        db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
    }
    wait_caught_up(&follower, db.as_ref());
    let applied_before = follower.applied_sequence();
    follower.shutdown();

    // The leader keeps writing while the follower is down.
    for i in FIRST..FIRST + SECOND {
        db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
    }

    // Reopen from the same files: recovery restores the applied sequence,
    // the thread resumes from there and applies only what it missed.
    let follower = reopen_follower(&fenv, server.local_addr());
    assert!(follower.applied_sequence() >= applied_before);
    wait_caught_up(&follower, db.as_ref());
    assert_eq!(
        dump_cf(&follower, "default").len(),
        (FIRST + SECOND) as usize
    );
    assert_eq!(
        dump_cf(&follower, "default"),
        dump_cf(db.as_ref(), "default")
    );
    assert_eq!(
        follower.batches_applied(),
        u64::from(SECOND),
        "a restarted follower must apply exactly the batches it missed"
    );

    server.shutdown();
}

#[test]
fn differential_random_workload_replica_matches_leader_and_model() {
    let env = Arc::new(MemEnv::new());
    let db = open_leader(&env, "/diff-leader");
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).unwrap();
    let aux = db.create_cf("aux").unwrap();
    let aux_id = aux.id();
    let (follower, _fenv) = open_follower(server.local_addr());

    let mut model: BTreeMap<(CfId, Vec<u8>), Vec<u8>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x5eed_5eed);
    for op in 0..1500u32 {
        let cf = if rng.gen_range(0..2) == 0 { 0 } else { aux_id };
        let key = format!("key{:03}", rng.gen_range(0..250u32)).into_bytes();
        match rng.gen_range(0..4u32) {
            0..=1 => {
                let value = format!("val{op}").into_bytes();
                let mut batch = WriteBatch::new();
                batch.put_cf(cf, &key, &value);
                db.write(batch).unwrap();
                model.insert((cf, key), value);
            }
            2 => {
                let mut batch = WriteBatch::new();
                batch.delete_cf(cf, &key);
                db.write(batch).unwrap();
                model.remove(&(cf, key));
            }
            _ => {
                // A mixed cross-family batch: same key written to both
                // families atomically.
                let value = format!("pair{op}").into_bytes();
                let mut batch = WriteBatch::new();
                batch.put_cf(0, &key, &value);
                batch.put_cf(aux_id, &key, &value);
                db.write(batch).unwrap();
                model.insert((0, key.clone()), value.clone());
                model.insert((aux_id, key), value);
            }
        }
    }

    wait_caught_up(&follower, db.as_ref());
    assert_eq!(follower.applied_sequence(), db.committed_sequence());

    for (cf_name, cf_id) in [("default", 0), ("aux", aux_id)] {
        let expected: BTreeMap<Vec<u8>, Vec<u8>> = model
            .iter()
            .filter(|((cf, _), _)| *cf == cf_id)
            .map(|((_, k), v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(dump_cf(db.as_ref(), cf_name), expected, "leader vs model");
        assert_eq!(dump_cf(&follower, cf_name), expected, "replica vs model");
    }

    server.shutdown();
}
