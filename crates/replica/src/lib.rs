//! `pebblesdb-replica`: WAL-shipping read replicas over the engine chassis.
//!
//! A [`FollowerDb`] is a normal chassis store that never accepts local
//! writes. A background thread connects to a leader's RESP listener, issues
//! `SYNC <applied + 1>`, and applies every shipped batch through the
//! presequenced commit path — the follower's WAL, memtables, sstables and
//! sequence space are byte-for-byte driven by the leader's committed batch
//! stream, so its own recovery machinery doubles as the replication
//! checkpoint: on restart the durable applied sequence *is*
//! `EngineDb::last_sequence`, and the thread resumes from there.
//!
//! ## Resume and exactly-once apply
//!
//! The leader re-delivers any batch whose `last_seq >= cursor`, so a batch
//! interrupted mid-ship arrives again after a reconnect. The follower skips
//! batches with `last_seq <= applied` (already committed locally) and
//! applies everything else in commit order: no batch is applied twice, none
//! is skipped, across either side restarting.
//!
//! ## Truncation
//!
//! When the leader has reclaimed the WAL history behind the follower's
//! cursor — a detached follower that stayed away for longer than the newest
//! closed segment the leader always keeps — the stream ends with a
//! `TRUNCATED` frame. That is fatal for this replica:
//! it stops reconnecting, reports [`FollowerDb::truncated`], and must be
//! re-seeded from a fresh copy of the leader.
//!
//! ## Reads
//!
//! Reads serve locally at the follower's applied frontier. Batches commit
//! atomically, so a [`Snapshot`](pebblesdb_common::Snapshot) taken between
//! applies pins a consistent prefix of the leader's history — a reader
//! never observes half a batch, even while the apply thread is running.
//!
//! ## One read-only core
//!
//! The follower's whole operation surface is one `CfOps` impl
//! (`FollowerCore`): reads and the catalog listing delegate to the engine's
//! own core, every mutation is rejected, statistics carry the replication
//! rows. [`FollowerDb`]'s `KvStore` and `Db` and the handles it vends are
//! all views of that core (`pebblesdb_common::store_views!`), so the store
//! and a handle cannot disagree about lag, engine name or what is refused.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use pebblesdb_common::replication::ChangeStream;
use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{
    CfId, CfOps, CfStats, Db, DbIterator, Error, ReadOptions, ReplicationFrame, Result,
    SequenceNumber, Snapshot, StoreOptions, StoreStats, WriteBatch, WriteOptions,
};
use pebblesdb_engine::{EngineDb, ShapePolicy};
use pebblesdb_server::RespClient;

/// How a follower finds and talks to its leader.
#[derive(Debug, Clone, Default)]
pub struct FollowerConfig {
    /// The leader's RESP listener address (`host:port`).
    pub leader_addr: String,
    /// Credential for the leader's `AUTH`, when it requires one.
    pub auth_token: Option<Vec<u8>>,
}

/// First reconnect delay after a broken stream; doubles per failed attempt.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Reconnect delay cap.
const MAX_RECONNECT_BACKOFF: Duration = Duration::from_secs(1);
/// A stream with no frame (batch or ping) for this long is considered dead
/// and reconnected. The leader pings every
/// [`POLL_INTERVAL`](pebblesdb_common::replication::POLL_INTERVAL) while
/// idle, so this fires only when the leader is actually gone.
const LIVENESS_TIMEOUT: Duration = Duration::from_secs(3);

/// Replication progress, written by the replication thread and read by the
/// store's surfaces.
struct FollowerState {
    shutdown: AtomicBool,
    /// Highest `last_seq` durably applied (the resume cursor is this + 1).
    applied: AtomicU64,
    /// The leader's last advertised committed sequence.
    leader_seq: AtomicU64,
    /// The leader's last advertised backlog for this cursor, in sequences.
    backlog: AtomicU64,
    connected: AtomicBool,
    truncated: AtomicBool,
    batches_applied: AtomicU64,
    batches_skipped: AtomicU64,
    last_error: Mutex<Option<String>>,
}

/// Why one stream attempt ended.
enum StreamEnd {
    /// [`FollowerDb`] is shutting down; do not reconnect.
    Shutdown,
    /// The leader reclaimed the cursor's history; fatal, do not reconnect.
    Truncated(SequenceNumber),
    /// Connection-level failure (connect, handshake, read, apply);
    /// reconnect with backoff and resume from the applied sequence.
    Broken(String),
}

/// A read replica: a chassis store fed exclusively by a leader's change
/// stream. Implements [`Db`] read-only — every mutation is rejected, through
/// the store and through its column-family handles alike.
pub struct FollowerDb<P: ShapePolicy> {
    core: Arc<FollowerCore<P>>,
    thread: Option<JoinHandle<()>>,
}

/// The follower's one [`CfOps`] core, shared by the store, its handles and
/// the replication thread: the engine the thread applies into, read-only to
/// everyone else, plus the replication progress.
struct FollowerCore<P: ShapePolicy> {
    db: EngineDb<P>,
    state: FollowerState,
}

impl<P: ShapePolicy> FollowerDb<P> {
    /// Opens (creating if necessary) a follower store at `path` and starts
    /// replicating from `config.leader_addr`. `make_policy` builds the tree
    /// shape from the options, exactly as the standalone engines do.
    pub fn open_with<F>(
        make_policy: F,
        env: Arc<dyn pebblesdb_env::Env>,
        path: &std::path::Path,
        options: StoreOptions,
        config: FollowerConfig,
    ) -> Result<FollowerDb<P>>
    where
        F: FnOnce(&StoreOptions) -> P,
    {
        let policy = make_policy(&options);
        let db = EngineDb::open(policy, Arc::clone(&env), path, options)?;
        let state = FollowerState {
            shutdown: AtomicBool::new(false),
            // Recovery already replayed the local WAL: the engine's last
            // sequence is exactly the highest leader batch durably applied.
            applied: AtomicU64::new(db.last_sequence()),
            leader_seq: AtomicU64::new(db.last_sequence()),
            backlog: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
            batches_applied: AtomicU64::new(0),
            batches_skipped: AtomicU64::new(0),
            last_error: Mutex::new(None),
        };
        let core = Arc::new(FollowerCore { db, state });
        let thread = {
            let core = Arc::clone(&core);
            let main = move || replication_loop(&core.db, &core.state, &config);
            env.spawn("pebblesdb-follower".to_string(), Box::new(main))?
        };
        Ok(FollowerDb {
            core,
            thread: Some(thread),
        })
    }

    /// The highest sequence number this replica has durably applied.
    pub fn applied_sequence(&self) -> SequenceNumber {
        self.core.state.applied.load(Ordering::Acquire)
    }

    /// The leader's last advertised committed sequence (its frontier).
    pub fn leader_sequence(&self) -> SequenceNumber {
        self.core.state.leader_seq.load(Ordering::Acquire)
    }

    /// The leader's last advertised backlog for this replica, in sequences.
    pub fn lag_seqs(&self) -> u64 {
        self.core.state.backlog.load(Ordering::Acquire)
    }

    /// Whether the replication stream is currently established.
    pub fn is_connected(&self) -> bool {
        self.core.state.connected.load(Ordering::Acquire)
    }

    /// Whether the leader truncated this replica's history (fatal: the
    /// replica stopped replicating and must be re-seeded).
    pub fn truncated(&self) -> bool {
        self.core.state.truncated.load(Ordering::Acquire)
    }

    /// The most recent stream error, for diagnostics.
    pub fn last_error(&self) -> Option<String> {
        self.core.state.last_error.lock().clone()
    }

    /// Batches applied by this process (excludes skipped re-deliveries).
    pub fn batches_applied(&self) -> u64 {
        self.core.state.batches_applied.load(Ordering::Acquire)
    }

    /// Re-delivered batches skipped because they were already applied.
    pub fn batches_skipped(&self) -> u64 {
        self.core.state.batches_skipped.load(Ordering::Acquire)
    }

    /// The underlying chassis store (for tests and tooling; note the
    /// engine's own surface is *not* write-protected).
    pub fn engine(&self) -> &EngineDb<P> {
        &self.core.db
    }

    /// Stops the replication thread and closes the store.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.core.state.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<P: ShapePolicy> Drop for FollowerDb<P> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Connect → handshake → apply frames, reconnecting with capped exponential
/// backoff until shutdown or truncation.
fn replication_loop<P: ShapePolicy>(
    db: &EngineDb<P>,
    state: &FollowerState,
    config: &FollowerConfig,
) {
    let mut backoff = Duration::ZERO;
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        let end = ship_once(db, state, config);
        let streamed = state.connected.swap(false, Ordering::AcqRel);
        backoff = next_backoff(backoff, streamed);
        match end {
            StreamEnd::Shutdown => return,
            StreamEnd::Truncated(floor) => {
                *state.last_error.lock() = Some(format!(
                    "leader truncated history through sequence {floor}; re-seed this replica"
                ));
                state.truncated.store(true, Ordering::Release);
                return;
            }
            StreamEnd::Broken(msg) => {
                *state.last_error.lock() = Some(msg);
            }
        }
        // Sleep in short slices so shutdown is honored promptly.
        let env = &db.core().io.env;
        let deadline = env.now() + backoff;
        while env.now() < deadline {
            if state.shutdown.load(Ordering::Acquire) {
                return;
            }
            env.sleep(Duration::from_millis(10));
        }
    }
}

/// The wait before the next reconnect, given the one before this attempt:
/// the base once a stream got past `SYNC` (the leader was up, so whatever
/// broke it is fresh), else twice the previous wait, from the base up to the
/// cap.
fn next_backoff(previous: Duration, streamed: bool) -> Duration {
    if streamed {
        RECONNECT_BACKOFF
    } else {
        (previous * 2).clamp(RECONNECT_BACKOFF, MAX_RECONNECT_BACKOFF)
    }
}

/// One stream attempt: returns why it ended.
fn ship_once<P: ShapePolicy>(
    db: &EngineDb<P>,
    state: &FollowerState,
    config: &FollowerConfig,
) -> StreamEnd {
    let broken = |what: &str, err: &dyn std::fmt::Display| -> StreamEnd {
        StreamEnd::Broken(format!("{what}: {err}"))
    };
    let mut client = match RespClient::connect(&config.leader_addr) {
        Ok(client) => client,
        Err(err) => return broken("connect", &err),
    };
    if client.set_timeout(Some(Duration::from_secs(1))).is_err() {
        return StreamEnd::Broken("set handshake timeout".to_string());
    }
    if let Some(token) = &config.auth_token {
        if let Err(err) = client.command_ok(&[b"AUTH", token]) {
            return broken("AUTH", &err);
        }
    }
    let from_seq = state.applied.load(Ordering::Acquire) + 1;
    if let Err(err) = client.command_ok(&[b"SYNC", from_seq.to_string().as_bytes()]) {
        return broken("SYNC", &err);
    }
    // Short read timeout from here on: the loop must notice shutdown even
    // when the leader goes silent without closing the socket.
    let _ = client.set_timeout(Some(Duration::from_millis(100)));
    state.connected.store(true, Ordering::Release);
    let env = &db.core().io.env;
    let mut last_frame = env.now();
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return StreamEnd::Shutdown;
        }
        let value = match client.read_reply() {
            Ok(value) => value,
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if env.now().saturating_sub(last_frame) >= LIVENESS_TIMEOUT {
                    return StreamEnd::Broken("leader silent past liveness timeout".to_string());
                }
                continue;
            }
            Err(err) => return broken("read", &err),
        };
        last_frame = env.now();
        if let RespValue::Error(msg) = value {
            return StreamEnd::Broken(format!("leader error: {msg}"));
        }
        let frame = match ReplicationFrame::parse(value) {
            Ok(frame) => frame,
            Err(err) => return broken("frame", &err),
        };
        match frame {
            ReplicationFrame::Catalog(cfs) => {
                if let Err(err) = mirror_catalog(db, &cfs) {
                    return broken("catalog", &err);
                }
            }
            ReplicationFrame::Batch {
                last_seq,
                backlog,
                contents,
            } => {
                state.backlog.store(backlog, Ordering::Release);
                bump_max(&state.leader_seq, last_seq);
                let applied = state.applied.load(Ordering::Acquire);
                if last_seq <= applied {
                    // A re-delivered batch after a torn stream: already
                    // durably committed here, skip it.
                    state.batches_skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let batch = match WriteBatch::from_contents(contents) {
                    Ok(batch) => batch,
                    Err(err) => return broken("batch decode", &err),
                };
                if batch.count() == 0 {
                    continue;
                }
                if let Err(err) = db.write_presequenced(&WriteOptions { sync: false }, batch) {
                    return broken("apply", &err);
                }
                state.applied.store(last_seq, Ordering::Release);
                state.batches_applied.fetch_add(1, Ordering::Relaxed);
            }
            ReplicationFrame::Ping { last_seq, backlog } => {
                state.backlog.store(backlog, Ordering::Release);
                bump_max(&state.leader_seq, last_seq);
            }
            ReplicationFrame::Truncated { floor } => return StreamEnd::Truncated(floor),
        }
    }
}

fn bump_max(cell: &AtomicU64, value: u64) {
    let mut current = cell.load(Ordering::Acquire);
    while value > current {
        match cell.compare_exchange_weak(current, value, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// Mirrors the leader's family catalog bit-for-bit: creates advertised
/// families under their leader-side ids, drops local families the leader no
/// longer lists. Idempotent — re-advertised catalogs are cheap no-ops.
fn mirror_catalog<P: ShapePolicy>(db: &EngineDb<P>, cfs: &[(CfId, String)]) -> Result<()> {
    for (id, name) in cfs {
        if *id == 0 {
            continue; // The default family always exists under id 0.
        }
        db.create_cf_with_id(*id, name)?;
    }
    for local in db.cf_stats() {
        if local.id != 0 && !cfs.iter().any(|(id, _)| *id == local.id) {
            db.drop_cf(&local.name)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The read-only core.
// ---------------------------------------------------------------------------

/// The rejection every mutation gets, through the store or a handle.
fn read_only() -> Error {
    Error::invalid_argument("follower is read-only; write to the leader")
}

// Reads, statistics and the catalog listing delegate to the engine's own
// core; everything that would change the data is rejected.
impl<P: ShapePolicy> CfOps for FollowerCore<P> {
    fn write(&self, _opts: &WriteOptions, _batch: WriteBatch) -> Result<()> {
        Err(read_only())
    }

    fn get(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.shared().get(cf, opts, key)
    }

    fn iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.db.shared().iter(cf, opts)
    }

    fn snapshot(&self) -> Snapshot {
        self.db.shared().snapshot()
    }

    fn flush(&self) -> Result<()> {
        // Local maintenance, not a logical write: lets operators persist
        // the applied state on demand.
        self.db.shared().flush()
    }

    fn stats(&self, scope: Option<CfId>) -> StoreStats {
        let mut stats = self.db.shared().stats(scope);
        stats.replica_applied_seq = self.committed_sequence();
        stats.replica_lag_seqs = self.state.backlog.load(Ordering::Acquire);
        stats
    }

    fn live_file_sizes(&self, scope: Option<CfId>) -> Vec<u64> {
        self.db.shared().live_file_sizes(scope)
    }

    fn engine_name(&self) -> String {
        format!("{}-follower", self.db.shared().engine_name())
    }

    fn create_cf(&self, _name: &str) -> Result<CfId> {
        Err(read_only())
    }

    fn drop_cf(&self, _name: &str) -> Result<()> {
        Err(read_only())
    }

    fn list_cfs(&self) -> Vec<(CfId, String)> {
        self.db.shared().list_cfs()
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        self.db.shared().cf_stats()
    }

    fn stream(self: Arc<Self>, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
        // A follower can itself be streamed from (chained replication).
        Ok(Box::new(self.db.change_stream(from_seq)?))
    }

    fn committed_sequence(&self) -> SequenceNumber {
        self.state.applied.load(Ordering::Acquire)
    }
}

pebblesdb_common::store_views!(FollowerDb<P> where P: ShapePolicy => |db| &db.core);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_max_is_monotonic_under_stale_writers() {
        let cell = AtomicU64::new(0);
        bump_max(&cell, 7);
        assert_eq!(cell.load(Ordering::Acquire), 7);
        // A stale (lower) observation must never move the frontier back.
        bump_max(&cell, 3);
        assert_eq!(cell.load(Ordering::Acquire), 7);
        bump_max(&cell, 9);
        assert_eq!(cell.load(Ordering::Acquire), 9);
    }

    #[test]
    fn read_only_rejection_names_the_leader() {
        let err = read_only();
        assert!(err.to_string().contains("read-only"), "got: {err}");
        assert!(err.to_string().contains("leader"), "got: {err}");
    }

    /// Failed attempts double the wait from the base and settle exactly at
    /// the cap; a stream that got past `SYNC` puts it back to the base, so a
    /// long-lived replica's next outage starts over at 50 ms.
    #[test]
    fn backoff_doubles_on_failure_and_resets_after_a_stream() {
        let mut backoff = Duration::ZERO;
        let mut waits = Vec::new();
        for _ in 0..7 {
            backoff = next_backoff(backoff, false);
            waits.push(backoff.as_millis());
        }
        assert_eq!(waits, [50, 100, 200, 400, 800, 1000, 1000]);
        assert_eq!(next_backoff(MAX_RECONNECT_BACKOFF, true), RECONNECT_BACKOFF);
    }

    /// A follower is configured by where its leader is and how to log in;
    /// its timers are constants. The destructuring names every field, so a
    /// new one does not compile until its default is pinned here.
    #[test]
    fn the_follower_config_is_pinned() {
        let FollowerConfig {
            leader_addr,
            auth_token,
        } = FollowerConfig::default();
        assert_eq!(leader_addr, "");
        assert_eq!(auth_token, None);
        assert!(LIVENESS_TIMEOUT > pebblesdb_common::replication::POLL_INTERVAL * 10);
    }
}
