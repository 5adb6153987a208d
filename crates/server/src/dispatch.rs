//! The command dispatcher: RESP commands onto [`Db`]/[`KvStore`] operations.
//!
//! A [`Session`] is one client's protocol state — selected column family,
//! authentication status, queued transaction, rate-limit bucket — and is
//! deliberately connection-agnostic: the TCP layer feeds it parsed command
//! frames and writes back whatever reply it returns, so the whole command
//! surface is unit-testable without sockets (and the connection layer can be
//! swapped for an async one without touching command semantics).
//!
//! Command subset:
//!
//! | command | reply | notes |
//! |---|---|---|
//! | `PING` / `ECHO msg` | `+PONG` / bulk | liveness, rate-limit exempt probe |
//! | `AUTH token` | `+OK` | deny-by-default when a provider is configured |
//! | `SELECT cf` | `+OK` | selects an existing column family by name |
//! | `CFCREATE` / `CFDROP` / `CFLIST` | `+OK` / array | family lifecycle |
//! | `GET k` / `SET k v` / `DEL k...` | bulk / `+OK` / `:n` | point ops on the selected family |
//! | `SCAN cursor [END e] [COUNT n]` | `[next, [k,v,...]]` | bounded page; empty `next` = done |
//! | `MULTI` .. `EXEC` / `DISCARD` | `+QUEUED`.. | atomic batch; `SELECT` inside retargets, so batches span families |
//! | `INFO` | bulk | shared stats field lists |
//! | `FLUSH` | `+OK` | flush memtables (bench phase boundary) |
//! | `SYNC seq` | `+OK`, then frames | hands the connection to the replication streamer |
//! | `QUIT` | `+OK` | close after the reply |
//!
//! `SCAN` pages are *cursor-backed*: every page opens its own iterator,
//! reads at most a bounded count and returns a resume key. Nothing server
//! side outlives the command, so a slow client can never pin a snapshot (and
//! the obsolete sstables it holds alive) between pages.

use std::sync::Arc;

use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{
    ColumnFamilyHandle, Db, Error, KvStore, SequenceNumber, WriteBatch, WriteOptions,
};

use crate::auth::AuthProvider;
use crate::metrics::{stat_sections, ServerCounters};
use crate::rate_limit::TokenBucket;

/// Hard cap on `SCAN` page sizes: a requested `COUNT` is clamped to this,
/// so one command cannot make the server materialise an unbounded page.
const MAX_SCAN_PAGE: usize = 1024;
/// `SCAN` page size when the client sends no `COUNT`.
const DEFAULT_SCAN_PAGE: usize = 128;

/// The dispatcher knobs a [`Session`] needs (a subset of the server config).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Force `sync` on every acknowledged write.
    pub sync_writes: bool,
}

/// A queued `MULTI` transaction: one cross-family atomic batch in the
/// making, plus how many replies `EXEC` owes.
struct Txn {
    batch: WriteBatch,
    queued: usize,
    /// A queue-time error poisons the transaction; `EXEC` must refuse it.
    aborted: bool,
}

/// One client's protocol state.
pub struct Session {
    db: Arc<dyn Db>,
    counters: Arc<ServerCounters>,
    auth: Option<Arc<dyn AuthProvider>>,
    limiter: Option<TokenBucket>,
    options: SessionOptions,
    cf: ColumnFamilyHandle,
    authenticated: bool,
    txn: Option<Txn>,
    close_requested: bool,
    /// Set by `SYNC`: the connection layer flushes the `+OK` and hands the
    /// socket to the replication streamer starting at this sequence.
    pending_sync: Option<SequenceNumber>,
    /// Scratch for SCAN resume keys, reused across pages so a client
    /// paging through a large range does not reallocate the cursor buffer
    /// on every page.
    scan_cursor: Vec<u8>,
}

impl Session {
    /// Creates a session for one connection. `auth = Some` puts the session
    /// in deny-by-default mode until `AUTH` succeeds.
    pub fn new(
        db: Arc<dyn Db>,
        counters: Arc<ServerCounters>,
        auth: Option<Arc<dyn AuthProvider>>,
        limiter: Option<TokenBucket>,
        options: SessionOptions,
    ) -> Session {
        let cf = db.default_cf();
        let authenticated = auth.is_none();
        Session {
            db,
            counters,
            auth,
            limiter,
            options,
            cf,
            authenticated,
            txn: None,
            close_requested: false,
            pending_sync: None,
            scan_cursor: Vec::new(),
        }
    }

    /// `true` once the client asked to close (`QUIT`); the connection layer
    /// flushes pending replies and disconnects.
    pub fn close_requested(&self) -> bool {
        self.close_requested
    }

    /// Takes the cursor of a just-acknowledged `SYNC`, if any. The
    /// connection layer polls this after every command; `Some` means "flush
    /// replies, then switch this socket into a one-way replication stream".
    pub fn take_pending_sync(&mut self) -> Option<SequenceNumber> {
        self.pending_sync.take()
    }

    /// The store this session dispatches to (for the replication streamer).
    pub fn db(&self) -> &Arc<dyn Db> {
        &self.db
    }

    /// Executes one parsed command and returns its reply.
    ///
    /// Never panics and never returns transport errors: every failure mode
    /// is an error *reply*. (Framing violations are handled one layer down,
    /// before a command exists.)
    pub fn execute(&mut self, args: Vec<Vec<u8>>) -> RespValue {
        let Some(first) = args.first() else {
            return RespValue::error("ERR empty command");
        };
        let cmd = String::from_utf8_lossy(first).to_ascii_uppercase();

        // Auth gate: deny-by-default when a provider is configured.
        if !self.authenticated && !matches!(cmd.as_str(), "AUTH" | "PING" | "QUIT") {
            return RespValue::error("NOAUTH authentication required");
        }

        // Rate limiting: every command except the QUIT farewell costs one
        // token. Rejection is an error reply — backpressure — never a
        // disconnect.
        if cmd != "QUIT" {
            if let Some(limiter) = &mut self.limiter {
                if !limiter.try_acquire(1.0) {
                    self.counters
                        .rate_limited
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return RespValue::error("BUSY rate limit exceeded, retry later");
                }
            }
        }
        self.counters
            .commands
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

        // Inside MULTI, write commands queue instead of executing. SELECT
        // still executes immediately so later queued ops target another
        // family — that is how a batch comes to span families.
        if self.txn.is_some() && matches!(cmd.as_str(), "SET" | "DEL") {
            return self.queue_in_txn(&cmd, &args);
        }

        match cmd.as_str() {
            "PING" => match args.len() {
                1 => RespValue::Simple("PONG".to_string()),
                2 => RespValue::bulk(args[1].clone()),
                _ => wrong_arity("PING"),
            },
            "ECHO" => match args.len() {
                2 => RespValue::bulk(args[1].clone()),
                _ => wrong_arity("ECHO"),
            },
            "QUIT" => {
                self.close_requested = true;
                RespValue::ok()
            }
            "AUTH" => self.cmd_auth(&args),
            "SELECT" => self.cmd_select(&args),
            "CFCREATE" => self.cmd_cf_create(&args),
            "CFDROP" => self.cmd_cf_drop(&args),
            "CFLIST" => RespValue::Array(
                self.db
                    .list_cfs()
                    .into_iter()
                    .map(RespValue::bulk)
                    .collect(),
            ),
            "GET" => self.cmd_get(&args),
            "SET" => self.cmd_set(&args),
            "DEL" => self.cmd_del(&args),
            "SCAN" => self.cmd_scan(&args),
            "MULTI" => {
                if self.txn.is_some() {
                    return RespValue::error("ERR MULTI calls can not be nested");
                }
                self.txn = Some(Txn {
                    batch: WriteBatch::new(),
                    queued: 0,
                    aborted: false,
                });
                RespValue::ok()
            }
            "EXEC" => self.cmd_exec(),
            "DISCARD" => {
                if self.txn.take().is_none() {
                    return RespValue::error("ERR DISCARD without MULTI");
                }
                RespValue::ok()
            }
            "INFO" => self.cmd_info(),
            "SYNC" => self.cmd_sync(&args),
            "FLUSH" => match self.db.flush() {
                Ok(()) => RespValue::ok(),
                Err(err) => store_error(&err),
            },
            _ => {
                // An unknown command inside a transaction poisons it, like
                // a queue-time error would.
                if let Some(txn) = &mut self.txn {
                    txn.aborted = true;
                }
                RespValue::error(format!("ERR unknown command {cmd:?}"))
            }
        }
    }

    fn write_options(&self) -> WriteOptions {
        WriteOptions {
            sync: self.options.sync_writes,
        }
    }

    fn cmd_auth(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("AUTH");
        }
        let Some(provider) = &self.auth else {
            return RespValue::error(
                "ERR Client sent AUTH, but no credential provider is configured",
            );
        };
        if provider.authenticate(&args[1]) {
            self.authenticated = true;
            RespValue::ok()
        } else {
            self.counters
                .auth_failures
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            RespValue::error("WRONGPASS invalid credential")
        }
    }

    fn cmd_select(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("SELECT");
        }
        let name = String::from_utf8_lossy(&args[1]).into_owned();
        match self.db.cf(&name) {
            Some(handle) => {
                self.cf = handle;
                RespValue::ok()
            }
            None => RespValue::error(format!("ERR no such column family {name:?}")),
        }
    }

    fn cmd_cf_create(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("CFCREATE");
        }
        let name = String::from_utf8_lossy(&args[1]).into_owned();
        match self.db.create_cf(&name) {
            Ok(_) => RespValue::ok(),
            Err(err) => store_error(&err),
        }
    }

    fn cmd_cf_drop(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("CFDROP");
        }
        let name = String::from_utf8_lossy(&args[1]).into_owned();
        if self.cf.name() == name {
            // Dropping the family the session sits in would leave every
            // later command failing; fall back to the default family first.
            self.cf = self.db.default_cf();
        }
        match self.db.drop_cf(&name) {
            Ok(()) => RespValue::ok(),
            Err(err) => store_error(&err),
        }
    }

    fn cmd_get(&self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("GET");
        }
        match self.cf.get(&args[1]) {
            Ok(Some(value)) => RespValue::Bulk(value),
            Ok(None) => RespValue::NullBulk,
            Err(err) => store_error(&err),
        }
    }

    fn cmd_set(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 3 {
            return wrong_arity("SET");
        }
        match self.cf.put_opts(&self.write_options(), &args[1], &args[2]) {
            Ok(()) => RespValue::ok(),
            Err(err) => store_error(&err),
        }
    }

    fn cmd_del(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() < 2 {
            return wrong_arity("DEL");
        }
        let mut batch = WriteBatch::new();
        for key in &args[1..] {
            batch.delete_cf(self.cf.id(), key);
        }
        match self.db.write_opts(&self.write_options(), batch) {
            Ok(()) => RespValue::Integer((args.len() - 1) as i64),
            Err(err) => store_error(&err),
        }
    }

    /// `SCAN cursor [END end] [COUNT n]` — one bounded page of the selected
    /// family, resumable via the returned cursor.
    fn cmd_scan(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() < 2 {
            return wrong_arity("SCAN");
        }
        let start: &[u8] = &args[1];
        let mut end: &[u8] = &[];
        let mut count = DEFAULT_SCAN_PAGE;
        let mut rest = args[2..].iter();
        while let Some(word) = rest.next() {
            match word.to_ascii_uppercase().as_slice() {
                b"END" => match rest.next() {
                    Some(value) => end = value,
                    None => return RespValue::error("ERR SCAN END requires a key"),
                },
                b"COUNT" => match rest.next().and_then(|v| {
                    std::str::from_utf8(v)
                        .ok()
                        .and_then(|s| s.parse::<usize>().ok())
                }) {
                    Some(value) if value > 0 => count = value,
                    _ => return RespValue::error("ERR SCAN COUNT requires a positive integer"),
                },
                _ => {
                    return RespValue::error(format!(
                        "ERR unknown SCAN option {:?}",
                        String::from_utf8_lossy(word)
                    ))
                }
            }
        }
        let count = count.min(MAX_SCAN_PAGE);
        // The iterator lives only for this call: the page is consistent
        // (one cursor), but nothing is pinned once the reply is written.
        let entries = match self.cf.scan(start, end, count) {
            Ok(entries) => entries,
            Err(err) => return store_error(&err),
        };
        // A full page may have more data behind it: resume just after the
        // last returned key (its smallest strict successor). Built in the
        // session scratch so paging keeps one buffer at page-key capacity.
        let next_cursor = if entries.len() == count {
            self.scan_cursor.clear();
            self.scan_cursor
                .extend_from_slice(&entries.last().expect("non-empty full page").0);
            self.scan_cursor.push(0);
            self.scan_cursor.clone()
        } else {
            Vec::new()
        };
        let mut flat = Vec::with_capacity(entries.len() * 2);
        for (key, value) in entries {
            flat.push(RespValue::Bulk(key));
            flat.push(RespValue::Bulk(value));
        }
        RespValue::Array(vec![RespValue::Bulk(next_cursor), RespValue::Array(flat)])
    }

    fn queue_in_txn(&mut self, cmd: &str, args: &[Vec<u8>]) -> RespValue {
        let cf_id = self.cf.id();
        let txn = self.txn.as_mut().expect("queue_in_txn requires a txn");
        match cmd {
            "SET" if args.len() == 3 => {
                txn.batch.put_cf(cf_id, &args[1], &args[2]);
                txn.queued += 1;
            }
            "DEL" if args.len() >= 2 => {
                for key in &args[1..] {
                    txn.batch.delete_cf(cf_id, key);
                }
                txn.queued += 1;
            }
            _ => {
                txn.aborted = true;
                return wrong_arity(cmd);
            }
        }
        RespValue::Simple("QUEUED".to_string())
    }

    fn cmd_exec(&mut self) -> RespValue {
        let Some(txn) = self.txn.take() else {
            return RespValue::error("ERR EXEC without MULTI");
        };
        if txn.aborted {
            return RespValue::error("EXECABORT transaction discarded because of previous errors");
        }
        if txn.queued == 0 {
            return RespValue::Array(Vec::new());
        }
        // One atomic cross-family batch: all families share the WAL and the
        // sequence space, so the whole transaction commits or none of it.
        match self.db.write_opts(&self.write_options(), txn.batch) {
            Ok(()) => RespValue::Array(vec![RespValue::ok(); txn.queued]),
            Err(err) => store_error(&err),
        }
    }

    /// `SYNC from_seq` — request a replication stream from `from_seq`.
    ///
    /// The dispatcher only validates and records the request; the connection
    /// layer flushes the `+OK` and inverts the conversation (server pushes
    /// frames, the session never executes another command). Validating the
    /// cursor against retained history happens when the stream opens, so a
    /// truncated cursor is reported in-band as a `TRUNCATED` frame.
    fn cmd_sync(&mut self, args: &[Vec<u8>]) -> RespValue {
        if args.len() != 2 {
            return wrong_arity("SYNC");
        }
        if self.txn.is_some() {
            return RespValue::error("ERR SYNC inside MULTI is not allowed");
        }
        let from_seq = std::str::from_utf8(&args[1])
            .ok()
            .and_then(|s| s.parse::<SequenceNumber>().ok());
        match from_seq {
            Some(seq) => {
                self.pending_sync = Some(seq);
                RespValue::ok()
            }
            None => RespValue::error("ERR SYNC requires a non-negative integer sequence"),
        }
    }

    fn cmd_info(&self) -> RespValue {
        let mut body = format!(
            "# engine\r\nname:{}\r\nselected_cf:{}\r\n\r\n",
            self.db.engine_name(),
            self.cf.name()
        );
        for section in stat_sections(&self.counters, self.db.as_ref()) {
            body.push_str(&section.render_info());
        }
        RespValue::Bulk(body.into_bytes())
    }
}

fn wrong_arity(cmd: &str) -> RespValue {
    RespValue::error(format!("ERR wrong number of arguments for {cmd:?}"))
}

fn store_error(err: &Error) -> RespValue {
    RespValue::error(format!("ERR {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb::PebblesDb;
    use pebblesdb_env::MemEnv;
    use std::path::Path;

    fn session() -> Session {
        session_with(None, None)
    }

    fn session_with(auth: Option<Arc<dyn AuthProvider>>, limiter: Option<TokenBucket>) -> Session {
        let env = Arc::new(MemEnv::new());
        let db: Arc<dyn Db> = Arc::new(PebblesDb::open(env, Path::new("/dispatch")).unwrap());
        Session::new(
            db,
            Arc::new(ServerCounters::default()),
            auth,
            limiter,
            SessionOptions::default(),
        )
    }

    fn run(session: &mut Session, args: &[&[u8]]) -> RespValue {
        session.execute(args.iter().map(|a| a.to_vec()).collect())
    }

    /// `bench_suite`'s session probe runs `SessionOptions::default()` and
    /// `net_mixed` the server's default sessions, so these are the
    /// benchmark's dispatcher settings. The destructuring names every field,
    /// so a new option does not compile until its benchmark value is pinned
    /// here.
    #[test]
    fn the_benchmarks_session_options_are_pinned() {
        let SessionOptions { sync_writes } = SessionOptions::default();
        assert!(!sync_writes);
        assert_eq!((DEFAULT_SCAN_PAGE, MAX_SCAN_PAGE), (128, 1024));
    }

    #[test]
    fn info_breaks_out_shards_of_a_sharded_store() {
        let env = Arc::new(MemEnv::new());
        let db: Arc<dyn Db> = Arc::new(
            PebblesDb::open_sharded(
                env,
                Path::new("/dispatch-sharded"),
                pebblesdb_common::StoreOptions::default(),
                pebblesdb_shard::ShardConfig {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let mut s = Session::new(
            db,
            Arc::new(ServerCounters::default()),
            None,
            None,
            SessionOptions::default(),
        );
        assert_eq!(run(&mut s, &[b"SET", b"k", b"v"]), RespValue::ok());
        let RespValue::Bulk(body) = run(&mut s, &[b"INFO"]) else {
            panic!("INFO must return a bulk string");
        };
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("# shard:0\r\n"), "{body}");
        assert!(body.contains("# shard:1\r\n"), "{body}");
        assert!(!body.contains("# shard:2\r\n"), "{body}");
        // Unsharded stores keep rendering no shard sections.
        let RespValue::Bulk(plain) = run(&mut session(), &[b"INFO"]) else {
            panic!("INFO must return a bulk string");
        };
        assert!(!String::from_utf8(plain).unwrap().contains("# shard:"));
    }

    #[test]
    fn point_ops_roundtrip() {
        let mut s = session();
        assert_eq!(run(&mut s, &[b"SET", b"k", b"v"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"GET", b"k"]), RespValue::bulk(b"v".to_vec()));
        assert_eq!(
            run(&mut s, &[b"DEL", b"k", b"other"]),
            RespValue::Integer(2)
        );
        assert_eq!(run(&mut s, &[b"GET", b"k"]), RespValue::NullBulk);
        assert_eq!(
            run(&mut s, &[b"PING"]),
            RespValue::Simple("PONG".to_string())
        );
        // Errors are replies, not closed connections.
        assert!(matches!(run(&mut s, &[b"SET", b"k"]), RespValue::Error(_)));
        assert!(matches!(run(&mut s, &[b"NOPE"]), RespValue::Error(_)));
        assert!(!s.close_requested());
        assert_eq!(run(&mut s, &[b"QUIT"]), RespValue::ok());
        assert!(s.close_requested());
    }

    #[test]
    fn select_and_families_scope_operations() {
        let mut s = session();
        assert_eq!(run(&mut s, &[b"CFCREATE", b"users"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"SET", b"k", b"default"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"SELECT", b"users"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"SET", b"k", b"user"]), RespValue::ok());
        assert_eq!(
            run(&mut s, &[b"GET", b"k"]),
            RespValue::bulk(b"user".to_vec())
        );
        assert_eq!(run(&mut s, &[b"SELECT", b"default"]), RespValue::ok());
        assert_eq!(
            run(&mut s, &[b"GET", b"k"]),
            RespValue::bulk(b"default".to_vec())
        );
        assert!(matches!(
            run(&mut s, &[b"SELECT", b"missing"]),
            RespValue::Error(_)
        ));
        let cfs = run(&mut s, &[b"CFLIST"]);
        assert_eq!(
            cfs,
            RespValue::Array(vec![
                RespValue::bulk(b"default".to_vec()),
                RespValue::bulk(b"users".to_vec())
            ])
        );
        // Dropping the selected family falls back to default.
        assert_eq!(run(&mut s, &[b"SELECT", b"users"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"CFDROP", b"users"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"SET", b"still", b"works"]), RespValue::ok());
    }

    #[test]
    fn scan_pages_are_bounded_and_resumable() {
        let mut s = session();
        for i in 0..25u32 {
            run(&mut s, &[b"SET", format!("k{i:03}").as_bytes(), b"v"]);
        }
        let mut cursor: Vec<u8> = Vec::new();
        let mut seen = Vec::new();
        let mut pages = 0;
        loop {
            let reply = run(&mut s, &[b"SCAN", &cursor, b"COUNT", b"10"]);
            let RespValue::Array(parts) = reply else {
                panic!("SCAN must return an array")
            };
            let RespValue::Bulk(next) = &parts[0] else {
                panic!("cursor must be a bulk")
            };
            let RespValue::Array(flat) = &parts[1] else {
                panic!("entries must be an array")
            };
            for pair in flat.chunks(2) {
                let RespValue::Bulk(key) = &pair[0] else {
                    panic!()
                };
                seen.push(key.clone());
            }
            pages += 1;
            if next.is_empty() {
                break;
            }
            cursor = next.clone();
        }
        assert_eq!(seen.len(), 25);
        assert!(pages >= 3, "25 keys at COUNT 10 need >= 3 pages");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ordered, no dups");
        // COUNT is clamped to the configured page cap.
        let reply = run(&mut s, &[b"SCAN", b"", b"COUNT", b"9999999"]);
        let RespValue::Array(parts) = reply else {
            panic!()
        };
        let RespValue::Array(flat) = &parts[1] else {
            panic!()
        };
        assert!(flat.len() / 2 <= MAX_SCAN_PAGE);
        // END bounds the page.
        let reply = run(&mut s, &[b"SCAN", b"k000", b"END", b"k005"]);
        let RespValue::Array(parts) = reply else {
            panic!()
        };
        let RespValue::Array(flat) = &parts[1] else {
            panic!()
        };
        assert_eq!(flat.len() / 2, 5);
    }

    #[test]
    fn multi_exec_builds_one_cross_family_batch() {
        let mut s = session();
        run(&mut s, &[b"CFCREATE", b"mirror"]);
        assert_eq!(run(&mut s, &[b"MULTI"]), RespValue::ok());
        assert_eq!(
            run(&mut s, &[b"SET", b"a", b"1"]),
            RespValue::Simple("QUEUED".to_string())
        );
        assert_eq!(run(&mut s, &[b"SELECT", b"mirror"]), RespValue::ok());
        assert_eq!(
            run(&mut s, &[b"SET", b"a", b"1"]),
            RespValue::Simple("QUEUED".to_string())
        );
        let reply = run(&mut s, &[b"EXEC"]);
        assert_eq!(reply, RespValue::Array(vec![RespValue::ok(); 2]));
        // Both families saw the batch.
        assert_eq!(run(&mut s, &[b"GET", b"a"]), RespValue::bulk(b"1".to_vec()));
        run(&mut s, &[b"SELECT", b"default"]);
        assert_eq!(run(&mut s, &[b"GET", b"a"]), RespValue::bulk(b"1".to_vec()));

        // Queue-time errors poison the transaction.
        run(&mut s, &[b"MULTI"]);
        assert!(matches!(run(&mut s, &[b"SET", b"x"]), RespValue::Error(_)));
        assert_eq!(
            run(&mut s, &[b"SET", b"y", b"2"]),
            RespValue::Simple("QUEUED".to_string())
        );
        let reply = run(&mut s, &[b"EXEC"]);
        assert!(matches!(reply, RespValue::Error(msg) if msg.starts_with("EXECABORT")));
        assert_eq!(run(&mut s, &[b"GET", b"y"]), RespValue::NullBulk);

        // DISCARD drops the queue.
        run(&mut s, &[b"MULTI"]);
        run(&mut s, &[b"SET", b"z", b"3"]);
        assert_eq!(run(&mut s, &[b"DISCARD"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"GET", b"z"]), RespValue::NullBulk);
        assert!(matches!(run(&mut s, &[b"EXEC"]), RespValue::Error(_)));
    }

    #[test]
    fn auth_gate_denies_until_authenticated() {
        use crate::auth::StaticTokenAuth;
        let mut s = session_with(Some(Arc::new(StaticTokenAuth::new("sesame"))), None);
        // Deny-by-default: data commands refused, liveness allowed.
        assert!(matches!(
            run(&mut s, &[b"GET", b"k"]),
            RespValue::Error(msg) if msg.starts_with("NOAUTH")
        ));
        assert_eq!(
            run(&mut s, &[b"PING"]),
            RespValue::Simple("PONG".to_string())
        );
        assert!(matches!(
            run(&mut s, &[b"AUTH", b"wrong"]),
            RespValue::Error(msg) if msg.starts_with("WRONGPASS")
        ));
        assert_eq!(run(&mut s, &[b"AUTH", b"sesame"]), RespValue::ok());
        assert_eq!(run(&mut s, &[b"SET", b"k", b"v"]), RespValue::ok());
    }

    #[test]
    fn rate_limiter_returns_busy_and_recovers() {
        use crate::rate_limit::RateLimit;
        let limiter = TokenBucket::new(RateLimit {
            ops_per_sec: 1000.0,
            burst: 3.0,
        });
        let mut s = session_with(None, Some(limiter));
        let mut busy = 0;
        for _ in 0..20 {
            if matches!(
                run(&mut s, &[b"SET", b"k", b"v"]),
                RespValue::Error(msg) if msg.starts_with("BUSY")
            ) {
                busy += 1;
            }
        }
        assert!(busy > 0, "burst of 3 must trip the limiter within 20 ops");
        // The session still works — BUSY is backpressure, not a disconnect.
        assert!(!s.close_requested());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(run(&mut s, &[b"GET", b"k"]), RespValue::bulk(b"v".to_vec()));
    }

    #[test]
    fn info_renders_shared_field_lists() {
        let mut s = session();
        run(&mut s, &[b"SET", b"k", b"v"]);
        let RespValue::Bulk(body) = run(&mut s, &[b"INFO"]) else {
            panic!("INFO must return a bulk string")
        };
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("# server"));
        assert!(text.contains("commands:"));
        assert!(text.contains("# store"));
        assert!(text.contains("user_bytes_written:"));
        assert!(text.contains("# cf:default"));
        assert!(text.contains("memtable_bytes:"));
    }

    fn info_text(s: &mut Session) -> String {
        let RespValue::Bulk(body) = run(s, &[b"INFO"]) else {
            panic!("INFO must return a bulk string")
        };
        String::from_utf8(body).unwrap()
    }

    #[test]
    fn every_table_row_renders_once_in_table_order_on_both_surfaces() {
        let mut s = session();
        run(&mut s, &[b"SET", b"k", b"v"]);
        let info = info_text(&mut s);
        let prometheus = crate::metrics::render_prometheus(&s.counters, s.db.as_ref());
        let names = |fields: Vec<pebblesdb_common::StatField>| -> Vec<&'static str> {
            fields.iter().map(|f| f.name).collect()
        };
        let tables = [
            (
                "server",
                names(crate::metrics::ServerStats::default().fields()),
            ),
            (
                "store",
                names(pebblesdb_common::StoreStats::default().fields()),
            ),
            ("cf", names(pebblesdb_common::CfStats::default().fields())),
        ];
        for (kind, rows) in tables {
            let section = info
                .split("\r\n\r\n")
                .find(|section| section.starts_with(&format!("# {kind}")))
                .unwrap_or_else(|| panic!("no {kind} section in:\n{info}"));
            let info_rows: Vec<&str> = section
                .lines()
                .skip(1)
                .map(|line| line.split(':').next().unwrap())
                .collect();
            assert_eq!(info_rows, rows, "INFO # {kind}");

            let prefix = format!("pebblesdb_{kind}_");
            let samples: Vec<&str> = prometheus
                .lines()
                .filter_map(|line| line.strip_prefix(&prefix))
                .map(|rest| rest.split([' ', '{']).next().unwrap())
                .collect();
            assert_eq!(samples, rows, "pebblesdb_{kind}_*");
        }
    }

    #[test]
    fn hostile_family_name_cannot_forge_info_or_prometheus_lines() {
        let mut s = session();
        s.db.create_cf("a\"b\nc").unwrap();

        // INFO: the name is one section title on one line.
        let info = info_text(&mut s);
        assert!(info.contains("# cf:a\"b c\r\n"), "{info}");
        let titles = info.lines().filter(|l| l.starts_with("# cf:")).count();
        assert_eq!(titles, 2, "{info}");
        assert!(!info.lines().any(|l| l == "c"), "{info}");

        // Prometheus: the name is one escaped label value; every sample is
        // still `name[{labels}] value`.
        let text = crate::metrics::render_prometheus(&s.counters, s.db.as_ref());
        assert!(
            text.contains("pebblesdb_cf_num_files{cf=\"a\\\"b\\nc\"} 0\n"),
            "{text}"
        );
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect(line);
            assert!(value.parse::<u64>().is_ok(), "bad line: {line}");
            assert!(name.starts_with("pebblesdb_"), "bad line: {line}");
        }
        let samples = text
            .lines()
            .filter(|l| l.starts_with("pebblesdb_cf_num_files{"))
            .count();
        assert_eq!(samples, 2, "{text}");
    }
}
