//! `pebblesdb-server`: a RESP network front-end for any [`Db`].
//!
//! The crate turns the workspace's embedded stores into a networked
//! key-value service, in layers that mirror the module layout:
//!
//! - [`pebblesdb_common::resp`] — the wire codec (shared with the bench
//!   client, so both ends speak from one implementation);
//! - [`connection`] (private) — accept loop, thread-per-connection reads
//!   with idle timeouts, bounded pipelining, graceful-drain shutdown;
//! - [`dispatch`] — the command surface (`GET`/`SET`/`DEL`/`SCAN` pages,
//!   `MULTI`/`EXEC` cross-family batches, `SELECT`, `INFO`, and the `SYNC`
//!   verb that hands a connection to the replication streamer);
//! - [`rate_limit`] + [`auth`] — per-client token buckets (`BUSY`
//!   backpressure, never disconnects) and a deny-by-default credential hook;
//! - [`metrics`] — server counters plus the shared store/family stat fields,
//!   rendered by `INFO` and by a Prometheus text endpoint on a side
//!   listener.
//!
//! ```no_run
//! use std::sync::Arc;
//! use pebblesdb_server::{RespClient, Server, ServerConfig};
//!
//! let env: Arc<dyn pebblesdb_env::Env> = Arc::new(pebblesdb_env::MemEnv::new());
//! let db = Arc::new(pebblesdb::PebblesDb::open(env, std::path::Path::new("/db")).unwrap());
//! let server = Server::start(db, ServerConfig::default()).unwrap();
//!
//! let mut client = RespClient::connect(server.local_addr()).unwrap();
//! client.command(&[b"SET", b"key", b"value"]).unwrap();
//! server.shutdown();
//! ```

pub mod auth;
pub mod client;
mod connection;
pub mod dispatch;
pub mod metrics;
pub mod rate_limit;
mod replicate;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use pebblesdb_common::resp::{RespLimits, RespValue};
use pebblesdb_common::Db;

pub use auth::{AuthProvider, StaticTokenAuth};
pub use client::RespClient;
pub use dispatch::{Session, SessionOptions};
pub use metrics::{render_prometheus, ServerCounters, ServerStats};
pub use rate_limit::{RateLimit, TokenBucket};

use connection::ConnShared;
use dispatch::Session as DispatchSession;

/// Everything configurable about a [`Server`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to listen on; port `0` picks an ephemeral port.
    pub addr: String,
    /// Side listener for Prometheus metrics; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Concurrent-connection cap; excess connects get an error reply and
    /// are closed.
    pub max_connections: usize,
    /// Connections idle longer than this are closed (with an error reply).
    pub idle_timeout: Duration,
    /// Per-connection rate limit; `None` means unlimited.
    pub rate_limit: Option<RateLimit>,
    /// Credential hook; `Some` makes the server deny-by-default.
    pub auth: Option<Arc<dyn AuthProvider>>,
    /// Frame-size bounds for the decoder.
    pub limits: RespLimits,
    /// Dispatcher knobs (sync writes).
    pub session: SessionOptions,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            max_connections: 256,
            idle_timeout: Duration::from_secs(300),
            rate_limit: None,
            auth: None,
            limits: RespLimits::default(),
            session: SessionOptions::default(),
        }
    }
}

/// A running server: an accept thread, one thread per connection, and an
/// optional metrics thread. Dropping it performs a graceful [`Server::stop`].
pub struct Server {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
    metrics_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener(s) and spawns the accept loop over `db`.
    pub fn start(db: Arc<dyn Db>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));

        let (metrics_addr, metrics_handle) = match &config.metrics_addr {
            Some(addr) => {
                let metrics_listener = TcpListener::bind(addr)?;
                let metrics_addr = metrics_listener.local_addr()?;
                let counters = Arc::clone(&counters);
                let db = Arc::clone(&db);
                let shutdown = Arc::clone(&shutdown);
                let handle = std::thread::Builder::new()
                    .name("pebblesdb-metrics".to_string())
                    .spawn(move || metrics::serve_metrics(metrics_listener, counters, db, shutdown))
                    .expect("spawn metrics thread");
                (Some(metrics_addr), Some(handle))
            }
            None => (None, None),
        };

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let kill = Arc::clone(&kill);
            let counters = Arc::clone(&counters);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("pebblesdb-accept".to_string())
                .spawn(move || accept_loop(listener, db, config, shutdown, kill, counters, conns))
                .expect("spawn accept thread")
        };

        Ok(Server {
            local_addr,
            metrics_addr,
            shutdown,
            kill,
            counters,
            conns,
            accept_handle: Some(accept_handle),
            metrics_handle,
        })
    }

    /// The address the command listener bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The address of the metrics listener, if one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The server-layer counters (shared with `INFO` and `/metrics`).
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Graceful shutdown: stop accepting, let every connection drain its
    /// in-flight commands and flush replies, join all threads. The caller
    /// keeps the `Arc<dyn Db>`, so the store can be closed (or reopened)
    /// after this returns with no command still running.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Abrupt termination for crash testing: severs every client socket
    /// without draining, so commands in flight are lost exactly as they
    /// would be if the process died.
    pub fn kill(mut self) {
        self.kill.store(true, Ordering::Release);
        for (_, stream) in self.conns.lock().iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    db: Arc<dyn Db>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                handles.retain(|h| !h.is_finished());
                if conns.lock().len() >= config.max_connections {
                    counters
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    refuse(stream);
                    continue;
                }
                counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let id = next_id;
                next_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().insert(id, clone);
                }
                let session = DispatchSession::new(
                    Arc::clone(&db),
                    Arc::clone(&counters),
                    config.auth.clone(),
                    config.rate_limit.map(TokenBucket::new),
                    config.session.clone(),
                );
                let shared = ConnShared {
                    shutdown: Arc::clone(&shutdown),
                    kill: Arc::clone(&kill),
                    counters: Arc::clone(&counters),
                    idle_timeout: config.idle_timeout,
                    limits: config.limits.clone(),
                };
                let conns = Arc::clone(&conns);
                let counters = Arc::clone(&counters);
                let handle = std::thread::Builder::new()
                    .name(format!("pebblesdb-conn-{id}"))
                    .spawn(move || {
                        connection::serve_connection(stream, session, &shared);
                        conns.lock().remove(&id);
                        counters.connections_closed.fetch_add(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection thread");
                handles.push(handle);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Tells an over-cap client why it is being turned away, then closes.
fn refuse(mut stream: TcpStream) {
    use std::io::Write;
    let mut reply = Vec::new();
    RespValue::error("ERR max connections reached").encode_into(&mut reply);
    let _ = stream.write_all(&reply);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench_suite`'s `net_mixed` serves its store with
    /// `ServerConfig::default()`, so these are the benchmark's server
    /// settings. The destructuring names every field, so a new option does
    /// not compile until its benchmark value is pinned here.
    #[test]
    fn the_benchmarks_server_configuration_is_pinned() {
        let ServerConfig {
            addr,
            metrics_addr,
            max_connections,
            idle_timeout,
            rate_limit,
            auth,
            limits,
            session,
        } = ServerConfig::default();
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(metrics_addr, None);
        assert_eq!(max_connections, 256);
        assert_eq!(idle_timeout, Duration::from_secs(300));
        assert!(rate_limit.is_none() && auth.is_none());
        let default_limits = RespLimits::default();
        assert_eq!(format!("{limits:?}"), format!("{default_limits:?}"));
        assert!(!session.sync_writes);
    }
}
