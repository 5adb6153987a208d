//! Server counters, the section list both reporting surfaces render, and
//! the Prometheus text endpoint.
//!
//! Which counters exist is decided by the stat tables: the `ServerStats`
//! table here, [`StoreStats`](pebblesdb_common::StoreStats) and
//! [`CfStats`](pebblesdb_common::CfStats) in `pebblesdb_common`. Which
//! *sections* exist is decided by [`stat_sections`]. The `INFO` command and
//! [`render_prometheus`] both walk that list, so neither can show a counter
//! or a section the other lacks.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use pebblesdb_common::{Db, StatField};

pebblesdb_common::stat_table! {
    /// A point-in-time copy of the serving layer's counters.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ServerStats {}
    /// Monotonic counters of the serving layer (the store's own counters
    /// live in [`pebblesdb_common::StoreStats`]).
    #[derive(Debug, Default)]
    pub sink ServerCounters {}
    rows {
        /// Connections open right now (accepted minus closed).
        computed connections_open: Count, Sum;
        /// Connections accepted by the listener.
        counter connections_accepted: Count, Sum;
        /// Connections that have terminated (any reason).
        counter connections_closed: Count, Sum;
        /// Connections refused because the connection cap was reached.
        counter connections_rejected: Count, Sum;
        /// Commands executed (including ones that returned an error reply).
        counter commands: Count, Sum;
        /// Commands rejected with `BUSY` by the per-client rate limiter.
        counter rate_limited: Count, Sum;
        /// Failed `AUTH` attempts.
        counter auth_failures: Count, Sum;
        /// Connections closed because of a RESP framing violation.
        counter protocol_errors: Count, Sum;
        /// Graceful-shutdown drains that could not deliver their in-flight
        /// replies or farewell because the peer was already gone.
        counter shutdown_drain_failures: Count, Sum;
        /// Raw bytes received from clients.
        counter bytes_in: Bytes, Sum;
        /// Raw bytes sent to clients.
        counter bytes_out: Bytes, Sum;
    }
}

impl ServerCounters {
    /// The counters as of now.
    pub fn snapshot(&self) -> ServerStats {
        let mut stats = ServerStats::default();
        self.snapshot_into(&mut stats);
        stats.connections_open = stats
            .connections_accepted
            .saturating_sub(stats.connections_closed);
        stats
    }
}

/// One group of counters as both reporting surfaces show it: an `INFO`
/// section, or the samples of one `pebblesdb_<kind>_*` metric family.
pub(crate) struct StatSection {
    /// `server`, `store`, `cf` or `shard`.
    pub kind: &'static str,
    /// Which family or shard; `None` for the two singleton sections.
    pub label: Option<String>,
    /// The section's rows, in table order.
    pub fields: Vec<StatField>,
}

impl StatSection {
    /// The section as `INFO` text: a `# store` / `# cf:<name>` /
    /// `# shard:<index>` header, then `name:value` lines (raw values,
    /// machine-parseable). A family name is user-chosen, so line breaks in
    /// it are replaced — they would otherwise forge lines of their own.
    pub fn render_info(&self) -> String {
        let mut out = format!("# {}", self.kind);
        if let Some(label) = &self.label {
            out.push_str(&format!(":{}", label.replace(['\r', '\n'], " ")));
        }
        out.push_str("\r\n");
        for field in &self.fields {
            out.push_str(&format!("{}:{}\r\n", field.name, field.value));
        }
        out.push_str("\r\n");
        out
    }

    /// The Prometheus label set: empty, `{cf="<name>"}`, `{shard="<index>"}`.
    /// A family name is user-chosen, so what would end the label value or
    /// the line is escaped.
    fn labels(&self) -> String {
        self.label.as_ref().map_or(String::new(), |label| {
            let escaped = label
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{{{}=\"{escaped}\"}}", self.kind)
        })
    }
}

/// Every section a running server reports, in order: `server`, `store`, one
/// `cf` per column family, and — for a sharded store only — one `shard` per
/// shard with the same rows as the aggregate `store` section.
pub(crate) fn stat_sections(counters: &ServerCounters, db: &dyn Db) -> Vec<StatSection> {
    let section = |kind, label, fields| StatSection {
        kind,
        label,
        fields,
    };
    let mut sections = vec![
        section("server", None, counters.snapshot().fields()),
        section("store", None, db.stats().fields()),
    ];
    for cf in db.cf_stats() {
        let fields = cf.fields();
        sections.push(section("cf", Some(cf.name), fields));
    }
    for (index, stats) in db.shard_stats().iter().enumerate() {
        sections.push(section("shard", Some(index.to_string()), stats.fields()));
    }
    sections
}

/// Renders every server, store, per-family and per-shard counter in the
/// Prometheus text exposition format.
pub fn render_prometheus(counters: &ServerCounters, db: &dyn Db) -> String {
    let sections = stat_sections(counters, db);
    let mut out = String::new();
    // The format allows one TYPE line per metric name, with all of that
    // metric's samples under it. Sections of one kind share their row list
    // and sit next to each other, so each kind is walked row by row.
    for group in sections.chunk_by(|a, b| a.kind == b.kind) {
        let labels: Vec<String> = group.iter().map(StatSection::labels).collect();
        for (row, field) in group[0].fields.iter().enumerate() {
            let name = format!("pebblesdb_{}_{}", group[0].kind, field.name);
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (section, labels) in group.iter().zip(&labels) {
                out.push_str(&format!("{name}{labels} {}\n", section.fields[row].value));
            }
        }
    }
    out
}

/// Serves `GET /metrics`-style requests on `listener` until `shutdown` is
/// signalled. Minimal HTTP/1.0: any request gets the full metrics body.
pub(crate) fn serve_metrics(
    listener: TcpListener,
    counters: Arc<ServerCounters>,
    db: Arc<dyn Db>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("set metrics listener nonblocking");
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                // Read until the end of the request headers (or timeout) —
                // the request itself is ignored.
                let mut buf = [0u8; 1024];
                let mut request = Vec::new();
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            request.extend_from_slice(&buf[..n]);
                            if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 8192
                            {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let body = render_prometheus(&counters, db.as_ref());
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::{KvStore, PrefixDb};

    #[test]
    fn prometheus_rendering_covers_all_surfaces() {
        let counters = ServerCounters::default();
        counters.commands.store(7, Ordering::Relaxed);
        counters.connections_accepted.store(3, Ordering::Relaxed);
        counters.connections_closed.store(1, Ordering::Relaxed);

        let env = std::sync::Arc::new(pebblesdb_env::MemEnv::new());
        let store = pebblesdb::PebblesDb::open(env, std::path::Path::new("/metrics-test")).unwrap();
        store.put(b"k", b"v").unwrap();
        let db = PrefixDb::new(std::sync::Arc::new(store));

        let text = render_prometheus(&counters, &db);
        assert!(text.contains("pebblesdb_server_commands 7\n"));
        assert!(text.contains("pebblesdb_server_connections_open 2\n"));
        assert!(text.contains("pebblesdb_store_user_bytes_written "));
        assert!(text.contains("pebblesdb_cf_num_files{cf=\"default\"} "));
        // An unsharded store renders no per-shard gauges.
        assert!(!text.contains("pebblesdb_shard_"));
        // Exposition-format sanity: every non-comment line is `name[labels] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad line: {line}");
        }
    }

    #[test]
    fn server_table_rows_snapshot_and_merge_by_rule() {
        // Every row exactly once, in table order.
        let a = ServerStats::numbered(1);
        let values: Vec<u64> = a.fields().iter().map(|f| f.value).collect();
        assert_eq!(values, (1..=values.len() as u64).collect::<Vec<u64>>());
        // All server rows are plain sums.
        let mut merged = a.clone();
        merged.merge(&ServerStats::numbered(100));
        for (field, merged) in a.fields().iter().zip(merged.fields()) {
            assert_eq!(merged.value, 2 * field.value + 99, "{}", field.name);
        }

        // The sink fills the counter rows; `connections_open` is derived.
        let counters = ServerCounters::default();
        counters.connections_accepted.store(5, Ordering::Relaxed);
        counters.connections_closed.store(2, Ordering::Relaxed);
        counters.rate_limited.store(9, Ordering::Relaxed);
        let expected = ServerStats {
            connections_open: 3,
            connections_accepted: 5,
            connections_closed: 2,
            rate_limited: 9,
            ..Default::default()
        };
        assert_eq!(counters.snapshot(), expected);
    }

    #[test]
    fn prometheus_type_lines_are_unique_with_many_families_and_shards() {
        let counters = ServerCounters::default();
        let env = std::sync::Arc::new(pebblesdb_env::MemEnv::new());
        let store = pebblesdb::PebblesDb::open_sharded(
            env,
            std::path::Path::new("/metrics-type-test"),
            pebblesdb_common::StoreOptions::default(),
            pebblesdb_shard::ShardConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        store.create_cf("users").unwrap();

        let text = render_prometheus(&counters, &store);
        // The exposition format allows one TYPE line per metric name, and
        // all of a metric's samples sit directly under it.
        let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let total = types.len();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), total, "duplicate TYPE line:\n{text}");
        assert!(text.contains(
            "# TYPE pebblesdb_cf_num_files gauge\n\
             pebblesdb_cf_num_files{cf=\"default\"} 0\n\
             pebblesdb_cf_num_files{cf=\"users\"} 0\n"
        ));
        assert!(text.contains(
            "# TYPE pebblesdb_shard_num_shards gauge\n\
             pebblesdb_shard_num_shards{shard=\"0\"} 1\n\
             pebblesdb_shard_num_shards{shard=\"1\"} 1\n"
        ));
    }

    #[test]
    fn prometheus_rendering_breaks_out_shards() {
        let counters = ServerCounters::default();
        let env = std::sync::Arc::new(pebblesdb_env::MemEnv::new());
        let store = pebblesdb::PebblesDb::open_sharded(
            env,
            std::path::Path::new("/metrics-shard-test"),
            pebblesdb_common::StoreOptions::default(),
            pebblesdb_shard::ShardConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        store.put(b"k", b"v").unwrap();

        let text = render_prometheus(&counters, &store);
        assert!(text.contains("pebblesdb_store_num_shards 2\n"));
        assert!(text.contains("pebblesdb_shard_user_bytes_written{shard=\"0\"} "));
        assert!(text.contains("pebblesdb_shard_user_bytes_written{shard=\"1\"} "));
        assert!(!text.contains("{shard=\"2\"}"));
    }
}
