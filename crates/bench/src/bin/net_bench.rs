//! `net_bench` — the networked companion to `db_bench`.
//!
//! Drives N concurrent RESP connections through fill / read / mixed
//! workloads and reports throughput plus client-observed latency
//! percentiles (p50/p99/p999). Keys and values come from
//! [`pebblesdb_bench::keygen`], the same generators the local workloads
//! use, so a store filled over the network is readable by `db_bench` and
//! vice versa.
//!
//! ```text
//! net_bench --spawn --clients 8 --ops 20000            # in-process server
//! net_bench --addr 127.0.0.1:6380 --workload mixed     # external server
//! net_bench --spawn --rate-limit 500 --burst 50        # observe BUSY backpressure
//! net_bench --spawn --follower                         # leader + replica lag/read phase
//! ```
//!
//! `--follower` appends a replication phase: a [`FollowerDb`] is attached
//! to the server over `SYNC` while the write clients keep loading the
//! leader, a local reader measures replica read latency at the applied
//! frontier, and a sampler records replication lag (leader committed
//! sequence minus follower applied sequence). The phase ends by timing how
//! long the replica takes to drain the remaining backlog once writes stop.
//!
//! `BUSY` replies from the server's rate limiter are counted (and retried
//! up to a bound) rather than treated as failures: they are backpressure,
//! and the `busy` column shows how much of it the run absorbed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebblesdb_bench::keygen::{bench_key, bench_value_compressible};
use pebblesdb_bench::report::{format_kops, Report};
use pebblesdb_bench::{open_env, open_store, Args, EngineKind};
use pebblesdb_common::histogram::Histogram;
use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{CompressionType, KvStore, StoreOptions};
use pebblesdb_server::{RateLimit, RespClient, Server, ServerConfig};
use pebblesdb_shard::ShardConfig;
use pebblesdb_ycsb::{drive, Driven};

const USAGE: &str = "net_bench [options]
  --addr HOST:PORT       benchmark an already-running server
  --spawn                spawn an in-process in-memory server (the default without --addr)
  --clients N            concurrent connections (default 8)
  --ops N                operations per workload phase (default 10000)
  --value-size N         value payload bytes (default 100)
  --workload NAME        fill | read | mixed | all (default all)
  --rate-limit N         with --spawn: per-connection rate limit in ops/sec
  --burst N              with --spawn: rate-limit burst (default rate/10)
  --shards N             with --spawn: serve a ShardedDb of N shards (default 0 = unsharded)
  --compression NAME     with --spawn: on|off block + vlog compression (default off)
  --compressibility X    an ideal codec shrinks generated values to this ratio (default 1.0)
  --write-latency-us N   with --spawn: inject latency per sstable write
  --sync                 with --spawn: fsync acknowledged writes
  --follower             attach a read replica; measure lag + replica read latency
  --help                 print this help";

/// What every client of a phase is given.
#[derive(Clone, Copy)]
struct Load {
    addr: std::net::SocketAddr,
    clients: usize,
    ops: u64,
    value_size: usize,
    compressibility: f64,
}

/// One table row: what `run` executed, and the BUSY replies absorbed.
fn latency_row(name: &str, run: &Driven, busy: u64) -> Vec<String> {
    vec![
        name.to_string(),
        run.operations.to_string(),
        format_kops(run.kops_per_second()),
        run.latency.percentile(50.0).to_string(),
        run.latency.percentile(99.0).to_string(),
        run.latency.percentile(99.9).to_string(),
        run.latency.max().to_string(),
        busy.to_string(),
    ]
}

fn main() {
    let args = Args::parse(USAGE);
    let clients = args.get_u64("clients", 8).max(1) as usize;
    let ops = args.get_u64("ops", 10_000).max(1);
    let value_size = args.get_u64("value-size", 100) as usize;
    let workload = args.get_str("workload", "all");
    let phases: Vec<&str> = match workload.as_str() {
        "all" => vec!["fill", "read", "mixed"],
        one @ ("fill" | "read" | "mixed") => vec![one],
        other => {
            eprintln!("error: unknown --workload {other:?} (fill|read|mixed|all)");
            std::process::exit(2);
        }
    };

    // Either connect out, or spawn an in-process server on an ephemeral
    // port (which is what the CI smoke job uses: no port plumbing).
    let addr_flag = args.get_str("addr", "");
    let (server, addr) = if addr_flag.is_empty() {
        let (env, dir) = open_env("mem", "net-bench", "", args.get_u64("write-latency-us", 0));
        let mut options = StoreOptions::default();
        options.compression = CompressionType::parse(&args.get_str("compression", "off"))
            .expect("unknown --compression (on|off|lz|none)");
        // `--shards N` serves a hash-sharded store through the same RESP
        // front-end — the server code is unchanged, only the Db behind it.
        let shards = args.get_u64("shards", 0) as usize;
        let sharding = (shards > 0).then(|| ShardConfig {
            shards,
            ..Default::default()
        });
        let db = open_store(EngineKind::PebblesDb, env, &dir, options, sharding)
            .expect("open store")
            .db;
        let mut config = ServerConfig::default();
        config.session.sync_writes = args.has_flag("sync");
        let rate = args.get_u64("rate-limit", 0);
        if rate > 0 {
            config.rate_limit = Some(RateLimit {
                ops_per_sec: rate as f64,
                burst: args.get_u64("burst", (rate / 10).max(1)) as f64,
            });
        }
        let server = Server::start(db, config).expect("start in-process server");
        let addr = server.local_addr();
        (Some(server), addr)
    } else {
        let addr = addr_flag.parse().expect("--addr must be HOST:PORT");
        (None, addr)
    };
    let load = Load {
        addr,
        clients,
        ops,
        value_size,
        compressibility: args.get_f64("compressibility", 1.0),
    };

    let mut report = Report::new(
        &format!("net_bench — {addr} ({clients} clients, {ops} ops/phase, {value_size} B values)"),
        [
            "workload", "ops", "kops/s", "p50 us", "p99 us", "p999 us", "max us", "busy",
        ]
        .map(String::from)
        .to_vec(),
    );
    for phase in phases {
        let (run, busy) = run_phase(phase, load);
        report.add_row(latency_row(phase, &run, busy));
    }
    report.add_note("latencies are client-observed round trips; BUSY replies are retried (bounded) and counted, not failed.");
    if args.has_flag("follower") {
        run_follower_phase(&mut report, load);
    }
    report.print();

    if let Some(server) = server {
        server.shutdown();
    }
}

/// The `--follower` phase: attach a replica over `SYNC`, keep the write
/// clients loading the leader, and measure what a read replica actually
/// delivers — local read latency at its applied frontier and replication
/// lag in sequence numbers — then time the final catch-up drain.
fn run_follower_phase(report: &mut Report, load: Load) {
    let (env, dir) = open_env("mem", "net-bench-follower", "", 0);
    let follower = pebblesdb_replica::FollowerDb::open_with(
        pebblesdb::FlsmPolicy::new,
        env,
        &dir,
        StoreOptions::default(),
        pebblesdb_replica::FollowerConfig {
            leader_addr: load.addr.to_string(),
            ..Default::default()
        },
    )
    .expect("attach follower");
    let stop = AtomicBool::new(false);

    // The follower's two observers run beside the write load, until told
    // to stop: they sample what the load causes, they do not offer load.
    let (writes, busy, drain, (read_latencies, hits), lag) = std::thread::scope(|scope| {
        // Replica-side reader: local gets against the follower's applied
        // frontier, sampling the key space the writers are filling.
        let reader = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(0xf011_04e4);
            let mut latencies = Histogram::new();
            let mut hits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = bench_key(rng.gen_range(0..load.ops));
                let started = Instant::now();
                if follower.get(&key).expect("follower read").is_some() {
                    hits += 1;
                }
                latencies.record(started.elapsed().as_micros() as u64);
            }
            (latencies, hits)
        });
        // Lag sampler, every 5 ms. `lag_seqs` is the backlog the leader
        // advertises on every shipped frame — sequences committed and not
        // yet handed to this replica — which is the honest lag signal; `leader_sequence()` minus
        // `applied_sequence()` only sees frames already in flight.
        let sampler = scope.spawn(|| {
            let mut lag = Histogram::new();
            while !stop.load(Ordering::Relaxed) {
                lag.record(follower.lag_seqs());
                std::thread::sleep(Duration::from_millis(5));
            }
            lag
        });

        // The same concurrent RESP write load the fill phase uses.
        let (writes, busy) = run_phase("fill", load);

        // Writes are done: time how long the replica needs to drain the rest.
        // While behind, the last received frame's sequence trails the leader's
        // true frontier, so "caught up" means the advertised backlog hit zero
        // AND an idle ping confirmed the frontier matches what we applied.
        let drain_started = Instant::now();
        let deadline = Instant::now() + Duration::from_secs(120);
        while follower.lag_seqs() > 0
            || follower.leader_sequence() == 0
            || follower.applied_sequence() < follower.leader_sequence()
        {
            assert!(
                Instant::now() < deadline,
                "follower never caught up: applied={} leader={} connected={} last_error={:?}",
                follower.applied_sequence(),
                follower.leader_sequence(),
                follower.is_connected(),
                follower.last_error(),
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let drain = drain_started.elapsed();
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("follower reader panicked");
        let lag = sampler.join().expect("lag sampler panicked");
        (writes, busy, drain, reads, lag)
    });

    report.add_row(latency_row("leader-fill", &writes, busy));
    let reads = Driven {
        operations: read_latencies.count(),
        seconds: writes.seconds.max(drain.as_secs_f64()),
        latency: read_latencies,
    };
    report.add_row(latency_row("follower-read", &reads, 0));
    report.add_note(&format!(
        "replication lag (sequences behind leader): p50 {} / p99 {} / max {}; \
         drained in {} ms after writes stopped; applied seq {}, {} batches \
         applied, follower read hit rate {:.1}%",
        lag.percentile(50.0),
        lag.percentile(99.0),
        lag.max(),
        drain.as_millis(),
        follower.applied_sequence(),
        follower.batches_applied(),
        100.0 * hits as f64 / reads.operations.max(1) as f64,
    ));
}

/// Runs one phase: `load.clients` RESP connections as workers of the one
/// closed-loop driver. Returns what it executed and how many `BUSY`
/// replies the clients absorbed.
fn run_phase(name: &str, load: Load) -> (Driven, u64) {
    let busy = AtomicU64::new(0);
    let driven = drive(load.clients, load.ops, 0xbeef_0000, |_client| {
        let mut conn = RespClient::connect(load.addr).expect("connect");
        conn.set_timeout(Some(Duration::from_secs(30)))
            .expect("set client timeout");
        let busy = &busy;
        Ok(move |index: u64, rng: &mut StdRng| {
            let write = match name {
                "fill" => true,
                "read" => false,
                _ => rng.gen_bool(0.5),
            };
            // Writes walk the client's own slice of the key space; reads
            // sample the whole (filled) space.
            let index = if write {
                index
            } else {
                rng.gen_range(0..load.ops)
            };
            let key = bench_key(index);
            let value = if write {
                bench_value_compressible(index, load.value_size, load.compressibility, rng)
            } else {
                Vec::new()
            };
            // A BUSY reply is backpressure: back off briefly and retry the
            // same op a bounded number of times.
            for _attempt in 0..50 {
                let reply = if write {
                    conn.command(&[b"SET", &key, &value]).expect("SET")
                } else {
                    conn.command(&[b"GET", &key]).expect("GET")
                };
                match reply {
                    RespValue::Error(msg) if msg.starts_with("BUSY") => {
                        busy.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    RespValue::Error(msg) => panic!("op {index} failed: {msg}"),
                    _ => break,
                }
            }
            Ok(())
        })
    })
    .expect("bench client failed");
    (driven, busy.into_inner())
}
