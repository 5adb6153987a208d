//! The PebblesDB evaluation harness.
//!
//! Two binaries: `db_bench` (embedded) and `net_bench` (over RESP). Every
//! table and figure of the paper's evaluation chapter is a row of
//! [`experiments::experiments`], run as `db_bench --exp <name>` (the README
//! maps figures to names; `bench_suite/BENCHMARK.md` maps them to the
//! benchmark's metrics). The library is:
//!
//! * [`experiments`] — the figure table (variants × scenarios × phases ×
//!   columns × notes), the one [`run_experiment`](experiments::run_experiment)
//!   and `db_bench`'s flag table.
//! * [`engines`] — which stores are evaluated (PebblesDB, PebblesDB-1, the
//!   HyperLevelDB and RocksDB presets of the baseline LSM, the B+Tree), their
//!   benchmark-scaled options, and the one store opener and the one
//!   environment opener every experiment and both binaries use.
//! * [`workloads`] — the `db_bench` micro-benchmark operations (fillseq,
//!   fillrandom, readrandom, seekrandom, deleterandom, ...) as workers of
//!   the one closed-loop driver, [`pebblesdb_ycsb::drive`], which the YCSB
//!   mixes and `net_bench`'s clients run through as well.
//! * [`report`] — fixed-width result tables.
//! * [`keygen`] — the key/value generators every workload (and the network
//!   bench client) draws from, so local and networked runs hit the same key
//!   space.
//!
//! All experiments run at laptop scale by default (`--keys`, `--value-size`,
//! `--threads` and `--scale-divisor` change that); each prints the paper's
//! reported numbers beside the shapes it measured this way.

pub mod engines;
pub mod experiments;
pub mod keygen;
pub mod report;
pub mod workloads;

pub use pebblesdb_common::args::Args;

pub use engines::{open_env, open_store, scaled_options, EngineKind};
pub use keygen::{bench_key, bench_value};
pub use report::Report;
pub use workloads::{BenchResult, Shape, Workload};
