//! The PebblesDB evaluation harness.
//!
//! Every table and figure of the paper's evaluation chapter has a binary in
//! `src/bin/` that regenerates it, named after it (`fig5_1_micro`,
//! `table5_1_sstable_sizes`, ...; `bench_suite/BENCHMARK.md` maps the
//! figures to the benchmark's metrics). The binaries share this library:
//!
//! * [`engines`] — opens any of the evaluated stores (PebblesDB, PebblesDB-1,
//!   HyperLevelDB/LevelDB/RocksDB presets of the baseline LSM, the B+Tree)
//!   behind the common [`KvStore`](pebblesdb_common::KvStore) trait, with
//!   benchmark-scaled options.
//! * [`workloads`] — `db_bench`-style micro-benchmark loops (fillseq,
//!   fillrandom, readrandom, seekrandom, deleterandom, ...).
//! * [`report`] — fixed-width result tables plus the paper's reported numbers
//!   for side-by-side comparison.
//! * [`keygen`] — the key/value generators every workload (and the network
//!   bench client) draws from, so local and networked runs hit the same key
//!   space.
//!
//! The `--flag value` parser the binaries share lives in
//! [`pebblesdb_common::args`] (re-exported here), because the server binary
//! uses it too.
//!
//! All experiments run at laptop scale by default (`--keys`, `--value-size`
//! and `--threads` flags change that); each binary prints the paper's
//! reported numbers beside the shapes it measured this way.

pub mod engines;
pub mod keygen;
pub mod report;
pub mod workloads;

pub use pebblesdb_common::args::{self, Args};

pub use engines::{open_engine, open_engine_with_options, scaled_options, EngineKind};
pub use keygen::{bench_key, bench_value};
pub use report::Report;
pub use workloads::{BenchResult, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::MemEnv;
    use std::sync::Arc;

    #[test]
    fn every_engine_kind_opens_and_serves_reads() {
        for kind in EngineKind::all() {
            let env = Arc::new(MemEnv::new());
            let dir = std::path::PathBuf::from(format!("/bench-{}", kind.name()));
            let store = open_engine(kind, env, &dir, 4).unwrap();
            store.put(b"k", b"v").unwrap();
            assert_eq!(
                store.get(b"k").unwrap(),
                Some(b"v".to_vec()),
                "{}",
                kind.name()
            );
            assert!(!store.engine_name().is_empty());
        }
    }

    #[test]
    fn fillrandom_then_readrandom_roundtrips() {
        let env = Arc::new(MemEnv::new());
        let store =
            open_engine(EngineKind::PebblesDb, env, std::path::Path::new("/b"), 16).unwrap();
        let fill = Workload::FillRandom.run(&store, 2000, 16, 100, 1).unwrap();
        assert_eq!(fill.operations, 2000);
        assert!(fill.kops_per_second() > 0.0);
        let read = Workload::ReadRandom.run(&store, 1000, 16, 100, 1).unwrap();
        assert_eq!(read.operations, 1000);
        // Random fills sample keys with replacement, so roughly 1 - 1/e of
        // the key space exists; well over half the reads must hit.
        assert!(read.found.unwrap_or(0) > 500, "found {:?}", read.found);
    }

    #[test]
    fn seek_and_delete_workloads_execute() {
        let env = Arc::new(MemEnv::new());
        let store = open_engine(
            EngineKind::HyperLevelDb,
            env,
            std::path::Path::new("/b"),
            16,
        )
        .unwrap();
        Workload::FillSeq.run(&store, 1000, 16, 64, 1).unwrap();
        let seek = Workload::SeekRandom.run(&store, 200, 16, 64, 1).unwrap();
        assert_eq!(seek.operations, 200);
        let del = Workload::DeleteRandom.run(&store, 500, 16, 64, 1).unwrap();
        assert_eq!(del.operations, 500);
    }

    #[test]
    fn multithreaded_mixed_workload_executes() {
        let env = Arc::new(MemEnv::new());
        let store = open_engine(EngineKind::RocksDb, env, std::path::Path::new("/b"), 16).unwrap();
        Workload::FillRandom.run(&store, 1000, 16, 64, 2).unwrap();
        let mixed = Workload::ReadWhileWriting
            .run(&store, 1000, 16, 64, 4)
            .unwrap();
        assert!(mixed.operations >= 1000);
    }

    #[test]
    fn args_parse_flags_and_defaults() {
        let args = Args::parse_from(vec![
            "prog".to_string(),
            "--keys".to_string(),
            "1234".to_string(),
            "--engine".to_string(),
            "pebblesdb".to_string(),
            "--quick".to_string(),
        ]);
        assert_eq!(args.get_u64("keys", 10), 1234);
        assert_eq!(args.get_u64("missing", 7), 7);
        assert_eq!(args.get_str("engine", "x"), "pebblesdb");
        assert!(args.has_flag("quick"));
        assert!(!args.has_flag("verbose"));
    }

    #[test]
    fn report_renders_all_rows() {
        let mut report = Report::new("Demo", vec!["engine".to_string(), "kops".to_string()]);
        report.add_row(vec!["PebblesDB".to_string(), "12.3".to_string()]);
        report.add_row(vec!["LevelDB".to_string(), "4.5".to_string()]);
        let rendered = report.render();
        assert!(rendered.contains("PebblesDB"));
        assert!(rendered.contains("LevelDB"));
        assert!(rendered.contains("kops"));
    }
}
