//! The paper's evaluation chapter as data: one [`Experiment`] row per figure
//! or table, all run by [`run_experiment`].
//!
//! A row names its *variants* (an engine plus an options tweak or an
//! application layer), its *scenarios* (a parameter adjustment plus the
//! phases every variant's fresh store goes through: workload × share of
//! `--keys` × threads × timed-or-not), the table to print and the paper's
//! notes. Adding a figure is adding a row to [`experiments`]; changing how
//! load is offered is changing [`pebblesdb_ycsb::drive`], which every phase
//! runs through.

use std::sync::Arc;
use std::time::Instant;

use pebblesdb_apps::{HyperDexLike, MongoLike};
use pebblesdb_common::args::Args;
use pebblesdb_common::{CompressionType, Db, KvStore, Result, StoreOptions, StoreStats};
use pebblesdb_ycsb::WorkloadKind;

use crate::engines::{open_env, open_store, scaled_options, EngineKind, Opened};
use crate::report::{format_mib, format_ratio, row, Report};
use crate::workloads::{BenchResult, Shape, Workload};

/// `db_bench`'s usage text, which is also its flag table. Flags without a
/// stated default take the experiment's (ad hoc: 50000 keys of 1 KiB, one
/// thread, store sizes / 16).
pub const DB_BENCH_USAGE: &str = "db_bench [options]
  --exp NAME                      run a named experiment (a paper figure; see README) or `all`
  --part NAME                     of fig5_1_micro: b|c|d|e; of fig5_2_env: aged|lowmem (default all)
  --app NAME                      of fig5_6_apps: hyperdex|mongo (default all)
  --engine NAME                   pebblesdb|pebblesdb-1|hyperleveldb|rocksdb|btree (default pebblesdb)
  --benchmarks LIST               ad hoc: workloads, comma-separated (default fillrandom,readrandom,seekrandom)
  --keys N                        key-space size; the record count of a YCSB experiment
  --value-size N                  value bytes
  --threads N                     driver threads
  --scale-divisor N               divide the paper's store sizes by this
  --env KIND                      mem | disk (default mem)
  --dir PATH                      with --env disk: parent directory (default the system temp dir)
  --write-latency-us N            inject latency per sstable write
  --compaction-threads N          ad hoc: compaction pool size; 0 = no background threads (default the preset's)
  --value-separation-threshold N  ad hoc: values this large go to the value log (default 0 = off)
  --compression NAME              ad hoc: on|off block + vlog compression (default off)
  --compressibility X             ad hoc: an ideal codec shrinks values to this ratio (default 1.0)
  --cfs N                         ad hoc: round-robin keys over this many column families (default 1)
  --shards N                      ad hoc: open a ShardedDb of this many shards (default 0 = unsharded)
  --partitioner NAME              with --shards: hash | range (default hash)
  --iterations N                  fig5_4_timeseries: windows to write, read and delete (default 8)
  --app-latency-micros N          fig5_6_apps: application latency per operation (default 20)
  --sweep-threshold N             value-sweep: separation threshold in bytes (default 512)
  --help                          print this help";

/// What one run of an experiment is parameterised by: the experiment's
/// defaults overridden by flags, then adjusted per scenario.
#[derive(Debug, Clone)]
pub struct Params<'a> {
    /// `--keys` (the record count of a YCSB experiment), `--value-size` and
    /// `--threads` (of every phase that does not fix its own).
    pub shape: Shape,
    /// Divisor of the paper's store sizes (`--scale-divisor`).
    pub scale_divisor: usize,
    /// The flags only one experiment reads (`--iterations`, `--env`, ...).
    pub args: &'a Args,
}

impl Params<'_> {
    fn resolve<'a>(exp: &Experiment, args: &'a Args) -> Params<'a> {
        Params {
            shape: Shape {
                first_key: 0,
                keys: args.get_u64("keys", exp.keys).max(1),
                value_size: args.get_u64("value-size", exp.value_size as u64) as usize,
                threads: args.get_u64("threads", exp.threads as u64).max(1) as usize,
                compressibility: 1.0,
            },
            scale_divisor: args.get_u64("scale-divisor", exp.scale_divisor as u64) as usize,
            args,
        }
    }
}

/// An application layer between the load and the engine (Figure 5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The engine itself.
    Engine,
    /// HyperDex-like: read-before-write plus client latency.
    HyperDex,
    /// MongoDB-like: document encoding plus client latency.
    Mongo,
}

/// How a variant departs from `scaled_options(engine, --scale-divisor)`.
type Tweak = fn(&mut StoreOptions, &Params);

/// One store configuration an experiment compares.
pub struct Variant {
    /// Row (or column) label.
    pub label: &'static str,
    /// Which engine to open.
    pub engine: EngineKind,
    /// What to change in its benchmark-scaled options.
    pub tweak: Tweak,
    /// What the load goes through before the engine.
    pub layer: Layer,
}

impl Variant {
    fn new(label: &'static str, engine: EngineKind, layer: Layer, tweak: Tweak) -> Variant {
        Variant {
            label,
            engine,
            tweak,
            layer,
        }
    }

    /// The options this variant opens its store with.
    pub fn options(&self, params: &Params) -> StoreOptions {
        let mut options = scaled_options(self.engine, params.scale_divisor);
        (self.tweak)(&mut options, params);
        options
    }
}

/// One step of a scenario.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// The operations.
    pub workload: Workload,
    /// How many: `--keys × share.0 / share.1` (at least one).
    pub share: (u64, u64),
    /// Driver threads; 0 means the experiment's `--threads`.
    pub threads: usize,
    /// Whether the table reports the phase (untimed phases prepare the store).
    pub timed: bool,
    /// Whether to flush the store after the phase.
    pub flush: bool,
}

impl Phase {
    /// A timed phase of `--keys` operations on `--threads` threads.
    fn micro(workload: Workload) -> Phase {
        Phase {
            workload,
            share: (1, 1),
            threads: 0,
            timed: true,
            flush: false,
        }
    }

    /// A load phase writes every record; a transaction phase runs half as
    /// many operations as there are records.
    fn ycsb(kind: WorkloadKind) -> Phase {
        Phase::micro(Workload::Ycsb(kind)).share(1, if kind.is_load() { 1 } else { 2 })
    }

    fn share(mut self, numerator: u64, denominator: u64) -> Phase {
        self.share = (numerator, denominator);
        self
    }

    fn on(mut self, threads: usize) -> Phase {
        self.threads = threads;
        self
    }

    fn untimed(mut self) -> Phase {
        self.timed = false;
        self
    }

    fn flushed(mut self) -> Phase {
        self.flush = true;
        self
    }
}

/// One pass over every variant: a parameter adjustment and the phases each
/// variant's fresh store goes through.
pub struct Scenario {
    /// Row label where a table has one row per scenario (or per run).
    pub label: String,
    /// Per-scenario parameters (a sweep's value size, compressibility, ...).
    pub adjust: Box<dyn Fn(&mut Params)>,
    /// The steps, in order.
    pub phases: Vec<Phase>,
}

fn scenario(label: &str, phases: Vec<Phase>) -> Scenario {
    Scenario {
        label: label.to_string(),
        adjust: Box::new(|_| {}),
        phases,
    }
}

/// What one variant's store did in one scenario.
pub struct Outcome {
    /// The timed phases, in order.
    pub phases: Vec<BenchResult>,
    /// The store's statistics after the last phase and a final flush.
    pub stats: StoreStats,
    /// Live sstable sizes at that point, ascending.
    pub file_sizes: Vec<u64>,
    /// Wall-clock seconds from the first phase to that point.
    pub seconds: f64,
}

/// One reported column: a header and how to read its cell from the
/// outcomes of a row (one outcome per run, or one per variant).
pub struct Col {
    header: String,
    cell: Cell,
}

type Cell = Box<dyn Fn(&[Outcome]) -> String>;

fn col(header: &str, cell: impl Fn(&[Outcome]) -> String + 'static) -> Col {
    Col {
        header: header.to_string(),
        cell: Box::new(cell),
    }
}

/// Throughput of timed phase `phase` of the row's outcome `of`.
fn kops(header: &str, of: usize, phase: usize) -> Col {
    col(header, move |o| o[of].phases[phase].kops())
}

/// One throughput column per timed phase, in order.
fn kops_cols(headers: &[&str]) -> Vec<Col> {
    let cols = headers.iter().enumerate();
    cols.map(|(phase, header)| kops(header, 0, phase)).collect()
}

/// `numerator / denominator` as `1.23x`, or `-` over nothing.
fn times(numerator: f64, denominator: f64) -> String {
    if denominator > 0.0 {
        format!("{:.2}x", numerator / denominator)
    } else {
        "-".to_string()
    }
}

/// How an experiment's outcomes become a table.
pub enum Table {
    /// One row per variant and scenario; columns read that run's outcome.
    /// The string heads the variant column.
    PerRun(&'static str, Vec<Col>),
    /// One row per scenario (a sweep); columns read across the variants'
    /// outcomes. The string heads the scenario column.
    PerScenario(&'static str, Vec<Col>),
    /// One row per timed phase and a KOps/s column per variant, closed by
    /// the total write IO (the YCSB figures).
    PerPhase,
    /// Rows the experiment writes itself from the first variant's store,
    /// under these headers (the growing window of Figure 5.4).
    Custom(
        &'static [&'static str],
        fn(&Params, &Opened, &mut Report) -> Result<()>,
    ),
}

/// One figure or table of the paper's evaluation (or one of the repo's own
/// sweeps), as data. `Default` is the commonest sizing — 1 KiB values, one
/// thread, store sizes / 16 — with nothing to run.
pub struct Experiment {
    /// `--exp` name: the name of the binary this row replaced.
    pub name: &'static str,
    /// `--part` / `--app` selector within `name`, empty when there is none.
    pub part: &'static str,
    /// Table title; the run's parameters are appended.
    pub title: String,
    /// Default `--keys`.
    pub keys: u64,
    /// Default `--value-size`.
    pub value_size: usize,
    /// Default `--threads`.
    pub threads: usize,
    /// Default `--scale-divisor`.
    pub scale_divisor: usize,
    /// The store configurations compared.
    pub variants: Vec<Variant>,
    /// What each of them goes through, on a fresh store per scenario.
    pub scenarios: Vec<Scenario>,
    /// What is printed.
    pub table: Table,
    /// What the paper reports and what shape to expect.
    pub notes: Vec<&'static str>,
}

impl Default for Experiment {
    fn default() -> Experiment {
        Experiment {
            name: "",
            part: "",
            title: String::new(),
            keys: 0,
            value_size: 1024,
            threads: 1,
            scale_divisor: 16,
            variants: Vec::new(),
            scenarios: Vec::new(),
            table: Table::PerPhase,
            notes: Vec::new(),
        }
    }
}

/// A `fig5_1_micro` part: one KOps/s column per workload plus the write IO.
/// Reads and seeks run half as many operations as there are keys, against
/// the compacted store (fills flush), as in the paper's experiments.
fn micro_part(
    part: &'static str,
    title: &str,
    variants: Vec<Variant>,
    (keys, value_size, threads): (u64, usize, usize),
    workloads: &[Workload],
    note: &'static str,
) -> Experiment {
    let phase = |&workload: &Workload| match workload {
        Workload::FillSeq | Workload::FillRandom => Phase::micro(workload).flushed(),
        Workload::ReadRandom | Workload::SeekRandom | Workload::ReadWhileWriting => {
            Phase::micro(workload).share(1, 2)
        }
        _ => Phase::micro(workload),
    };
    let headers: Vec<String> = (workloads.iter())
        .map(|w| format!("{} KOps/s", w.name()))
        .collect();
    let mut cols = kops_cols(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    cols.push(col("write IO", |o| format_mib(o[0].stats.bytes_written)));
    Experiment {
        name: "fig5_1_micro",
        part,
        title: title.to_string(),
        keys,
        value_size,
        threads,
        variants,
        scenarios: vec![scenario("", workloads.iter().map(phase).collect())],
        table: Table::PerRun("store", cols),
        notes: vec![note],
        ..Experiment::default()
    }
}

/// The block cache holds uncompressed bytes by design, so sized for the
/// working set, reads cost the same with compression on or off once warm —
/// that is the property the compression sweep's read columns measure (the
/// cold-miss decompression cost shows up in the `decompress_micros` stat).
fn cache_the_working_set(options: &mut StoreOptions, p: &Params) {
    let working_set = p.shape.keys as usize * (16 + p.shape.value_size);
    options.block_cache_capacity = (working_set * 2).max(8 << 20);
}

/// Figure 5.4: insert a window of keys, read it, delete it, move up. Guards
/// created for old windows become empty; read throughput must not degrade as
/// they accumulate.
fn timeseries(p: &Params, opened: &Opened, report: &mut Report) -> Result<()> {
    let flsm = (opened.flsm.as_ref()).expect("Figure 5.4 runs on the unsharded FLSM store");
    let stores = [Arc::clone(&opened.db) as Arc<dyn KvStore>];
    let keys = p.shape.keys;
    for iteration in 0..p.args.get_u64("iterations", 8) {
        let shape = Shape {
            first_key: iteration * keys,
            ..p.shape.clone()
        };
        let write = Workload::FillSeq.run(&stores, keys, &shape)?;
        let read = Workload::ReadRandom.run(&stores, (keys / 2).max(1), &shape)?;
        Workload::DeleteSeq.run(&stores, keys, &shape)?;
        opened.db.flush()?;
        let stalled = opened.db.stats().write_stall_micros - write.before.write_stall_micros;
        report.add_row(vec![
            (iteration + 1).to_string(),
            write.kops(),
            read.kops(),
            format!("{:.1}", stalled as f64 / 1000.0),
            flsm.empty_guards().to_string(),
        ]);
    }
    report.add_note(&format!(
        "final guards per level (sentinel included): {:?}",
        flsm.guards_per_level()
    ));
    Ok(())
}

/// The `p`-th percentile of ascending `sorted`, in KiB.
fn percentile_kib(sorted: &[u64], p: f64) -> String {
    let rank = ((sorted.len().max(1) as f64 - 1.0) * p / 100.0).round() as usize;
    (sorted.get(rank).copied().unwrap_or(0) / 1024).to_string()
}

/// Every experiment `db_bench --exp` can run, in the paper's order. The two
/// sweeps compare configurations of one engine, `sweep_engine` (`--engine`).
pub fn experiments(sweep_engine: EngineKind) -> Vec<Experiment> {
    use EngineKind::{BTree, HyperLevelDb, PebblesDb, PebblesDb1, RocksDb};
    use Layer::{Engine, HyperDex, Mongo};
    use Workload::*;
    use WorkloadKind::{LoadA, LoadE, A, B, C, D, E, F};
    // One variant per engine, each behind `layer` with the same `tweak`.
    let variants = |layer: Layer, engines: &[EngineKind], tweak: Tweak| -> Vec<Variant> {
        let variant = |&engine: &EngineKind| Variant::new(engine.name(), engine, layer, tweak);
        engines.iter().map(variant).collect()
    };
    let plain: Tweak = |_, _| {};
    let engines = |engines: &[EngineKind]| variants(Engine, engines, plain);
    let stores = || engines(&EngineKind::PAPER_STORES);
    let one = |phases: Vec<Phase>| vec![scenario("", phases)];
    let ycsb = |order: [WorkloadKind; 8]| one(order.into_iter().map(Phase::ycsb).collect());
    let write_read_seek = || kops_cols(&["write KOps/s", "read KOps/s", "seek KOps/s"]);
    let fill_read_seek = |seek: Workload| {
        vec![
            Phase::micro(FillRandom).flushed(),
            Phase::micro(ReadRandom).share(1, 2),
            Phase::micro(seek).share(1, 4),
        ]
    };
    // §5.2 "Impact of File-System and Key-Value Store Aging" at reduced
    // scale: four threads insert, then delete 40% and update 40% in random
    // order. File-system aging is not reproducible in-process, so only the
    // store is aged.
    let mut aged = vec![
        Phase::micro(FillRandom).on(4).untimed(),
        Phase::micro(DeleteRandom).share(2, 5).on(4).untimed(),
        Phase::micro(Overwrite)
            .share(2, 5)
            .on(4)
            .untimed()
            .flushed(),
    ];
    aged.extend(fill_read_seek(SeekRandom));

    vec![
        Experiment {
            name: "fig1_write_amp",
            title: "Figure 1.1 / 5.1(a): write amplification of random inserts".to_string(),
            keys: 200_000,
            value_size: 128,
            scale_divisor: 64,
            variants: engines(&[PebblesDb, HyperLevelDb, RocksDb, BTree]),
            scenarios: one(vec![Phase::micro(FillRandom).untimed()]),
            table: Table::PerRun(
                "store",
                vec![
                    col("user data", |o| format_mib(o[0].stats.user_bytes_written)),
                    col("write IO", |o| format_mib(o[0].stats.bytes_written)),
                    col("write amp", |o| format_ratio(o[0].stats.write_amplification())),
                    col("compaction read", |o| format_mib(o[0].stats.compaction_bytes_read)),
                    col("compaction written", |o| format_mib(o[0].stats.compaction_bytes_written)),
                ],
            ),
            notes: vec![
                "Paper (500M keys): PebblesDB ~128 GB, LevelDB ~210 GB, HyperLevelDB/RocksDB ~320 GB; KyotoCabinet-style B-trees are far worse (61x).",
                "Expected shape: PebblesDB lowest, HyperLevelDB/RocksDB higher, BTree highest; the FLSM reads and writes less in compaction because it never rewrites sstables already in the next level.",
            ],
            ..Experiment::default()
        },
        micro_part(
            "b",
            "Figure 5.1(b): single-threaded micro-benchmarks",
            stores(),
            (50_000, 1024, 1),
            &[FillSeq, FillRandom, ReadRandom, SeekRandom, DeleteRandom],
            "Paper: PebblesDB 2.7x HyperLevelDB on random writes, ~3x slower on sequential writes, ~30% slower on seeks after full compaction.",
        ),
        micro_part(
            "c",
            "Figure 5.1(c): multi-threaded reads/writes and mixed workload",
            stores(),
            (40_000, 1024, 4),
            &[FillRandom, ReadRandom, ReadWhileWriting],
            "Paper: with 4 threads PebblesDB gets 3.3x RocksDB / 1.7x HyperLevelDB write throughput and wins the mixed workload.",
        ),
        micro_part(
            "d",
            "Figure 5.1(d): small fully-cached dataset",
            engines(&[PebblesDb, PebblesDb1, HyperLevelDb]),
            (20_000, 1024, 1),
            &[FillRandom, ReadRandom, SeekRandom],
            "Paper: on cached data PebblesDB still wins writes but pays ~7% on reads and ~47% on seeks; PebblesDB-1 (one sstable per guard) recovers most of the seek cost.",
        ),
        micro_part(
            "e",
            "Figure 5.1(e): small key-value pairs",
            stores(),
            (100_000, 128, 1),
            &[FillRandom, ReadRandom, SeekRandom],
            "Paper: with 128 B values PebblesDB keeps its write-throughput lead and matches reads/seeks.",
        ),
        Experiment {
            name: "fig5_2_env",
            part: "aged",
            title: "Figure 5.2 (aged): writes / reads / seeks on an aged store".to_string(),
            keys: 40_000,
            variants: stores(),
            scenarios: one(aged),
            table: Table::PerRun("store", write_read_seek()),
            notes: vec!["Paper: on an aged store PebblesDB's write advantage drops from 2.7x to ~2x, reads stay ~8% ahead, and range queries pay ~40%."],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_2_env",
            part: "lowmem",
            title: "Figure 5.2 (lowmem): writes / reads / seeks with tiny caches".to_string(),
            keys: 40_000,
            // Tiny caches relative to the dataset, mimicking the paper's
            // `mem=4GB` boot parameter where DRAM is 6% of the dataset. The
            // block cache binds only on `--env disk`: a `MemEnv` table reads
            // its uncompressed blocks in place and never caches them.
            variants: variants(Engine, &EngineKind::PAPER_STORES, |o, _| {
                o.block_cache_capacity = 64 << 10;
                o.write_buffer_size = 64 << 10;
                o.max_open_files = 50;
            }),
            scenarios: one(fill_read_seek(SeekRandom)),
            table: Table::PerRun("store", write_read_seek()),
            notes: vec![
                "Paper: with DRAM at 6% of the dataset PebblesDB keeps a 64% write and 63% read advantage but loses ~40% on range queries.",
                "The 64 KiB block cache binds only with --env disk: on --env mem blocks are read in place, never cached.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_3_space_amp",
            title: "Figure 5.3: space amplification".to_string(),
            keys: 100_000,
            value_size: 128,
            scale_divisor: 32,
            variants: stores(),
            scenarios: vec![
                scenario("unique keys", vec![Phase::micro(FillSeq).untimed()]),
                scenario(
                    "10x duplicates",
                    vec![Phase::micro(FillSeq).share(1, 10).untimed(); 10],
                ),
            ],
            table: Table::PerRun(
                "store",
                vec![
                    col("user data", |o| format_mib(o[0].stats.user_bytes_written)),
                    col("live on disk", |o| format_mib(o[0].stats.disk_bytes_live)),
                    col("space amp", |o| format_ratio(o[0].stats.space_amplification())),
                ],
            ),
            notes: vec![
                "Paper: unique-key runs land within 2% of each other (~52 GB); with 10x duplicates PebblesDB uses 7.9 GB vs RocksDB 7.1 GB and LevelDB 7.8 GB.",
                "Expected shape: near-identical space for unique keys; a modest PebblesDB overhead (and well under the 10x user-data volume) for the duplicate run.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_4_timeseries",
            title: "Figure 5.4: time-series data, one window of --keys keys per iteration".to_string(),
            keys: 20_000,
            value_size: 512,
            variants: engines(&[PebblesDb]),
            scenarios: one(Vec::new()),
            table: Table::Custom(
                &["iteration", "write KOps/s", "read KOps/s", "stall ms", "empty guards"],
                timeseries,
            ),
            notes: vec![
                "Paper: read throughput stays between 70 and 90 KOps/s across all twenty iterations even with ~9000 empty guards accumulated.",
                "Expected shape: per-iteration write/read throughput stays flat while the empty-guard count grows.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_5_ycsb",
            title: "Figure 5.5: YCSB (half as many operations per workload as records)".to_string(),
            keys: 20_000,
            threads: 4,
            variants: stores(),
            scenarios: ycsb([LoadA, A, B, C, D, LoadE, E, F]),
            notes: vec!["Paper: PebblesDB ~1.5-2x RocksDB/HyperLevelDB on Load A, Load E and A; near parity on B/C/D/F; ~6% behind on E; total IO about half of RocksDB's."],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_6_apps",
            part: "hyperdex",
            title: "Figure 5.6 (hyperdex): YCSB through the HyperDex-like layer".to_string(),
            keys: 10_000,
            threads: 4,
            variants: variants(HyperDex, &[HyperLevelDb, PebblesDb], plain),
            scenarios: ycsb([LoadA, A, B, C, D, F, LoadE, E]),
            notes: vec!["Paper 5.6(a): PebblesDB improves HyperDex throughput on every workload (up to +59% on Load E) while writing less IO; gains are capped by HyperDex's read-before-write behaviour."],
            ..Experiment::default()
        },
        Experiment {
            name: "fig5_6_apps",
            part: "mongo",
            title: "Figure 5.6 (mongo): YCSB through the MongoDB-like layer (WiredTiger modelled by the B+Tree)".to_string(),
            keys: 10_000,
            threads: 4,
            variants: variants(Mongo, &[BTree, RocksDb, PebblesDb], plain),
            scenarios: ycsb([LoadA, A, B, C, D, F, LoadE, E]),
            notes: vec!["Paper 5.6(b): both LSM engines beat WiredTiger everywhere; PebblesDB matches RocksDB's throughput while writing ~40% less IO (and 4% less than WiredTiger)."],
            ..Experiment::default()
        },
        Experiment {
            name: "table5_1_sstable_sizes",
            title: "Table 5.1: sstable size distribution after random inserts".to_string(),
            keys: 200_000,
            value_size: 512,
            variants: engines(&[PebblesDb, HyperLevelDb]),
            scenarios: one(vec![Phase::micro(FillRandom).untimed()]),
            table: Table::PerRun(
                "store",
                vec![
                    col("files", |o| o[0].file_sizes.len().to_string()),
                    col("mean KiB", |o| {
                        let sizes = &o[0].file_sizes;
                        (sizes.iter().sum::<u64>() / sizes.len().max(1) as u64 / 1024).to_string()
                    }),
                    col("median KiB", |o| percentile_kib(&o[0].file_sizes, 50.0)),
                    col("p90 KiB", |o| percentile_kib(&o[0].file_sizes, 90.0)),
                    col("p95 KiB", |o| percentile_kib(&o[0].file_sizes, 95.0)),
                ],
            ),
            notes: vec![
                "Paper (50M keys / 33 GB): PebblesDB mean 17.2 MB, median 5.3 MB, p90 51 MB, p95 68 MB; HyperLevelDB mean 13.3 MB, median/p90/p95 ~16.6 MB.",
                "Expected shape: PebblesDB has fewer files with a skewed size distribution (median < mean, large p90/p95); the baseline clusters at the file-size target.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "table5_2_update_throughput",
            title: "Table 5.2: insert + two update rounds".to_string(),
            keys: 60_000,
            variants: stores(),
            scenarios: one(vec![
                Phase::micro(FillRandom),
                Phase::micro(Overwrite),
                Phase::micro(Overwrite),
            ]),
            table: Table::PerRun(
                "store",
                kops_cols(&["insert KOps/s", "update round 1", "update round 2"]),
            ),
            notes: vec![
                "Paper (50M x 1 KiB): PebblesDB 56/48/43 KOps/s, HyperLevelDB 40/25/20, LevelDB 22/12/12, RocksDB 14/8/7.",
                "Expected shape: PebblesDB highest in every round and with the smallest relative drop between the insert round and update round 2.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "table5_4_memory",
            title: "Table 5.4 / §5.5: store-controlled memory (memtables + bloom filters + block cache) and compaction CPU".to_string(),
            keys: 60_000,
            variants: stores(),
            scenarios: one(vec![
                Phase::micro(FillRandom).flushed(),
                Phase::micro(ReadRandom).share(1, 4),
                Phase::micro(SeekRandom).share(1, 8),
            ]),
            table: Table::PerRun(
                "store",
                (["mem after writes", "mem after reads", "mem after seeks"].iter().enumerate())
                    .map(|(i, header)| {
                        col(header, move |o| format_mib(o[0].phases[i].after.memory_usage_bytes))
                    })
                    .chain([col("compaction share", |o| {
                        let share = o[0].stats.compaction_micros as f64 / (o[0].seconds * 1e6);
                        format!("{}x of wall clock", format_ratio(share))
                    })])
                    .collect(),
            ),
            notes: vec![
                "Paper (Table 5.4, MB): writes P=434 H=159 R=896; reads P=500 H=154 R=36; seeks P=430 H=111 R=34. §5.5: PebblesDB compaction CPU ~171% vs ~100%.",
                "Expected shape: PebblesDB uses more store-controlled memory than HyperLevelDB (bloom filters + larger caches kept hot) and spends relatively more time compacting.",
            ],
            ..Experiment::default()
        },
        Experiment {
            name: "ablation_optimizations",
            title: "§5.2 ablation: PebblesDB read-side optimizations".to_string(),
            keys: 50_000,
            value_size: 512,
            // Each row keeps what the one above it turned on.
            variants: vec![
                Variant::new("no optimizations", PebblesDb, Engine, |o, _| {
                    o.bloom_bits_per_key = 0;
                    o.seek_compaction_threshold = 0;
                    o.enable_aggressive_compaction = false;
                }),
                Variant::new("+ sstable bloom filters", PebblesDb, Engine, |o, _| {
                    o.seek_compaction_threshold = 0;
                    o.enable_aggressive_compaction = false;
                }),
                Variant::new("+ seek compaction", PebblesDb, Engine, |o, _| {
                    o.enable_aggressive_compaction = false;
                }),
                Variant::new("full PebblesDB", PebblesDb, Engine, plain),
            ],
            scenarios: one(fill_read_seek(RangeQuery { nexts: 20 })),
            table: Table::PerRun("configuration", write_read_seek()),
            notes: vec![
                "Rows add bloom filters (reads), then seek-triggered compaction (seeks), then aggressive compaction (full PebblesDB).",
                "Paper: without optimisations range queries lose 66%, seek-based compaction alone cuts that to 7%; bloom filters improve reads by 63%. Its parallel seeks (66% -> 48%) are left out here: see README, deviations.",
            ],
            ..Experiment::default()
        },
        // fillrandom with the preset's background threads and with none
        // (`compaction_threads = 0`: every flush and compaction runs on the
        // writing thread, and the tree is a function of the keys).
        Experiment {
            name: "zero_workers",
            title: "fillrandom with and without background threads".to_string(),
            keys: 50_000,
            variants: vec![
                Variant::new("pebblesdb", PebblesDb, Engine, plain),
                Variant::new("pebblesdb, 0 workers", PebblesDb, Engine, |o, _| {
                    o.compaction_threads = 0
                }),
                Variant::new("hyperleveldb", HyperLevelDb, Engine, plain),
                Variant::new("hyperleveldb, 0 workers", HyperLevelDb, Engine, |o, _| {
                    o.compaction_threads = 0
                }),
            ],
            scenarios: one(vec![Phase::micro(FillRandom).flushed()]),
            table: Table::PerRun(
                "store",
                vec![
                    kops("fillrandom KOps/s", 0, 0),
                    col("write IO", |o| format_mib(o[0].stats.bytes_written)),
                    col("write amp", |o| format_ratio(o[0].stats.write_amplification())),
                    col("compactions", |o| o[0].stats.compactions.to_string()),
                ],
            ),
            notes: vec![
                "With 0 workers two runs over the same keys leave byte-identical stores; the paper's multi-threaded compaction (§4) is the >= 1 case.",
            ],
            ..Experiment::default()
        },
        // fillrandom across value sizes, key-value separation off vs on, a
        // fresh store per cell. The logical volume per cell is constant
        // (`--keys` pairs of `--value-size` bytes, 8 MiB by default), so the
        // write-amp columns compare like with like: with separation on,
        // compaction rewrites 20-byte pointers instead of the values.
        Experiment {
            name: "value-sweep",
            title: format!(
                "value-size sweep — {} (fillrandom at the volume of these keys, separation at --sweep-threshold)",
                sweep_engine.name()
            ),
            keys: 8_066,
            variants: vec![
                Variant::new("off", sweep_engine, Engine, plain),
                Variant::new("on", sweep_engine, Engine, |o, p| {
                    o.value_separation_threshold = p.args.get_u64("sweep-threshold", 512) as usize
                }),
            ],
            scenarios: [64usize, 256, 1024, 4096, 16384, 65536]
                .into_iter()
                .map(|size| Scenario {
                    // 16-byte keys, constant volume: more ops at small sizes.
                    adjust: Box::new(move |p| {
                        let volume = p.shape.keys * (16 + p.shape.value_size as u64);
                        p.shape.value_size = size;
                        p.shape.keys = (volume / (16 + size as u64)).max(64);
                    }),
                    ..scenario(&format!("{size} B"), vec![Phase::micro(FillRandom)])
                })
                .collect(),
            table: Table::PerScenario(
                "value size",
                vec![
                    col("ops", |o| o[0].phases[0].driven.operations.to_string()),
                    kops("off KOps/s", 0, 0),
                    col("off write amp", |o| format_ratio(o[0].phases[0].write_amplification())),
                    kops("on KOps/s", 1, 0),
                    col("on write amp", |o| format_ratio(o[1].phases[0].write_amplification())),
                    col("amp off/on", |o| {
                        let amp = |i: usize| o[i].phases[0].write_amplification();
                        times(amp(0), amp(1))
                    }),
                ],
            ),
            notes: vec![
                "'write amp' is store bytes written per logical byte (WAL + vlog + sstables over key+value bytes).",
                "Separation only applies to values of at least the threshold (default 512 B); smaller rows are the no-regression control.",
            ],
            ..Experiment::default()
        },
        // fillrandom + readrandom at two compressibilities, block/vlog
        // compression off vs on, a fresh store per cell; reads run against a
        // cache warmed by one full scan.
        Experiment {
            name: "compression-sweep",
            title: format!(
                "compression sweep — {} (fillrandom + readrandom)",
                sweep_engine.name()
            ),
            keys: 20_000,
            variants: vec![
                Variant::new("off", sweep_engine, Engine, cache_the_working_set),
                Variant::new("on", sweep_engine, Engine, |o, p| {
                    cache_the_working_set(o, p);
                    o.compression = CompressionType::Lz;
                }),
            ],
            scenarios: [0.25f64, 1.0]
                .into_iter()
                .map(|compressibility| Scenario {
                    adjust: Box::new(move |p| p.shape.compressibility = compressibility),
                    ..scenario(
                        &format!("{compressibility}"),
                        vec![
                            Phase::micro(FillRandom).flushed(),
                            Phase::micro(ReadSeq).share(0, 1).untimed(),
                            Phase::micro(ReadRandom).share(1, 2),
                        ],
                    )
                })
                .collect(),
            table: Table::PerScenario(
                "compressibility",
                vec![
                    kops("off fill KOps/s", 0, 0),
                    col("off write IO", |o| format_mib(o[0].phases[0].delta(|s| s.bytes_written))),
                    kops("on fill KOps/s", 1, 0),
                    col("on write IO", |o| format_mib(o[1].phases[0].delta(|s| s.bytes_written))),
                    col("bytes ratio", |o| {
                        let written = |i: usize| o[i].phases[0].delta(|s| s.bytes_written) as f64;
                        times(written(0), written(1))
                    }),
                    kops("off read KOps/s", 0, 1),
                    kops("on read KOps/s", 1, 1),
                ],
            ),
            notes: vec![
                "'bytes ratio' is device bytes written with compression off over on: >1 means the codec saved real IO.",
                "Compressibility is the fraction an ideal codec shrinks each value to; 1.0 is fully random (the no-regression control).",
            ],
            ..Experiment::default()
        },
    ]
}

/// Opens `variant`'s store for one scenario: a fresh environment, the
/// variant's options, and its application layer over the engine.
fn open_variant(variant: &Variant, p: &Params) -> Result<(Opened, Arc<dyn KvStore>)> {
    let (env_kind, dir_flag) = (p.args.get_str("env", "mem"), p.args.get_str("dir", ""));
    let write_latency_us = p.args.get_u64("write-latency-us", 0);
    let (env, dir) = open_env(&env_kind, variant.label, &dir_flag, write_latency_us);
    let opened = open_store(variant.engine, env, &dir, variant.options(p), None)?;
    let db: Arc<dyn Db> = Arc::clone(&opened.db);
    let latency = p.args.get_u64("app-latency-micros", 20);
    let store: Arc<dyn KvStore> = match variant.layer {
        Layer::Engine => db,
        Layer::HyperDex => Arc::new(HyperDexLike::new(db, latency)?),
        Layer::Mongo => Arc::new(MongoLike::new(db, latency)?),
    };
    Ok((opened, store))
}

/// Takes a fresh store of `variant` through `phases`.
fn run_cell(variant: &Variant, phases: &[Phase], p: &Params) -> Result<Outcome> {
    let stores = [open_variant(variant, p)?.1];
    let store = &stores[0];
    let start = Instant::now();
    let mut timed = Vec::new();
    for phase in phases {
        let ops = (p.shape.keys * phase.share.0 / phase.share.1).max(1);
        let mut shape = p.shape.clone();
        if phase.threads > 0 {
            shape.threads = phase.threads;
        }
        let result = phase.workload.run(&stores, ops, &shape)?;
        if phase.flush {
            store.flush()?;
        }
        if phase.timed {
            timed.push(result);
        }
    }
    store.flush()?;
    let mut file_sizes = store.live_file_sizes();
    file_sizes.sort_unstable();
    Ok(Outcome {
        phases: timed,
        stats: store.stats(),
        file_sizes,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs `exp` with its defaults overridden by `args` and returns its table.
pub fn run_experiment(exp: &Experiment, args: &Args) -> Result<Report> {
    let base = Params::resolve(exp, args);
    // A per-run table over several scenarios says which one each row is.
    let by_scenario = matches!(exp.table, Table::PerRun(..)) && exp.scenarios.len() > 1;
    let headers: Vec<String> = match &exp.table {
        Table::PerRun(first, cols) | Table::PerScenario(first, cols) => {
            (std::iter::once(first.to_string()))
                .chain(by_scenario.then(|| "workload".to_string()))
                .chain(cols.iter().map(|c| c.header.clone()))
                .collect()
        }
        Table::PerPhase => {
            let stores = exp.variants.iter();
            row("workload", stores.map(|v| format!("{} KOps/s", v.label)))
        }
        Table::Custom(headers, _) => headers.iter().map(|h| h.to_string()).collect(),
    };
    let title = format!(
        "{} ({} keys, {} B values, {} threads)",
        exp.title, base.shape.keys, base.shape.value_size, base.shape.threads
    );
    let mut report = Report::new(&title, headers);

    // One fresh store per (scenario, variant).
    let mut grid: Vec<Vec<Outcome>> = Vec::new();
    for scenario in &exp.scenarios {
        let mut p = base.clone();
        (scenario.adjust)(&mut p);
        if let Table::Custom(_, run) = exp.table {
            run(&p, &open_variant(&exp.variants[0], &p)?.0, &mut report)?;
            continue;
        }
        let cells = exp.variants.iter();
        let cells = cells.map(|variant| run_cell(variant, &scenario.phases, &p));
        grid.push(cells.collect::<Result<_>>()?);
    }

    match &exp.table {
        Table::PerRun(_, cols) => {
            for (v, variant) in exp.variants.iter().enumerate() {
                for (scenario, outcomes) in exp.scenarios.iter().zip(&grid) {
                    let labels = std::iter::once(variant.label.to_string())
                        .chain(by_scenario.then(|| scenario.label.clone()));
                    let cells = cols.iter().map(|c| (c.cell)(&outcomes[v..=v]));
                    report.add_row(labels.chain(cells).collect());
                }
            }
        }
        Table::PerScenario(_, cols) => {
            for (scenario, outcomes) in exp.scenarios.iter().zip(&grid) {
                let cells = cols.iter().map(|c| (c.cell)(outcomes));
                report.add_row(row(&scenario.label, cells));
            }
        }
        Table::PerPhase => {
            let outcomes = &grid[0];
            for (i, phase) in outcomes[0].phases.iter().enumerate() {
                let cells = outcomes.iter().map(|o| o.phases[i].kops());
                report.add_row(row(&phase.name, cells));
            }
            let io = outcomes.iter().map(|o| format_mib(o.stats.bytes_written));
            report.add_row(row("Total write IO", io));
        }
        Table::Custom(..) => {}
    }
    for note in &exp.notes {
        report.add_note(note);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn flags(extra: &[&str]) -> Args {
        let argv = ["db_bench", "--keys", "2000", "--iterations", "3"];
        let argv = argv.iter().chain(extra).map(|s| s.to_string());
        Args::parse_from(argv.collect(), DB_BENCH_USAGE).unwrap()
    }

    /// The column headers the binary each row replaced printed (minus the
    /// LevelDB series, which was the HyperLevelDB configuration twice).
    const HEADERS: &[(&str, &str, &[&str])] = &[
        (
            "fig1_write_amp",
            "",
            &[
                "store",
                "user data",
                "write IO",
                "write amp",
                "compaction read",
                "compaction written",
            ],
        ),
        (
            "fig5_1_micro",
            "b",
            &[
                "store",
                "fillseq KOps/s",
                "fillrandom KOps/s",
                "readrandom KOps/s",
                "seekrandom KOps/s",
                "deleterandom KOps/s",
                "write IO",
            ],
        ),
        (
            "fig5_1_micro",
            "c",
            &[
                "store",
                "fillrandom KOps/s",
                "readrandom KOps/s",
                "readwhilewriting KOps/s",
                "write IO",
            ],
        ),
        (
            "fig5_1_micro",
            "d",
            &[
                "store",
                "fillrandom KOps/s",
                "readrandom KOps/s",
                "seekrandom KOps/s",
                "write IO",
            ],
        ),
        (
            "fig5_1_micro",
            "e",
            &[
                "store",
                "fillrandom KOps/s",
                "readrandom KOps/s",
                "seekrandom KOps/s",
                "write IO",
            ],
        ),
        (
            "fig5_2_env",
            "aged",
            &["store", "write KOps/s", "read KOps/s", "seek KOps/s"],
        ),
        (
            "fig5_2_env",
            "lowmem",
            &["store", "write KOps/s", "read KOps/s", "seek KOps/s"],
        ),
        (
            "fig5_3_space_amp",
            "",
            &[
                "store",
                "workload",
                "user data",
                "live on disk",
                "space amp",
            ],
        ),
        (
            "fig5_4_timeseries",
            "",
            &[
                "iteration",
                "write KOps/s",
                "read KOps/s",
                "stall ms",
                "empty guards",
            ],
        ),
        (
            "fig5_5_ycsb",
            "",
            &[
                "workload",
                "PebblesDB KOps/s",
                "HyperLevelDB KOps/s",
                "RocksDB KOps/s",
            ],
        ),
        (
            "fig5_6_apps",
            "hyperdex",
            &["workload", "HyperLevelDB KOps/s", "PebblesDB KOps/s"],
        ),
        (
            "fig5_6_apps",
            "mongo",
            &[
                "workload",
                "BTree KOps/s",
                "RocksDB KOps/s",
                "PebblesDB KOps/s",
            ],
        ),
        (
            "table5_1_sstable_sizes",
            "",
            &[
                "store",
                "files",
                "mean KiB",
                "median KiB",
                "p90 KiB",
                "p95 KiB",
            ],
        ),
        (
            "table5_2_update_throughput",
            "",
            &["store", "insert KOps/s", "update round 1", "update round 2"],
        ),
        (
            "table5_4_memory",
            "",
            &[
                "store",
                "mem after writes",
                "mem after reads",
                "mem after seeks",
                "compaction share",
            ],
        ),
        (
            "ablation_optimizations",
            "",
            &[
                "configuration",
                "write KOps/s",
                "read KOps/s",
                "seek KOps/s",
            ],
        ),
        (
            "zero_workers",
            "",
            &[
                "store",
                "fillrandom KOps/s",
                "write IO",
                "write amp",
                "compactions",
            ],
        ),
        (
            "value-sweep",
            "",
            &[
                "value size",
                "ops",
                "off KOps/s",
                "off write amp",
                "on KOps/s",
                "on write amp",
                "amp off/on",
            ],
        ),
        (
            "compression-sweep",
            "",
            &[
                "compressibility",
                "off fill KOps/s",
                "off write IO",
                "on fill KOps/s",
                "on write IO",
                "bytes ratio",
                "off read KOps/s",
                "on read KOps/s",
            ],
        ),
    ];

    /// Every named experiment runs end to end at `--keys 2000` on `MemEnv`
    /// and prints its figure's columns with a row (or column) per variant.
    #[test]
    fn every_experiment_runs_and_prints_its_figures_columns() {
        let args = flags(&[]);
        let table = experiments(EngineKind::PebblesDb);
        let named: Vec<_> = table.iter().map(|e| (e.name, e.part)).collect();
        let expected: Vec<_> = HEADERS.iter().map(|h| (h.0, h.1)).collect();
        assert_eq!(
            named, expected,
            "one HEADERS entry per experiment, in order"
        );

        for (exp, (_, _, headers)) in table.iter().zip(HEADERS) {
            let report = run_experiment(exp, &args).unwrap();
            let id = format!("{} {}", exp.name, exp.part);
            assert_eq!(report.columns, *headers, "{id}");
            assert!(
                report.rows.iter().all(|row| row.len() == headers.len()),
                "{id}"
            );
            let rows = match &exp.table {
                Table::PerRun(..) => exp.variants.len() * exp.scenarios.len(),
                Table::PerScenario(..) => exp.scenarios.len(),
                Table::PerPhase => exp.scenarios[0].phases.len() + 1,
                Table::Custom(..) => 3,
            };
            assert_eq!(report.rows.len(), rows, "{id}");
            let rendered = report.render();
            for variant in &exp.variants {
                let shown =
                    matches!(exp.table, Table::Custom(..)) || rendered.contains(variant.label);
                assert!(shown, "{id}: no row or column for {}", variant.label);
            }
            for note in &exp.notes {
                assert!(rendered.contains(note), "{id}");
            }
            // Every cell of a throughput column is a number above zero.
            for (c, header) in headers.iter().enumerate() {
                for row in report.rows.iter().filter(|_| header.ends_with("KOps/s")) {
                    let cell = &row[c];
                    let measured = cell.parse::<f64>().is_ok_and(|kops| kops > 0.0);
                    assert!(measured || cell.ends_with("MiB"), "{id}: {header} = {cell}");
                }
            }
        }
    }

    /// No figure reports run-to-run noise as a store difference: within one
    /// experiment no two variants open the same engine code with the same
    /// options behind the same layer (the old LevelDB and HyperLevelDB rows
    /// did).
    #[test]
    fn no_two_rows_of_a_figure_are_the_same_configuration() {
        let args = flags(&[]);
        for exp in experiments(EngineKind::PebblesDb) {
            let params = Params::resolve(&exp, &args);
            let mut seen = HashSet::new();
            for variant in &exp.variants {
                let tree = match variant.engine {
                    EngineKind::PebblesDb | EngineKind::PebblesDb1 => "flsm",
                    EngineKind::HyperLevelDb | EngineKind::RocksDb => "lsm",
                    EngineKind::BTree => "btree",
                };
                let options = format!("{:?}", variant.options(&params));
                assert!(
                    seen.insert((tree, options, format!("{:?}", variant.layer))),
                    "{} {}: {} repeats an earlier row",
                    exp.name,
                    exp.part,
                    variant.label
                );
            }
        }
        // ... and the store lists the figures draw from have no twins either.
        let presets: HashSet<_> = (EngineKind::PAPER_STORES.into_iter())
            .map(|kind| format!("{:?}", scaled_options(kind, 16)))
            .collect();
        assert_eq!(presets.len(), EngineKind::PAPER_STORES.len());
    }

    /// `--threads`, `--value-size` and `--scale-divisor` reach the stores.
    #[test]
    fn flags_override_an_experiments_defaults() {
        let table = experiments(EngineKind::HyperLevelDb);
        let sweep = table
            .iter()
            .find(|e| e.name == "compression-sweep")
            .unwrap();
        assert!(sweep.title.contains("HyperLevelDB"));
        assert!(sweep
            .variants
            .iter()
            .all(|v| v.engine == EngineKind::HyperLevelDb));

        let exp = &table[0];
        let no_flags = Args::parse_from(vec![], DB_BENCH_USAGE).unwrap();
        let defaults = Params::resolve(exp, &no_flags);
        assert_eq!(
            (defaults.shape.keys, defaults.shape.value_size),
            (200_000, 128)
        );
        assert_eq!(defaults.scale_divisor, 64);
        let args = flags(&[
            "--threads",
            "3",
            "--value-size",
            "64",
            "--scale-divisor",
            "8",
        ]);
        let p = Params::resolve(exp, &args);
        let shape = &p.shape;
        assert_eq!((shape.keys, shape.threads, shape.value_size), (2000, 3, 64));
        assert_eq!(p.scale_divisor, 8);
        assert_eq!(exp.variants[0].options(&p).write_buffer_size, (4 << 20) / 8);
    }
}
