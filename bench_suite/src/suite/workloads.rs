//! The five workloads. `BENCHMARK.md` says why each exists and which layers
//! it does and does not exercise.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{Error, KvStore, ReadOptions, Result, StoreStats};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_server::{RespClient, Server, ServerConfig};

use super::affinity::{self, Cpus};
use super::gen::{
    bench_key, hot_set, key_index, preload_order, stream_rng, value_key, value_op, Stream,
    ValueGen, ENTRY_BYTES,
};
use super::measure::{
    counted_slices, is_traced_slice, median, percentile_us, run_slice, timed_slices, Checks,
    OpContext, Requests, Samples, SliceEnd, Watchdog, SLICES,
};
use super::metrics::Metrics;
use super::probes;
use super::stores::{close_in_background, closed_by, Engine, Store};
use super::timed_env::{CellTotals, EnvTotals, FileClass, IoKind, TimedEnv};
use super::trace::{write_trace_file, OpKind, Tracer};

/// The workloads, by their fixed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Random puts from one thread into an empty store, then reopen and
    /// verify.
    WriteHeavy,
    /// Uniform point reads of a store far larger than the block cache.
    ReadPoint,
    /// Cursor creation, seek and fifty `next`s over the same store.
    RangeScan,
    /// Reads of a cache-resident hot set beside a paced writer.
    ReadWhileWriting,
    /// GETs and SETs from two RESP connections to an in-process server.
    NetMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 5] = [
        Workload::WriteHeavy,
        Workload::ReadPoint,
        Workload::RangeScan,
        Workload::ReadWhileWriting,
        Workload::NetMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteHeavy => "write_heavy",
            Workload::ReadPoint => "read_point",
            Workload::RangeScan => "range_scan",
            Workload::ReadWhileWriting => "read_while_writing",
            Workload::NetMixed => "net_mixed",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WriteHeavy => "Puts only: commit queue, WAL, memtable, flush and compaction do all the work and the read path none; write and space amplification are judged here.",
            Workload::ReadPoint => "Uniform gets over a store 6x the block cache: version lookup, bloom filters, table cache and sstable reads; no writes and no compaction run.",
            Workload::RangeScan => "Cursor, seek and 50 nexts over the same store: the layers read_point probes, used as iterators; the paper's stated FLSM weak spot.",
            Workload::ReadWhileWriting => "Gets over a cache-resident hot set beside a paced writer: contention on the store-wide state mutex, where a read-side gain that costs writers shows.",
            Workload::NetMixed => "GET/SET over two RESP connections to an in-process server: the only workload where codec, connection layer and Session do work.",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the measured phase ends after a time (and its throughput
    /// and median latency are a quiet slice's) or after a number of
    /// operations (and its throughput is that number over the time they
    /// took: a stall is part of what the work cost).
    fn bound_by_time(self) -> bool {
        self != Workload::WriteHeavy
    }

    /// The root spans whose self times add up to one operation's.
    fn op_kinds(self) -> &'static [OpKind] {
        match self {
            Workload::WriteHeavy => &[OpKind::Put],
            Workload::ReadPoint | Workload::ReadWhileWriting => &[OpKind::Get],
            Workload::RangeScan => &[OpKind::Seek, OpKind::IterNew, OpKind::Next50],
            Workload::NetMixed => &[OpKind::NetCmd],
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generator.
    pub seed: u64,
    /// Seconds the measured phases of both engines take together.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where the traced run writes its span records.
    pub trace_out: Option<PathBuf>,
    /// Tiny datasets, for tests.
    pub quick: bool,
    /// How long a store may take to close before it is left behind
    /// ([`CLOSE_BOUND`](super::stores::CLOSE_BOUND) outside tests).
    pub close_bound: Duration,
    /// Runs on the helper thread before it closes a store; lets a test make
    /// closes hang the way `EngineShared::drop` can.
    pub before_close: Option<fn()>,
}

/// Dataset sizes and rates.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Keys every workload but `write_heavy` preloads.
    preload_keys: u64,
    /// Keys in the hot set of `read_while_writing`. Drawn at random they
    /// lie in about as many 4 KiB blocks, four keys to the block: 256 keys
    /// take 1 MiB of the 2 MiB block cache and stay resident. (1,024 keys
    /// would take 3.5 MiB; the reads then miss the cache more often than
    /// they hit it, and the workload is a second `read_point`.)
    hot_keys: usize,
    /// Puts of `write_heavy` per second of `--seconds`, per engine.
    write_ops_per_second: u64,
    /// Puts per second of the paced writer.
    paced_puts_per_second: u64,
    /// Untimed warm-up before each read-type phase.
    warmup: Duration,
    /// Times the untraced run sets each engine up; `setup_s` is the median.
    setup_reps: usize,
    /// How long each component probe runs.
    probe: Duration,
}

impl Scale {
    fn of(cfg: &RunConfig) -> Scale {
        if cfg.quick {
            Scale {
                preload_keys: 3_000,
                hot_keys: 128,
                write_ops_per_second: 6_000,
                paced_puts_per_second: 2_000,
                warmup: Duration::from_millis(20),
                setup_reps: 2,
                probe: Duration::from_millis(5),
            }
        } else {
            Scale {
                preload_keys: 12_000,
                hot_keys: 256,
                write_ops_per_second: 24_000,
                paced_puts_per_second: 4_000,
                warmup: Duration::from_secs(1),
                setup_reps: 6,
                probe: Duration::from_millis(200),
            }
        }
    }
}

/// Connections (and load threads) of `net_mixed`: the box has two cores.
const NET_CONNECTIONS: u64 = 2;
/// Entries a range scan reads after its seek.
const SCAN_NEXTS: usize = 50;
/// See [`Bench::set_up_empty`].
const EMPTY_SETUP_REPS: usize = 32;
/// Budget the watchdog gives phases that are bounded by work, not time.
const WORK_PHASE_BUDGET: Duration = Duration::from_secs(30);

/// What one run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Every metric measured, by name.
    pub metrics: Metrics,
}

/// A store together with the environment it lives on.
struct Opened {
    store: Store,
    env: Arc<dyn Env>,
    mem: MemEnv,
    traced: Option<(Arc<TimedEnv>, Arc<Tracer>)>,
}

const DB_DIR: &str = "/bench/db";

impl Opened {
    fn tracer(&self) -> Option<&Tracer> {
        self.traced.as_ref().map(|(_, tracer)| tracer.as_ref())
    }
}

/// What one store's measured phase produced.
struct Phase {
    samples: Samples,
    before: Baseline,
    paced: Option<PacedReport>,
}

/// Counters read when a measured phase starts.
struct Baseline {
    stats: StoreStats,
    env: Option<EnvTotals>,
}

impl Baseline {
    fn of(opened: &Opened) -> Baseline {
        Baseline {
            stats: opened.store.kv().stats(),
            env: opened.traced.as_ref().map(|(env, _)| env.totals()),
        }
    }
}

struct Bench<'a> {
    cfg: &'a RunConfig,
    cpus: Option<Cpus>,
    scale: Scale,
    watchdog: Watchdog,
    checks: Checks,
    metrics: Metrics,
    setup_secs: f64,
    overhead_ratios: Vec<f64>,
    tracers: Vec<(Engine, Arc<Tracer>)>,
    closing: Vec<(Engine, Receiver<()>)>,
    hung_closes: [u64; 2],
    busy_replies: u64,
    rejected_connections: u64,
}

/// Runs the workload `cfg` names on both engines.
pub fn run(cfg: &RunConfig) -> Result<RunOutcome> {
    let cpus = affinity::pick();
    println!(
        "# processors: {} available; load threads on {:?}, stores and servers on {:?}",
        std::thread::available_parallelism().map_or(0, usize::from),
        cpus.map(|c| c.load),
        cpus.map(|c| c.store)
    );
    // This thread issues operations (or spawns the threads that do).
    if let Some(cpus) = cpus {
        affinity::pin(cpus.load);
    }
    let mut bench = Bench {
        cfg,
        cpus,
        scale: Scale::of(cfg),
        watchdog: Watchdog::start(),
        checks: Checks::new(cfg.seed),
        metrics: Metrics::default(),
        setup_secs: 0.0,
        overhead_ratios: Vec::new(),
        tracers: Vec::new(),
        closing: Vec::new(),
        hung_closes: [0; 2],
        busy_replies: 0,
        rejected_connections: 0,
    };
    match cfg.workload {
        // The time-bound workloads take turns on the stores of both engines.
        Workload::ReadPoint | Workload::RangeScan => bench.read_only()?,
        Workload::ReadWhileWriting => bench.read_while_writing()?,
        Workload::NetMixed => bench.net_mixed()?,
        // One fill per engine, one engine after the other.
        Workload::WriteHeavy => Engine::BOTH
            .into_iter()
            .try_for_each(|e| bench.write_heavy(e))?,
    }
    bench.finish()
}

fn mib(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

impl Bench<'_> {
    fn per_engine_seconds(&self) -> f64 {
        self.cfg.seconds / Engine::BOTH.len() as f64
    }

    fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.per_engine_seconds() / SLICES as f64)
    }

    /// Opens a fresh store of `engine` and loads `preload` into it, as often
    /// as the run's set-up repetitions say. Returns every store built, and
    /// adds the median set-up time to `setup_s`.
    fn set_up_all(&mut self, engine: Engine, preload: &[u64]) -> Result<Vec<Opened>> {
        let reps = if self.cfg.trace {
            1
        } else {
            self.scale.setup_reps
        };
        let mut secs = Vec::with_capacity(reps);
        let built = (0..reps)
            .map(|_| self.build_store(engine, preload, &mut secs))
            .collect::<Result<Vec<_>>>()?;
        self.setup_secs += median(&secs);
        Ok(built)
    }

    /// One set-up: a fresh `MemEnv` (under a `TimedEnv` in the traced run),
    /// a store opened on it, `preload` written and flushed. Pushes the time
    /// it took onto `secs`.
    fn build_store(
        &mut self,
        engine: Engine,
        preload: &[u64],
        secs: &mut Vec<f64>,
    ) -> Result<Opened> {
        self.watchdog.phase("set-up", WORK_PHASE_BUDGET);
        let mem = MemEnv::new();
        let traced = self.cfg.trace.then(|| {
            let tracer = Arc::new(Tracer::new());
            let env = Arc::new(TimedEnv::new(Arc::new(mem.clone()), Arc::clone(&tracer)));
            self.tracers.push((engine, Arc::clone(&tracer)));
            (env, tracer)
        });
        let env: Arc<dyn Env> = match &traced {
            Some((env, _)) => Arc::clone(env) as Arc<dyn Env>,
            None => Arc::new(mem.clone()),
        };
        let started = Instant::now();
        let store =
            self.on_store_cpu(|| Store::open(engine, Arc::clone(&env), Path::new(DB_DIR)))?;
        let kv = store.kv();
        let mut values = ValueGen::new(self.cfg.seed, 0);
        let mut value = Vec::new();
        for (op, key) in preload.iter().enumerate() {
            values.fill(&mut value, *key, op as u64);
            kv.put(&bench_key(*key), &value)?;
        }
        kv.flush()?;
        secs.push(started.elapsed().as_secs_f64());
        drop(kv);
        Ok(Opened {
            store,
            env,
            mem,
            traced,
        })
    }

    /// The set-up of `write_heavy`: an empty store. Opening one takes well
    /// under a millisecond, most of it spawning threads, so it is repeated
    /// [`EMPTY_SETUP_REPS`] times for a steady median. Each store is closed
    /// before the next is opened (an idle store's close cannot lose its
    /// wake-up), so that none is left closing beside the measured fill.
    fn set_up_empty(&mut self, engine: Engine) -> Result<Opened> {
        let reps = if self.cfg.trace { 1 } else { EMPTY_SETUP_REPS };
        let before = self.setup_secs;
        let mut secs = Vec::with_capacity(reps);
        for rep in 1..=reps {
            let opened = self.build_store(engine, &[], &mut secs)?;
            if rep == reps {
                self.setup_secs = before + median(&secs);
                return Ok(opened);
            }
            let closed = self.start_close(opened.store);
            if !closed_by(&closed, Instant::now() + self.cfg.close_bound) {
                self.hung_closes[engine as usize] += 1;
            }
        }
        unreachable!("the last repetition returns")
    }

    /// Runs `open` with the calling thread on the store processor, so that
    /// the threads it spawns stay there; then returns to the load processor.
    fn on_store_cpu<T>(&self, open: impl FnOnce() -> T) -> T {
        let Some(cpus) = self.cpus else {
            return open();
        };
        affinity::pin(cpus.store);
        let opened = open();
        affinity::pin(cpus.load);
        opened
    }

    fn start_close(&self, store: Store) -> Receiver<()> {
        let before_close = self.cfg.before_close;
        close_in_background(move || {
            if let Some(hook) = before_close {
                hook();
            }
            drop(store);
        })
    }

    /// Closes `opened` on a helper thread without waiting for it.
    fn close_later(&mut self, engine: Engine, opened: Opened) {
        let closed = self.start_close(opened.store);
        self.closing.push((engine, closed));
    }

    /// Closes the store, waiting at most the close bound, and opens it again
    /// on the same environment. Returns the reopened store and how long the
    /// open took.
    fn reopen(&mut self, engine: Engine, opened: Opened) -> Result<(Opened, f64)> {
        let bound = self.cfg.close_bound;
        self.watchdog.phase("reopen", bound + WORK_PHASE_BUDGET);
        let Opened {
            store,
            env,
            mem,
            traced,
        } = opened;
        let closed = self.start_close(store);
        if !closed_by(&closed, Instant::now() + bound) {
            eprintln!(
                "{}: the store did not close within {bound:?}; leaving it behind",
                engine.label()
            );
            self.hung_closes[engine as usize] += 1;
        } else if let Some((timed, _)) = &traced {
            // With the store closed nothing writes any more, so the
            // identity the per-layer numbers rest on can be checked
            // exactly: the file classes add up to the inner environment's
            // own counters, which are also the numerator of write
            // amplification.
            let (counted, inner) = (timed.totals(), mem.io_stats().snapshot());
            let appended = counted.sum_kind(IoKind::Append, |c| c.bytes as f64);
            let read = counted.sum_kind(IoKind::Read, |c| c.bytes as f64);
            if appended != inner.bytes_written as f64 || read != inner.bytes_read as f64 {
                return Err(Error::corruption(format!(
                    "{}: TimedEnv counted {appended} B written and {read} B read, IoStats {} and {}",
                    engine.label(),
                    inner.bytes_written,
                    inner.bytes_read
                )));
            }
        }
        let started = Instant::now();
        let store =
            self.on_store_cpu(|| Store::open(engine, Arc::clone(&env), Path::new(DB_DIR)))?;
        let millis = started.elapsed().as_secs_f64() * 1e3;
        Ok((
            Opened {
                store,
                env,
                mem,
                traced,
            },
            millis,
        ))
    }

    /// Checks a value read for `key`; `newest` is the operation number it
    /// must carry, when known.
    fn check_value(checks: &mut Checks, key: u64, value: Option<&[u8]>, newest: Option<u64>) {
        let found_key = value.and_then(value_key);
        let found_op = value.and_then(value_op);
        let wrong = found_key != Some(key) || newest.is_some_and(|op| found_op != Some(op));
        checks.check(wrong.then_some(|| {
            format!("key {key}: read key {found_key:?} op {found_op:?}, expected op {newest:?}")
        }));
    }

    // ------------------------------------------------------------ workloads

    fn write_heavy(&mut self, engine: Engine) -> Result<()> {
        let opened = self.set_up_empty(engine)?;
        let before = Baseline::of(&opened);
        let puts = ((self.per_engine_seconds() * self.scale.write_ops_per_second as f64) as u64)
            .max(SLICES as u64);
        let key_space = (puts / 2).max(1);
        self.watchdog.phase("write_heavy puts", WORK_PHASE_BUDGET);

        // `newest[key]` is the number of the last put to `key`.
        let mut newest: Vec<Option<u64>> = vec![None; key_space as usize];
        let mut keys = stream_rng(self.cfg.seed, Stream::Ops(0));
        let mut values = ValueGen::new(self.cfg.seed, 0);
        let mut value = Vec::new();
        let mut checks = Checks::new(self.cfg.seed);
        let kv = opened.store.kv();
        let samples = counted_slices(puts, opened.tracer(), &mut |ctx: OpContext| {
            let key = keys.gen_range(0..key_space);
            values.fill(&mut value, key, ctx.request);
            newest[key as usize] = Some(ctx.request);
            let (result, end) = ctx.span(OpKind::Put, || kv.put(&bench_key(key), &value));
            checks.check(
                result
                    .err()
                    .map(|err| move || format!("put of key {key}: {err}")),
            );
            end
        });
        kv.flush()?;
        let distinct = newest.iter().flatten().count() as u64;
        self.report_engine(engine, &[&opened], &before, &samples, distinct, None)?;
        drop(kv);

        // Acknowledged writes survive a reopen: every key must read back
        // with the newest operation number.
        let (opened, reopen_ms) = self.reopen(engine, opened)?;
        self.watchdog.phase("write_heavy verify", WORK_PHASE_BUDGET);
        let kv = opened.store.kv();
        for (key, newest) in newest.iter().enumerate() {
            if newest.is_some() {
                let value = kv.get(&bench_key(key as u64))?;
                Self::check_value(&mut checks, key as u64, value.as_deref(), *newest);
            }
        }
        drop(kv);
        self.checks.merge(checks);
        if self.cfg.trace {
            self.metrics.set_for(engine, "engine.reopen_ms", reopen_ms);
            if engine == Engine::Flsm {
                probes::write_path(&mut self.metrics, self.cfg.seed, self.scale.probe)?;
            }
        }
        self.close_later(engine, opened);
        Ok(())
    }

    /// `read_point` and `range_scan`. Every store the set-up built is
    /// measured: the phase goes round the stores of both engines [`SLICES`]
    /// times, a stretch on each, and an engine's samples are pooled. Stores
    /// differ in shape by the timing of their compactions, and pooling
    /// averages that out; going round spreads a stretch of outside noise
    /// over both engines alike.
    fn read_only(&mut self) -> Result<()> {
        let keys = self.scale.preload_keys;
        let scan = self.cfg.workload == Workload::RangeScan;
        let preload = preload_order(self.cfg.seed, keys);
        let mut checks = Checks::new(self.cfg.seed);

        struct Turn {
            engine: Engine,
            opened: Opened,
            kv: Arc<dyn KvStore>,
            key_rng: rand::rngs::StdRng,
            requests: Requests,
            samples: Samples,
        }
        let mut turns = Vec::new();
        for engine in Engine::BOTH {
            for (lane, opened) in self.set_up_all(engine, &preload)?.into_iter().enumerate() {
                turns.push(Turn {
                    engine,
                    kv: opened.store.kv(),
                    opened,
                    key_rng: stream_rng(self.cfg.seed, Stream::Ops(lane as u64)),
                    requests: Requests::lane(0, 1),
                    samples: Samples::default(),
                });
            }
        }
        let stretch = |turn: &mut Turn,
                       index: usize,
                       length: Duration,
                       tracer: Option<&Tracer>,
                       checks: &mut Checks| {
            let (kv, key_rng) = (turn.kv.as_ref(), &mut turn.key_rng);
            run_slice(
                index,
                SliceEnd::At(Instant::now() + length),
                tracer,
                &mut turn.requests,
                &mut |ctx: OpContext| {
                    let key = key_rng.gen_range(0..keys);
                    if scan {
                        scan_op(kv, key, keys, &ctx, checks)
                    } else {
                        get_op(kv, key, &ctx, checks)
                    }
                },
            )
        };

        // A stretch is one engine's share of a slice, divided among its stores.
        let stores_per_engine = (turns.len() / Engine::BOTH.len()) as u32;
        let per_turn = |per_engine: Duration| per_engine / stores_per_engine;
        self.watchdog
            .phase("warm-up", self.scale.warmup * Engine::BOTH.len() as u32);
        let warmup = per_turn(self.scale.warmup);
        for turn in &mut turns {
            stretch(turn, 0, warmup, None, &mut checks);
        }
        self.watchdog
            .phase("measured reads", Duration::from_secs_f64(self.cfg.seconds));
        let befores: Vec<Baseline> = turns.iter().map(|t| Baseline::of(&t.opened)).collect();
        let length = per_turn(self.slice());
        for index in 0..SLICES {
            for turn in &mut turns {
                let tracer = turn.opened.traced.as_ref().map(|(_, t)| Arc::clone(t));
                let slice = stretch(turn, index, length, tracer.as_deref(), &mut checks);
                turn.samples.slices.push(slice);
            }
        }
        self.checks.merge(checks);

        for engine in Engine::BOTH {
            let mut samples = Samples::default();
            for turn in turns.iter_mut().filter(|t| t.engine == engine) {
                samples.append(std::mem::take(&mut turn.samples));
            }
            let mine = || {
                turns
                    .iter()
                    .zip(&befores)
                    .filter(|(t, _)| t.engine == engine)
            };
            let stores: Vec<&Opened> = mine().map(|(t, _)| &t.opened).collect();
            let (_, before) = mine().next().expect("each engine has a store");
            self.report_engine(engine, &stores, before, &samples, keys, None)?;
        }
        for turn in turns {
            let Turn {
                engine, opened, kv, ..
            } = turn;
            drop(kv);
            self.finish_engine(engine, opened)?;
        }
        if self.cfg.trace {
            if scan {
                probes::scan_path(&mut self.metrics, self.cfg.seed, self.scale.probe)?;
            } else {
                probes::read_path(&mut self.metrics, self.cfg.seed, self.scale.probe)?;
            }
        }
        Ok(())
    }

    /// `read_while_writing` and `net_mixed`: runs `phase` on every store the
    /// set-up built, one after the other, each for its share of its engine's
    /// time, and pools an engine's samples. Stores differ by the timing of
    /// their compactions; pooling averages that out at no cost, since the
    /// set-up builds them anyway. The engines alternate store by store, so
    /// that each engine's slices span the whole run and a stretch of outside
    /// noise falls on both alike; a store is at rest again before the next
    /// one's turn.
    fn on_each_store(
        &mut self,
        mut phase: impl FnMut(&mut Self, Engine, &Opened, Duration, Duration) -> Result<Phase>,
    ) -> Result<()> {
        let keys = self.scale.preload_keys;
        let preload = preload_order(self.cfg.seed, keys);
        let mut stores = Vec::new();
        for engine in Engine::BOTH {
            stores.push(self.set_up_all(engine, &preload)?);
        }
        let share = stores[0].len();
        let length = Duration::from_secs_f64(self.per_engine_seconds()) / share as u32;
        let warmup = self.scale.warmup / share as u32;
        let mut pooled = Engine::BOTH.map(|_| Samples::default());
        let mut first = Engine::BOTH.map(|_| None);
        let turns =
            (0..share).flat_map(|turn| Engine::BOTH.map(|e| (e, &stores[e as usize][turn])));
        for (engine, opened) in turns {
            self.watchdog
                .phase(self.cfg.workload.name(), length + self.scale.warmup);
            let measured = phase(self, engine, opened, length, warmup)?;
            // Let the compactions the writes left behind finish, so that
            // amplification is read at rest, as on `write_heavy`, and the
            // next store has the processors to itself.
            opened.store.kv().flush()?;
            pooled[engine as usize].append(measured.samples);
            first[engine as usize].get_or_insert((measured.before, measured.paced));
        }
        for engine in Engine::BOTH {
            let (before, paced) = first[engine as usize]
                .take()
                .expect("at least one set-up repetition");
            let refs: Vec<&Opened> = stores[engine as usize].iter().collect();
            self.report_engine(
                engine,
                &refs,
                &before,
                &pooled[engine as usize],
                keys,
                paced,
            )?;
        }
        for (engine, stores) in Engine::BOTH.into_iter().zip(stores) {
            for opened in stores {
                self.finish_engine(engine, opened)?;
            }
        }
        Ok(())
    }

    fn read_while_writing(&mut self) -> Result<()> {
        let keys = self.scale.preload_keys;
        let hot = hot_set(self.cfg.seed, keys, self.scale.hot_keys);
        self.on_each_store(|bench, _, opened, length, warmup| {
            let kv = opened.store.kv();
            let mut checks = Checks::new(bench.cfg.seed);
            let mut key_rng = stream_rng(bench.cfg.seed, Stream::Ops(0));
            let mut read = |ctx: OpContext| {
                let key = hot[key_rng.gen_range(0..hot.len())];
                get_op(kv.as_ref(), key, &ctx, &mut checks)
            };

            // The warm-up doubles as the reader-alone reference for the
            // slowdown the writer causes.
            let alone = timed_slices(
                Instant::now(),
                warmup / SLICES as u32,
                None,
                &mut Requests::lane(0, 1),
                &mut read,
            );
            let alone_rate = alone.rate_where(|slice| slice >= SLICES / 2);

            let before = Baseline::of(opened);
            let start = Instant::now();
            let writer = PacedWriter {
                kv: opened.store.kv(),
                tracer: opened.traced.as_ref().map(|(_, t)| Arc::clone(t)),
                seed: bench.cfg.seed,
                keys,
                first_op: keys,
                rate: bench.scale.paced_puts_per_second,
                start,
                length,
            };
            let cpus = bench.cpus;
            let (samples, written) = std::thread::scope(|scope| {
                // The writer is paced and mostly asleep; it shares the
                // store's processor and leaves the reader's to the reader.
                let writer = scope.spawn(move || {
                    if let Some(cpus) = cpus {
                        affinity::pin(cpus.store);
                    }
                    writer.run()
                });
                // Even request ids: the writer's are odd.
                let samples = timed_slices(
                    start,
                    length / SLICES as u32,
                    opened.tracer(),
                    &mut Requests::lane(0, 2),
                    &mut read,
                );
                (
                    samples,
                    writer.join().expect("the paced writer does not panic"),
                )
            });
            bench.checks.merge(checks);
            bench.checks.merge(written.checks);
            let paced = PacedReport {
                put_p99_us: percentile_us(&written.sorted_from_due_ns, 99.0),
                max_lateness_ms: written.max_lateness.as_secs_f64() * 1e3,
                reader_slowdown: ratio(
                    samples.rate_where(|slice| !is_traced_slice(slice)),
                    alone_rate,
                ),
            };
            Ok(Phase {
                samples,
                before,
                paced: Some(paced),
            })
        })
    }

    fn net_mixed(&mut self) -> Result<()> {
        let keys = self.scale.preload_keys;
        self.on_each_store(|bench, engine, opened, length, warmup| {
            let server =
                bench.on_store_cpu(|| Server::start(opened.store.db(), ServerConfig::default()))?;
            let mut clients = Vec::new();
            for _ in 0..NET_CONNECTIONS {
                let mut client = RespClient::connect(server.local_addr())?;
                client.set_timeout(Some(Duration::from_secs(5)))?;
                clients.push(client);
            }

            let seed = bench.cfg.seed;
            let tracer = opened.tracer();
            let clock = std::sync::OnceLock::new();
            let warmed = std::sync::Barrier::new(NET_CONNECTIONS as usize);
            let per_connection: Vec<(Samples, Checks, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .enumerate()
                    .map(|(lane, mut client)| {
                        let (clock, warmed) = (&clock, &warmed);
                        scope.spawn(move || {
                            let lane = lane as u64;
                            let mut checks = Checks::new(seed);
                            let mut busy = 0u64;
                            let mut rng = stream_rng(seed, Stream::Ops(lane));
                            let mut values = ValueGen::new(seed, lane);
                            let mut value = Vec::new();
                            let mut command = |ctx: OpContext| {
                                let key = rng.gen_range(0..keys);
                                let set = rng.gen_bool(0.5);
                                // SETs carry `connection << 32 | request` as
                                // their operation number.
                                values.fill(&mut value, key, lane << 32 | ctx.request);
                                net_op(
                                    &mut client,
                                    key,
                                    set.then_some(&value),
                                    &ctx,
                                    &mut checks,
                                    &mut busy,
                                )
                            };
                            let mut requests = Requests::lane(lane, NET_CONNECTIONS);
                            timed_slices(
                                Instant::now(),
                                warmup / SLICES as u32,
                                None,
                                &mut requests,
                                &mut command,
                            );
                            // Both connections finish warming up before the
                            // counters are read and the shared clock starts.
                            warmed.wait();
                            let (start, _) =
                                clock.get_or_init(|| (Instant::now(), Baseline::of(opened)));
                            let samples = timed_slices(
                                *start,
                                length / SLICES as u32,
                                tracer,
                                &mut requests,
                                &mut command,
                            );
                            (samples, checks, busy)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a load connection does not panic"))
                    .collect()
            });
            let mut samples = Samples::default();
            for (lane_samples, lane_checks, lane_busy) in per_connection {
                samples.merge_parallel(lane_samples);
                bench.checks.merge(lane_checks);
                bench.busy_replies += lane_busy;
            }
            let (_, before) = clock.into_inner().expect("a connection started the clock");
            bench.rejected_connections += server
                .counters()
                .connections_rejected
                .load(Ordering::Relaxed);
            if bench.cfg.trace && engine == Engine::Flsm {
                let client_p50 = percentile_us(&samples.sorted_latencies(), 50.0);
                probes::wire_path(
                    &mut bench.metrics,
                    &opened.store,
                    keys,
                    client_p50,
                    seed,
                    bench.scale.probe,
                )?;
            }
            // The load connections are closed; a graceful shutdown joins
            // the server's threads, after which only `opened` holds the
            // store.
            server.shutdown();
            Ok(Phase {
                samples,
                before,
                paced: None,
            })
        })
    }

    // ------------------------------------------------------------ reporting

    /// Records what the measured phase of `engine` showed on `stores` (one,
    /// or every store the set-up built for the read-only workloads): the
    /// end-to-end metrics, and in the traced run — which has one store per
    /// engine — the per-layer ones since `before`.
    fn report_engine(
        &mut self,
        engine: Engine,
        stores: &[&Opened],
        before: &Baseline,
        samples: &Samples,
        distinct_keys: u64,
        paced: Option<PacedReport>,
    ) -> Result<()> {
        let label = engine.label();
        let ops = samples.ops() as f64;
        let sorted = samples.sorted_latencies();
        println!(
            "# {label}: {ops} latency samples over {} store(s)",
            stores.len()
        );
        if sorted.len() < 1000 && !self.cfg.quick {
            return Err(Error::invalid_argument(format!(
                "{label}: only {} latency samples; a p99 needs 1000 to have 10 beyond it",
                sorted.len()
            )));
        }

        let stats: Vec<StoreStats> = stores.iter().map(|o| o.store.kv().stats()).collect();
        let over_stores = |f: fn(&StoreStats) -> (u64, u64), scale: u64| {
            median(
                &stats
                    .iter()
                    .map(|s| ratio(f(s).0 as f64, (f(s).1 * scale) as f64))
                    .collect::<Vec<_>>(),
            )
        };
        // Slice by slice in the order measured: shows where a run was slowed.
        let per_slice: Vec<String> = samples
            .slices
            .iter()
            .map(|s| format!("{:.0}", ratio(s.latencies_ns.len() as f64, s.secs)))
            .collect();
        println!(
            "# {label} operations per second by slice: {}",
            per_slice.join(" ")
        );
        let (ops_s, p50_us) = if self.cfg.workload.bound_by_time() {
            (samples.quiet_rate(), samples.quiet_p50_us())
        } else {
            (samples.rate(), percentile_us(&sorted, 50.0))
        };
        self.metrics.set(format!("{label}_ops_s"), ops_s);
        self.metrics.set(format!("{label}_p50_us"), p50_us);
        self.metrics.set(
            format!("{label}_write_amp"),
            over_stores(|s| (s.bytes_written, s.user_bytes_written), 1),
        );
        self.metrics.set(
            format!("{label}_space_amp"),
            over_stores(|s| (s.disk_bytes_live, 1), distinct_keys * ENTRY_BYTES),
        );
        let (opened, after) = (stores[0], &stats[0]);
        let Some((env, tracer)) = &opened.traced else {
            return Ok(());
        };

        // --- the traced run: where the time and the bytes went.
        let mut set = |name: &str, value: f64| self.metrics.set_for(engine, name, value);
        set("engine.p95_us", percentile_us(&sorted, 95.0));
        set("engine.p99_us", percentile_us(&sorted, 99.0));
        let kinds = self.cfg.workload.op_kinds();
        let traced_ops = tracer.op_totals(kinds[0]).count as f64;
        let (mut self_ns, mut child_ns) = (0.0, 0.0);
        for kind in kinds {
            let totals = tracer.op_totals(*kind);
            self_ns += (totals.total_ns - totals.child_ns) as f64;
            child_ns += totals.child_ns as f64;
        }
        set("engine.op_self_us", ratio(self_ns, traced_ops) / 1e3);
        set("engine.op_env_wait_us", ratio(child_ns, traced_ops) / 1e3);
        let mean_us = |kind: OpKind| {
            let totals = tracer.op_totals(kind);
            ratio(totals.total_ns as f64, totals.count as f64) / 1e3
        };
        set("engine.iter_new_us", mean_us(OpKind::IterNew));
        set("engine.seek_us", mean_us(OpKind::Seek));
        set(
            "engine.next_us",
            mean_us(OpKind::Next50) / SCAN_NEXTS as f64,
        );

        let delta = |field: fn(&StoreStats) -> u64| (field(after) - field(&before.stats)) as f64;
        set("engine.flushes", delta(|s| s.flushes));
        set("engine.compactions", delta(|s| s.compactions));
        set(
            "engine.compaction_busy_ms",
            delta(|s| s.compaction_micros) / 1e3,
        );
        set(
            "engine.compaction_read_mib",
            mib(delta(|s| s.compaction_bytes_read)),
        );
        set(
            "engine.compaction_write_mib",
            mib(delta(|s| s.compaction_bytes_written)),
        );
        set("engine.write_stalls", delta(|s| s.write_stalls));
        set(
            "engine.write_stall_ms",
            delta(|s| s.write_stall_micros) / 1e3,
        );
        set(
            "engine.max_concurrent_compactions",
            after.max_concurrent_compactions as f64,
        );
        set("engine.memory_mib", mib(after.memory_usage_bytes as f64));
        let (hits, misses) = (
            delta(|s| s.block_cache_hits),
            delta(|s| s.block_cache_misses),
        );
        set("sstable.block_cache_hit_ratio", ratio(hits, hits + misses));
        set("sstable.block_cache_misses_per_op", ratio(misses, ops));
        let (hits, misses) = (
            delta(|s| s.table_cache_hits),
            delta(|s| s.table_cache_misses),
        );
        set("sstable.table_cache_hit_ratio", ratio(hits, hits + misses));
        set(
            "sstable.decompress_ms",
            delta(|s| s.decompress_micros) / 1e3,
        );

        let io = env
            .totals()
            .since(before.env.as_ref().expect("traced baseline"));
        let busy_ms = |cell: CellTotals| cell.busy_ns_estimate() / 1e6;
        let wal = |kind| io.get(FileClass::Wal, kind);
        let sst = |kind| io.get(FileClass::Sst, kind);
        set("env.wal_mib", mib(wal(IoKind::Append).bytes as f64));
        set("env.wal_append_ms", busy_ms(wal(IoKind::Append)));
        set("env.wal_syncs", wal(IoKind::Sync).calls as f64);
        set("env.wal_sync_ms", busy_ms(wal(IoKind::Sync)));
        set("env.sst_write_mib", mib(sst(IoKind::Append).bytes as f64));
        set(
            "env.sst_write_ms",
            busy_ms(sst(IoKind::Append)) + busy_ms(sst(IoKind::Sync)),
        );
        set("env.sst_read_mib", mib(sst(IoKind::Read).bytes as f64));
        set(
            "env.sst_reads_per_op",
            ratio(sst(IoKind::Read).calls as f64, ops),
        );
        set("env.sst_read_ms", busy_ms(sst(IoKind::Read)));
        set(
            "env.manifest_mib",
            mib(io.get(FileClass::Manifest, IoKind::Append).bytes as f64),
        );
        set(
            "env.manifest_ms",
            io.sum_class(FileClass::Manifest, |c| c.busy_ns_estimate()) / 1e6,
        );
        set(
            "env.files_created",
            io.sum_kind(IoKind::Create, |c| c.calls as f64),
        );
        set(
            "env.files_removed",
            io.sum_kind(IoKind::Remove, |c| c.calls as f64),
        );
        set(
            "env.dir_syncs",
            io.sum_kind(IoKind::DirSync, |c| c.calls as f64),
        );
        set(
            "engine.bg_env_busy_ms",
            io.sum_all(|c| c.background_ns_estimate()) / 1e6,
        );

        let paced = paced.unwrap_or_default();
        set("engine.put_p99_us", paced.put_p99_us);
        set("engine.reader_slowdown_ratio", paced.reader_slowdown);
        if engine == Engine::Flsm {
            self.metrics
                .set("gen.max_lateness_ms", paced.max_lateness_ms);
        }

        let shape = opened.store.shape();
        let tree = match engine {
            Engine::Flsm => "core",
            Engine::Lsm => "lsm",
        };
        self.metrics
            .set(format!("{tree}.files"), shape.files as f64);
        self.metrics
            .set(format!("{tree}.levels"), shape.levels as f64);
        self.metrics
            .set(format!("{tree}.l0_files"), shape.l0_files as f64);
        if engine == Engine::Flsm {
            self.metrics.set("core.guards", shape.guards as f64);
            self.metrics
                .set("core.empty_guards", shape.empty_guards as f64);
        }
        self.overhead_ratios.push(ratio(
            samples.rate_where(is_traced_slice),
            samples.rate_where(|slice| !is_traced_slice(slice)),
        ));

        Ok(())
    }

    /// Ends `engine`'s part of the run: in the traced run, closes and
    /// reopens the store to time recovery; then closes it for good.
    fn finish_engine(&mut self, engine: Engine, opened: Opened) -> Result<()> {
        let opened = if self.cfg.trace {
            let (opened, reopen_ms) = self.reopen(engine, opened)?;
            self.metrics.set_for(engine, "engine.reopen_ms", reopen_ms);
            opened
        } else {
            opened
        };
        self.close_later(engine, opened);
        Ok(())
    }

    fn finish(mut self) -> Result<RunOutcome> {
        self.metrics.set("setup_s", self.setup_secs);
        if self.cfg.trace {
            // Give the stores still closing the rest of the bound, together.
            let bound = self.cfg.close_bound;
            self.watchdog.phase("close", bound);
            let deadline = Instant::now() + bound;
            for (engine, closed) in &self.closing {
                if !closed_by(closed, deadline) {
                    eprintln!(
                        "{}: a store did not close within {bound:?}; leaving it behind",
                        engine.label()
                    );
                    self.hung_closes[*engine as usize] += 1;
                }
            }
            for engine in Engine::BOTH {
                self.metrics.set_for(
                    engine,
                    "engine.close_hung",
                    self.hung_closes[engine as usize] as f64,
                );
            }
            self.metrics.set(
                "trace.overhead_ratio",
                ratio(
                    self.overhead_ratios.iter().sum(),
                    self.overhead_ratios.len() as f64,
                ),
            );
            if self.cfg.workload == Workload::NetMixed {
                self.metrics
                    .set("server.busy_replies", self.busy_replies as f64);
                self.metrics.set(
                    "server.rejected_connections",
                    self.rejected_connections as f64,
                );
            }
            let spans: u64 = self.tracers.iter().map(|(_, t)| t.span_count()).sum();
            let dropped: u64 = self.tracers.iter().map(|(_, t)| t.dropped()).sum();
            if dropped > 0 {
                eprintln!("# {dropped} span records did not fit in memory and were dropped");
            }
            self.metrics.set("trace.spans", spans as f64);
            if let Some(path) = &self.cfg.trace_out {
                let tracers: Vec<(&str, &Tracer)> = self
                    .tracers
                    .iter()
                    .map(|(engine, tracer)| (engine.label(), tracer.as_ref()))
                    .collect();
                write_trace_file(path, &tracers)?;
            }
        }
        Ok(RunOutcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            metrics: self.metrics,
        })
    }
}

/// What the paced writer adds to an engine's report.
#[derive(Debug, Clone, Copy, Default)]
struct PacedReport {
    put_p99_us: f64,
    max_lateness_ms: f64,
    reader_slowdown: f64,
}

// ------------------------------------------------------------- operations

/// One checked `get`.
fn get_op(kv: &dyn KvStore, key: u64, ctx: &OpContext, checks: &mut Checks) -> Instant {
    let (result, end) = ctx.span(OpKind::Get, || kv.get(&bench_key(key)));
    match result {
        Ok(value) => Bench::check_value(checks, key, value.as_deref(), None),
        Err(err) => checks.check(Some(|| format!("get of key {key}: {err}"))),
    }
    end
}

/// One checked range scan: a new cursor, a seek to `key` and
/// [`SCAN_NEXTS`] `next`s (fewer at the end of the key space). Keys must
/// ascend strictly and every value must belong to its key.
fn scan_op(kv: &dyn KvStore, key: u64, keys: u64, ctx: &OpContext, checks: &mut Checks) -> Instant {
    let span = |kind: OpKind, start: Instant| {
        let end = Instant::now();
        if let Some(tracer) = ctx.tracer {
            tracer.end_op(kind, start, end);
            tracer.begin_op(ctx.request);
        }
        end
    };
    if let Some(tracer) = ctx.tracer {
        tracer.begin_op(ctx.request);
    }
    let mut iter = match kv.iter(&ReadOptions::default()) {
        Ok(iter) => iter,
        Err(err) => {
            checks.check(Some(|| format!("cursor for key {key}: {err}")));
            return span(OpKind::IterNew, ctx.start);
        }
    };
    let created = span(OpKind::IterNew, ctx.start);
    iter.seek(&bench_key(key));
    let sought = span(OpKind::Seek, created);

    let expected = (keys - key).min(SCAN_NEXTS as u64);
    let mut problem = None;
    let mut read = 0;
    while iter.valid() && read < expected {
        // The preload wrote every key, so a scan from `key` sees exactly
        // `key`, `key + 1`, ...: strictly ascending by construction.
        if key_index(iter.key()) != Some(key + read) || value_key(iter.value()) != Some(key + read)
        {
            problem.get_or_insert_with(|| {
                format!(
                    "position {read}: key {:?} with a value for {:?}",
                    String::from_utf8_lossy(iter.key()),
                    value_key(iter.value())
                )
            });
        }
        read += 1;
        iter.next();
    }
    if read != expected {
        problem.get_or_insert_with(|| {
            format!("read {read} of {expected} entries: {:?}", iter.status())
        });
    }
    let end = Instant::now();
    if let Some(tracer) = ctx.tracer {
        tracer.end_op(OpKind::Next50, sought, end);
    }
    checks.check(problem.map(|p| move || format!("scan from key {key}: {p}")));
    end
}

/// One checked RESP command: `SET key value` when `value` is given, else
/// `GET key`.
fn net_op(
    client: &mut RespClient,
    key: u64,
    value: Option<&Vec<u8>>,
    ctx: &OpContext,
    checks: &mut Checks,
    busy: &mut u64,
) -> Instant {
    let key_bytes = bench_key(key);
    let (reply, end) = ctx.span(OpKind::NetCmd, || match value {
        Some(value) => client.command(&[b"SET", &key_bytes, value]),
        None => client.command(&[b"GET", &key_bytes]),
    });
    let problem = match (&reply, value) {
        (Ok(RespValue::Simple(ok)), Some(_)) if ok == "OK" => None,
        (Ok(RespValue::Bulk(read)), None) if value_key(read) == Some(key) => None,
        (Ok(RespValue::Error(msg)), _) if msg.starts_with("BUSY") => {
            *busy += 1;
            Some("BUSY reply".to_string())
        }
        (Ok(other), _) => Some(format!("unexpected {} reply", other.type_name())),
        (Err(err), _) => Some(format!("transport error: {err}")),
    };
    let verb = if value.is_some() { "SET" } else { "GET" };
    checks.check(problem.map(|p| move || format!("{verb} of key {key}: {p}")));
    end
}

// ------------------------------------------------------------ paced writer

/// The open-loop writer of `read_while_writing`: put `i` is due at
/// `start + i / rate` whatever happened to the puts before it, and its
/// latency counts from then.
struct PacedWriter {
    kv: Arc<dyn KvStore>,
    tracer: Option<Arc<Tracer>>,
    seed: u64,
    keys: u64,
    first_op: u64,
    rate: u64,
    start: Instant,
    length: Duration,
}

struct Written {
    checks: Checks,
    sorted_from_due_ns: Vec<u32>,
    max_lateness: Duration,
}

impl PacedWriter {
    fn run(self) -> Written {
        let mut checks = Checks::new(self.seed);
        let mut keys = stream_rng(self.seed, Stream::Ops(1));
        let mut values = ValueGen::new(self.seed, 1);
        let mut value = Vec::new();
        let mut from_due_ns = Vec::new();
        let mut max_lateness = Duration::ZERO;
        let due_puts = (self.length.as_secs_f64() * self.rate as f64) as u64;
        // A writer that has fallen this far behind stops: what is left
        // counts as never issued.
        let give_up = self.start + self.length * 2;
        let mut issued = 0;
        while issued < due_puts {
            let due = self.start + Duration::from_secs_f64(issued as f64 / self.rate as f64);
            let mut now = Instant::now();
            while now < due {
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            if now > give_up {
                break;
            }
            max_lateness = max_lateness.max(now - due);
            let key = keys.gen_range(0..self.keys);
            values.fill(&mut value, key, self.first_op + issued);
            let ctx = OpContext {
                request: issued * 2 + 1,
                start: now,
                tracer: self.tracer.as_deref().filter(|t| t.enabled()),
            };
            let (result, end) = ctx.span(OpKind::Put, || self.kv.put(&bench_key(key), &value));
            checks.check(
                result
                    .err()
                    .map(|err| move || format!("paced put of key {key}: {err}")),
            );
            from_due_ns.push((end - due).as_nanos().min(u32::MAX as u128) as u32);
            issued += 1;
        }
        checks.never_issued(due_puts - issued);
        from_due_ns.sort_unstable();
        Written {
            checks,
            sorted_from_due_ns: from_due_ns,
            max_lateness,
        }
    }
}
