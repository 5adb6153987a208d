//! Opening the two engines under test, and closing them without hanging.

use std::path::Path;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb::PebblesDb;
use pebblesdb_bench::{scaled_options, EngineKind};
use pebblesdb_common::{Db, KvStore, Result, StorePreset};
use pebblesdb_env::Env;
use pebblesdb_lsm::LsmDb;

/// Every store is opened with `scaled_options(kind, SCALE_DIVISOR)`: 256 KiB
/// write buffer, 2 MiB block cache, compression and value separation off.
pub const SCALE_DIVISOR: usize = 16;

/// How long a store may take to close before it is left behind.
pub const CLOSE_BOUND: Duration = Duration::from_secs(10);

/// The two engines every workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The guarded FLSM engine (`EngineKind::PebblesDb`).
    Flsm,
    /// The baseline LSM with HyperLevelDB parameters.
    Lsm,
}

impl Engine {
    /// Both engines, in the order they run.
    pub const BOTH: [Engine; 2] = [Engine::Flsm, Engine::Lsm];

    /// The prefix of this engine's metric names.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Flsm => "flsm",
            Engine::Lsm => "lsm",
        }
    }
}

/// The shape of a store's tree, read from its public counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Shape {
    /// Live sstables.
    pub files: u64,
    /// Levels holding at least one sstable.
    pub levels: u64,
    /// Sstables in level 0.
    pub l0_files: u64,
    /// Guards over all levels, sentinels included (FLSM only).
    pub guards: u64,
    /// Guards holding no sstable (FLSM only).
    pub empty_guards: u64,
}

/// An open store of either engine.
pub enum Store {
    /// An FLSM store.
    Flsm(Arc<PebblesDb>),
    /// An LSM store.
    Lsm(Arc<LsmDb>),
}

impl Store {
    /// Opens (creating it if missing) the `engine` store at `dir` on `env`.
    pub fn open(engine: Engine, env: Arc<dyn Env>, dir: &Path) -> Result<Store> {
        Ok(match engine {
            Engine::Flsm => Store::Flsm(Arc::new(PebblesDb::open_with_options(
                env,
                dir,
                scaled_options(EngineKind::PebblesDb, SCALE_DIVISOR),
            )?)),
            Engine::Lsm => Store::Lsm(Arc::new(LsmDb::open_with_options(
                env,
                dir,
                scaled_options(EngineKind::HyperLevelDb, SCALE_DIVISOR),
                StorePreset::HyperLevelDb,
            )?)),
        })
    }

    /// The store as a `KvStore`.
    pub fn kv(&self) -> Arc<dyn KvStore> {
        match self {
            Store::Flsm(db) => Arc::clone(db) as Arc<dyn KvStore>,
            Store::Lsm(db) => Arc::clone(db) as Arc<dyn KvStore>,
        }
    }

    /// The store as a `Db`, which the server serves.
    pub fn db(&self) -> Arc<dyn Db> {
        match self {
            Store::Flsm(db) => Arc::clone(db) as Arc<dyn Db>,
            Store::Lsm(db) => Arc::clone(db) as Arc<dyn Db>,
        }
    }

    /// The current shape of the tree.
    pub fn shape(&self) -> Shape {
        let (files, guards, empty_guards) = match self {
            Store::Flsm(db) => (
                db.files_per_level(),
                db.guards_per_level().iter().sum::<usize>() as u64,
                db.empty_guards() as u64,
            ),
            Store::Lsm(db) => (db.files_per_level(), 0, 0),
        };
        Shape {
            files: files.iter().sum::<usize>() as u64,
            levels: files.iter().filter(|n| **n > 0).count() as u64,
            l0_files: files.first().copied().unwrap_or(0) as u64,
            guards,
            empty_guards,
        }
    }
}

/// Runs `close` on a helper thread and returns a receiver that gets one
/// message when it has returned.
///
/// Closing a store joins its background threads, and
/// `EngineShared::drop` can lose the wake-up it sends a compaction worker
/// (see `BENCHMARK.md`), after which the join never returns. The benchmark
/// therefore never closes a store on the thread that has to print results.
pub fn close_in_background(close: impl FnOnce() + Send + 'static) -> Receiver<()> {
    let (done, closed) = mpsc::channel();
    // The handle is dropped on purpose: a close that hangs can only be left
    // behind, and `closed` reports the ones that finish.
    std::thread::spawn(move || {
        close();
        let _ = done.send(());
    });
    closed
}

/// Waits until `deadline` for a close started by [`close_in_background`];
/// `false` means it is still running and is left behind.
pub fn closed_by(closed: &Receiver<()>, deadline: Instant) -> bool {
    closed
        .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::MemEnv;

    #[test]
    fn both_engines_open_with_the_scaled_options() {
        for engine in Engine::BOTH {
            let store = Store::open(engine, Arc::new(MemEnv::new()), Path::new("/db")).unwrap();
            let options = match &store {
                Store::Flsm(db) => db.options().clone(),
                Store::Lsm(db) => db.options().clone(),
            };
            assert_eq!(options.write_buffer_size, 256 << 10);
            assert_eq!(options.block_cache_capacity, 2 << 20);
            assert_eq!(options.value_separation_threshold, 0);
            store.kv().put(b"k", b"v").unwrap();
            assert_eq!(
                store.db().default_cf().get(b"k").unwrap(),
                Some(b"v".to_vec())
            );
            assert_eq!(store.shape().files, 0);
        }
    }

    #[test]
    fn a_close_that_never_returns_is_left_behind_within_the_bound() {
        let (_keep, never) = mpsc::channel::<()>();
        let hung = close_in_background(move || {
            let _ = never.recv();
        });
        let started = Instant::now();
        assert!(!closed_by(&hung, started + Duration::from_millis(50)));
        assert!(started.elapsed() < Duration::from_secs(5));

        let fine = close_in_background(|| {});
        assert!(closed_by(&fine, Instant::now() + Duration::from_secs(5)));
    }
}
