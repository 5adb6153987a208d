//! `TimedEnv`: an [`Env`] wrapper that counts and clocks every call.
//!
//! It forwards each method to the environment it wraps — including those of
//! the `WritableFile`, `RandomAccessFile` and `SequentialFile` objects it
//! hands out — so a store opened on it behaves exactly as on the inner
//! environment. Calls and bytes are always counted, per file class (`.log`,
//! `.sst`, everything else: `MANIFEST-*`, `CURRENT`, the catalog) and kind
//! of call. While its [`Tracer`] is enabled each call is also clocked and
//! reported to the tracer, which attributes it to the calling thread's open
//! span or, with none open, to background work; background calls on one file
//! are coalesced into a single `bg.<class>` span when the file is dropped.
//!
//! Only the traced run uses it; the untraced run opens stores on the plain
//! `MemEnv`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pebblesdb_common::Result;
use pebblesdb_env::{
    Env, IoStats, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile,
};

use super::trace::Tracer;

/// The file classes calls are accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Write-ahead logs (`*.log`).
    Wal,
    /// Sorted tables (`*.sst`).
    Sst,
    /// `MANIFEST-*`, `CURRENT` and every other metadata file.
    Manifest,
}

const CLASSES: usize = 3;

impl FileClass {
    /// The class of the file at `path`.
    pub fn of(path: &Path) -> FileClass {
        match path.extension().and_then(|e| e.to_str()) {
            Some("log") => FileClass::Wal,
            Some("sst") => FileClass::Sst,
            _ => FileClass::Manifest,
        }
    }

    fn background_name(self) -> &'static str {
        match self {
            FileClass::Wal => "bg.wal",
            FileClass::Sst => "bg.sst",
            FileClass::Manifest => "bg.manifest",
        }
    }
}

/// The kinds of call accounted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::sync`.
    Sync,
    /// `RandomAccessFile::read` and `SequentialFile::read`.
    Read,
    /// `Env::new_writable_file`.
    Create,
    /// `Env::remove_file`.
    Remove,
    /// `Env::sync_dir`.
    DirSync,
    /// Everything else (opens for reading, renames, size and existence
    /// queries, listings, `flush`, `close`).
    Other,
}

const KINDS: usize = 7;

fn span_name(class: FileClass, kind: IoKind) -> &'static str {
    const NAMES: [[&str; KINDS]; CLASSES] = [
        [
            "env.wal.append",
            "env.wal.sync",
            "env.wal.read",
            "env.wal.create",
            "env.wal.remove",
            "env.wal.dir_sync",
            "env.wal.other",
        ],
        [
            "env.sst.append",
            "env.sst.sync",
            "env.sst.read",
            "env.sst.create",
            "env.sst.remove",
            "env.sst.dir_sync",
            "env.sst.other",
        ],
        [
            "env.manifest.append",
            "env.manifest.sync",
            "env.manifest.read",
            "env.manifest.create",
            "env.manifest.remove",
            "env.manifest.dir_sync",
            "env.manifest.other",
        ],
    ];
    NAMES[class as usize][kind as usize]
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    bytes: AtomicU64,
    timed_calls: AtomicU64,
    busy_ns: AtomicU64,
    background_ns: AtomicU64,
}

/// Counters of one class and kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellTotals {
    /// Calls made (clocked or not).
    pub calls: u64,
    /// Bytes moved by the successful ones.
    pub bytes: u64,
    /// Calls made while the tracer was enabled, which were clocked.
    pub timed_calls: u64,
    /// Time the clocked calls took.
    pub busy_ns: u64,
    /// The part of `busy_ns` spent on threads with no open span.
    pub background_ns: u64,
}

impl CellTotals {
    fn scale(&self, ns: u64) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            ns as f64 * self.calls as f64 / self.timed_calls as f64
        }
    }

    /// Busy time of all `calls`, estimated from the clocked ones: the
    /// tracer is enabled for alternate slices of a phase, so the clocked
    /// calls are a sample of every call's cost.
    pub fn busy_ns_estimate(&self) -> f64 {
        self.scale(self.busy_ns)
    }

    /// Background share of [`CellTotals::busy_ns_estimate`].
    pub fn background_ns_estimate(&self) -> f64 {
        self.scale(self.background_ns)
    }
}

/// A copy of every counter of a [`TimedEnv`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvTotals {
    cells: [[CellTotals; KINDS]; CLASSES],
}

impl EnvTotals {
    /// The counters of `class` and `kind`.
    pub fn get(&self, class: FileClass, kind: IoKind) -> CellTotals {
        self.cells[class as usize][kind as usize]
    }

    /// What was counted since `earlier`.
    pub fn since(&self, earlier: &EnvTotals) -> EnvTotals {
        let mut out = *self;
        for (class, row) in out.cells.iter_mut().enumerate() {
            for (kind, cell) in row.iter_mut().enumerate() {
                let before = earlier.cells[class][kind];
                cell.calls -= before.calls;
                cell.bytes -= before.bytes;
                cell.timed_calls -= before.timed_calls;
                cell.busy_ns -= before.busy_ns;
                cell.background_ns -= before.background_ns;
            }
        }
        out
    }

    /// Sums `f` over every class of `kind`.
    pub fn sum_kind(&self, kind: IoKind, f: impl Fn(&CellTotals) -> f64) -> f64 {
        self.cells.iter().map(|row| f(&row[kind as usize])).sum()
    }

    /// Sums `f` over every kind of `class`.
    pub fn sum_class(&self, class: FileClass, f: impl Fn(&CellTotals) -> f64) -> f64 {
        self.cells[class as usize].iter().map(f).sum()
    }

    /// Sums `f` over every cell.
    pub fn sum_all(&self, f: impl Fn(&CellTotals) -> f64) -> f64 {
        self.cells.iter().flatten().map(f).sum()
    }
}

struct Shared {
    tracer: Arc<Tracer>,
    cells: [[Cell; KINDS]; CLASSES],
}

/// First start and last end of the background calls made on one file.
#[derive(Default)]
struct BackgroundWindow(Option<(Instant, Instant)>);

impl BackgroundWindow {
    fn extend(&mut self, start: Instant, end: Instant) {
        self.0 = Some(match self.0 {
            Some((first, _)) => (first, end),
            None => (start, end),
        });
    }

    fn emit(&mut self, shared: &Shared, class: FileClass) {
        if let Some((start, end)) = self.0.take() {
            shared
                .tracer
                .background_span(class.background_name(), start, end);
        }
    }
}

impl Shared {
    /// Runs `call`, counting it under `class`/`kind` with the bytes
    /// `bytes_of` reads off a successful result, and clocking it while the
    /// tracer is enabled. A clocked call outside any span extends `window`.
    fn account<T>(
        &self,
        class: FileClass,
        kind: IoKind,
        window: Option<&mut dyn FnMut(Instant, Instant)>,
        call: impl FnOnce() -> Result<T>,
        bytes_of: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let cell = &self.cells[class as usize][kind as usize];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        if !self.tracer.enabled() {
            let out = call();
            if let Ok(value) = &out {
                cell.bytes.fetch_add(bytes_of(value), Ordering::Relaxed);
            }
            return out;
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if let Ok(value) = &out {
            cell.bytes.fetch_add(bytes_of(value), Ordering::Relaxed);
        }
        let busy = end.saturating_duration_since(start).as_nanos() as u64;
        cell.timed_calls.fetch_add(1, Ordering::Relaxed);
        cell.busy_ns.fetch_add(busy, Ordering::Relaxed);
        if !self.tracer.env_call(span_name(class, kind), start, end) {
            cell.background_ns.fetch_add(busy, Ordering::Relaxed);
            if let Some(window) = window {
                window(start, end);
            }
        }
        out
    }

    fn plain<T>(
        &self,
        class: FileClass,
        kind: IoKind,
        call: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.account(class, kind, None, call, |_| 0)
    }
}

/// See the module documentation.
pub struct TimedEnv {
    inner: Arc<dyn Env>,
    shared: Arc<Shared>,
}

impl TimedEnv {
    /// Wraps `inner`, reporting clocked calls to `tracer`.
    pub fn new(inner: Arc<dyn Env>, tracer: Arc<Tracer>) -> TimedEnv {
        TimedEnv {
            inner,
            shared: Arc::new(Shared {
                tracer,
                cells: Default::default(),
            }),
        }
    }

    /// A copy of every counter.
    pub fn totals(&self) -> EnvTotals {
        let mut out = EnvTotals::default();
        for (class, row) in self.shared.cells.iter().enumerate() {
            for (kind, cell) in row.iter().enumerate() {
                out.cells[class][kind] = CellTotals {
                    calls: cell.calls.load(Ordering::Relaxed),
                    bytes: cell.bytes.load(Ordering::Relaxed),
                    timed_calls: cell.timed_calls.load(Ordering::Relaxed),
                    busy_ns: cell.busy_ns.load(Ordering::Relaxed),
                    background_ns: cell.background_ns.load(Ordering::Relaxed),
                };
            }
        }
        out
    }
}

struct TimedWritableFile {
    inner: Box<dyn WritableFile>,
    class: FileClass,
    shared: Arc<Shared>,
    window: BackgroundWindow,
}

impl TimedWritableFile {
    fn account(
        &mut self,
        kind: IoKind,
        bytes: u64,
        call: impl FnOnce(&mut dyn WritableFile) -> Result<()>,
    ) -> Result<()> {
        let (inner, window) = (&mut self.inner, &mut self.window);
        self.shared.account(
            self.class,
            kind,
            Some(&mut |start, end| window.extend(start, end)),
            || call(inner.as_mut()),
            |_| bytes,
        )
    }
}

impl WritableFile for TimedWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.account(IoKind::Append, data.len() as u64, |f| f.append(data))
    }
    fn flush(&mut self) -> Result<()> {
        self.account(IoKind::Other, 0, |f| f.flush())
    }
    fn sync(&mut self) -> Result<()> {
        self.account(IoKind::Sync, 0, |f| f.sync())
    }
    fn close(&mut self) -> Result<()> {
        self.account(IoKind::Other, 0, |f| f.close())
    }
}

impl Drop for TimedWritableFile {
    fn drop(&mut self) {
        self.window.emit(&self.shared, self.class);
    }
}

struct TimedRandomAccessFile {
    inner: Arc<dyn RandomAccessFile>,
    class: FileClass,
    shared: Arc<Shared>,
    // Readers share the file, so the window needs a lock; it is taken only
    // by clocked background reads (compaction inputs), never by an
    // operation's own reads.
    window: Mutex<BackgroundWindow>,
}

impl RandomAccessFile for TimedRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.shared.account(
            self.class,
            IoKind::Read,
            Some(&mut |start, end| {
                self.window
                    .lock()
                    .expect("window updates do not panic")
                    .extend(start, end)
            }),
            || self.inner.read(offset, len),
            |data| data.len() as u64,
        )
    }
    fn len(&self) -> Result<u64> {
        self.shared
            .plain(self.class, IoKind::Other, || self.inner.len())
    }
}

impl Drop for TimedRandomAccessFile {
    fn drop(&mut self) {
        if let Ok(window) = self.window.get_mut() {
            window.emit(&self.shared, self.class);
        }
    }
}

struct TimedSequentialFile {
    inner: Box<dyn SequentialFile>,
    class: FileClass,
    shared: Arc<Shared>,
}

impl SequentialFile for TimedSequentialFile {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let inner = &mut self.inner;
        self.shared.account(
            self.class,
            IoKind::Read,
            None,
            || inner.read(buf),
            |n| *n as u64,
        )
    }
    fn skip(&mut self, n: u64) -> Result<()> {
        let inner = &mut self.inner;
        self.shared
            .plain(self.class, IoKind::Other, || inner.skip(n))
    }
}

impl Env for TimedEnv {
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let class = FileClass::of(path);
        let inner = self
            .shared
            .plain(class, IoKind::Create, || self.inner.new_writable_file(path))?;
        Ok(Box::new(TimedWritableFile {
            inner,
            class,
            shared: Arc::clone(&self.shared),
            window: BackgroundWindow::default(),
        }))
    }

    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let class = FileClass::of(path);
        let inner = self.shared.plain(class, IoKind::Other, || {
            self.inner.new_random_access_file(path)
        })?;
        Ok(Arc::new(TimedRandomAccessFile {
            inner,
            class,
            shared: Arc::clone(&self.shared),
            window: Mutex::new(BackgroundWindow::default()),
        }))
    }

    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let class = FileClass::of(path);
        let inner = self.shared.plain(class, IoKind::Other, || {
            self.inner.new_sequential_file(path)
        })?;
        Ok(Box::new(TimedSequentialFile {
            inner,
            class,
            shared: Arc::clone(&self.shared),
        }))
    }

    // Page files belong to the B+Tree engine, which the benchmark does not
    // run; the object is handed through unwrapped.
    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        self.shared.plain(FileClass::of(path), IoKind::Other, || {
            self.inner.new_random_writable_file(path)
        })
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.shared
            .plain(FileClass::of(path), IoKind::Other, || {
                Ok(self.inner.file_exists(path))
            })
            .unwrap_or(false)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        self.shared.plain(FileClass::of(path), IoKind::Other, || {
            self.inner.file_size(path)
        })
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.shared.plain(FileClass::of(path), IoKind::Remove, || {
            self.inner.remove_file(path)
        })
    }

    fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
        self.shared.plain(FileClass::of(to), IoKind::Other, || {
            self.inner.rename_file(from, to)
        })
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.shared.plain(FileClass::Manifest, IoKind::DirSync, || {
            self.inner.sync_dir(path)
        })
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.shared.plain(FileClass::Manifest, IoKind::Other, || {
            self.inner.create_dir_all(path)
        })
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.shared.plain(FileClass::Manifest, IoKind::Other, || {
            self.inner.remove_dir_all(path)
        })
    }

    fn children(&self, path: &Path) -> Result<Vec<String>> {
        self.shared.plain(FileClass::Manifest, IoKind::Other, || {
            self.inner.children(path)
        })
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }

    // `write_string_to_file_sync` and `read_file_to_vec` keep the trait's
    // provided bodies, which `MemEnv` uses too: they call the methods above,
    // so their IO is counted under the class of the file they touch.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::gen::{bench_key, ValueGen};
    use crate::suite::stores::{Engine, Store};
    use pebblesdb_common::ReadOptions;
    use pebblesdb_env::MemEnv;

    /// Runs the same writes, flush, reads and scan on `env`; returns what the
    /// reads saw.
    fn drive(env: Arc<dyn Env>, engine: Engine) -> Vec<(Vec<u8>, Vec<u8>)> {
        let store = Store::open(engine, env, Path::new("/db")).unwrap();
        let kv = store.kv();
        let mut values = ValueGen::new(5, 0);
        let mut buf = Vec::new();
        for op in 0..1500u64 {
            let key = (op * 7919) % 900;
            values.fill(&mut buf, key, op);
            kv.put(&bench_key(key), &buf).unwrap();
        }
        kv.flush().unwrap();
        let mut seen = Vec::new();
        for key in (0..900).step_by(13) {
            seen.push((bench_key(key), kv.get(&bench_key(key)).unwrap().unwrap()));
        }
        let mut iter = kv.iter(&ReadOptions::default()).unwrap();
        iter.seek(&bench_key(100));
        for _ in 0..50 {
            seen.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next();
        }
        seen
    }

    #[test]
    fn a_store_on_timed_env_behaves_as_on_the_inner_env() {
        for engine in Engine::BOTH {
            let plain = drive(Arc::new(MemEnv::new()), engine);
            let tracer = Arc::new(Tracer::new());
            tracer.set_enabled(true);
            let timed = drive(
                Arc::new(TimedEnv::new(Arc::new(MemEnv::new()), tracer)),
                engine,
            );
            assert_eq!(plain, timed, "{}", engine.label());
        }
    }

    #[test]
    fn class_totals_equal_the_inner_io_stats() {
        for enabled in [false, true] {
            let mem = MemEnv::new();
            let tracer = Arc::new(Tracer::new());
            tracer.set_enabled(enabled);
            let env = Arc::new(TimedEnv::new(Arc::new(mem.clone()), tracer));
            drive(Arc::clone(&env) as Arc<dyn Env>, Engine::Flsm);

            let io = mem.io_stats().snapshot();
            let totals = env.totals();
            let bytes = |c: &CellTotals| c.bytes as f64;
            let calls = |c: &CellTotals| c.calls as f64;
            assert_eq!(
                totals.sum_kind(IoKind::Append, bytes),
                io.bytes_written as f64
            );
            assert_eq!(totals.sum_kind(IoKind::Append, calls), io.writes as f64);
            assert_eq!(totals.sum_kind(IoKind::Read, bytes), io.bytes_read as f64);
            assert_eq!(totals.sum_kind(IoKind::Read, calls), io.reads as f64);
            assert_eq!(totals.sum_kind(IoKind::Sync, calls), io.syncs as f64);
            assert_eq!(totals.sum_kind(IoKind::DirSync, calls), io.dir_syncs as f64);
            assert_eq!(
                totals.sum_kind(IoKind::Create, calls),
                io.files_created as f64
            );
            assert_eq!(
                totals.sum_kind(IoKind::Remove, calls),
                io.files_removed as f64
            );

            // Each class saw its own files, and calls are clocked exactly
            // while the tracer is enabled.
            assert!(totals.get(FileClass::Wal, IoKind::Append).bytes > 1_500_000);
            assert!(totals.get(FileClass::Sst, IoKind::Append).bytes > 1_000_000);
            assert!(totals.get(FileClass::Manifest, IoKind::Append).bytes > 0);
            let wal = totals.get(FileClass::Wal, IoKind::Append);
            assert_eq!(wal.timed_calls, if enabled { wal.calls } else { 0 });
        }
    }

    #[test]
    fn files_are_classed_by_name() {
        assert_eq!(FileClass::of(Path::new("/db/000012.log")), FileClass::Wal);
        assert_eq!(FileClass::of(Path::new("/db/000012.sst")), FileClass::Sst);
        assert_eq!(
            FileClass::of(Path::new("/db/MANIFEST-000002")),
            FileClass::Manifest
        );
        assert_eq!(FileClass::of(Path::new("/db/CURRENT")), FileClass::Manifest);
    }
}
