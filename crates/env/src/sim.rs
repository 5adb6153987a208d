//! What a test or a benchmark does *to* an environment — fail it, slow it
//! down, watch it — as one layer over any [`Env`].
//!
//! [`SimEnv`] wraps an `Arc<dyn Env>` and forwards every call. On the way
//! through it consults a fault schedule (writes, removes, one sequential
//! read, `spawn`), charges injected append latency to the inner env's
//! [`Env::sleep`], and keeps probes: the threads started through it and the
//! [`RandomAccessFile`]s it handed out that are still alive. It is the only
//! place any of that is written, so a fault can be scheduled over a real
//! disk exactly as over a [`MemEnv`](crate::MemEnv), and a store that is not
//! opened on a `SimEnv` pays for none of it. What models *the disk at a
//! crash* — a torn tail, directory entries that were never synced — stays
//! with `MemEnv`, which is the disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use pebblesdb_common::{Error, Result};

use crate::stats::IoStats;
use crate::{Env, FileBytes, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile};

/// Everything scheduled to go wrong or to take time. A pattern matches the
/// paths that contain it; the empty pattern matches every path.
#[derive(Default)]
struct Schedule {
    /// `(pattern, appends that still succeed)`. Each append to a matching
    /// file spends one; once none are left, appends, syncs and closes of
    /// matching files — and directory syncs of matching directories — fail.
    write_budgets: Vec<(String, u64)>,
    /// Patterns whose `remove_file` / `remove_dir_all` fail (an undeletable
    /// file: EBUSY, permissions, a flaky device).
    remove_faults: Vec<String>,
    /// `(pattern, latency)` paid by every append to a matching file.
    append_latency: Vec<(String, Duration)>,
    /// `(pattern, reads that succeed)`: sequential reads of a matching file
    /// arrive a few bytes at a time, and the one after those fails, once.
    read_fault: Option<(String, usize)>,
    /// `spawn` calls that succeed before one fails; `None`: all do.
    spawns_allowed: Option<usize>,
    /// Threads whose name contains this park at start until released.
    spawn_hold: Option<String>,
}

fn injected(what: &str, name: &str) -> Error {
    Error::internal(format!("injected {what} failure for {name}"))
}

impl Schedule {
    /// Charges one append to `name`: the injected error if a matching budget
    /// is spent, otherwise the latency the append owes.
    fn append(&mut self, name: &str) -> Result<Duration> {
        for (pattern, remaining) in &mut self.write_budgets {
            if name.contains(pattern.as_str()) {
                if *remaining == 0 {
                    return Err(injected("write", name));
                }
                *remaining -= 1;
            }
        }
        let owed = self.append_latency.iter();
        let owed = owed.filter(|(pattern, _)| name.contains(pattern.as_str()));
        Ok(owed.map(|(_, latency)| *latency).sum())
    }

    /// A sync or close of `name`, which writes nothing and spends nothing.
    fn sync(&self, name: &str) -> Result<()> {
        let spent = |(pattern, left): &(String, u64)| *left == 0 && name.contains(pattern.as_str());
        if self.write_budgets.iter().any(spent) {
            return Err(injected("sync", name));
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let name = path.to_string_lossy();
        if self.remove_faults.iter().any(|p| name.contains(p.as_str())) {
            return Err(injected("remove", &name));
        }
        Ok(())
    }

    /// How many of the `len` bytes asked of `name` this read may return.
    fn sequential_read(&mut self, name: &str, len: usize) -> Result<usize> {
        match &mut self.read_fault {
            Some((pattern, reads)) if name.contains(pattern.as_str()) => {
                if *reads == 0 {
                    self.read_fault = None;
                    return Err(std::io::Error::other("injected read error").into());
                }
                *reads -= 1;
                // Short enough that the failure can land inside a record.
                Ok(len.min(7))
            }
            _ => Ok(len),
        }
    }
}

/// What the layer has seen.
#[derive(Default)]
struct Probes {
    /// Calls of `spawn`, failed ones included.
    spawn_calls: usize,
    /// Threads started through `spawn` whose `main` has not returned.
    running: usize,
    /// The name each started thread reported for itself.
    thread_names: Vec<String>,
    /// Live `RandomAccessFile`s per path (a descriptor each on a real disk).
    readers: HashMap<PathBuf, usize>,
    /// Calls of `children`, failed ones included.
    listings: usize,
}

struct State {
    inner: Arc<dyn Env>,
    schedule: Mutex<Schedule>,
    /// Wakes the threads `spawn_hold` parked.
    released: Condvar,
    probes: Mutex<Probes>,
}

impl State {
    /// Parks the calling thread, started as `name`, while a hold matches it.
    fn wait_while_held(&self, name: &str) {
        let mut schedule = self.schedule.lock();
        let held = |schedule: &Schedule| {
            let hold = schedule.spawn_hold.as_deref();
            hold.is_some_and(|pattern| name.contains(pattern))
        };
        while held(&schedule) {
            self.released.wait(&mut schedule);
        }
    }
}

/// The fault, latency and probe layer; clones share one schedule. Open the
/// store on the `SimEnv` and keep a handle to schedule on (and a clone of
/// the `MemEnv` under it, if the test also tears files).
#[derive(Clone)]
pub struct SimEnv {
    state: Arc<State>,
}

impl SimEnv {
    /// A layer over `inner` with nothing scheduled.
    pub fn new(inner: Arc<dyn Env>) -> SimEnv {
        SimEnv {
            state: Arc::new(State {
                inner,
                schedule: Mutex::default(),
                released: Condvar::new(),
                probes: Mutex::default(),
            }),
        }
    }

    /// After `successes` more appends to files whose path contains
    /// `pattern`, every further append, sync or close of such a file fails.
    /// `fail_writes_after("MANIFEST", 0)` kills a store at the moment a
    /// compaction commits its edit, *after* its outputs were written.
    pub fn fail_writes_after(&self, pattern: &str, successes: u64) {
        let mut schedule = self.state.schedule.lock();
        schedule.write_budgets.push((pattern.into(), successes));
    }

    /// Fails `remove_file` and `remove_dir_all` of any path containing
    /// `pattern`, leaving the files alone.
    pub fn fail_removes(&self, pattern: &str) {
        let mut schedule = self.state.schedule.lock();
        schedule.remove_faults.push(pattern.into());
    }

    /// Clears every write and remove fault: the machine is back up, healthy.
    pub fn heal(&self) {
        let mut schedule = self.state.schedule.lock();
        schedule.write_budgets.clear();
        schedule.remove_faults.clear();
    }

    /// Fails one sequential read of a file whose path contains `pattern`
    /// after `reads` of them succeeded, each handing out at most seven
    /// bytes. The fault is gone once it fired.
    pub fn fail_sequential_read(&self, pattern: &str, reads: usize) {
        self.state.schedule.lock().read_fault = Some((pattern.into(), reads));
    }

    /// Whether a read fault is set and has not fired yet.
    pub fn read_fault_pending(&self) -> bool {
        self.state.schedule.lock().read_fault.is_some()
    }

    /// Lets `allowed` more `spawn` calls succeed; the ones after fail.
    pub fn fail_spawn_after(&self, allowed: usize) {
        self.state.schedule.lock().spawns_allowed = Some(allowed);
    }

    /// Parks every thread started from now on whose name contains `pattern`
    /// at its start, before it runs anything, until `release_spawned` (`""`
    /// holds them all): a background lane that never gets its turn.
    pub fn hold_spawned(&self, pattern: &str) {
        self.state.schedule.lock().spawn_hold = Some(pattern.into());
    }

    /// Lets every held thread run and holds no more.
    pub fn release_spawned(&self) {
        self.state.schedule.lock().spawn_hold = None;
        self.state.released.notify_all();
    }

    /// Makes every append to a file whose path contains `pattern` sleep for
    /// `latency` first (`".sst"`: a slow device for flushes and compactions
    /// under a fast WAL). Zero removes the pattern.
    pub fn set_append_latency(&self, pattern: &str, latency: Duration) {
        let mut schedule = self.state.schedule.lock();
        schedule.append_latency.retain(|(p, _)| p != pattern);
        if !latency.is_zero() {
            schedule.append_latency.push((pattern.into(), latency));
        }
    }

    /// How often a thread was asked for.
    pub fn spawn_calls(&self) -> usize {
        self.state.probes.lock().spawn_calls
    }

    /// Names of the threads that have run so far, as they saw themselves.
    pub fn thread_names(&self) -> Vec<String> {
        self.state.probes.lock().thread_names.clone()
    }

    /// Started threads that are still running.
    pub fn running_threads(&self) -> usize {
        self.state.probes.lock().running
    }

    /// Random-access files alive right now.
    pub fn open_readers(&self) -> usize {
        self.state.probes.lock().readers.values().sum()
    }

    /// How often a directory was listed (on a real disk, a walk of every
    /// entry).
    pub fn listings(&self) -> usize {
        self.state.probes.lock().listings
    }

    /// Paths with a live random-access file whose file is gone.
    pub fn readers_of_deleted_files(&self) -> Vec<PathBuf> {
        let probes = self.state.probes.lock();
        let deleted = probes.readers.keys();
        deleted
            .filter(|path| !self.state.inner.file_exists(path))
            .cloned()
            .collect()
    }
}

struct SimWritableFile {
    inner: Box<dyn WritableFile>,
    name: String,
    state: Arc<State>,
}

impl WritableFile for SimWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let latency = self.state.schedule.lock().append(&self.name)?;
        if !latency.is_zero() {
            self.state.inner.sleep(latency);
        }
        self.inner.append(data)
    }
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> Result<()> {
        self.state.schedule.lock().sync(&self.name)?;
        self.inner.sync()
    }
    fn close(&mut self) -> Result<()> {
        self.state.schedule.lock().sync(&self.name)?;
        self.inner.close()
    }
}

struct SimRandomAccessFile {
    inner: Arc<dyn RandomAccessFile>,
    path: PathBuf,
    state: Arc<State>,
}

impl RandomAccessFile for SimRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.inner.read(offset, len)
    }
    fn read_bytes(&self, offset: u64, len: usize) -> Result<FileBytes> {
        self.inner.read_bytes(offset, len)
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl Drop for SimRandomAccessFile {
    fn drop(&mut self) {
        let mut probes = self.state.probes.lock();
        if let Some(count) = probes.readers.get_mut(&self.path) {
            *count -= 1;
            if *count == 0 {
                probes.readers.remove(&self.path);
            }
        }
    }
}

struct SimSequentialFile {
    inner: Box<dyn SequentialFile>,
    name: String,
    state: Arc<State>,
}

impl SequentialFile for SimSequentialFile {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let schedule = &self.state.schedule;
        let len = schedule.lock().sequential_read(&self.name, buf.len())?;
        self.inner.read(&mut buf[..len])
    }
    fn skip(&mut self, n: u64) -> Result<()> {
        self.inner.skip(n)
    }
}

impl Env for SimEnv {
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(SimWritableFile {
            inner: self.state.inner.new_writable_file(path)?,
            name: path.to_string_lossy().into_owned(),
            state: Arc::clone(&self.state),
        }))
    }
    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.state.inner.new_random_access_file(path)?;
        let mut probes = self.state.probes.lock();
        *probes.readers.entry(path.into()).or_default() += 1;
        Ok(Arc::new(SimRandomAccessFile {
            inner,
            path: path.into(),
            state: Arc::clone(&self.state),
        }))
    }
    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        Ok(Box::new(SimSequentialFile {
            inner: self.state.inner.new_sequential_file(path)?,
            name: path.to_string_lossy().into_owned(),
            state: Arc::clone(&self.state),
        }))
    }
    /// Nothing is scheduled on a page file and nothing watches one, so the
    /// inner env's handle is the forward.
    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        self.state.inner.new_random_writable_file(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.state.inner.file_exists(path)
    }
    fn file_size(&self, path: &Path) -> Result<u64> {
        self.state.inner.file_size(path)
    }
    fn remove_file(&self, path: &Path) -> Result<()> {
        self.state.schedule.lock().remove(path)?;
        self.state.inner.remove_file(path)
    }
    fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
        self.state.inner.rename_file(from, to)
    }
    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.state.schedule.lock().sync(&path.to_string_lossy())?;
        self.state.inner.sync_dir(path)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.state.inner.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.state.schedule.lock().remove(path)?;
        self.state.inner.remove_dir_all(path)
    }
    fn children(&self, path: &Path) -> Result<Vec<String>> {
        self.state.probes.lock().listings += 1;
        self.state.inner.children(path)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.state.inner.io_stats()
    }
    fn now(&self) -> Duration {
        self.state.inner.now()
    }
    fn sleep(&self, duration: Duration) {
        self.state.inner.sleep(duration);
    }
    fn spawn(&self, name: String, main: Box<dyn FnOnce() + Send>) -> Result<JoinHandle<()>> {
        self.state.probes.lock().spawn_calls += 1;
        if let Some(allowed) = &mut self.state.schedule.lock().spawns_allowed {
            if *allowed == 0 {
                return Err(Error::internal(format!("spawn {name}: injected failure")));
            }
            *allowed -= 1;
        }
        let state = Arc::clone(&self.state);
        let started_as = name.clone();
        let watched = move || {
            let own = std::thread::current().name().unwrap_or("").to_string();
            state.probes.lock().thread_names.push(own);
            state.wait_while_held(&started_as);
            main();
            state.probes.lock().running -= 1;
        };
        self.state.probes.lock().running += 1;
        let spawned = self.state.inner.spawn(name, Box::new(watched));
        if spawned.is_err() {
            self.state.probes.lock().running -= 1;
        }
        spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemEnv;

    type Calls = Arc<Mutex<Vec<String>>>;

    /// A `MemEnv` that writes down every call made of it and of its files.
    struct Recorder {
        mem: MemEnv,
        calls: Calls,
    }

    struct Recorded<F> {
        file: F,
        calls: Calls,
    }

    macro_rules! record {
        ($self:ident, $($call:tt)*) => {
            $self.calls.lock().push(format!($($call)*))
        };
    }

    impl Recorder {
        fn file<F>(&self, file: F) -> Recorded<F> {
            let calls = Arc::clone(&self.calls);
            Recorded { file, calls }
        }
    }

    impl WritableFile for Recorded<Box<dyn WritableFile>> {
        fn append(&mut self, data: &[u8]) -> Result<()> {
            record!(self, "append({data:?})");
            self.file.append(data)
        }
        fn flush(&mut self) -> Result<()> {
            record!(self, "flush()");
            self.file.flush()
        }
        fn sync(&mut self) -> Result<()> {
            record!(self, "sync()");
            self.file.sync()
        }
        fn close(&mut self) -> Result<()> {
            record!(self, "close()");
            self.file.close()
        }
    }

    impl RandomAccessFile for Recorded<Arc<dyn RandomAccessFile>> {
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            record!(self, "read({offset}, {len})");
            self.file.read(offset, len)
        }
        fn read_bytes(&self, offset: u64, len: usize) -> Result<FileBytes> {
            record!(self, "read_bytes({offset}, {len})");
            self.file.read_bytes(offset, len)
        }
        fn len(&self) -> Result<u64> {
            record!(self, "len()");
            self.file.len()
        }
        fn is_empty(&self) -> bool {
            record!(self, "is_empty()");
            false
        }
    }

    impl SequentialFile for Recorded<Box<dyn SequentialFile>> {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            record!(self, "read(buf of {})", buf.len());
            self.file.read(buf)
        }
        fn skip(&mut self, n: u64) -> Result<()> {
            record!(self, "skip({n})");
            self.file.skip(n)
        }
    }

    impl RandomWritableFile for Recorded<Arc<dyn RandomWritableFile>> {
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            record!(self, "write_at({offset}, {data:?})");
            self.file.write_at(offset, data)
        }
        fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            record!(self, "read_at({offset}, {len})");
            self.file.read_at(offset, len)
        }
        fn len(&self) -> Result<u64> {
            record!(self, "page len()");
            self.file.len()
        }
        fn is_empty(&self) -> bool {
            record!(self, "page is_empty()");
            false
        }
        fn sync(&self) -> Result<()> {
            record!(self, "page sync()");
            self.file.sync()
        }
    }

    impl Env for Recorder {
        fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
            record!(self, "new_writable_file({path:?})");
            Ok(Box::new(self.file(self.mem.new_writable_file(path)?)))
        }
        fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
            record!(self, "new_random_access_file({path:?})");
            Ok(Arc::new(self.file(self.mem.new_random_access_file(path)?)))
        }
        fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
            record!(self, "new_sequential_file({path:?})");
            Ok(Box::new(self.file(self.mem.new_sequential_file(path)?)))
        }
        fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
            record!(self, "new_random_writable_file({path:?})");
            Ok(Arc::new(
                self.file(self.mem.new_random_writable_file(path)?),
            ))
        }
        fn file_exists(&self, path: &Path) -> bool {
            record!(self, "file_exists({path:?})");
            self.mem.file_exists(path)
        }
        fn file_size(&self, path: &Path) -> Result<u64> {
            record!(self, "file_size({path:?})");
            self.mem.file_size(path)
        }
        fn remove_file(&self, path: &Path) -> Result<()> {
            record!(self, "remove_file({path:?})");
            self.mem.remove_file(path)
        }
        fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
            record!(self, "rename_file({from:?}, {to:?})");
            self.mem.rename_file(from, to)
        }
        fn sync_dir(&self, path: &Path) -> Result<()> {
            record!(self, "sync_dir({path:?})");
            self.mem.sync_dir(path)
        }
        fn create_dir_all(&self, path: &Path) -> Result<()> {
            record!(self, "create_dir_all({path:?})");
            self.mem.create_dir_all(path)
        }
        fn remove_dir_all(&self, path: &Path) -> Result<()> {
            record!(self, "remove_dir_all({path:?})");
            self.mem.remove_dir_all(path)
        }
        fn children(&self, path: &Path) -> Result<Vec<String>> {
            record!(self, "children({path:?})");
            self.mem.children(path)
        }
        fn io_stats(&self) -> Arc<IoStats> {
            record!(self, "io_stats()");
            self.mem.io_stats()
        }
        fn now(&self) -> Duration {
            record!(self, "now()");
            Duration::from_secs(42)
        }
        fn sleep(&self, duration: Duration) {
            record!(self, "sleep({duration:?})");
        }
        fn spawn(&self, name: String, main: Box<dyn FnOnce() + Send>) -> Result<JoinHandle<()>> {
            record!(self, "spawn({name})");
            self.mem.spawn(name, main)
        }
    }

    fn over_mem() -> (SimEnv, MemEnv) {
        let mem = MemEnv::new();
        (SimEnv::new(Arc::new(mem.clone())), mem)
    }

    /// The test a wrapper that drops `sync_dir`, `now` or `sleep` fails:
    /// with nothing scheduled, each overridable `Env` method and each method
    /// of the four file traits reaches the inner env exactly once, with the
    /// arguments it was called with, and its answer comes back.
    #[test]
    fn every_env_and_file_method_is_forwarded_exactly_once() {
        let (mem, calls) = (MemEnv::new(), Calls::default());
        let sim = SimEnv::new(Arc::new(Recorder {
            mem: mem.clone(),
            calls: Arc::clone(&calls),
        }));
        let dir = Path::new("/d");
        let (a, b, pages) = (dir.join("a"), dir.join("b"), dir.join("pages"));

        sim.create_dir_all(dir).unwrap();
        let mut writable = sim.new_writable_file(&a).unwrap();
        writable.append(b"hello").unwrap();
        writable.flush().unwrap();
        writable.sync().unwrap();
        writable.close().unwrap();
        let random = sim.new_random_access_file(&a).unwrap();
        assert_eq!(random.read(1, 3).unwrap(), b"ell");
        let view = random.read_bytes(2, 8).unwrap();
        assert_eq!((&*view, view.is_resident()), (&b"llo"[..], true));
        assert_eq!(random.len().unwrap(), 5);
        assert!(!random.is_empty());
        let mut sequential = sim.new_sequential_file(&a).unwrap();
        sequential.skip(3).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(sequential.read(&mut buf).unwrap(), 2);
        let page_file = sim.new_random_writable_file(&pages).unwrap();
        page_file.write_at(2, b"xy").unwrap();
        assert_eq!(page_file.read_at(1, 3).unwrap(), b"\0xy");
        assert_eq!(page_file.len().unwrap(), 4);
        assert!(!page_file.is_empty());
        page_file.sync().unwrap();
        assert!(sim.file_exists(&a));
        assert_eq!(sim.file_size(&a).unwrap(), 5);
        sim.rename_file(&a, &b).unwrap();
        sim.sync_dir(dir).unwrap();
        assert_eq!(sim.children(dir).unwrap(), ["b", "pages"]);
        sim.remove_file(&b).unwrap();
        sim.remove_dir_all(dir).unwrap();
        assert!(Arc::ptr_eq(&sim.io_stats(), &mem.io_stats()));
        assert_eq!(sim.now(), Duration::from_secs(42));
        sim.sleep(Duration::from_micros(3));
        let spawned = sim.spawn("probe".into(), Box::new(|| {})).unwrap();
        spawned.join().unwrap();

        let expected = [
            r#"create_dir_all("/d")"#,
            r#"new_writable_file("/d/a")"#,
            "append([104, 101, 108, 108, 111])",
            "flush()",
            "sync()",
            "close()",
            r#"new_random_access_file("/d/a")"#,
            "read(1, 3)",
            "read_bytes(2, 8)",
            "len()",
            "is_empty()",
            r#"new_sequential_file("/d/a")"#,
            "skip(3)",
            "read(buf of 8)",
            r#"new_random_writable_file("/d/pages")"#,
            "write_at(2, [120, 121])",
            "read_at(1, 3)",
            "page len()",
            "page is_empty()",
            "page sync()",
            r#"file_exists("/d/a")"#,
            r#"file_size("/d/a")"#,
            r#"rename_file("/d/a", "/d/b")"#,
            r#"sync_dir("/d")"#,
            r#"children("/d")"#,
            r#"remove_file("/d/b")"#,
            r#"remove_dir_all("/d")"#,
            "io_stats()",
            "now()",
            "sleep(3µs)",
            "spawn(probe)",
        ];
        assert_eq!(*calls.lock(), expected);
        assert_eq!((sim.spawn_calls(), sim.running_threads()), (1, 0));
        assert_eq!(sim.thread_names(), ["probe"]);
        assert_eq!(sim.listings(), 1);
    }

    #[test]
    fn injected_write_errors_fire_after_the_success_budget() {
        let (sim, mem) = over_mem();
        sim.fail_writes_after("MANIFEST", 2);

        // Non-matching files are unaffected.
        let mut log = sim.new_writable_file(Path::new("/db/000007.log")).unwrap();
        log.append(b"fine").unwrap();
        log.sync().unwrap();

        let path = Path::new("/db/MANIFEST-000001");
        let mut manifest = sim.new_writable_file(path).unwrap();
        manifest.append(b"one").unwrap();
        manifest.append(b"two").unwrap();
        assert!(manifest.append(b"three").is_err(), "budget exhausted");
        assert!(manifest.sync().is_err(), "sync fails once budget is spent");
        assert!(manifest.close().is_err(), "and so does close");
        // Nothing past the budget reached the file.
        assert_eq!(mem.read_file_to_vec(path).unwrap(), b"onetwo");

        sim.heal();
        manifest.append(b"three").unwrap();
        manifest.sync().unwrap();
    }

    #[test]
    fn write_latency_injection_slows_appends() {
        let (sim, _) = over_mem();
        sim.set_append_latency("", Duration::from_micros(2_000));
        let mut f = sim.new_writable_file(Path::new("/slow")).unwrap();
        let start = std::time::Instant::now();
        f.append(b"x").unwrap();
        assert!(start.elapsed() >= Duration::from_micros(2_000));
        sim.set_append_latency("", Duration::ZERO);
        assert!(sim.state.schedule.lock().append_latency.is_empty());
    }

    /// `write_string_to_file_sync` and `read_file_to_vec` are not overridden,
    /// so what they do is made of calls the schedule sees.
    #[test]
    fn provided_methods_run_through_the_layer() {
        let (sim, mem) = over_mem();
        let current = Path::new("/db/CURRENT");
        sim.write_string_to_file_sync(current, b"MANIFEST-000001\n")
            .unwrap();
        assert_eq!(mem.unsynced_dir_entries(), 0);

        sim.fail_writes_after("/db", 0);
        let failed = sim.write_string_to_file_sync(current, b"MANIFEST-000002\n");
        assert!(failed.is_err());
        sim.fail_removes("CURRENT");
        assert!(sim.remove_file(current).is_err());
        sim.heal();

        sim.fail_sequential_read("CURRENT", 1);
        let failed = sim.read_file_to_vec(current);
        assert!(matches!(failed, Err(Error::Io(_))));
        assert!(!sim.read_fault_pending());
        assert_eq!(sim.read_file_to_vec(current).unwrap(), b"MANIFEST-000001\n");
    }
}
