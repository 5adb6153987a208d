//! Cross-crate integration tests for the PebblesDB workspace.
//!
//! The tests live in `tests/` next to this file; this library holds what
//! several of them share: an `Env` wrapper and the decoder fuzz.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pebblesdb_common::{Error, Result};
use pebblesdb_env::{
    Env, IoStats, MemEnv, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile,
};
use pebblesdb_wal::Record;
use rand::rngs::StdRng;
use rand::Rng;

/// One seeded mutation: a bit flip, a truncation or spliced junk.
pub fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    match rng.gen_range(0..3) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        1 if !bytes.is_empty() => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let junk: Vec<u8> = (0..rng.gen_range(1..12)).map(|_| rng.gen()).collect();
            bytes.splice(at..at, junk);
        }
    }
}

/// One case of the contract every [`Record`] decoder is held to: `value`
/// survives a round trip, and its encoding after zero to two mutations
/// decodes to a value `consume` accepts (handed the mutated bytes as well)
/// or is `Corruption` — never a panic — and what the decoder keeps is
/// bounded by the bytes it was given. Returns whether the case was accepted.
pub fn fuzz_record<R: Record + PartialEq + std::fmt::Debug>(
    rng: &mut StdRng,
    value: R,
    consume: impl FnOnce(R, &[u8]) -> Result<()>,
) -> bool {
    let mut bytes = value.encode();
    assert_eq!(R::decode(bytes.clone()).unwrap(), value);
    for _ in 0..rng.gen_range(0..3) {
        mutate(rng, &mut bytes);
    }
    let outcome = R::decode(bytes.clone()).and_then(|decoded| {
        assert!(decoded.encode().len() <= bytes.len(), "{decoded:?}");
        consume(decoded, &bytes)
    });
    match outcome {
        Ok(()) => true,
        Err(err) => {
            assert!(err.is_corruption(), "{bytes:?}: {err}");
            false
        }
    }
}

/// A [`MemEnv`] that watches the threads a store starts through it and can
/// be told to fail: a sequential read part-way through a file (a flaky
/// device under recovery), or a `spawn`.
#[derive(Default)]
pub struct ProbeEnv {
    /// The filesystem underneath; faults are set on the wrapper.
    pub inner: MemEnv,
    /// Calls of `spawn`, failed ones included.
    spawn_calls: AtomicUsize,
    /// The name each started thread reported for itself.
    names: Arc<Mutex<Vec<String>>>,
    /// Threads started through `spawn` whose `main` has not returned.
    running: Arc<AtomicUsize>,
    /// `spawn` calls that succeed before one fails; `None`: all do.
    spawns_allowed: Mutex<Option<usize>>,
    /// `(path substring, reads that succeed)`: sequential reads of a
    /// matching file arrive a few bytes at a time, and the one after those
    /// fails with `Error::Io`, once.
    read_fault: Arc<Mutex<Option<(String, usize)>>>,
}

impl ProbeEnv {
    /// An empty filesystem with no faults set.
    pub fn new() -> Arc<ProbeEnv> {
        Arc::new(ProbeEnv::default())
    }

    /// How often the store asked for a thread.
    pub fn spawn_calls(&self) -> usize {
        self.spawn_calls.load(Ordering::SeqCst)
    }

    /// Names of the threads that have run so far, as they saw themselves
    /// (complete once the store that started them is dropped).
    pub fn thread_names(&self) -> Vec<String> {
        self.names.lock().unwrap().clone()
    }

    /// Started threads that are still running.
    pub fn running_threads(&self) -> usize {
        self.running.load(Ordering::SeqCst)
    }

    /// Lets `allowed` more `spawn` calls succeed; the one after fails.
    pub fn fail_spawn_after(&self, allowed: usize) {
        *self.spawns_allowed.lock().unwrap() = Some(allowed);
    }

    /// Fails one sequential read of a file whose path contains `substring`
    /// after `reads` of them succeeded, each handing out at most seven bytes
    /// so that the failure can land inside a record. The env is healed once
    /// it fired.
    pub fn fail_sequential_read(&self, substring: &str, reads: usize) {
        *self.read_fault.lock().unwrap() = Some((substring.to_string(), reads));
    }

    /// Whether a read fault is set and has not fired yet.
    pub fn read_fault_pending(&self) -> bool {
        self.read_fault.lock().unwrap().is_some()
    }
}

/// A sequential file that consults the env's read fault on every read.
struct FlakyFile {
    inner: Box<dyn SequentialFile>,
    path: String,
    fault: Arc<Mutex<Option<(String, usize)>>>,
}

impl SequentialFile for FlakyFile {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let mut fault = self.fault.lock().unwrap();
        let mut len = buf.len();
        if let Some((substring, reads)) = fault.as_mut() {
            if self.path.contains(substring.as_str()) {
                if *reads == 0 {
                    *fault = None;
                    return Err(std::io::Error::other("injected read error").into());
                }
                *reads -= 1;
                len = len.min(7);
            }
        }
        drop(fault);
        self.inner.read(&mut buf[..len])
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.inner.skip(n)
    }
}

impl Env for ProbeEnv {
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        self.inner.new_writable_file(path)
    }
    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        self.inner.new_random_access_file(path)
    }
    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        Ok(Box::new(FlakyFile {
            inner: self.inner.new_sequential_file(path)?,
            path: path.to_string_lossy().into_owned(),
            fault: Arc::clone(&self.read_fault),
        }))
    }
    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        self.inner.new_random_writable_file(path)
    }
    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &Path) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn remove_file(&self, path: &Path) -> Result<()> {
        self.inner.remove_file(path)
    }
    fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename_file(from, to)
    }
    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.inner.sync_dir(path)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn children(&self, path: &Path) -> Result<Vec<String>> {
        self.inner.children(path)
    }
    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }
    fn spawn(&self, name: String, main: Box<dyn FnOnce() + Send>) -> Result<JoinHandle<()>> {
        self.spawn_calls.fetch_add(1, Ordering::SeqCst);
        if let Some(allowed) = self.spawns_allowed.lock().unwrap().as_mut() {
            if *allowed == 0 {
                return Err(Error::internal(format!("spawn {name}: injected failure")));
            }
            *allowed -= 1;
        }
        let (names, running) = (Arc::clone(&self.names), Arc::clone(&self.running));
        running.fetch_add(1, Ordering::SeqCst);
        let watched = move || {
            let own = std::thread::current().name().unwrap_or("").to_string();
            names.lock().unwrap().push(own);
            main();
            running.fetch_sub(1, Ordering::SeqCst);
        };
        self.inner.spawn(name, Box::new(watched))
    }
}
