//! Filesystem abstraction with IO accounting.
//!
//! Every engine in the workspace performs IO through an [`Env`]; the two
//! implementations are [`DiskEnv`] (real files under a directory) and
//! [`MemEnv`] (an in-memory filesystem used by unit tests, crash tests and
//! the fully-cached experiments), and [`SimEnv`] is the one layer over either
//! that schedules faults, injects latency and keeps probes.
//!
//! The [`IoStats`] attached to an `Env` counts every byte written and read,
//! which is how the benchmark harness measures write amplification from
//! inside the store instead of relying on external tools such as `iostat`.

pub mod bytes;
pub mod disk;
pub mod mem;
pub mod sim;
pub mod stats;

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pebblesdb_common::{Error, Result};

pub use bytes::FileBytes;
pub use disk::DiskEnv;
pub use mem::MemEnv;
pub use sim::SimEnv;
pub use stats::{IoStats, IoStatsSnapshot};

/// A file that is written sequentially (WAL, sstable under construction).
pub trait WritableFile: Send {
    /// Appends `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Flushes buffered data to the operating system.
    fn flush(&mut self) -> Result<()>;
    /// Forces data to stable storage.
    fn sync(&mut self) -> Result<()>;
    /// Flushes and closes the file.
    fn close(&mut self) -> Result<()>;
}

/// A file read at arbitrary offsets (sstable reads).
pub trait RandomAccessFile: Send + Sync {
    /// Reads `len` bytes starting at `offset`.
    ///
    /// Returns fewer bytes only if the file ends before `offset + len`.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Reads like [`RandomAccessFile::read`], into a [`FileBytes`]. A file
    /// that holds its bytes in memory overrides this to hand out a view of
    /// them; by default the view owns a copy.
    fn read_bytes(&self, offset: u64, len: usize) -> Result<FileBytes> {
        self.read(offset, len).map(FileBytes::from)
    }
    /// Total length of the file in bytes.
    fn len(&self) -> Result<u64>;
    /// Returns `true` if the file is empty.
    fn is_empty(&self) -> bool {
        self.len().map(|l| l == 0).unwrap_or(true)
    }
}

/// A file read from the beginning (WAL replay, manifest recovery).
pub trait SequentialFile: Send {
    /// Reads up to `buf.len()` bytes into `buf`, returning the count.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;
    /// Skips `n` bytes.
    fn skip(&mut self, n: u64) -> Result<()>;
}

/// A file supporting in-place positional writes (B+Tree page files).
///
/// The LSM-family engines never overwrite data and do not use this; the
/// page-oriented B+Tree engine (the KyotoCabinet / WiredTiger stand-in)
/// rewrites pages in place, which is exactly the behaviour whose write
/// amplification the paper's Figure 1.1 quantifies.
pub trait RandomWritableFile: Send + Sync {
    /// Writes `data` at byte `offset`, extending the file if needed.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Reads `len` bytes starting at `offset`.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;
    /// Returns `true` if the file is empty.
    fn is_empty(&self) -> bool {
        self.len().map(|l| l == 0).unwrap_or(true)
    }
    /// Forces contents to stable storage.
    fn sync(&self) -> Result<()>;
}

/// The environment a database runs in: file creation, deletion, directory
/// listing, the IO statistics shared by every file it hands out — and time
/// and threads ([`Env::now`], [`Env::sleep`], [`Env::spawn`]), so that what
/// a store does is decided by its inputs and its environment and by nothing
/// else.
pub trait Env: Send + Sync {
    /// Creates (or truncates) a writable file.
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>>;
    /// Opens a file for positional reads.
    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>>;
    /// Opens a file for sequential reads.
    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>>;
    /// Opens (creating if missing) a file for positional reads and writes.
    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>>;
    /// Returns `true` if `path` exists.
    fn file_exists(&self, path: &Path) -> bool;
    /// Returns the size of `path` in bytes.
    fn file_size(&self, path: &Path) -> Result<u64>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Atomically renames `from` to `to`.
    ///
    /// The rename itself is atomic but **not durable** until the parent
    /// directory is synced — call [`Env::sync_dir`] afterwards when the
    /// rename must survive a crash (the CURRENT/MANIFEST switch).
    fn rename_file(&self, from: &Path, to: &Path) -> Result<()>;
    /// Forces the directory entries of `path` (a directory) to stable
    /// storage, making files previously created or renamed into it durable.
    ///
    /// Without this, a crash after a rename or a file creation can lose the
    /// directory entry even though the file's *data* was synced — the
    /// classic "fsync the file, forget the directory" bug. Engines call it
    /// after writing sstables (before the MANIFEST references them), after
    /// creating a fresh WAL, and after the CURRENT rename.
    fn sync_dir(&self, path: &Path) -> Result<()> {
        let _ = path;
        Ok(())
    }
    /// Creates a directory (and its parents).
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Removes a directory and everything under it.
    fn remove_dir_all(&self, path: &Path) -> Result<()>;
    /// Lists the file names (not full paths) directly under `path`.
    fn children(&self, path: &Path) -> Result<Vec<String>>;
    /// The IO statistics shared by all files created by this environment.
    fn io_stats(&self) -> Arc<IoStats>;

    /// Monotonic time since an origin of the environment's choosing. Only
    /// differences mean anything; a virtual clock may return whatever it
    /// has charged so far.
    fn now(&self) -> Duration {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed()
    }

    /// Blocks the calling thread for `duration` of this environment's time.
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Starts a thread called `name` that runs `main` to completion.
    fn spawn(&self, name: String, main: Box<dyn FnOnce() + Send>) -> Result<JoinHandle<()>> {
        let spawned = std::thread::Builder::new().name(name).spawn(main);
        spawned.map_err(|e| Error::internal(format!("spawn background thread: {e}")))
    }

    /// Writes `data` to `path` and then atomically renames it into place,
    /// syncing the parent directory so the rename survives a crash.
    ///
    /// Used for the `CURRENT` file so readers never observe a partial write
    /// and a crash immediately after the switch cannot roll it back.
    fn write_string_to_file_sync(&self, path: &Path, data: &[u8]) -> Result<()> {
        let tmp: PathBuf = path.with_extension("tmp_swap");
        {
            let mut file = self.new_writable_file(&tmp)?;
            file.append(data)?;
            file.sync()?;
            file.close()?;
        }
        self.rename_file(&tmp, path)?;
        if let Some(parent) = path.parent() {
            self.sync_dir(parent)?;
        }
        Ok(())
    }

    /// Reads the entire contents of `path`.
    fn read_file_to_vec(&self, path: &Path) -> Result<Vec<u8>> {
        let mut file = self.new_sequential_file(path)?;
        let mut out = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_env(env: &dyn Env, root: &Path) {
        env.create_dir_all(root).unwrap();
        let path = root.join("file.txt");

        {
            let mut f = env.new_writable_file(&path).unwrap();
            f.append(b"hello ").unwrap();
            f.append(b"world").unwrap();
            f.sync().unwrap();
            f.close().unwrap();
        }
        assert!(env.file_exists(&path));
        assert_eq!(env.file_size(&path).unwrap(), 11);

        let ra = env.new_random_access_file(&path).unwrap();
        assert_eq!(ra.read(6, 5).unwrap(), b"world");
        assert_eq!(ra.read(0, 5).unwrap(), b"hello");
        assert_eq!(&*ra.read_bytes(6, 50).unwrap(), b"world");
        assert_eq!(ra.len().unwrap(), 11);

        let data = env.read_file_to_vec(&path).unwrap();
        assert_eq!(data, b"hello world");

        let renamed = root.join("renamed.txt");
        env.rename_file(&path, &renamed).unwrap();
        assert!(!env.file_exists(&path));
        assert!(env.file_exists(&renamed));

        let children = env.children(root).unwrap();
        assert!(children.contains(&"renamed.txt".to_string()));

        env.write_string_to_file_sync(&root.join("CURRENT"), b"MANIFEST-000001\n")
            .unwrap();
        assert_eq!(
            env.read_file_to_vec(&root.join("CURRENT")).unwrap(),
            b"MANIFEST-000001\n"
        );

        env.remove_file(&renamed).unwrap();
        assert!(!env.file_exists(&renamed));

        let stats = env.io_stats().snapshot();
        assert!(stats.bytes_written >= 11);
        assert!(stats.bytes_read >= 11);
    }

    #[test]
    fn mem_env_full_lifecycle() {
        let env = MemEnv::new();
        exercise_env(&env, Path::new("/db"));
    }

    #[test]
    fn disk_env_full_lifecycle() {
        let dir = std::env::temp_dir().join(format!("pebbles-env-test-{}", std::process::id()));
        let env = DiskEnv::new();
        let _ = env.remove_dir_all(&dir);
        exercise_env(&env, &dir);
        env.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_missing_file_fails() {
        let env = MemEnv::new();
        assert!(env.new_sequential_file(Path::new("/nope")).is_err());
        assert!(env.new_random_access_file(Path::new("/nope")).is_err());
        assert!(env.file_size(Path::new("/nope")).is_err());
        assert!(!env.file_exists(Path::new("/nope")));
    }
}
