//! An in-memory environment used by tests and fully-cached experiments.
//!
//! Besides being fast and hermetic, [`MemEnv`] supports *fault injection*
//! for crash testing:
//!
//! * [`MemEnv::truncate_file`] drops the tail of a file, simulating a torn
//!   write at a crash point;
//! * [`MemEnv::inject_write_error_after`] makes appends/syncs to matching
//!   files start failing after a budget of successes, simulating a crash
//!   *between* two writes (for example: compaction outputs fully written,
//!   MANIFEST commit never happens);
//! * [`MemEnv::set_write_latency_micros`] slows every append down, widening
//!   the windows in which concurrent compaction jobs overlap so stress tests
//!   can assert on parallelism deterministically.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pebblesdb_common::{Error, Result};

use crate::stats::IoStats;
use crate::{Env, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile};

type FileData = Arc<RwLock<Vec<u8>>>;

/// A rename whose directory entry has not been made durable by a
/// [`Env::sync_dir`] yet; a simulated crash rolls it back.
struct UnsyncedRename {
    from: PathBuf,
    to: PathBuf,
    /// The file that `to` pointed at before the rename (restored on crash).
    replaced: Option<FileData>,
}

#[derive(Default)]
struct FileSystem {
    files: HashMap<PathBuf, FileData>,
    dirs: Vec<PathBuf>,
    /// Files created since the last `sync_dir` of their parent; a simulated
    /// crash removes them (their directory entry never became durable).
    unsynced_creates: Vec<PathBuf>,
    /// Renames since the last `sync_dir` of the target's parent.
    unsynced_renames: Vec<UnsyncedRename>,
}

/// Shared write-fault configuration consulted by every writable file.
#[derive(Default)]
struct FaultState {
    /// `(path substring, remaining successful appends)`. Once a pattern's
    /// budget reaches zero, every later append or sync to a matching file
    /// fails with an injected IO error.
    fail_after: Vec<(String, u64)>,
    /// `(path substring, microseconds)` of artificial latency added to every
    /// append of a matching file; the empty pattern matches every file.
    write_latency: Vec<(String, u64)>,
    /// Path substrings whose `remove_file`/`remove_dir_all` calls fail with
    /// an injected IO error (an undeletable file: EBUSY, permissions, a
    /// flaky device) until cleared.
    fail_removes: Vec<String>,
}

impl FaultState {
    /// Charges one append against `path`; returns the injected error if a
    /// matching pattern's success budget is exhausted, otherwise the total
    /// artificial latency the append must pay.
    fn check_append(&mut self, path: &Path) -> Result<u64> {
        let name = path.to_string_lossy();
        for (pattern, remaining) in &mut self.fail_after {
            if name.contains(pattern.as_str()) {
                if *remaining == 0 {
                    return Err(Error::internal(format!(
                        "injected write failure for {name}"
                    )));
                }
                *remaining -= 1;
            }
        }
        Ok(self
            .write_latency
            .iter()
            .filter(|(pattern, _)| name.contains(pattern.as_str()))
            .map(|(_, micros)| micros)
            .sum())
    }

    /// Returns the injected error if removals of `path` are configured to
    /// fail.
    fn check_remove(&self, path: &Path) -> Result<()> {
        let name = path.to_string_lossy();
        for pattern in &self.fail_removes {
            if name.contains(pattern.as_str()) {
                return Err(Error::internal(format!(
                    "injected remove failure for {name}"
                )));
            }
        }
        Ok(())
    }

    /// Like [`FaultState::check_append`] but without consuming budget (used
    /// by `sync`, which writes no new bytes).
    fn check_sync(&self, path: &Path) -> Result<()> {
        let name = path.to_string_lossy();
        for (pattern, remaining) in &self.fail_after {
            if name.contains(pattern.as_str()) && *remaining == 0 {
                return Err(Error::internal(format!("injected sync failure for {name}")));
            }
        }
        Ok(())
    }
}

/// An [`Env`] holding every file in memory.
#[derive(Clone, Default)]
pub struct MemEnv {
    fs: Arc<Mutex<FileSystem>>,
    faults: Arc<Mutex<FaultState>>,
    stats: Arc<IoStats>,
}

impl MemEnv {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> Self {
        MemEnv::default()
    }

    fn normalize(path: &Path) -> PathBuf {
        PathBuf::from(path)
    }

    /// After `successes` more appends to files whose path contains
    /// `substring`, every further append or sync to such files fails.
    ///
    /// With `successes = 0` the next touch fails immediately — e.g.
    /// `inject_write_error_after("MANIFEST", 0)` kills the store at the
    /// moment a compaction tries to commit its version edit, *after* its
    /// output sstables were fully written.
    pub fn inject_write_error_after(&self, substring: &str, successes: u64) {
        self.faults
            .lock()
            .fail_after
            .push((substring.to_string(), successes));
    }

    /// Removes every injected write-error pattern (simulates the machine
    /// coming back up healthy after the crash).
    pub fn clear_fault_injection(&self) {
        let mut faults = self.faults.lock();
        faults.fail_after.clear();
        faults.fail_removes.clear();
    }

    /// Makes `remove_file` and `remove_dir_all` fail for any path containing
    /// `substring`, without touching the files — an undeletable directory.
    /// Cleared by [`MemEnv::clear_fault_injection`].
    pub fn inject_remove_error(&self, substring: &str) {
        self.faults.lock().fail_removes.push(substring.to_string());
    }

    /// Adds `micros` of artificial latency to every append, so tests can
    /// widen compaction IO windows. `0` removes previously set delays.
    pub fn set_write_latency_micros(&self, micros: u64) {
        self.set_write_latency_micros_for("", micros);
    }

    /// Adds `micros` of artificial latency to appends of files whose path
    /// contains `substring` (e.g. `".sst"` to emulate a slow device for
    /// sstable writes while leaving the WAL fast). `0` removes the pattern.
    pub fn set_write_latency_micros_for(&self, substring: &str, micros: u64) {
        let mut faults = self.faults.lock();
        faults.write_latency.retain(|(p, _)| p != substring);
        if micros > 0 {
            faults.write_latency.push((substring.to_string(), micros));
        }
    }

    /// Truncates the named file to `len` bytes, simulating a torn write.
    ///
    /// Returns the previous length. Used by crash-recovery tests.
    pub fn truncate_file(&self, path: &Path, len: usize) -> Result<usize> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(&Self::normalize(path))
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        let mut data = data.write();
        let old = data.len();
        data.truncate(len);
        Ok(old)
    }

    /// Simulates the directory-entry loss of a crash: every file created and
    /// every rename performed since the last [`Env::sync_dir`] of its parent
    /// directory is rolled back — created files vanish, renames are undone
    /// (restoring whatever the target previously pointed at).
    ///
    /// File *contents* are untouched (torn data is modelled separately with
    /// [`MemEnv::truncate_file`]); this models exactly the metadata a real
    /// filesystem may lose when the directory was never fsynced. Crash tests
    /// call it between "power loss" and "reopen" to assert the engines
    /// `sync_dir` at every point where a directory entry must be durable.
    pub fn drop_unsynced_dir_entries(&self) {
        let mut fs = self.fs.lock();
        // Undo renames newest-first so chained renames unwind correctly.
        while let Some(rename) = fs.unsynced_renames.pop() {
            if let Some(data) = fs.files.remove(&rename.to) {
                fs.files.insert(rename.from.clone(), data);
            }
            if let Some(replaced) = rename.replaced {
                fs.files.insert(rename.to, replaced);
            }
        }
        let creates = std::mem::take(&mut fs.unsynced_creates);
        for path in creates {
            fs.files.remove(&path);
        }
    }

    /// Number of directory entries (creates + renames) a crash would lose
    /// right now. Zero means every entry was covered by a `sync_dir`.
    pub fn unsynced_dir_entries(&self) -> usize {
        let fs = self.fs.lock();
        fs.unsynced_creates.len() + fs.unsynced_renames.len()
    }
}

struct MemWritableFile {
    path: PathBuf,
    data: FileData,
    /// The environment the file lives in: its fault schedule, its IO
    /// statistics and the clock injected latency is paid on.
    env: MemEnv,
}

impl WritableFile for MemWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let latency = self.env.faults.lock().check_append(&self.path)?;
        if latency > 0 {
            self.env.sleep(std::time::Duration::from_micros(latency));
        }
        self.data.write().extend_from_slice(data);
        self.env.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.env.faults.lock().check_sync(&self.path)?;
        self.env.stats.record_sync();
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.env.faults.lock().check_sync(&self.path)?;
        Ok(())
    }
}

struct MemRandomAccessFile {
    data: FileData,
    stats: Arc<IoStats>,
}

impl RandomAccessFile for MemRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.data.read();
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        let out = data[start..end].to_vec();
        self.stats.record_read(out.len() as u64);
        Ok(out)
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.read().len() as u64)
    }
}

struct MemSequentialFile {
    data: FileData,
    offset: usize,
    stats: Arc<IoStats>,
}

impl SequentialFile for MemSequentialFile {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let data = self.data.read();
        let remaining = data.len().saturating_sub(self.offset);
        let n = remaining.min(buf.len());
        buf[..n].copy_from_slice(&data[self.offset..self.offset + n]);
        self.offset += n;
        self.stats.record_read(n as u64);
        Ok(n)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.offset = self.offset.saturating_add(n as usize);
        Ok(())
    }
}

struct MemRandomWritableFile {
    data: FileData,
    stats: Arc<IoStats>,
}

impl RandomWritableFile for MemRandomWritableFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut file = self.data.write();
        let end = offset as usize + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let file = self.data.read();
        let start = (offset as usize).min(file.len());
        let end = (start + len).min(file.len());
        let out = file[start..end].to_vec();
        self.stats.record_read(out.len() as u64);
        Ok(out)
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn sync(&self) -> Result<()> {
        self.stats.record_sync();
        Ok(())
    }
}

impl Env for MemEnv {
    fn new_writable_file(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let mut fs = self.fs.lock();
        let data: FileData = Arc::new(RwLock::new(Vec::new()));
        fs.files.insert(Self::normalize(path), Arc::clone(&data));
        fs.unsynced_creates.push(Self::normalize(path));
        self.stats.record_file_created();
        Ok(Box::new(MemWritableFile {
            path: Self::normalize(path),
            data,
            env: self.clone(),
        }))
    }

    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(&Self::normalize(path))
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        Ok(Arc::new(MemRandomAccessFile {
            data: Arc::clone(data),
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_sequential_file(&self, path: &Path) -> Result<Box<dyn SequentialFile>> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(&Self::normalize(path))
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        Ok(Box::new(MemSequentialFile {
            data: Arc::clone(data),
            offset: 0,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        let mut fs = self.fs.lock();
        let path = Self::normalize(path);
        if !fs.files.contains_key(&path) {
            self.stats.record_file_created();
            fs.files
                .insert(path.clone(), Arc::new(RwLock::new(Vec::new())));
            // Like new_writable_file: the directory entry is not durable
            // until the parent is synced.
            fs.unsynced_creates.push(path.clone());
        }
        let data = Arc::clone(&fs.files[&path]);
        Ok(Arc::new(MemRandomWritableFile {
            data,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.fs.lock().files.contains_key(&Self::normalize(path))
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(&Self::normalize(path))
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        let len = data.read().len() as u64;
        Ok(len)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.faults.lock().check_remove(path)?;
        let mut fs = self.fs.lock();
        let path = Self::normalize(path);
        fs.files
            .remove(&path)
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        // A deleted file's pending directory entries are moot; dropping them
        // keeps a later simulated crash from resurrecting it.
        fs.unsynced_creates.retain(|p| *p != path);
        fs.unsynced_renames.retain(|r| r.to != path);
        self.stats.record_file_removed();
        Ok(())
    }

    fn rename_file(&self, from: &Path, to: &Path) -> Result<()> {
        let mut fs = self.fs.lock();
        let from = Self::normalize(from);
        let to = Self::normalize(to);
        let data = fs
            .files
            .remove(&from)
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", from.display())))?;
        let replaced = fs.files.insert(to.clone(), data);
        fs.unsynced_renames
            .push(UnsyncedRename { from, to, replaced });
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.faults.lock().check_sync(path)?;
        let mut fs = self.fs.lock();
        let dir = Self::normalize(path);
        fs.unsynced_creates
            .retain(|p| p.parent() != Some(dir.as_path()));
        fs.unsynced_renames
            .retain(|r| r.to.parent() != Some(dir.as_path()));
        self.stats.record_dir_sync();
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut fs = self.fs.lock();
        let path = Self::normalize(path);
        if !fs.dirs.contains(&path) {
            fs.dirs.push(path);
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.faults.lock().check_remove(path)?;
        let mut fs = self.fs.lock();
        let prefix = Self::normalize(path);
        fs.files.retain(|p, _| !p.starts_with(&prefix));
        fs.dirs.retain(|p| !p.starts_with(&prefix));
        Ok(())
    }

    fn children(&self, path: &Path) -> Result<Vec<String>> {
        let fs = self.fs.lock();
        let prefix = Self::normalize(path);
        let mut out = Vec::new();
        for file in fs.files.keys() {
            if let Ok(rest) = file.strip_prefix(&prefix) {
                if let Some(name) = rest.to_str() {
                    if !name.is_empty() && !name.contains('/') {
                        out.push(name.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_simulates_torn_writes() {
        let env = MemEnv::new();
        let path = Path::new("/db/000001.log");
        {
            let mut f = env.new_writable_file(path).unwrap();
            f.append(b"0123456789").unwrap();
            f.close().unwrap();
        }
        let old = env.truncate_file(path, 4).unwrap();
        assert_eq!(old, 10);
        assert_eq!(env.file_size(path).unwrap(), 4);
        assert_eq!(env.read_file_to_vec(path).unwrap(), b"0123");
    }

    #[test]
    fn injected_write_errors_fire_after_the_success_budget() {
        let env = MemEnv::new();
        env.inject_write_error_after("MANIFEST", 2);

        // Non-matching files are unaffected.
        let mut log = env.new_writable_file(Path::new("/db/000007.log")).unwrap();
        log.append(b"fine").unwrap();
        log.sync().unwrap();

        let mut manifest = env
            .new_writable_file(Path::new("/db/MANIFEST-000001"))
            .unwrap();
        manifest.append(b"one").unwrap();
        manifest.append(b"two").unwrap();
        assert!(manifest.append(b"three").is_err(), "budget exhausted");
        assert!(manifest.sync().is_err(), "sync fails once budget is spent");
        // Nothing past the budget reached the file.
        assert_eq!(
            env.read_file_to_vec(Path::new("/db/MANIFEST-000001"))
                .unwrap(),
            b"onetwo"
        );

        env.clear_fault_injection();
        manifest.append(b"three").unwrap();
        manifest.sync().unwrap();
    }

    #[test]
    fn write_latency_injection_slows_appends() {
        let env = MemEnv::new();
        env.set_write_latency_micros(2_000);
        let mut f = env.new_writable_file(Path::new("/slow")).unwrap();
        let start = std::time::Instant::now();
        f.append(b"x").unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_micros(2_000));
        env.set_write_latency_micros(0);
    }

    #[test]
    fn children_lists_only_direct_entries() {
        let env = MemEnv::new();
        for name in ["/db/a.sst", "/db/b.log", "/db/sub/c.sst", "/other/d.sst"] {
            let mut f = env.new_writable_file(Path::new(name)).unwrap();
            f.append(b"x").unwrap();
        }
        let children = env.children(Path::new("/db")).unwrap();
        assert_eq!(children, vec!["a.sst".to_string(), "b.log".to_string()]);
    }

    #[test]
    fn remove_dir_all_wipes_subtree() {
        let env = MemEnv::new();
        for name in ["/db/a", "/db/b", "/keep/c"] {
            env.new_writable_file(Path::new(name)).unwrap();
        }
        env.remove_dir_all(Path::new("/db")).unwrap();
        assert!(!env.file_exists(Path::new("/db/a")));
        assert!(env.file_exists(Path::new("/keep/c")));
    }

    #[test]
    fn unsynced_dir_entries_are_lost_on_simulated_crash() {
        let env = MemEnv::new();
        {
            let mut f = env.new_writable_file(Path::new("/db/CURRENT")).unwrap();
            f.append(b"MANIFEST-000001\n").unwrap();
        }
        env.sync_dir(Path::new("/db")).unwrap(); // baseline becomes durable
        {
            let mut f = env.new_writable_file(Path::new("/db/CURRENT.tmp")).unwrap();
            f.append(b"MANIFEST-000002\n").unwrap();
        }
        env.rename_file(Path::new("/db/CURRENT.tmp"), Path::new("/db/CURRENT"))
            .unwrap();
        assert!(env.unsynced_dir_entries() > 0);

        env.drop_unsynced_dir_entries();
        // The unsynced rename rolled back and the unsynced create vanished.
        assert_eq!(
            env.read_file_to_vec(Path::new("/db/CURRENT")).unwrap(),
            b"MANIFEST-000001\n"
        );
        assert!(!env.file_exists(Path::new("/db/CURRENT.tmp")));
    }

    #[test]
    fn write_string_to_file_sync_dir_syncs_the_rename() {
        let env = MemEnv::new();
        env.write_string_to_file_sync(Path::new("/db/CURRENT"), b"MANIFEST-000007\n")
            .unwrap();
        assert_eq!(env.unsynced_dir_entries(), 0);
        env.drop_unsynced_dir_entries();
        assert_eq!(
            env.read_file_to_vec(Path::new("/db/CURRENT")).unwrap(),
            b"MANIFEST-000007\n"
        );
        assert!(env.io_stats().snapshot().dir_syncs >= 1);
    }
}
