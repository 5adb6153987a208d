//! An in-memory environment used by tests and fully-cached experiments.
//!
//! A file's contents are an `Arc<Vec<u8>>` behind the file's lock, so a
//! random-access read hands out a [`FileBytes`] view of them without copying;
//! writes go through [`Arc::make_mut`], which leaves every outstanding view
//! the bytes it saw.
//!
//! Besides being fast and hermetic, [`MemEnv`] models *the disk at a crash*:
//! [`MemEnv::truncate_file`] tears a file's tail and
//! [`MemEnv::drop_unsynced_dir_entries`] loses the directory entries no
//! `sync_dir` covered. Failing or slowing a call is [`SimEnv`](crate::SimEnv)'s
//! job, over this env or any other.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pebblesdb_common::{Error, Result};

use crate::stats::IoStats;
use crate::{Env, FileBytes, RandomAccessFile, RandomWritableFile, SequentialFile, WritableFile};

type FileData = Arc<RwLock<Arc<Vec<u8>>>>;

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

/// An [`Env`] holding every file in memory.
#[derive(Clone, Default)]
pub struct MemEnv {
    fs: Arc<Mutex<FileSystem>>,
    stats: Arc<IoStats>,
}

impl MemEnv {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> Self {
        MemEnv::default()
    }

    /// Truncates the named file to `len` bytes, simulating a torn write.
    ///
    /// Returns the previous length. Used by crash-recovery tests.
    pub fn truncate_file(&self, path: &Path, len: usize) -> Result<usize> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(path)
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        let mut data = data.write();
        let old = data.len();
        Arc::make_mut(&mut data).truncate(len);
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
    data: FileData,
    stats: Arc<IoStats>,
}

impl WritableFile for MemWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        Arc::make_mut(&mut self.data.write()).extend_from_slice(data);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.record_sync();
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }
}

struct MemRandomAccessFile {
    data: FileData,
    stats: Arc<IoStats>,
}

impl RandomAccessFile for MemRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        Ok(self.read_bytes(offset, len)?.to_vec())
    }

    fn read_bytes(&self, offset: u64, len: usize) -> Result<FileBytes> {
        let data = self.data.read();
        let start = usize::try_from(offset).map_or(data.len(), |at| at.min(data.len()));
        let end = start.saturating_add(len).min(data.len());
        self.stats.record_read((end - start) as u64);
        Ok(FileBytes::resident(Arc::clone(&data), start..end))
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
        let file = Arc::make_mut(&mut file);
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
        let data = FileData::default();
        fs.files.insert(path.to_path_buf(), Arc::clone(&data));
        fs.unsynced_creates.push(path.to_path_buf());
        self.stats.record_file_created();
        Ok(Box::new(MemWritableFile {
            data,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_random_access_file(&self, path: &Path) -> Result<Arc<dyn RandomAccessFile>> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(path)
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
            .get(path)
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        Ok(Box::new(MemSequentialFile {
            data: Arc::clone(data),
            offset: 0,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_random_writable_file(&self, path: &Path) -> Result<Arc<dyn RandomWritableFile>> {
        let mut fs = self.fs.lock();
        let path = path.to_path_buf();
        if !fs.files.contains_key(&path) {
            self.stats.record_file_created();
            fs.files.insert(path.clone(), FileData::default());
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
        self.fs.lock().files.contains_key(path)
    }

    fn file_size(&self, path: &Path) -> Result<u64> {
        let fs = self.fs.lock();
        let data = fs
            .files
            .get(path)
            .ok_or_else(|| Error::invalid_argument(format!("no such file: {}", path.display())))?;
        let len = data.read().len() as u64;
        Ok(len)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        let mut fs = self.fs.lock();
        fs.files
            .remove(path)
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
        let from = from.to_path_buf();
        let to = to.to_path_buf();
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
        let mut fs = self.fs.lock();
        fs.unsynced_creates.retain(|p| p.parent() != Some(path));
        fs.unsynced_renames.retain(|r| r.to.parent() != Some(path));
        self.stats.record_dir_sync();
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        let mut fs = self.fs.lock();
        if !fs.dirs.iter().any(|dir| dir == path) {
            fs.dirs.push(path.to_path_buf());
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        let mut fs = self.fs.lock();
        fs.files.retain(|p, _| !p.starts_with(path));
        fs.dirs.retain(|p| !p.starts_with(path));
        Ok(())
    }

    fn children(&self, path: &Path) -> Result<Vec<String>> {
        let fs = self.fs.lock();
        let mut out = Vec::new();
        for file in fs.files.keys() {
            if let Ok(rest) = file.strip_prefix(path) {
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

    /// A view is the file's own bytes, and it keeps the bytes it saw: an
    /// append or a truncation copies the buffer on write, a removal drops
    /// only the file's reference.
    #[test]
    fn a_view_keeps_its_bytes_across_append_truncate_and_remove() {
        let env = MemEnv::new();
        let path = Path::new("/db/000001.sst");
        let mut f = env.new_writable_file(path).unwrap();
        f.append(b"0123456789").unwrap();
        let file = env.new_random_access_file(path).unwrap();
        let view = file.read_bytes(2, 6).unwrap();
        assert!(view.is_resident());
        assert_eq!(&*view, b"234567");

        f.append(b"abc").unwrap();
        assert_eq!(file.read(8, 10).unwrap(), b"89abc");
        env.truncate_file(path, 3).unwrap();
        assert_eq!(file.read(0, 10).unwrap(), b"012");
        env.remove_file(path).unwrap();
        assert_eq!(&*view, b"234567");
        assert_eq!(&*view.slice(4..6), b"67");
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
