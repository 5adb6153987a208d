//! IO accounting shared by every file an [`Env`](crate::Env) creates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative IO counters for an environment.
///
/// The write-amplification experiments (Figure 1.1 and Figure 5.1a of the
/// paper) divide `bytes_written` by the user payload accepted by the store.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
    syncs: AtomicU64,
    dir_syncs: AtomicU64,
    files_created: AtomicU64,
    files_removed: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Total bytes appended to writable files.
    pub bytes_written: u64,
    /// Total bytes returned by reads.
    pub bytes_read: u64,
    /// Number of append calls.
    pub writes: u64,
    /// Number of read calls.
    pub reads: u64,
    /// Number of sync calls.
    pub syncs: u64,
    /// Number of directory syncs (durability of renames and new files).
    pub dir_syncs: u64,
    /// Number of files created.
    pub files_created: u64,
    /// Number of files removed.
    pub files_removed: u64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records `n` bytes written.
    pub fn record_write(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` bytes read.
    pub fn record_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a file sync.
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a directory sync.
    pub fn record_dir_sync(&self) {
        self.dir_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a file creation.
    pub fn record_file_created(&self) {
        self.files_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a file removal.
    pub fn record_file_removed(&self) {
        self.files_removed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Returns a consistent-enough copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            dir_syncs: self.dir_syncs.load(Ordering::Relaxed),
            files_created: self.files_created.load(Ordering::Relaxed),
            files_removed: self.files_removed.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.bytes_written.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.reads.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.dir_syncs.store(0, Ordering::Relaxed);
        self.files_created.store(0, Ordering::Relaxed);
        self.files_removed.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IoStats::new();
        stats.record_write(10);
        stats.record_write(5);
        stats.record_read(3);
        stats.record_sync();
        stats.record_file_created();
        stats.record_file_removed();
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_written, 15);
        assert_eq!(snap.bytes_read, 3);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.syncs, 1);
        assert_eq!(snap.files_created, 1);
        assert_eq!(snap.files_removed, 1);
    }

    #[test]
    fn reset_zeroes_counters() {
        let stats = IoStats::new();
        stats.record_write(10);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
    }
}
