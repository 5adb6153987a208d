//! Sstable metadata shared by every level organization.
//!
//! [`FileMetaData`] describes one live table; both the guard-organised FLSM
//! version and the sorted-run LSM version reference tables through it, so it
//! lives in the chassis crate rather than in either engine.

use std::sync::Arc;

use pebblesdb_common::key::InternalKey;
use pebblesdb_sstable::TableSlot;

/// Metadata describing one live sstable.
#[derive(Debug)]
pub struct FileMetaData {
    /// The file number (also the file name).
    pub number: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// Smallest internal key stored in the file.
    pub smallest: InternalKey,
    /// Largest internal key stored in the file.
    pub largest: InternalKey,
    /// The file's open reader, filled and bounded by the family's
    /// `TableCache`; it lives exactly as long as a version names the file.
    pub table: Arc<TableSlot>,
}

impl FileMetaData {
    /// Creates metadata for a new file.
    pub fn new(number: u64, file_size: u64, smallest: InternalKey, largest: InternalKey) -> Self {
        FileMetaData {
            number,
            file_size,
            smallest,
            largest,
            table: Arc::default(),
        }
    }

    /// Returns `true` if the file's key range overlaps `[begin, end]` in user
    /// key space. `None` bounds are unbounded.
    pub fn overlaps_user_range(&self, begin: Option<&[u8]>, end: Option<&[u8]>) -> bool {
        let file_smallest = self.smallest.user_key();
        let file_largest = self.largest.user_key();
        if let Some(begin) = begin {
            if file_largest < begin {
                return false;
            }
        }
        if let Some(end) = end {
            if file_smallest > end {
                return false;
            }
        }
        true
    }
}

/// The user-key range `[smallest, largest]` that `files` cover together
/// (two empty keys for no files): what a compaction of them must look for
/// in other levels, and the range a job over them holds.
pub fn user_key_range<'a>(
    files: impl IntoIterator<Item = &'a Arc<FileMetaData>, IntoIter: Clone>,
) -> (&'a [u8], &'a [u8]) {
    let files = files.into_iter();
    let smallest = files.clone().map(|f| f.smallest.user_key()).min();
    let largest = files.map(|f| f.largest.user_key()).max();
    (smallest.unwrap_or_default(), largest.unwrap_or_default())
}

/// The serialisable subset of [`FileMetaData`] carried in a version edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMetaDataEdit {
    /// File number.
    pub number: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
}

impl FileMetaDataEdit {
    /// The live-table metadata this record describes.
    pub fn to_meta(&self) -> Arc<FileMetaData> {
        Arc::new(FileMetaData::new(
            self.number,
            self.file_size,
            InternalKey::from_encoded(self.smallest.clone()),
            InternalKey::from_encoded(self.largest.clone()),
        ))
    }

    /// Whether `meta` is the file this record describes.
    pub fn describes(&self, meta: &FileMetaData) -> bool {
        (self.number, self.file_size) == (meta.number, meta.file_size)
            && self.smallest == meta.smallest.encoded()
            && self.largest == meta.largest.encoded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::key::ValueType;

    fn meta(smallest: &str, largest: &str) -> FileMetaData {
        FileMetaData::new(
            7,
            1000,
            InternalKey::new(smallest.as_bytes(), 5, ValueType::Value),
            InternalKey::new(largest.as_bytes(), 1, ValueType::Value),
        )
    }

    #[test]
    fn overlap_checks_cover_bounds() {
        let file = meta("c", "m");
        assert!(file.overlaps_user_range(None, None));
        assert!(file.overlaps_user_range(Some(b"a"), Some(b"d")));
        assert!(file.overlaps_user_range(Some(b"m"), None));
        assert!(!file.overlaps_user_range(Some(b"n"), None));
        assert!(!file.overlaps_user_range(None, Some(b"b")));
    }
}
