//! Database file naming conventions.
//!
//! Both engines lay out their directories the LevelDB way: numbered `.log`
//! write-ahead logs, numbered `.sst` tables, `MANIFEST-NNNNNN` descriptor
//! logs and a `CURRENT` pointer file.

use std::path::{Path, PathBuf};

/// The kind of file a database directory entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Write-ahead log (`NNNNNN.log`).
    WriteAheadLog,
    /// Sorted string table (`NNNNNN.sst`).
    Table,
    /// Version descriptor log (`MANIFEST-NNNNNN`).
    Descriptor,
    /// The `CURRENT` file pointing at the live manifest.
    Current,
    /// The advisory `LOCK` file.
    Lock,
    /// A temporary file produced during atomic renames (`NNNNNN.dbtmp`).
    Temp,
    /// B+Tree page file (`NNNNNN.btp`).
    BtreePages,
    /// Value-log file holding separated large values (`NNNNNN.vlog`).
    ValueLog,
}

/// Returns the path of write-ahead log number `number` inside `db`.
pub fn log_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("{number:06}.log"))
}

/// Returns the path of sstable number `number` inside `db`.
pub fn table_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("{number:06}.sst"))
}

/// Returns the path of manifest number `number` inside `db`.
pub fn descriptor_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("MANIFEST-{number:06}"))
}

/// Returns the path of the `CURRENT` file inside `db`.
pub fn current_file_name(db: &Path) -> PathBuf {
    db.join("CURRENT")
}

/// Returns the path of temporary file number `number` inside `db`.
pub fn temp_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("{number:06}.dbtmp"))
}

/// Returns the path of the B+Tree page file number `number` inside `db`.
pub fn btree_pages_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("{number:06}.btp"))
}

/// Returns the path of value-log file number `number` inside `db`.
pub fn vlog_file_name(db: &Path, number: u64) -> PathBuf {
    db.join(format!("{number:06}.vlog"))
}

/// Parses a directory entry name into its type and number.
///
/// Returns `None` for files that do not belong to a database directory.
pub fn parse_file_name(name: &str) -> Option<(FileType, u64)> {
    if name == "CURRENT" {
        return Some((FileType::Current, 0));
    }
    if name == "LOCK" {
        return Some((FileType::Lock, 0));
    }
    if let Some(rest) = name.strip_prefix("MANIFEST-") {
        let number: u64 = rest.parse().ok()?;
        return Some((FileType::Descriptor, number));
    }
    let (stem, ext) = name.rsplit_once('.')?;
    let number: u64 = stem.parse().ok()?;
    match ext {
        "log" => Some((FileType::WriteAheadLog, number)),
        "sst" => Some((FileType::Table, number)),
        "dbtmp" => Some((FileType::Temp, number)),
        "btp" => Some((FileType::BtreePages, number)),
        "vlog" => Some((FileType::ValueLog, number)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_names_parse_back() {
        let db = Path::new("/db");
        let cases = vec![
            (log_file_name(db, 7), FileType::WriteAheadLog, 7),
            (table_file_name(db, 42), FileType::Table, 42),
            (descriptor_file_name(db, 3), FileType::Descriptor, 3),
            (temp_file_name(db, 9), FileType::Temp, 9),
            (btree_pages_file_name(db, 1), FileType::BtreePages, 1),
            (vlog_file_name(db, 18), FileType::ValueLog, 18),
        ];
        for (path, ty, number) in cases {
            let name = path.file_name().unwrap().to_str().unwrap();
            assert_eq!(parse_file_name(name), Some((ty, number)));
        }
        assert_eq!(parse_file_name("CURRENT"), Some((FileType::Current, 0)));
        assert_eq!(parse_file_name("LOCK"), Some((FileType::Lock, 0)));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(parse_file_name("random.txt"), None);
        assert_eq!(parse_file_name("notanumber.sst"), None);
        assert_eq!(parse_file_name("MANIFEST-abc"), None);
        assert_eq!(parse_file_name(""), None);
    }

    #[test]
    fn numbers_are_zero_padded() {
        let db = Path::new("/db");
        assert!(table_file_name(db, 5)
            .to_str()
            .unwrap()
            .ends_with("000005.sst"));
        assert!(log_file_name(db, 123456)
            .to_str()
            .unwrap()
            .ends_with("123456.log"));
    }
}
