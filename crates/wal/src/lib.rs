//! The record log: the one append-only file format of the workspace.
//!
//! Both engines append serialized [`WriteBatch`]es to a write-ahead log
//! before applying them to the memtable; on restart the log is replayed to
//! rebuild the memtable contents that had not yet been flushed to sstables.
//! The MANIFEST, the column-family catalog and the sharded store's journal
//! are the same file with other [`Record`] types: written by [`LogWriter`],
//! read by [`Replay`], which alone says where such a log ends.
//!
//! The format is the LevelDB log format: the file is a sequence of 32 KiB
//! blocks, each holding one or more records. A logical record larger than
//! the space left in a block is split into FIRST/MIDDLE/LAST fragments; every
//! fragment carries a masked CRC32C so torn writes are detected and the tail
//! of the log can be safely ignored after a crash.
//!
//! [`WriteBatch`]: pebblesdb_common::WriteBatch

mod reader;
pub mod replay;
pub mod writer;

pub use replay::{Record, Replay, Tail};
pub use writer::LogWriter;

/// Size of a log block in bytes.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Bytes of header per physical record: checksum (4) + length (2) + type (1).
pub const HEADER_SIZE: usize = 7;

/// Physical record types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// A record fully contained in one fragment.
    Full = 1,
    /// The first fragment of a multi-fragment record.
    First = 2,
    /// A middle fragment.
    Middle = 3,
    /// The final fragment.
    Last = 4,
}

impl RecordType {
    /// Decodes a record type tag.
    pub fn from_u8(tag: u8) -> Option<RecordType> {
        match tag {
            1 => Some(RecordType::Full),
            2 => Some(RecordType::First),
            3 => Some(RecordType::Middle),
            4 => Some(RecordType::Last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::LogReader;
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;

    fn write_records(env: &MemEnv, path: &Path, records: &[Vec<u8>]) {
        let file = env.new_writable_file(path).unwrap();
        let mut writer = LogWriter::new(file);
        for rec in records {
            writer.add_record(rec).unwrap();
        }
        writer.sync().unwrap();
    }

    fn read_records(env: &MemEnv, path: &Path) -> Vec<Vec<u8>> {
        let file = env.new_sequential_file(path).unwrap();
        let mut reader = LogReader::new(file);
        let mut out = Vec::new();
        while let Some(rec) = reader.read_record().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn roundtrip_small_records() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000001.log");
        let records = vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
        write_records(&env, path, &records);
        assert_eq!(read_records(&env, path), records);
    }

    #[test]
    fn roundtrip_records_spanning_blocks() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000002.log");
        let records = vec![
            vec![b'a'; 10],
            vec![b'b'; BLOCK_SIZE],     // Spans two blocks.
            vec![b'c'; 3 * BLOCK_SIZE], // Spans four blocks.
            vec![b'd'; 17],
        ];
        write_records(&env, path, &records);
        assert_eq!(read_records(&env, path), records);
    }

    #[test]
    fn empty_records_are_preserved() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000003.log");
        let records = vec![Vec::new(), b"x".to_vec(), Vec::new()];
        write_records(&env, path, &records);
        assert_eq!(read_records(&env, path), records);
    }

    #[test]
    fn truncated_tail_is_ignored_not_fatal() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000004.log");
        let records = vec![b"first".to_vec(), vec![b'x'; 5000], b"last".to_vec()];
        write_records(&env, path, &records);
        // Chop off the last few bytes: the final record becomes unreadable but
        // recovery must still return every record before it.
        let size = env.file_size(path).unwrap() as usize;
        env.truncate_file(path, size - 3).unwrap();
        let recovered = read_records(&env, path);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0], b"first");
    }

    #[test]
    fn corrupted_record_is_skipped() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000005.log");
        let records = vec![b"aaaa".to_vec(), b"bbbb".to_vec()];
        write_records(&env, path, &records);
        // Flip a byte inside the first record's payload.
        let mut contents = env.read_file_to_vec(path).unwrap();
        contents[HEADER_SIZE] ^= 0xff;
        let rewrite = env.new_writable_file(path).unwrap();
        let mut writer = rewrite;
        writer.append(&contents).unwrap();
        writer.close().unwrap();

        let file = env.new_sequential_file(path).unwrap();
        let mut reader = LogReader::new(file);
        let mut recovered = Vec::new();
        loop {
            match reader.read_record() {
                Ok(Some(rec)) => recovered.push(rec),
                Ok(None) => break,
                Err(_) => continue,
            }
        }
        // The corrupted first record is dropped; the second survives.
        assert_eq!(recovered, vec![b"bbbb".to_vec()]);
        assert!(reader.corruption_count() >= 1);
    }

    #[test]
    fn record_type_tags_roundtrip() {
        for ty in [
            RecordType::Full,
            RecordType::First,
            RecordType::Middle,
            RecordType::Last,
        ] {
            assert_eq!(RecordType::from_u8(ty as u8), Some(ty));
        }
        assert_eq!(RecordType::from_u8(0), None);
        assert_eq!(RecordType::from_u8(9), None);
    }
}
