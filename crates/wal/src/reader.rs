//! Reads records back from a write-ahead log file.

use pebblesdb_common::{crc32c, Error, Result};
use pebblesdb_env::SequentialFile;

use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Replays logical records from a log file, skipping corrupted regions.
///
/// The end of the readable bytes is not latched: a call that returned
/// `Ok(None)` may be repeated once the file has grown or the limit has been
/// raised, and continues inside the block it stopped in. That is how a
/// change stream follows a segment the engine is still appending to.
pub struct LogReader {
    file: Box<dyn SequentialFile>,
    /// What has been read of the current block.
    block: Vec<u8>,
    /// Read cursor within `block`.
    block_pos: usize,
    /// Bytes of the file read into `block` so far, over all blocks.
    consumed: u64,
    /// Bytes of the file the reader may consume.
    limit: u64,
    corruption_count: usize,
    corruption_bytes: u64,
}

impl LogReader {
    /// Creates a reader positioned at the start of `file`, free to read to
    /// its end.
    pub fn new(file: Box<dyn SequentialFile>) -> Self {
        LogReader {
            file,
            block: Vec::new(),
            block_pos: 0,
            consumed: 0,
            limit: u64::MAX,
            corruption_count: 0,
            corruption_bytes: 0,
        }
    }

    /// Bounds the reader to the first `limit` bytes of the file. A live
    /// segment is read up to the length its writer reported after a whole
    /// record ([`LogWriter::file_len`](crate::LogWriter::file_len)), so bytes of an
    /// append still in flight are never looked at; the limit must fall on
    /// such a record boundary.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit;
    }

    /// Whether a limit is set: every byte inside one was acknowledged.
    pub fn is_bounded(&self) -> bool {
        self.limit != u64::MAX
    }

    /// Number of corrupted fragments encountered so far.
    pub fn corruption_count(&self) -> usize {
        self.corruption_count
    }

    /// Number of bytes dropped due to corruption so far.
    pub fn corruption_bytes(&self) -> u64 {
        self.corruption_bytes
    }

    /// Reads the next logical record.
    ///
    /// Returns `Ok(None)` at the clean end of the log. A corrupted fragment
    /// produces an `Err`; callers may keep calling to resynchronise at the
    /// next readable record (the engines treat an error as "stop replay" for
    /// the tail of the newest log and as fatal for older logs).
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let fragment = match self.read_physical_record()? {
                Some(f) => f,
                None => {
                    // End of file. An unterminated fragment sequence means the
                    // writer crashed mid-record; drop it silently.
                    return Ok(None);
                }
            };
            match fragment.0 {
                RecordType::Full => {
                    if assembled.is_some() {
                        self.corruption_count += 1;
                        return Err(Error::corruption("partial record followed by full record"));
                    }
                    return Ok(Some(fragment.1));
                }
                RecordType::First => {
                    if assembled.is_some() {
                        self.corruption_count += 1;
                        return Err(Error::corruption("two FIRST fragments in a row"));
                    }
                    assembled = Some(fragment.1);
                }
                RecordType::Middle => match assembled.as_mut() {
                    Some(buf) => buf.extend_from_slice(&fragment.1),
                    None => {
                        self.corruption_count += 1;
                        return Err(Error::corruption("MIDDLE fragment without FIRST"));
                    }
                },
                RecordType::Last => match assembled.take() {
                    Some(mut buf) => {
                        buf.extend_from_slice(&fragment.1);
                        return Ok(Some(buf));
                    }
                    None => {
                        self.corruption_count += 1;
                        return Err(Error::corruption("LAST fragment without FIRST"));
                    }
                },
            }
        }
    }

    /// [`LogReader::read_record`] for the replay of a log whose tail may be
    /// torn: damage ends the log as its clean end does — the record being
    /// appended at the crash never committed — while an error of the
    /// environment is returned, because the bytes it withheld may be fine.
    pub fn read_record_or_tail(&mut self) -> Result<Option<Vec<u8>>> {
        match self.read_record() {
            Err(err) if err.is_corruption() => Ok(None),
            other => other,
        }
    }

    /// Reads the next physical fragment, refilling the block buffer as needed.
    fn read_physical_record(&mut self) -> Result<Option<(RecordType, Vec<u8>)>> {
        loop {
            if self.block.len() - self.block_pos < HEADER_SIZE {
                // Less than a header left: a block's trailer, or as far as
                // the file had been read.
                if !self.fill_block()? {
                    return Ok(None);
                }
                continue;
            }
            let header = &self.block[self.block_pos..self.block_pos + HEADER_SIZE];
            let expected_crc = crc32c::unmask(u32::from_le_bytes(
                header[..4].try_into().expect("4-byte crc"),
            ));
            let length = usize::from(header[4]) | (usize::from(header[5]) << 8);
            let type_tag = header[6];

            // A zero-filled header marks block padding written by the writer.
            if type_tag == 0 && length == 0 && expected_crc == crc32c::unmask(0) {
                self.block_pos = self.block.len();
                continue;
            }

            if self.block_pos + HEADER_SIZE + length > self.block.len() {
                // The fragment runs past what is buffered. In a whole block
                // its length is garbage: drop the rest of the block. In a
                // partly read one the rest may be on file by now; if not,
                // the writer crashed while appending this fragment.
                if self.block.len() == BLOCK_SIZE {
                    self.corruption_bytes += (BLOCK_SIZE - self.block_pos) as u64;
                }
                if !self.fill_block()? {
                    return Ok(None);
                }
                continue;
            }

            let data_start = self.block_pos + HEADER_SIZE;
            let data = &self.block[data_start..data_start + length];
            let record_type = match RecordType::from_u8(type_tag) {
                Some(t) => t,
                None => {
                    self.block_pos += HEADER_SIZE + length;
                    self.corruption_count += 1;
                    self.corruption_bytes += (HEADER_SIZE + length) as u64;
                    return Err(Error::corruption(format!("unknown record type {type_tag}")));
                }
            };

            let mut actual_crc = crc32c::extend(0, &[type_tag]);
            actual_crc = crc32c::extend(actual_crc, data);
            if actual_crc != expected_crc {
                self.block_pos += HEADER_SIZE + length;
                self.corruption_count += 1;
                self.corruption_bytes += (HEADER_SIZE + length) as u64;
                return Err(Error::corruption("record checksum mismatch"));
            }

            let out = data.to_vec();
            self.block_pos += HEADER_SIZE + length;
            return Ok(Some((record_type, out)));
        }
    }

    /// Reads more of the file into the block buffer: the rest of the
    /// current block or, once that is whole, the next one (what was left of
    /// a whole block is unusable to either caller). Returns whether any
    /// bytes arrived.
    fn fill_block(&mut self) -> Result<bool> {
        if self.block.len() == BLOCK_SIZE {
            self.block.clear();
            self.block_pos = 0;
        }
        let start = self.block.len();
        let allowed = self.limit.saturating_sub(self.consumed);
        let end = start + ((BLOCK_SIZE - start) as u64).min(allowed) as usize;
        self.block.resize(end, 0);
        let mut filled = start;
        let mut read = Ok(0);
        while filled < end {
            read = self.file.read(&mut self.block[filled..]);
            match read {
                Ok(n) if n > 0 => filled += n,
                _ => break,
            }
        }
        // Whether the file ended or the read failed, only what arrived
        // stays in the block.
        self.block.truncate(filled);
        self.consumed += (filled - start) as u64;
        read.map(|_| filled > start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogWriter;
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;

    #[test]
    fn reader_counts_corruption_bytes() {
        let env = MemEnv::new();
        let path = Path::new("/wal/corrupt.log");
        {
            let file = env.new_writable_file(path).unwrap();
            let mut writer = LogWriter::new(file);
            writer.add_record(&[b'z'; 100]).unwrap();
            writer.sync().unwrap();
        }
        let mut contents = env.read_file_to_vec(path).unwrap();
        contents[0] ^= 0x55; // Corrupt the stored CRC.
        let mut f = env.new_writable_file(path).unwrap();
        f.append(&contents).unwrap();
        f.close().unwrap();

        let mut reader = LogReader::new(env.new_sequential_file(path).unwrap());
        assert!(reader.read_record().is_err());
        assert!(reader.corruption_bytes() >= 100);
        assert_eq!(reader.read_record().unwrap(), None);
    }

    #[test]
    fn a_bounded_reader_resumes_across_a_block_trailer() {
        let env = MemEnv::new();
        let path = Path::new("/wal/live.log");
        let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
        let mut reader = LogReader::new(env.new_sequential_file(path).unwrap());
        // Leaves three bytes of the block: too few for a header, and not
        // padded until the next record is added.
        let first = vec![b'x'; BLOCK_SIZE - HEADER_SIZE - 3];
        writer.add_record(&first).unwrap();
        assert_eq!(writer.file_len(), (BLOCK_SIZE - 3) as u64);
        reader.set_limit(writer.file_len());
        assert_eq!(reader.read_record().unwrap(), Some(first));
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(
            reader.read_record().unwrap(),
            None,
            "the end is not latched"
        );

        writer.add_record(b"tail").unwrap();
        assert_eq!(reader.read_record().unwrap(), None, "still bounded");
        reader.set_limit(writer.file_len());
        assert_eq!(reader.read_record().unwrap(), Some(b"tail".to_vec()));
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(reader.corruption_count(), 0);
    }

    /// Hands out `inner` a few bytes at a time and fails one read.
    struct FlakyFile {
        inner: Box<dyn SequentialFile>,
        reads_until_error: usize,
    }

    impl SequentialFile for FlakyFile {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            self.reads_until_error = self.reads_until_error.wrapping_sub(1);
            if self.reads_until_error == 0 {
                return Err(Error::corruption("injected read error"));
            }
            let n = buf.len().min(7);
            self.inner.read(&mut buf[..n])
        }

        fn skip(&mut self, n: u64) -> Result<()> {
            self.inner.skip(n)
        }
    }

    #[test]
    fn a_failed_read_leaves_no_unread_bytes_in_the_block() {
        let env = MemEnv::new();
        let path = Path::new("/wal/flaky.log");
        let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
        writer.add_record(b"first record").unwrap();
        writer.add_record(b"second record").unwrap();
        let mut reader = LogReader::new(Box::new(FlakyFile {
            inner: env.new_sequential_file(path).unwrap(),
            reads_until_error: 2,
        }));
        // The error surfaces once; what had arrived before it is kept and
        // the rest is read afterwards, not taken for zero padding.
        assert!(reader.read_record().is_err());
        assert_eq!(
            reader.read_record().unwrap(),
            Some(b"first record".to_vec())
        );
        assert_eq!(
            reader.read_record().unwrap(),
            Some(b"second record".to_vec())
        );
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(reader.corruption_count(), 0);
    }

    #[test]
    fn empty_file_returns_no_records() {
        let env = MemEnv::new();
        let path = Path::new("/wal/empty.log");
        env.new_writable_file(path).unwrap().close().unwrap();
        let mut reader = LogReader::new(env.new_sequential_file(path).unwrap());
        assert_eq!(reader.read_record().unwrap(), None);
    }
}
