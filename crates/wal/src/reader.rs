//! The framing layer: fragments on file back into the records appended.

use pebblesdb_common::{crc32c, Error, Result};
use pebblesdb_env::SequentialFile;

use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Why [`LogReader::read_record`] has no record to hand over. What follows
/// from either is [`Replay`](crate::Replay)'s to say.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// Bytes that are on file and are not what a writer appends: a bad
    /// checksum or length, an unknown fragment type, fragments out of order.
    Damage(Error),
    /// The environment failed; the bytes it withheld may be fine.
    Env(Error),
}

impl From<Error> for ReadError {
    fn from(err: Error) -> ReadError {
        ReadError::Env(err)
    }
}

/// Reassembles logical records from a log file.
///
/// The end of the readable bytes is not latched: a call that returned
/// `Ok(None)` may be repeated once the file has grown or the limit has been
/// raised, and continues inside the block it stopped in. That is how a
/// change stream follows a segment the engine is still appending to.
pub(crate) struct LogReader {
    file: Box<dyn SequentialFile>,
    /// What has been read of the current block.
    block: Vec<u8>,
    /// Read cursor within `block`.
    block_pos: usize,
    /// Bytes of the file read into `block` so far, over all blocks.
    consumed: u64,
    /// Bytes of the file the reader may consume; a record boundary, so
    /// that bytes of an append still in flight are never looked at.
    pub(crate) limit: u64,
    corruption_count: usize,
    corruption_bytes: u64,
}

impl LogReader {
    /// Creates a reader positioned at the start of `file`, free to read to
    /// its end.
    pub(crate) fn new(file: Box<dyn SequentialFile>) -> Self {
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

    /// Number of damaged fragments encountered so far.
    #[cfg(test)]
    pub(crate) fn corruption_count(&self) -> usize {
        self.corruption_count
    }

    /// Number of bytes dropped as damaged so far.
    #[cfg(test)]
    pub(crate) fn corruption_bytes(&self) -> u64 {
        self.corruption_bytes
    }

    /// Counts `dropped` damaged bytes and names the damage.
    fn damage(&mut self, dropped: usize, what: impl Into<String>) -> ReadError {
        self.corruption_count += 1;
        self.corruption_bytes += dropped as u64;
        ReadError::Damage(Error::corruption(what))
    }

    /// Reads the next logical record.
    ///
    /// Returns `Ok(None)` where the file (or the limit) ends, in the middle
    /// of a record included: the writer died appending it, or has not
    /// finished yet. After damage the next call resynchronises at the next
    /// fragment that frames.
    pub(crate) fn read_record(&mut self) -> std::result::Result<Option<Vec<u8>>, ReadError> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let Some((record_type, fragment)) = self.read_physical_record()? else {
                return Ok(None);
            };
            match (record_type, assembled.as_mut()) {
                (RecordType::Full, None) => return Ok(Some(fragment)),
                (RecordType::First, None) => assembled = Some(fragment),
                (RecordType::Middle, Some(buf)) => buf.extend_from_slice(&fragment),
                (RecordType::Last, Some(buf)) => {
                    buf.extend_from_slice(&fragment);
                    return Ok(assembled);
                }
                (RecordType::Full | RecordType::First, Some(_)) => {
                    return Err(self.damage(0, "partial record followed by a new record"));
                }
                (RecordType::Middle | RecordType::Last, None) => {
                    return Err(self.damage(0, "record fragment without its FIRST"));
                }
            }
        }
    }

    /// Reads the next physical fragment, refilling the block buffer as needed.
    fn read_physical_record(
        &mut self,
    ) -> std::result::Result<Option<(RecordType, Vec<u8>)>, ReadError> {
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
                // its length is garbage, and so is the rest of the block. In
                // a partly read one the rest may be on file by now; if not,
                // the writer crashed while appending this fragment.
                if self.block.len() == BLOCK_SIZE {
                    let dropped = BLOCK_SIZE - self.block_pos;
                    self.block_pos = BLOCK_SIZE;
                    return Err(self.damage(dropped, "fragment length runs past its block"));
                }
                if !self.fill_block()? {
                    return Ok(None);
                }
                continue;
            }

            let data_start = self.block_pos + HEADER_SIZE;
            self.block_pos = data_start + length;
            let data = &self.block[data_start..self.block_pos];
            let Some(record_type) = RecordType::from_u8(type_tag) else {
                let what = format!("unknown record type {type_tag}");
                return Err(self.damage(HEADER_SIZE + length, what));
            };
            if crc32c::extend(crc32c::extend(0, &[type_tag]), data) != expected_crc {
                return Err(self.damage(HEADER_SIZE + length, "record checksum mismatch"));
            }
            return Ok(Some((record_type, data.to_vec())));
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
    use pebblesdb_env::{Env, MemEnv, SimEnv};
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
        reader.limit = writer.file_len();
        assert_eq!(reader.read_record().unwrap(), Some(first));
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(
            reader.read_record().unwrap(),
            None,
            "the end is not latched"
        );

        writer.add_record(b"tail").unwrap();
        assert_eq!(reader.read_record().unwrap(), None, "still bounded");
        reader.limit = writer.file_len();
        assert_eq!(reader.read_record().unwrap(), Some(b"tail".to_vec()));
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(reader.corruption_count(), 0);
    }

    #[test]
    fn a_failed_read_leaves_no_unread_bytes_in_the_block() {
        let env = MemEnv::new();
        let path = Path::new("/wal/flaky.log");
        let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
        writer.add_record(b"first record").unwrap();
        writer.add_record(b"second record").unwrap();
        // Seven bytes arrive, then one read fails.
        let flaky = SimEnv::new(std::sync::Arc::new(env.clone()));
        flaky.fail_sequential_read("flaky", 1);
        let mut reader = LogReader::new(flaky.new_sequential_file(path).unwrap());
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
