//! Appends records to a write-ahead log file.

use pebblesdb_common::crc32c;
use pebblesdb_common::Result;
use pebblesdb_env::WritableFile;

use crate::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Writes length-prefixed, checksummed records into 32 KiB blocks.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    /// Length of the file: what it held at the start plus every byte
    /// appended since, padding included.
    len: u64,
}

impl LogWriter {
    /// Creates a writer that appends to `file` starting at a block boundary.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        LogWriter { file, len: 0 }
    }

    /// Appends one logical record, fragmenting it across blocks as needed.
    pub fn add_record(&mut self, record: &[u8]) -> Result<()> {
        let mut remaining = record;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset();
            if leftover < HEADER_SIZE {
                // Pad the tail of the block with zeroes and switch blocks.
                self.file.append(&[0u8; HEADER_SIZE][..leftover])?;
                self.len += leftover as u64;
            }

            let available = BLOCK_SIZE - self.block_offset() - HEADER_SIZE;
            let fragment_len = remaining.len().min(available);
            let end = fragment_len == remaining.len();
            let record_type = match (begin, end) {
                (true, true) => RecordType::Full,
                (true, false) => RecordType::First,
                (false, true) => RecordType::Last,
                (false, false) => RecordType::Middle,
            };
            self.emit_physical_record(record_type, &remaining[..fragment_len])?;
            remaining = &remaining[fragment_len..];
            begin = false;
            if end {
                break;
            }
        }
        Ok(())
    }

    /// The file's length in bytes. After an `add_record` that returned `Ok`
    /// it is a record boundary: a reader bounded by it sees whole records
    /// only (once the bytes are flushed).
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Offset within the current block.
    fn block_offset(&self) -> usize {
        (self.len % BLOCK_SIZE as u64) as usize
    }

    /// Flushes buffered data to the operating system.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush()
    }

    /// Forces log contents to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()
    }

    /// Consumes the writer, closing the underlying file.
    pub fn close(mut self) -> Result<()> {
        self.file.close()
    }

    fn emit_physical_record(&mut self, record_type: RecordType, data: &[u8]) -> Result<()> {
        debug_assert!(data.len() <= 0xffff);
        debug_assert!(self.block_offset() + HEADER_SIZE + data.len() <= BLOCK_SIZE);

        let mut header = [0u8; HEADER_SIZE];
        // CRC covers the type byte followed by the payload, like LevelDB.
        let mut crc = crc32c::extend(0, &[record_type as u8]);
        crc = crc32c::extend(crc, data);
        header[..4].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        header[4] = (data.len() & 0xff) as u8;
        header[5] = ((data.len() >> 8) & 0xff) as u8;
        header[6] = record_type as u8;

        self.file.append(&header)?;
        self.file.append(data)?;
        self.len += (HEADER_SIZE + data.len()) as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;

    #[test]
    fn block_padding_keeps_headers_whole() {
        let env = MemEnv::new();
        let path = Path::new("/wal/pad.log");
        let file = env.new_writable_file(path).unwrap();
        let mut writer = LogWriter::new(file);
        // A record sized so the next header would not fit in the block.
        let first = vec![b'x'; BLOCK_SIZE - HEADER_SIZE - 3];
        writer.add_record(&first).unwrap();
        writer.add_record(b"tail").unwrap();
        writer.sync().unwrap();

        let size = env.file_size(path).unwrap() as usize;
        // First record + padding fills exactly one block, then the second
        // record starts a new block.
        assert_eq!(size, BLOCK_SIZE + HEADER_SIZE + 4);
    }
}
