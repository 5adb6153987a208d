//! Reading a record log back: the one place that says where a log ends.
//!
//! The write-ahead log, each family's MANIFEST, the `CFS` catalog and the
//! sharded store's journal are all written by [`LogWriter`](crate::LogWriter)
//! and read by [`Replay`]; they differ in their [`Record`] type and their
//! [`Tail`]. [`Replay::next_record`] alone decides three things:
//!
//! 1. **Framing damage** — a fragment no writer appends: bad checksum,
//!    length, type or order. Under [`Tail::Torn`] the writer may have died
//!    mid-append, so damage *ends the log*: what came before was committed,
//!    the damaged record never was. Under [`Tail::Committed`] every byte
//!    handed to the reader was acknowledged: `Corruption`.
//! 2. **A record that checksums but does not decode** is `Corruption` under
//!    both: it was written whole, so it is no tear — never a silent end,
//!    never half a batch.
//! 3. **An error of the environment** is that error under both: the bytes
//!    it withheld may be acknowledged writes.
//!
//! A file that stops, even mid-record, has ended under both: the missing
//! bytes were never handed to the reader. The end is not latched — a live
//! segment is picked up again when [`Replay::set_tail`] moves its length.

use std::marker::PhantomData;

use pebblesdb_common::batch::WriteBatch;
use pebblesdb_common::Result;
use pebblesdb_env::SequentialFile;

use crate::reader::{LogReader, ReadError};

/// What a record log holds: a value with a byte encoding.
pub trait Record: Sized {
    /// The bytes appended to the log for this value.
    fn encode(&self) -> Vec<u8>;
    /// The value `bytes` encode, or `Corruption`. May defer validating
    /// parts a consumer walks anyway (a batch's items), never panics, and
    /// allocates no more than `bytes` holds.
    fn decode(bytes: Vec<u8>) -> Result<Self>;
}

impl Record for WriteBatch {
    fn encode(&self) -> Vec<u8> {
        self.contents().to_vec()
    }

    fn decode(bytes: Vec<u8>) -> Result<WriteBatch> {
        WriteBatch::from_contents(bytes)
    }
}

/// What framing damage in a log means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The end of the log: closed WAL segments, the catalog, journals.
    Torn,
    /// `Corruption`: the file's first so many bytes were all acknowledged,
    /// and nothing past them is looked at. The MANIFEST (`u64::MAX`: all of
    /// it), and the live WAL segment up to the length its writer published
    /// after a whole record ([`LogWriter::file_len`](crate::LogWriter::file_len)).
    Committed(u64),
}

/// The records of one log file, in the order they were appended.
pub struct Replay<R> {
    reader: LogReader,
    tail: Tail,
    record: PhantomData<fn() -> R>,
}

impl<R: Record> Replay<R> {
    /// Replays `file` from its start under `tail`.
    pub fn new(file: Box<dyn SequentialFile>, tail: Tail) -> Replay<R> {
        let mut replay = Replay {
            reader: LogReader::new(file),
            tail,
            record: PhantomData,
        };
        replay.set_tail(tail);
        replay
    }

    /// Changes the policy for the records not yet read: a live segment's
    /// published length moved, or the segment was closed.
    pub fn set_tail(&mut self, tail: Tail) {
        self.tail = tail;
        self.reader.limit = match tail {
            Tail::Torn => u64::MAX,
            Tail::Committed(len) => len,
        };
    }

    /// The next record, or `None` at the end of the log — or of what the
    /// tail allows, in which case a later call continues.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        match self.reader.read_record() {
            Ok(None) => Ok(None),
            Err(ReadError::Damage(_)) if self.tail == Tail::Torn => Ok(None),
            Err(ReadError::Damage(err)) => Err(err),
            Ok(Some(bytes)) => R::decode(bytes).map(Some),
            Err(ReadError::Env(err)) => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogWriter;
    use pebblesdb_env::{Env, MemEnv};
    use std::path::Path;

    fn batch(seq: u64, keys: &[&[u8]]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for key in keys {
            b.put(key, b"v");
        }
        b.set_sequence(seq);
        b
    }

    fn write_segment(env: &MemEnv, path: &Path, batches: &[WriteBatch]) {
        let file = env.new_writable_file(path).unwrap();
        let mut writer = LogWriter::new(file);
        for b in batches {
            writer.add_record(b.contents()).unwrap();
        }
        writer.sync().unwrap();
    }

    /// Sequences of the batches `replay` yields until it runs into its end.
    fn drain(replay: &mut Replay<WriteBatch>) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Some(b) = replay.next_record().unwrap() {
            seqs.push(b.sequence());
        }
        seqs
    }

    fn replayed_sequences(env: &MemEnv, path: &Path) -> Vec<u64> {
        drain(&mut Replay::new(
            env.new_sequential_file(path).unwrap(),
            Tail::Torn,
        ))
    }

    #[test]
    fn a_live_segment_is_read_up_to_the_limit_and_resumed_when_it_moves() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000013.log");
        let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
        let file = env.new_sequential_file(path).unwrap();
        let mut replay = Replay::new(file, Tail::Committed(0));
        assert_eq!(drain(&mut replay), Vec::<u64>::new());

        // Small records: the reader stops and resumes inside one block.
        let mut published = Vec::new();
        for seq in 1..=3 {
            writer.add_record(batch(seq, &[b"k"]).contents()).unwrap();
            published.push(writer.file_len());
        }
        replay.set_tail(Tail::Committed(published[0]));
        assert_eq!(drain(&mut replay), vec![1]);
        assert_eq!(
            drain(&mut replay),
            Vec::<u64>::new(),
            "nothing past the limit"
        );
        replay.set_tail(Tail::Committed(published[2]));
        assert_eq!(drain(&mut replay), vec![2, 3]);

        // A record spanning three blocks, appended but not yet published,
        // is not looked at: not its first fragment, not a byte of it.
        let big = vec![b'x'; 2 * crate::BLOCK_SIZE + 100];
        let mut spanning = WriteBatch::new();
        spanning.put(b"big", &big);
        spanning.set_sequence(4);
        writer.add_record(spanning.contents()).unwrap();
        assert_eq!(drain(&mut replay), Vec::<u64>::new());
        // Published, it arrives whole; so does a record after the block
        // trailer it left behind.
        writer.add_record(batch(5, &[b"k"]).contents()).unwrap();
        replay.set_tail(Tail::Committed(writer.file_len()));
        assert_eq!(drain(&mut replay), vec![4, 5]);

        // The closed segment, read to its end by a fresh reader, is the same.
        assert_eq!(replayed_sequences(&env, path), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_bad_record_inside_the_limit_is_an_error_and_past_the_end_is_a_tail() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000014.log");
        write_segment(
            &env,
            path,
            &[batch(1, &[b"a"]), batch(2, &[b"b"]), batch(3, &[b"c"])],
        );
        let len = env.file_size(path).unwrap();
        // Flip a payload byte of the second record.
        let mut bytes = env.read_file_to_vec(path).unwrap();
        let second = bytes.len() / 3 + crate::HEADER_SIZE + 2;
        bytes[second] ^= 0x40;
        let mut file = env.new_writable_file(path).unwrap();
        file.append(&bytes).unwrap();
        file.close().unwrap();

        // Read as a closed segment it ends at the damage, as recovery would.
        assert_eq!(replayed_sequences(&env, path), vec![1]);
        // Read under a limit that covers the record, the damage is reported.
        let file = env.new_sequential_file(path).unwrap();
        let mut replay = Replay::<WriteBatch>::new(file, Tail::Committed(len));
        assert_eq!(replay.next_record().unwrap().unwrap().sequence(), 1);
        assert!(replay.next_record().unwrap_err().is_corruption());
    }

    #[test]
    fn a_garbage_length_in_a_whole_block_is_damage_not_a_hole() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000015.log");
        // Two small batches, a third that fills the first block to its last
        // byte, and a fourth that starts the second block.
        let small = crate::HEADER_SIZE + batch(1, &[b"a"]).contents().len();
        let room = crate::BLOCK_SIZE - 2 * small - crate::HEADER_SIZE;
        let mut filler = WriteBatch::new();
        filler.put(b"f", &vec![b'x'; room - 18]);
        filler.set_sequence(3);
        assert_eq!(filler.contents().len(), room);
        let batches = [
            batch(1, &[b"a"]),
            batch(2, &[b"b"]),
            filler,
            batch(4, &[b"d"]),
        ];
        write_segment(&env, path, &batches);
        // The second record's length now runs past the block.
        let mut bytes = env.read_file_to_vec(path).unwrap();
        bytes[small + 5] = 0xff;
        let mut file = env.new_writable_file(path).unwrap();
        file.append(&bytes).unwrap();
        file.close().unwrap();

        // Skipping to the next block would replay 4 behind a hole.
        assert_eq!(replayed_sequences(&env, path), vec![1]);
        let file = env.new_sequential_file(path).unwrap();
        let mut replay = Replay::<WriteBatch>::new(file, Tail::Committed(u64::MAX));
        assert_eq!(replay.next_record().unwrap().unwrap().sequence(), 1);
        assert!(replay.next_record().unwrap_err().is_corruption());
    }

    #[test]
    fn torn_tail_ends_replay_without_error() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000012.log");
        write_segment(&env, path, &[batch(1, &[b"a"]), batch(2, &[b"b"])]);
        let size = env.file_size(path).unwrap() as usize;
        env.truncate_file(path, size - 3).unwrap();
        assert_eq!(replayed_sequences(&env, path), vec![1]);
    }
}
