//! Turning a WAL segment back into the batches it recorded.
//!
//! This is the one place WAL bytes become [`WriteBatch`]es. Recovery
//! replays *everything* (`from_seq = 0`) and lets the memtables sort it
//! out; a change stream wants only the batches at or past its cursor.
//! [`SegmentReplay`] wraps a [`LogReader`] and applies the stream delivery
//! rule: yield every batch whose **last** sequence is at or past
//! `from_seq`, in the order the segment recorded them (commit order). A
//! batch that straddles the cursor is delivered whole — consumers resume at
//! `applied + 1` and skip already-applied batches by their `last_seq`, so
//! over-delivery is safe and under-delivery never happens.
//!
//! A closed segment is read to its end, where a torn tail (crash
//! mid-append) ends it cleanly: the batches before the tear were committed,
//! the torn record never was. The segment still being appended to is read
//! up to the length its writer last published ([`SegmentReplay::set_limit`])
//! and picked up again from there when that length moves.

use pebblesdb_common::batch::WriteBatch;
use pebblesdb_common::key::SequenceNumber;
use pebblesdb_common::Result;
use pebblesdb_env::SequentialFile;

use crate::reader::LogReader;

/// A cursor-filtered batch iterator over one WAL segment.
pub struct SegmentReplay {
    reader: LogReader,
    from_seq: SequenceNumber,
}

impl SegmentReplay {
    /// Replays `file`, yielding batches whose last sequence is `>= from_seq`.
    pub fn new(file: Box<dyn SequentialFile>, from_seq: SequenceNumber) -> SegmentReplay {
        SegmentReplay {
            reader: LogReader::new(file),
            from_seq,
        }
    }

    /// Bounds the replay to the segment's first `limit` bytes; see
    /// [`LogReader::set_limit`].
    pub fn set_limit(&mut self, limit: u64) {
        self.reader.set_limit(limit);
    }

    /// The next batch at or past the cursor, or `None` at the end of the
    /// segment (or of what the limit allows, in which case a later call
    /// continues). With no limit a torn or corrupt tail ends the segment:
    /// those bytes were never acknowledged. Inside a limit every byte was,
    /// so one that cannot be read is lost history and an error. An error
    /// of the environment is always an error: the bytes it failed to
    /// deliver may be acknowledged writes.
    pub fn next_batch(&mut self) -> Result<Option<WriteBatch>> {
        loop {
            let record = self.reader.read_record();
            let batch = match record.and_then(|r| r.map(WriteBatch::from_contents).transpose()) {
                Ok(Some(batch)) => batch,
                Err(err) if self.reader.is_bounded() || !err.is_corruption() => return Err(err),
                // The clean end, a fragment that does not frame, or a record
                // that frames but is no batch: the tail recovery stops at.
                Ok(None) | Err(_) => return Ok(None),
            };
            if batch.last_sequence() >= self.from_seq {
                return Ok(Some(batch));
            }
            // Entirely before the cursor (e.g. a pre-sequenced relocation
            // of old data): the consumer already has it.
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

    fn replayed_sequences(env: &MemEnv, path: &Path, from: u64) -> Vec<u64> {
        let file = env.new_sequential_file(path).unwrap();
        let mut replay = SegmentReplay::new(file, from);
        let mut seqs = Vec::new();
        while let Some(b) = replay.next_batch().unwrap() {
            seqs.push(b.sequence());
        }
        seqs
    }

    #[test]
    fn replay_skips_batches_entirely_before_the_cursor() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000010.log");
        // Batches covering [1,2], [3,5], [6,6].
        write_segment(
            &env,
            path,
            &[
                batch(1, &[b"a", b"b"]),
                batch(3, &[b"c", b"d", b"e"]),
                batch(6, &[b"f"]),
            ],
        );
        assert_eq!(replayed_sequences(&env, path, 1), vec![1, 3, 6]);
        // Cursor 3 lands inside the second batch's range: delivered whole.
        assert_eq!(replayed_sequences(&env, path, 3), vec![3, 6]);
        assert_eq!(replayed_sequences(&env, path, 5), vec![3, 6]);
        assert_eq!(replayed_sequences(&env, path, 6), vec![6]);
        assert_eq!(replayed_sequences(&env, path, 7), Vec::<u64>::new());
    }

    #[test]
    fn out_of_order_presequenced_batches_filter_by_their_own_range() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000011.log");
        // Commit order: seq 10, then a relocation at old seq 4, then 11.
        write_segment(
            &env,
            path,
            &[batch(10, &[b"x"]), batch(4, &[b"old"]), batch(11, &[b"y"])],
        );
        // A cursor past the relocation skips it but keeps commit order.
        assert_eq!(replayed_sequences(&env, path, 10), vec![10, 11]);
        // A cursor at or before it still sees it, in commit order.
        assert_eq!(replayed_sequences(&env, path, 4), vec![10, 4, 11]);
    }

    /// Keys of the batches `replay` yields until it runs into its limit.
    fn drain(replay: &mut SegmentReplay) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Some(b) = replay.next_batch().unwrap() {
            seqs.push(b.sequence());
        }
        seqs
    }

    #[test]
    fn a_live_segment_is_read_up_to_the_limit_and_resumed_when_it_moves() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000013.log");
        let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
        let mut replay = SegmentReplay::new(env.new_sequential_file(path).unwrap(), 1);
        replay.set_limit(0);
        assert_eq!(drain(&mut replay), Vec::<u64>::new());

        // Small records: the reader stops and resumes inside one block.
        let mut published = Vec::new();
        for seq in 1..=3 {
            writer.add_record(batch(seq, &[b"k"]).contents()).unwrap();
            published.push(writer.file_len());
        }
        replay.set_limit(published[0]);
        assert_eq!(drain(&mut replay), vec![1]);
        assert_eq!(
            drain(&mut replay),
            Vec::<u64>::new(),
            "nothing past the limit"
        );
        replay.set_limit(published[2]);
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
        replay.set_limit(writer.file_len());
        assert_eq!(drain(&mut replay), vec![4, 5]);

        // The closed segment, read to its end by a fresh reader, is the same.
        assert_eq!(replayed_sequences(&env, path, 1), vec![1, 2, 3, 4, 5]);
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
        assert_eq!(replayed_sequences(&env, path, 1), vec![1]);
        // Read under a limit that covers the record, the damage is reported.
        let mut replay = SegmentReplay::new(env.new_sequential_file(path).unwrap(), 1);
        replay.set_limit(len);
        assert_eq!(replay.next_batch().unwrap().unwrap().sequence(), 1);
        assert!(replay.next_batch().is_err());
    }

    #[test]
    fn torn_tail_ends_replay_without_error() {
        let env = MemEnv::new();
        let path = Path::new("/wal/000012.log");
        write_segment(&env, path, &[batch(1, &[b"a"]), batch(2, &[b"b"])]);
        let size = env.file_size(path).unwrap() as usize;
        env.truncate_file(path, size - 3).unwrap();
        assert_eq!(replayed_sequences(&env, path, 1), vec![1]);
    }
}
