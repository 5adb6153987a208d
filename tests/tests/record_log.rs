//! The record log's tail policy as a table: the write-ahead log, the
//! MANIFEST, the `CFS` catalog and the sharded store's journal are one file
//! format read by one `pebblesdb_wal::Replay`, so one body holds each of
//! them — read the way its owner reads it at open — to the row of the policy
//! it is read under: a clean end, a last record cut short at every byte, a
//! flipped bit in the last and in a middle record, a read the `Env` fails,
//! and a record that checksums but does not decode.

use std::path::Path;
use std::sync::Arc;

use pebblesdb::{FlsmLevel, PebblesDb};
use pebblesdb_common::filename::current_file_name;
use pebblesdb_common::key::{InternalKey, ValueType};
use pebblesdb_common::{Db, Error, KvStore, Result, StoreOptions, WriteBatch};
use pebblesdb_engine::catalog::CatalogEdit;
use pebblesdb_engine::version_set::version_files;
use pebblesdb_engine::{FileMetaDataEdit, VersionEdit, VersionSet};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_shard::{PartitionerKind, ShardConfig};
use pebblesdb_tests::{fuzz_record, sim_over};
use pebblesdb_wal::{LogWriter, Record, Replay, Tail, HEADER_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One record log: where it lives, what it holds, which row of the policy
/// its owner reads it under, and its owner's way of reading it.
struct Log {
    /// File name inside the store directory.
    file: &'static str,
    /// Framing damage is `Corruption` (`Tail::Committed`); otherwise it ends
    /// the log (`Tail::Torn`).
    committed: bool,
    /// The encoding of the log's `i`-th well-formed record.
    record: fn(u32) -> Vec<u8>,
    /// A record that frames and checksums and is no value of the log's type.
    undecodable: fn() -> Vec<u8>,
    /// Opens the directory as the log's owner does and counts the
    /// well-formed records that arrived. The last argument is the length
    /// the log had when it was written.
    read: fn(&Arc<dyn Env>, &Path, u64) -> Result<usize>,
}

/// Well-formed records per log.
const RECORDS: usize = 5;
/// The record the middle-of-the-log cases damage.
const MIDDLE: usize = 2;

fn no_workers() -> StoreOptions {
    let mut options = StoreOptions::default();
    options.compaction_threads = 0;
    options
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:02}").into_bytes()
}

/// One put at sequence `i + 1`: a WAL record, and a journal record.
fn batch_record(i: u32) -> Vec<u8> {
    let mut batch = WriteBatch::new();
    batch.put(&key(i), b"value");
    batch.set_sequence(u64::from(i) + 1);
    batch.encode()
}

/// A batch that announces two records and holds one, then a tag no record
/// has: recovered item by item, half of it would land.
fn half_a_batch() -> Vec<u8> {
    let mut bytes = batch_record(MIDDLE as u32);
    bytes[8] = 2;
    bytes.push(0x7f);
    bytes
}

fn count_keys(db: &dyn KvStore) -> Result<usize> {
    Ok(db.scan(b"", &[], usize::MAX)?.len())
}

fn read_wal(env: &Arc<dyn Env>, dir: &Path, _: u64) -> Result<usize> {
    count_keys(&PebblesDb::open_with_options(
        Arc::clone(env),
        dir,
        no_workers(),
    )?)
}

fn read_live_segment(env: &Arc<dyn Env>, dir: &Path, published: u64) -> Result<usize> {
    let file = env.new_sequential_file(&dir.join(LIVE_WAL.file))?;
    let mut replay = Replay::<WriteBatch>::new(file, Tail::Committed(published));
    let mut batches = 0;
    while let Some(batch) = replay.next_record()? {
        batch.verify()?; // a stream walks every item it delivers
        batches += 1;
    }
    Ok(batches)
}

fn read_journal(env: &Arc<dyn Env>, dir: &Path, _: u64) -> Result<usize> {
    let config = ShardConfig {
        shards: 2,
        partitioner: PartitionerKind::Hash,
    };
    count_keys(&PebblesDb::open_sharded(
        Arc::clone(env),
        dir,
        no_workers(),
        config,
    )?)
}

fn read_catalog(env: &Arc<dyn Env>, dir: &Path, _: u64) -> Result<usize> {
    let db = PebblesDb::open_with_options(Arc::clone(env), dir, no_workers())?;
    Ok(db.list_cfs().len() - 1)
}

/// One new file at level 1 per edit.
fn manifest_record(i: u32) -> Vec<u8> {
    let bound = |seq| InternalKey::new(&key(i), seq, ValueType::Value);
    let mut edit = VersionEdit::default();
    edit.new_files.push((
        1,
        FileMetaDataEdit {
            number: 10 + u64::from(i),
            file_size: 1000,
            smallest: bound(9).encoded().to_vec(),
            largest: bound(1).encoded().to_vec(),
        },
    ));
    edit.encode()
}

fn read_manifest(env: &Arc<dyn Env>, dir: &Path, _: u64) -> Result<usize> {
    let current = format!("{}\n", MANIFEST.file);
    env.write_string_to_file_sync(&current_file_name(dir), current.as_bytes())?;
    let set = VersionSet::<FlsmLevel>::open(Arc::clone(env), dir.into(), no_workers())?;
    let files = version_files(&**set.current()).count();
    Ok(files)
}

const WAL: Log = Log {
    file: "000003.log",
    committed: false,
    record: batch_record,
    undecodable: half_a_batch,
    read: read_wal,
};

/// The segment still being appended to, as a change stream reads it.
const LIVE_WAL: Log = Log {
    file: "000009.log",
    committed: true,
    read: read_live_segment,
    ..WAL
};

const JOURNAL: Log = Log {
    file: "journal-000007.log",
    read: read_journal,
    ..WAL
};

const MANIFEST: Log = Log {
    file: "MANIFEST-000005",
    committed: true,
    record: manifest_record,
    // Tag 9 is no field of an edit.
    undecodable: || vec![9, 1],
    read: read_manifest,
};

const CATALOG: Log = Log {
    file: "CFS",
    committed: false,
    record: |i| CatalogEdit::Create(i + 1, format!("family{i}")).encode(),
    // An empty record: not even a tag.
    undecodable: Vec::new,
    read: read_catalog,
};

/// `records` framed as a log: its bytes and the offset each record ends at.
fn frame(records: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let env = MemEnv::new();
    let path = Path::new("/framed");
    let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
    let mut ends = Vec::new();
    for record in records {
        writer.add_record(record).unwrap();
        ends.push(writer.file_len() as usize);
    }
    writer.close().unwrap();
    (env.read_file_to_vec(path).unwrap(), ends)
}

/// What the log's owner makes of a directory holding `bytes` as the log, on
/// an `Env` that — given `failed_read` — hands the log out seven bytes at a
/// time and fails that read. An owner that fails leaves the log as it was.
fn outcome(log: &Log, bytes: &[u8], published: u64, failed_read: Option<usize>) -> Result<usize> {
    let (probe, env) = sim_over(MemEnv::new());
    let dir = Path::new("/record-log");
    env.create_dir_all(dir).unwrap();
    let mut file = env.new_writable_file(&dir.join(log.file)).unwrap();
    file.append(bytes).unwrap();
    file.close().unwrap();
    if let Some(reads) = failed_read {
        probe.fail_sequential_read(log.file, reads);
    }
    let result = (log.read)(&env, dir, published);
    assert!(!probe.read_fault_pending(), "{}: no read failed", log.file);
    if result.is_err() {
        let left = env.read_file_to_vec(&dir.join(log.file));
        assert_eq!(
            left.unwrap(),
            bytes,
            "{}: a failed open touched it",
            log.file
        );
    }
    result
}

fn follows_its_policy_row(log: &Log) {
    let records: Vec<Vec<u8>> = (0..RECORDS as u32).map(log.record).collect();
    let (bytes, ends) = frame(&records);
    let read = |bytes: &[u8]| outcome(log, bytes, ends[RECORDS - 1] as u64, None);

    assert_eq!(read(&bytes).unwrap(), RECORDS, "{}: clean end", log.file);

    // A log that stops has ended, under both rows: the record being
    // appended at the crash was never acknowledged.
    for cut in ends[RECORDS - 2]..ends[RECORDS - 1] {
        let delivered = read(&bytes[..cut]).unwrap();
        assert_eq!(delivered, RECORDS - 1, "{}: cut at {cut}", log.file);
    }

    // Bytes that are there and wrong: the end of a log whose writer may
    // have died, lost history in one whose every byte was acknowledged. The
    // records before the damage arrive, no record after it does.
    for victim in [RECORDS - 1, MIDDLE] {
        for offset in [0, HEADER_SIZE + 1] {
            let mut flipped = bytes.clone();
            flipped[ends[victim - 1] + offset] ^= 0x10;
            match (log.committed, read(&flipped)) {
                (false, Ok(delivered)) => assert_eq!(delivered, victim, "{}", log.file),
                (true, Err(err)) => assert!(err.is_corruption(), "{}: {err}", log.file),
                (_, other) => panic!("{}: flip in record {victim}: {other:?}", log.file),
            }
        }
    }

    // An `Env` that fails a read inside the middle record has not shown the
    // log's end: the bytes it withheld may be acknowledged writes.
    let reads = ends[MIDDLE - 1] / 7 + 1;
    match outcome(log, &bytes, bytes.len() as u64, Some(reads)) {
        Err(Error::Io(_)) => {}
        other => panic!("{}: a failed read gave {other:?}", log.file),
    }
}

/// A record that checksums was written whole, so it is no tear: whatever it
/// decodes to instead of a value is `Corruption`, not the log's end and not
/// the part of it that did decode.
fn refuses_a_record_that_does_not_decode(log: &Log) {
    let mut records: Vec<Vec<u8>> = (0..RECORDS as u32).map(log.record).collect();
    records[MIDDLE] = (log.undecodable)();
    let (bytes, _) = frame(&records);
    match outcome(log, &bytes, bytes.len() as u64, None) {
        Err(err) => assert!(err.is_corruption(), "{}: {err}", log.file),
        Ok(delivered) => panic!("{}: opened with {delivered} records", log.file),
    }
}

macro_rules! policy_tests {
    ($($name:ident: $log:expr,)*) => {$(
        mod $name {
            #[test]
            fn follows_its_policy_row() {
                super::follows_its_policy_row(&$log);
            }

            #[test]
            fn refuses_a_record_that_does_not_decode() {
                super::refuses_a_record_that_does_not_decode(&$log);
            }
        }
    )*};
}

policy_tests! {
    closed_wal_segment: super::WAL,
    live_wal_segment: super::LIVE_WAL,
    manifest: super::MANIFEST,
    catalog: super::CATALOG,
    shard_journal: super::JOURNAL,
}

/// The one case the table cannot show: a live segment's end is not latched.
/// What its writer has published is read, nothing past it is looked at, and
/// the same reader carries on when the length moves or the segment closes.
#[test]
fn a_live_segment_is_resumed_when_its_published_length_moves() {
    let env = MemEnv::new();
    let path = Path::new("/live/000009.log");
    let mut writer = LogWriter::new(env.new_writable_file(path).unwrap());
    let file = env.new_sequential_file(path).unwrap();
    let mut replay = Replay::<WriteBatch>::new(file, Tail::Committed(0));
    let drain = |replay: &mut Replay<WriteBatch>, tail| -> Vec<u64> {
        replay.set_tail(tail);
        let next = |replay: &mut Replay<WriteBatch>| replay.next_record().unwrap();
        std::iter::from_fn(|| next(replay).map(|batch| batch.sequence())).collect()
    };

    let mut published = Vec::new();
    for i in 0..4 {
        writer.add_record(&batch_record(i)).unwrap();
        published.push(writer.file_len());
    }
    assert!(drain(&mut replay, Tail::Committed(0)).is_empty());
    assert_eq!(drain(&mut replay, Tail::Committed(published[1])), [1, 2]);
    assert!(drain(&mut replay, Tail::Committed(published[1])).is_empty());
    assert_eq!(drain(&mut replay, Tail::Committed(published[2])), [3]);
    // A rotation closed the segment: the rest of it, to its end.
    writer.add_record(&batch_record(4)).unwrap();
    assert_eq!(drain(&mut replay, Tail::Torn), [4, 5]);
}

fn random_batch(rng: &mut StdRng) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for _ in 0..rng.gen_range(0..5) {
        let cf = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..300)
        };
        let key: Vec<u8> = (0..rng.gen_range(0..9)).map(|_| rng.gen()).collect();
        let value: Vec<u8> = vec![rng.gen(); rng.gen_range(0..40)];
        match rng.gen_range(0..3) {
            0 => batch.delete_cf(cf, &key),
            1 => batch.put_pointer_cf(cf, &key, &[rng.gen::<u8>(); 20]),
            _ => batch.put_cf(cf, &key, &value),
        }
    }
    batch.set_sequence(rng.gen::<u64>() >> 8);
    batch
}

fn random_catalog_edit(rng: &mut StdRng) -> CatalogEdit {
    let id = rng.gen_range(1..100_000);
    match rng.gen_range(0..3) {
        0 => CatalogEdit::Drop(id),
        1 => CatalogEdit::NextId(id),
        _ => {
            let name = (0..rng.gen_range(0..12)).map(|_| rng.gen_range(b'a'..=b'z') as char);
            CatalogEdit::Create(id, name.collect())
        }
    }
}

/// The decoder fuzz of `version_set.rs` (which runs it on `VersionEdit`,
/// through both version builders) on the other two kinds of record: a batch
/// is walked to its last item, as every consumer of one walks it.
#[test]
fn mutated_batches_and_catalog_edits_decode_to_valid_values_or_corruption() {
    let mut rng = StdRng::seed_from_u64(0x5eed_10c5);
    let mut accepted = [0, 0];
    const CASES: usize = 6000;
    let walked = |batch: WriteBatch, _: &[u8]| {
        assert!(batch.last_sequence() >= batch.sequence());
        batch.verify().map(drop)
    };
    // Seeded: two records numbered from `u64::MAX - 1`, on which the walk
    // and `last_sequence` overflowed. No mutation finds a 64-bit header.
    let mut past_the_end = WriteBatch::new();
    past_the_end.put(b"a", b"1");
    past_the_end.put(b"b", b"2");
    past_the_end.set_sequence(u64::MAX - 1);
    let bytes = past_the_end.contents().to_vec();
    let outcome = WriteBatch::decode(bytes.clone()).and_then(|batch| walked(batch, &bytes));
    assert!(outcome.unwrap_err().is_corruption());
    for _ in 0..CASES {
        let batch = random_batch(&mut rng);
        accepted[0] += usize::from(fuzz_record(&mut rng, batch, walked));
        let edit = random_catalog_edit(&mut rng);
        accepted[1] += usize::from(fuzz_record(&mut rng, edit, |_, _| Ok(())));
    }
    for accepted in accepted {
        // Both outcomes must actually be exercised.
        assert!(
            accepted > 300 && CASES - accepted > 300,
            "{accepted} of {CASES} accepted"
        );
    }
}
