//! Cross-crate integration tests for the PebblesDB workspace.
//!
//! The tests live in `tests/` next to this file; this library holds what
//! several of them share: the decoder fuzz, how a test gets its `SimEnv`,
//! what a table holds, and a deadline for work that must not hang. It also compiles and runs
//! the README's code blocks as doctests, so the Quickstart cannot rot.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use pebblesdb_common::key::{parse_internal_key, SequenceNumber, ValueType};
use pebblesdb_common::{DbIterator, ReadOptions, Result};
use pebblesdb_engine::FileMetaData;
use pebblesdb_env::{Env, SimEnv};
use pebblesdb_sstable::TableCache;
use pebblesdb_wal::Record;
use rand::rngs::StdRng;
use rand::Rng;

#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// One seeded mutation: a bit flip, a truncation or spliced junk.
pub fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    match rng.gen_range(0..3) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        1 if !bytes.is_empty() => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let junk: Vec<u8> = (0..rng.gen_range(1..12)).map(|_| rng.gen()).collect();
            bytes.splice(at..at, junk);
        }
    }
}

/// One case of the contract every [`Record`] decoder is held to: `value`
/// survives a round trip, and its encoding after zero to two mutations
/// decodes to a value `consume` accepts (handed the mutated bytes as well)
/// or is `Corruption` — never a panic — and what the decoder keeps is
/// bounded by the bytes it was given. Returns whether the case was accepted.
pub fn fuzz_record<R: Record + PartialEq + std::fmt::Debug>(
    rng: &mut StdRng,
    value: R,
    consume: impl FnOnce(R, &[u8]) -> Result<()>,
) -> bool {
    let mut bytes = value.encode();
    assert_eq!(R::decode(bytes.clone()).unwrap(), value);
    for _ in 0..rng.gen_range(0..3) {
        mutate(rng, &mut bytes);
    }
    let outcome = R::decode(bytes.clone()).and_then(|decoded| {
        assert!(decoded.encode().len() <= bytes.len(), "{decoded:?}");
        consume(decoded, &bytes)
    });
    match outcome {
        Ok(()) => true,
        Err(err) => {
            assert!(err.is_corruption(), "{bytes:?}: {err}");
            false
        }
    }
}

/// `inner` under the fault, latency and probe layer, twice: the handle to
/// schedule on and the same layer as the `Env` to open stores with. Keep a
/// clone of a `MemEnv` passed in for what only the disk can do
/// (`truncate_file`, `drop_unsynced_dir_entries`).
pub fn sim_over(inner: impl Env + 'static) -> (SimEnv, Arc<dyn Env>) {
    let sim = SimEnv::new(Arc::new(inner));
    (sim.clone(), Arc::new(sim))
}

/// Every entry of `file`'s table in key order: its user key, sequence and
/// kind.
pub fn table_entries(
    table_cache: &TableCache,
    file: &FileMetaData,
) -> Vec<(Vec<u8>, SequenceNumber, ValueType)> {
    let table = table_cache.table(&file.table, file.number, file.file_size);
    let mut iter = table.unwrap().iter(&ReadOptions::default());
    let mut entries = Vec::new();
    iter.seek_to_first();
    while iter.valid() {
        let parsed = parse_internal_key(iter.key()).unwrap();
        entries.push((parsed.user_key.to_vec(), parsed.sequence, parsed.value_type));
        iter.next();
    }
    entries
}

/// Runs `work` on a thread of its own and hands back what it returns, or
/// fails the test — instead of hanging it — once `deadline` passes first (the
/// thread is then left running). A panic in `work` is the test's panic.
pub fn within<T: Send + 'static>(
    deadline: Duration,
    work: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let value = work();
        let _ = done.send(());
        value
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(deadline) {
        panic!("work did not finish within {deadline:?}");
    }
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}
