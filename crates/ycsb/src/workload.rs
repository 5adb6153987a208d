//! The YCSB core workloads (Table 5.3 of the paper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;

use pebblesdb_common::hash::hash_seeded;
use pebblesdb_common::{KvStore, ReadOptions, Result};

use crate::generators::{Generator, LatestGenerator, ScrambledZipfianGenerator};

/// Which of the paper's YCSB workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// 100 % inserts: loads the data set for workloads A–D and F.
    LoadA,
    /// 50 % reads, 50 % updates (session store).
    A,
    /// 95 % reads, 5 % updates (photo tagging).
    B,
    /// 100 % reads (caches).
    C,
    /// 95 % reads of latest values, 5 % inserts (news feed).
    D,
    /// 100 % inserts: loads the data set for workload E.
    LoadE,
    /// 95 % range queries, 5 % inserts (threaded conversations).
    E,
    /// 50 % reads, 50 % read-modify-writes (database workload).
    F,
}

impl WorkloadKind {
    /// The name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::LoadA => "Load A",
            WorkloadKind::A => "A",
            WorkloadKind::B => "B",
            WorkloadKind::C => "C",
            WorkloadKind::D => "D",
            WorkloadKind::LoadE => "Load E",
            WorkloadKind::E => "E",
            WorkloadKind::F => "F",
        }
    }

    /// Returns `true` for the two pure-load phases.
    pub fn is_load(self) -> bool {
        matches!(self, WorkloadKind::LoadA | WorkloadKind::LoadE)
    }
}

/// A single operation produced by the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Read one key.
    Read(Vec<u8>),
    /// Overwrite the value of an existing key.
    Update(Vec<u8>, Vec<u8>),
    /// Insert a new key.
    Insert(Vec<u8>, Vec<u8>),
    /// Range query: start key and number of records.
    Scan(Vec<u8>, usize),
    /// Read a key, then write back a modified value.
    ReadModifyWrite(Vec<u8>, Vec<u8>),
}

/// Request distribution used for choosing which existing key to touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestDistribution {
    /// Zipfian over hashed keys (YCSB default).
    Zipfian,
    /// Skewed towards the most recent inserts.
    Latest,
}

impl RequestDistribution {
    fn chooser(self, item_count: u64) -> Box<dyn Generator> {
        match self {
            RequestDistribution::Zipfian => Box::new(ScrambledZipfianGenerator::new(item_count)),
            RequestDistribution::Latest => Box::new(LatestGenerator::new(item_count)),
        }
    }
}

/// A configured YCSB workload.
///
/// One value describes a whole phase; every driver thread works on its own
/// [`fork`](CoreWorkload::fork), which has a private key chooser but shares
/// the insert sequence, so inserts draw distinct record indices across
/// threads: a load phase of `record_count` operations writes exactly the
/// records `0..record_count`, and a transaction phase extends the key space
/// from `record_count` upwards.
pub struct CoreWorkload {
    /// Fraction of operations that are reads.
    pub read_proportion: f64,
    /// Fraction of operations that are updates.
    pub update_proportion: f64,
    /// Fraction of operations that are inserts.
    pub insert_proportion: f64,
    /// Fraction of operations that are scans.
    pub scan_proportion: f64,
    /// Fraction of operations that are read-modify-writes.
    pub read_modify_write_proportion: f64,
    /// The request distribution for choosing existing keys.
    pub request_distribution: RequestDistribution,
    /// Value size in bytes (the YCSB default is 10 fields x 100 bytes; the
    /// paper uses 1 KiB values).
    pub value_size: usize,
    /// Maximum scan length (records per scan).
    pub max_scan_length: usize,
    /// Number of records loaded before the run.
    pub record_count: u64,

    insert_sequence: Arc<AtomicU64>,
    chooser: Box<dyn Generator>,
}

impl CoreWorkload {
    /// Creates the paper's configuration of the given workload over
    /// `record_count` pre-loaded records.
    pub fn preset(kind: WorkloadKind, record_count: u64) -> CoreWorkload {
        let record_count = record_count.max(1);
        // A load phase fills the record space from its start; every other
        // phase inserts past the records the load left.
        let first_insert = if kind.is_load() { 0 } else { record_count };
        let mut workload = CoreWorkload {
            read_proportion: 0.0,
            update_proportion: 0.0,
            insert_proportion: 0.0,
            scan_proportion: 0.0,
            read_modify_write_proportion: 0.0,
            request_distribution: RequestDistribution::Zipfian,
            value_size: 1024,
            max_scan_length: 100,
            record_count,
            insert_sequence: Arc::new(AtomicU64::new(first_insert)),
            chooser: RequestDistribution::Zipfian.chooser(record_count),
        };
        match kind {
            WorkloadKind::LoadA | WorkloadKind::LoadE => {
                workload.insert_proportion = 1.0;
            }
            WorkloadKind::A => {
                workload.read_proportion = 0.5;
                workload.update_proportion = 0.5;
            }
            WorkloadKind::B => {
                workload.read_proportion = 0.95;
                workload.update_proportion = 0.05;
            }
            WorkloadKind::C => {
                workload.read_proportion = 1.0;
            }
            WorkloadKind::D => {
                workload.read_proportion = 0.95;
                workload.insert_proportion = 0.05;
                workload.request_distribution = RequestDistribution::Latest;
                workload.chooser = RequestDistribution::Latest.chooser(record_count);
            }
            WorkloadKind::E => {
                workload.scan_proportion = 0.95;
                workload.insert_proportion = 0.05;
            }
            WorkloadKind::F => {
                workload.read_proportion = 0.5;
                workload.read_modify_write_proportion = 0.5;
            }
        }
        workload
    }

    /// A copy for one more driver thread: the same mix and the same (shared)
    /// insert sequence, with a key chooser of its own.
    pub fn fork(&self) -> CoreWorkload {
        CoreWorkload {
            insert_sequence: Arc::clone(&self.insert_sequence),
            chooser: self.request_distribution.chooser(self.record_count),
            ..*self
        }
    }

    /// Overrides the value size.
    pub fn with_value_size(mut self, value_size: usize) -> Self {
        self.value_size = value_size;
        self
    }

    /// The YCSB key for a record index (`user` + hashed, zero-padded id).
    pub fn key_for(index: u64) -> Vec<u8> {
        let hashed = u64::from(hash_seeded(&index.to_le_bytes(), 0xadc8_3b19)) << 20 | index;
        format!("user{hashed:020}").into_bytes()
    }

    /// A value of the configured size for record `index`: the index, then
    /// incompressible bytes.
    pub fn value_for(&self, index: u64, rng: &mut impl Rng) -> Vec<u8> {
        let mut value = Vec::with_capacity(self.value_size);
        value.extend_from_slice(&index.to_le_bytes());
        while value.len() < self.value_size {
            value.push(rng.gen());
        }
        value.truncate(self.value_size);
        value
    }

    /// Draws the next operation of the transaction phase.
    pub fn next_operation(&mut self, rng: &mut impl Rng) -> Operation {
        let choice: f64 = rng.gen();
        let mut acc = self.read_proportion;
        if choice < acc {
            return Operation::Read(self.choose_key(rng));
        }
        acc += self.update_proportion;
        if choice < acc {
            let key = self.choose_key(rng);
            let value = self.value_for(0, rng);
            return Operation::Update(key, value);
        }
        acc += self.scan_proportion;
        if choice < acc {
            let key = self.choose_key(rng);
            let len = rng.gen_range(1..=self.max_scan_length);
            return Operation::Scan(key, len);
        }
        acc += self.read_modify_write_proportion;
        if choice < acc {
            let key = self.choose_key(rng);
            let value = self.value_for(0, rng);
            return Operation::ReadModifyWrite(key, value);
        }
        // Insert: the next index nobody else has drawn.
        let index = self.insert_sequence.fetch_add(1, Ordering::Relaxed);
        self.chooser
            .set_item_count((index + 1).max(self.record_count));
        let value = self.value_for(index, rng);
        Operation::Insert(Self::key_for(index), value)
    }

    fn choose_key(&mut self, rng: &mut impl Rng) -> Vec<u8> {
        let index = self.chooser.next(rng);
        Self::key_for(index)
    }

    /// This workload as a [`drive`](crate::drive) worker over `store`: each
    /// thread draws operations from its own fork and applies them.
    pub fn worker<'a>(
        &'a self,
        store: &'a Arc<dyn KvStore>,
    ) -> impl Fn(usize) -> Result<crate::drive::BoxedOp<'a>> + Sync + 'a {
        move |_thread| {
            let mut mine = self.fork();
            Ok(Box::new(move |_index, rng| {
                execute(store, mine.next_operation(rng))
            }))
        }
    }
}

/// Applies one generated operation to `store`.
pub fn execute(store: &Arc<dyn KvStore>, op: Operation) -> Result<()> {
    match op {
        Operation::Read(key) => {
            let _ = store.get(&key)?;
        }
        Operation::Update(key, value) | Operation::Insert(key, value) => {
            store.put(&key, &value)?;
        }
        Operation::Scan(key, len) => {
            // YCSB-E drives the engine exactly like the paper: position a
            // cursor, then stream `len` entries off it.
            let mut iter = store.iter(&ReadOptions::default())?;
            iter.seek(&key);
            let mut read = 0usize;
            while iter.valid() && read < len {
                std::hint::black_box((iter.key(), iter.value()));
                read += 1;
                iter.next();
            }
        }
        Operation::ReadModifyWrite(key, value) => {
            let _ = store.get(&key)?;
            store.put(&key, &value)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(CoreWorkload::key_for(5), CoreWorkload::key_for(5));
        assert_ne!(CoreWorkload::key_for(5), CoreWorkload::key_for(6));
        assert!(CoreWorkload::key_for(1).starts_with(b"user"));
    }

    #[test]
    fn inserts_extend_the_key_space() {
        let mut workload = CoreWorkload::preset(WorkloadKind::LoadE, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..50 {
            match workload.next_operation(&mut rng) {
                Operation::Insert(key, value) => {
                    assert_eq!(value.len(), workload.value_size);
                    assert!(keys.insert(key), "insert keys must be unique");
                }
                other => panic!("load workload must only insert, got {other:?}"),
            }
        }
    }

    #[test]
    fn workload_e_emits_bounded_scans() {
        let mut workload = CoreWorkload::preset(WorkloadKind::E, 1000);
        let mut rng = StdRng::seed_from_u64(11);
        let mut scans = 0;
        for _ in 0..500 {
            if let Operation::Scan(_, len) = workload.next_operation(&mut rng) {
                assert!(len >= 1 && len <= workload.max_scan_length);
                scans += 1;
            }
        }
        assert!(scans > 400);
    }

    #[test]
    fn value_size_override_is_respected() {
        let workload = CoreWorkload::preset(WorkloadKind::A, 10).with_value_size(16 * 1024);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(workload.value_for(3, &mut rng).len(), 16 * 1024);
    }
}
