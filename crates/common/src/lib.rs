//! Shared plumbing for the PebblesDB workspace.
//!
//! This crate contains the pieces that every storage engine in the workspace
//! (the FLSM-based [`pebblesdb`] engine, the baseline leveled LSM engine and
//! the B+Tree engine) agrees on:
//!
//! * the internal key encoding and its ordering ([`key`]),
//! * variable-length integer and fixed-width integer coding ([`coding`]),
//! * CRC32C checksums ([`crc32c`]) and MurmurHash3 ([`hash`]),
//! * the write batch format ([`batch`]),
//! * store options and presets ([`options`]),
//! * the iterator abstraction ([`iterator`]),
//! * the [`store::KvStore`] trait that the benchmark harness and the
//!   application layers drive generically,
//! * the one primitive a family-capable store implements ([`cf::CfOps`]) and
//!   the `KvStore`/[`cf::Db`]/handle views derived from it once ([`cf`]),
//! * the group-commit writer queue both LSM engines share ([`commit`]),
//! * database file naming conventions ([`filename`]),
//! * RESP2 wire framing for the network server and its clients ([`resp`]),
//! * the declarative stat tables every counter, shard merge and reporting
//!   surface is generated from ([`stats`]),
//! * the one latency histogram the load drivers (and, per the roadmap, the
//!   engine and the server) record into ([`histogram`]), and
//! * the `--flag value` parser the workspace binaries share ([`args`]).
//!
//! [`pebblesdb`]: https://www.cs.utexas.edu/~vijay/papers/sosp17-pebblesdb.pdf

pub mod args;
pub mod batch;
pub mod cf;
pub mod coding;
pub mod commit;
pub mod crc32c;
pub mod error;
pub mod filename;
pub mod hash;
pub mod histogram;
pub mod iterator;
pub mod key;
pub mod options;
pub mod replication;
pub mod resp;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod user_iter;
pub mod vlog;

pub use args::Args;
pub use batch::{CfId, WriteBatch};
pub use cf::{CfOps, CfStats, ColumnFamilyHandle, Db, PrefixDb, DEFAULT_CF_NAME};
pub use commit::{CommitGroup, CommitQueue, GroupKind, Numbering, Role, Ticket};
pub use error::{Error, Result};
pub use iterator::DbIterator;
pub use key::{InternalKey, ParsedInternalKey, SequenceNumber, ValueType, MAX_SEQUENCE_NUMBER};
pub use options::{
    CompressionType, ReadOptions, StoreOptions, StorePreset, WriteOptions, NUM_LEVELS,
};
pub use replication::{ChangeEvent, ChangeStream, ReplicationFrame};
pub use resp::{RespCodec, RespLimits, RespValue};
pub use snapshot::{Snapshot, SnapshotList};
pub use stats::{MergeRule, StatField, StatUnit};
pub use store::{EngineCounters, KvStore, StoreStats};
pub use user_iter::UserIterator;
pub use vlog::{LookupValue, ValuePointer, ValueResolver};
