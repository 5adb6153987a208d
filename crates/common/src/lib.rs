//! Shared plumbing for the PebblesDB workspace.
//!
//! This crate contains the pieces the storage engines (the FLSM-based
//! [`pebblesdb`] engine, the baseline leveled LSM engine and the B+Tree
//! engine) and the layers around them agree on. Each module, with the crates
//! whose non-test code uses it:
//!
//! * the internal key encoding and its ordering ([`key`]): engines, tables,
//!   memtable, shards, replica, server, apps;
//! * variable-length and fixed-width integer coding ([`coding`]): chassis,
//!   sstable, skiplist, compress, apps;
//! * CRC32C checksums ([`crc32c`]): sstable, wal; MurmurHash3 ([`hash`]):
//!   bloom, core, shard, ycsb, apps;
//! * the write batch format ([`batch`]): chassis, wal, shard, replica,
//!   server, btree, apps;
//! * store options and presets ([`options`]) and the [`store::KvStore`]
//!   trait the harness and the application layers drive: every store and
//!   every caller of one;
//! * the iterator abstraction ([`iterator`]) and snapshots ([`snapshot`]):
//!   every store;
//! * the one primitive a family-capable store implements ([`cf::CfOps`]) and
//!   the `KvStore`/[`cf::Db`]/handle views derived from it once ([`cf`]):
//!   every store and its callers;
//! * the group-commit writer queue ([`commit`]) and the user-key cursor
//!   ([`user_iter`]): the chassis alone. They stay here because CI caps the
//!   non-test lines of `crates/{engine,core,lsm}`, and moving them into
//!   `crates/engine` would add their 561 lines to that count and delete
//!   none;
//! * change streams and replication frames ([`replication`]): chassis,
//!   replica, server; value pointers ([`vlog`]): chassis, skiplist, apps;
//! * database file naming conventions ([`filename`]): chassis, sstable,
//!   btree;
//! * RESP2 wire framing ([`resp`]): server, replica, and the bench clients;
//! * the declarative stat tables every counter, shard merge and reporting
//!   surface is generated from ([`stats`]): the store counters here, env,
//!   server, bench;
//! * the one latency histogram the load drivers record into
//!   ([`histogram`]): ycsb, bench; and
//! * the `--flag value` parser of the workspace binaries ([`args`]): bench
//!   (`db_bench`, `net_bench`) and server (`pebblesdb-server`).
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
