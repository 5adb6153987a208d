//! Column families and the one store-operation surface.
//!
//! Production LSM descendants (RocksDB foremost) multiplex many keyspaces
//! over a single WAL, sequence space and compaction scheduler. This module
//! is where such a store meets its callers:
//!
//! * [`CfOps`] is the **one primitive** a family-capable store implements:
//!   batch write, family-scoped get and cursor, snapshot, flush, scoped
//!   statistics and the family catalog. Four types implement it — the engine
//!   chassis, the sharded coordinator, the read-only follower core and
//!   [`PrefixDb`]'s emulation — and a new operation is one method here.
//! * Everything a caller sees is a **view derived once** from such a core.
//!   [`ColumnFamilyHandle`] is the [`KvStore`] of one family;
//!   [`store_views!`](crate::store_views) gives a store facade its
//!   whole-store [`KvStore`] (the default family, unscoped statistics) and
//!   its [`Db`] (the catalog, with ids turned into handles). `put` and
//!   `delete` are a one-record batch on every store, so the views derive
//!   them from [`CfOps::write`]. A facade names its core and writes no
//!   operation body.
//! * [`CfStats`] surfaces per-family counters so one family's compaction
//!   debt cannot hide behind another's, and
//! * [`PrefixDb`] emulates families over any plain [`KvStore`] by key
//!   prefixing, so engines without native families (the B+Tree) still serve
//!   multi-namespace workloads.
//!
//! Batches address families per record ([`WriteBatch::put_cf`]); a mixed
//! batch commits atomically across families because every family shares the
//! WAL and sequence space. Snapshots are store-wide: a pinned sequence is
//! consistent *across* families.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::batch::{CfId, WriteBatch};
use crate::error::{Error, Result};
use crate::iterator::DbIterator;
use crate::key::{SequenceNumber, ValueType};
use crate::options::{ReadOptions, WriteOptions};
use crate::replication::ChangeStream;
use crate::snapshot::Snapshot;
use crate::store::{KvStore, StoreStats};

/// The name of the column family every store starts with (id 0).
pub const DEFAULT_CF_NAME: &str = "default";

crate::stat_table! {
    /// Per-column-family statistics, for detecting imbalance between
    /// namespaces (one family's compaction debt hiding behind another's).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CfStats {
        /// The family's id (0 = default).
        pub id: CfId,
        /// The family's name.
        pub name: String,
    }
    rows {
        /// Live data files owned by this family.
        computed num_files: Count, Sum;
        /// Bytes currently live on disk for this family.
        computed live_bytes: Bytes, Sum;
        /// Completed memtable flushes of this family.
        computed flushes: Count, Sum;
        /// Bytes held by this family's active and immutable memtables.
        computed memtable_bytes: Bytes, Sum;
    }
}

/// The primitive operations of a store with column families: exactly what
/// cannot be derived from something else.
///
/// Object-safe, so a [`ColumnFamilyHandle`] holds its store behind
/// `Arc<dyn CfOps>`. User code does not call this directly — it uses the
/// derived views: [`KvStore`] and [`Db`] on the store, [`KvStore`] on a
/// handle.
pub trait CfOps: Send + Sync {
    /// Applies a batch whose records carry per-record family ids, atomically
    /// across families. Every mutation enters here: `put` and `delete` are a
    /// one-record batch.
    fn write(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()>;
    /// Reads `key` from family `cf`.
    fn get(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// A streaming user-key cursor over family `cf`.
    fn iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>>;
    /// Pins the store-wide sequence (consistent across families).
    fn snapshot(&self) -> Snapshot;
    /// Flushes the whole store and waits for urgent compactions.
    fn flush(&self) -> Result<()>;
    /// Store statistics; `scope` restricts the file and memory figures to
    /// one family, `None` covers the whole store.
    fn stats(&self, scope: Option<CfId>) -> StoreStats;
    /// Live file sizes of the family in `scope`, or of every family.
    fn live_file_sizes(&self, scope: Option<CfId>) -> Vec<u64>;
    /// The engine name (for benchmark labels).
    fn engine_name(&self) -> String;

    /// Creates a new, empty family and returns its id. Fails if a family
    /// named `name` already exists.
    fn create_cf(&self, name: &str) -> Result<CfId>;
    /// Drops a family, deleting its data; operations addressed at its id
    /// fail from then on. The default family cannot be dropped.
    fn drop_cf(&self, name: &str) -> Result<()>;
    /// The live families in id order (the default family first).
    fn list_cfs(&self) -> Vec<(CfId, String)>;
    /// Per-family statistics, in id order.
    fn cf_stats(&self) -> Vec<CfStats>;
    /// See [`Db::stream`]. A stream keeps its store alive, hence the owning
    /// receiver.
    fn stream(self: Arc<Self>, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
        let _ = from_seq;
        Err(Error::invalid_argument(
            "this store does not support change streams",
        ))
    }
    /// See [`Db::committed_sequence`].
    fn committed_sequence(&self) -> SequenceNumber {
        0
    }
    /// See [`Db::shard_stats`].
    fn shard_stats(&self) -> Vec<StoreStats> {
        Vec::new()
    }
}

/// A named column family of an open store.
///
/// Cheap to clone; holds the store alive (background threads included), so a
/// handle outliving its [`Db`] keeps working. The handle is the [`KvStore`]
/// view of one family: plain batches written through it are retargeted at
/// the family, cursors stay inside it, statistics are scoped to it, and
/// `scan`'s "empty end = unbounded" means "to the end of this family".
#[derive(Clone)]
pub struct ColumnFamilyHandle {
    ops: Arc<dyn CfOps>,
    id: CfId,
    name: Arc<str>,
}

impl ColumnFamilyHandle {
    /// Creates a handle for family `id` of the store behind `ops`.
    ///
    /// The [`Db`] view mints these from `create_cf`/`cf`; user code receives
    /// handles rather than building them.
    pub fn new(ops: Arc<dyn CfOps>, id: CfId, name: &str) -> ColumnFamilyHandle {
        ColumnFamilyHandle {
            ops,
            id,
            name: Arc::from(name),
        }
    }

    /// The family's id (0 = default).
    pub fn id(&self) -> CfId {
        self.id
    }

    /// The family's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for ColumnFamilyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnFamilyHandle")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl KvStore for ColumnFamilyHandle {
    fn put_opts(&self, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put_cf(self.id, key, value);
        self.ops.write(opts, batch)
    }

    fn get_opts(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.ops.get(self.id, opts, key)
    }

    fn delete_opts(&self, opts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete_cf(self.id, key);
        self.ops.write(opts, batch)
    }

    fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        self.ops.write(opts, batch.retarget_default_cf(self.id)?)
    }

    fn iter(&self, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.ops.iter(self.id, opts)
    }

    fn snapshot(&self) -> Snapshot {
        self.ops.snapshot()
    }

    fn flush(&self) -> Result<()> {
        self.ops.flush()
    }

    fn stats(&self) -> StoreStats {
        self.ops.stats(Some(self.id))
    }

    fn engine_name(&self) -> String {
        if self.id == 0 {
            self.ops.engine_name()
        } else {
            format!("{}#{}", self.ops.engine_name(), self.name)
        }
    }

    fn live_file_sizes(&self) -> Vec<u64> {
        self.ops.live_file_sizes(Some(self.id))
    }
}

/// Derives a store facade's whole-store [`KvStore`] and its [`Db`] from the
/// [`CfOps`] core it holds. `store_views!(Store<P> where P: Bound => |store|
/// &store.core)` names the facade and how to reach its `Arc<Core>`.
///
/// This is the only place either view is written. The [`KvStore`] is the
/// default family (id 0) with store-wide statistics; the [`Db`] is the
/// core's catalog with ids turned into [`ColumnFamilyHandle`]s over the same
/// core. Only minting a handle or opening a stream clones the `Arc`.
#[macro_export]
macro_rules! store_views {
    ($store:ty $(where $($p:ident: $bound:path),+)? => |$this:ident| $core:expr) => {
        const _: () = {
            use std::sync::Arc;
            use $crate::{
                CfOps, CfStats, ChangeStream, ColumnFamilyHandle, Db, DbIterator, KvStore,
                ReadOptions, Result, SequenceNumber, Snapshot, StoreStats, WriteBatch,
                WriteOptions,
            };

            fn core$(<$($p: $bound),+>)?($this: &$store) -> &Arc<impl CfOps + 'static> {
                $core
            }

            impl$(<$($p: $bound),+>)? KvStore for $store {
                fn put_opts(&self, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
                    let mut batch = WriteBatch::new();
                    batch.put(key, value);
                    core(self).write(opts, batch)
                }
                fn get_opts(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
                    core(self).get(0, opts, key)
                }
                fn delete_opts(&self, opts: &WriteOptions, key: &[u8]) -> Result<()> {
                    let mut batch = WriteBatch::new();
                    batch.delete(key);
                    core(self).write(opts, batch)
                }
                fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
                    core(self).write(opts, batch)
                }
                fn iter(&self, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
                    core(self).iter(0, opts)
                }
                fn snapshot(&self) -> Snapshot {
                    core(self).snapshot()
                }
                fn flush(&self) -> Result<()> {
                    core(self).flush()
                }
                fn stats(&self) -> StoreStats {
                    core(self).stats(None)
                }
                fn engine_name(&self) -> String {
                    core(self).engine_name()
                }
                fn live_file_sizes(&self) -> Vec<u64> {
                    core(self).live_file_sizes(None)
                }
            }

            impl$(<$($p: $bound),+>)? Db for $store {
                fn create_cf(&self, name: &str) -> Result<ColumnFamilyHandle> {
                    let id = core(self).create_cf(name)?;
                    Ok(ColumnFamilyHandle::new(core(self).clone(), id, name))
                }
                fn drop_cf(&self, name: &str) -> Result<()> {
                    core(self).drop_cf(name)
                }
                fn list_cfs(&self) -> Vec<String> {
                    let cfs = core(self).list_cfs();
                    cfs.into_iter().map(|(_, name)| name).collect()
                }
                fn cf(&self, name: &str) -> Option<ColumnFamilyHandle> {
                    let cfs = core(self).list_cfs();
                    let (id, _) = cfs.into_iter().find(|(_, existing)| existing == name)?;
                    Some(ColumnFamilyHandle::new(core(self).clone(), id, name))
                }
                fn cf_stats(&self) -> Vec<CfStats> {
                    core(self).cf_stats()
                }
                fn stream(&self, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
                    core(self).clone().stream(from_seq)
                }
                fn committed_sequence(&self) -> SequenceNumber {
                    core(self).committed_sequence()
                }
                fn shard_stats(&self) -> Vec<StoreStats> {
                    core(self).shard_stats()
                }
            }
        };
    };
}

/// A store with column families.
///
/// The default family (id 0, [`DEFAULT_CF_NAME`]) always exists, and the
/// `Db` itself is a [`KvStore`] over it, so single-namespace code keeps
/// running unchanged. All families share the WAL, the group-commit queue and
/// the sequence space; a [`WriteBatch`] mixing families via
/// [`WriteBatch::put_cf`] commits atomically, and a [`Snapshot`] pins a
/// sequence that is consistent across every family.
///
/// Stores do not implement this by hand: [`store_views!`](crate::store_views)
/// derives it, with the store's [`KvStore`], from the store's [`CfOps`] core.
pub trait Db: KvStore {
    /// Creates a new, empty column family.
    ///
    /// Fails if a family named `name` already exists.
    fn create_cf(&self, name: &str) -> Result<ColumnFamilyHandle>;

    /// Drops a column family, deleting its data. The default family cannot
    /// be dropped. Outstanding handles and cursors of the dropped family
    /// become invalid (operations through them fail).
    fn drop_cf(&self, name: &str) -> Result<()>;

    /// The names of all live column families, default first.
    fn list_cfs(&self) -> Vec<String>;

    /// A handle for the existing family `name`, or `None`.
    fn cf(&self, name: &str) -> Option<ColumnFamilyHandle>;

    /// Per-family statistics, in id order.
    fn cf_stats(&self) -> Vec<CfStats>;

    /// Opens a change stream delivering every committed batch whose last
    /// sequence is at or past `from_seq`, in commit order.
    ///
    /// Fails with [`Error::SequenceTruncated`](crate::error::Error) when the
    /// requested history has already been reclaimed, and with
    /// `InvalidArgument` on stores that do not support change streams (the
    /// chassis engines do; composite stores may not).
    fn stream(&self, from_seq: SequenceNumber) -> Result<Box<dyn ChangeStream>> {
        let _ = from_seq;
        Err(Error::invalid_argument(
            "this store does not support change streams",
        ))
    }

    /// The sequence number of the last committed write, `0` when the store
    /// has never committed anything (or does not track a global sequence).
    fn committed_sequence(&self) -> SequenceNumber {
        0
    }

    /// Per-shard statistics, in shard order. Empty for unsharded stores;
    /// a sharded store returns one [`StoreStats`] per shard so surfaces can
    /// render a per-shard breakdown next to the aggregate [`KvStore::stats`].
    fn shard_stats(&self) -> Vec<StoreStats> {
        Vec::new()
    }

    /// A handle for the always-present default family.
    fn default_cf(&self) -> ColumnFamilyHandle {
        self.cf(DEFAULT_CF_NAME).expect("default family exists")
    }

    /// The existing family `name`, creating it if absent.
    fn cf_or_create(&self, name: &str) -> Result<ColumnFamilyHandle> {
        match self.cf(name) {
            Some(handle) => Ok(handle),
            None => self.create_cf(name),
        }
    }
}

// ---------------------------------------------------------------------------
// Prefix emulation for engines without native column families.
// ---------------------------------------------------------------------------

/// The key prefix of family `cf` in a [`PrefixDb`].
fn cf_prefix(cf: CfId) -> Vec<u8> {
    format!("@{cf}/").into_bytes()
}

/// The smallest key strictly greater than every key with `prefix`.
fn prefix_successor(prefix: &[u8]) -> Vec<u8> {
    let mut end = prefix.to_vec();
    let last = end.last_mut().expect("prefix is never empty");
    // The prefix ends in '/', so the increment never overflows.
    *last += 1;
    end
}

/// A user-key cursor restricted to one key prefix, with the prefix stripped
/// from surfaced keys. Drives the per-family cursors of [`PrefixDb`].
pub struct PrefixIterator {
    inner: Box<dyn DbIterator>,
    prefix: Vec<u8>,
}

impl PrefixIterator {
    /// Restricts `inner` (a user-key cursor) to keys starting with `prefix`.
    pub fn new(inner: Box<dyn DbIterator>, prefix: Vec<u8>) -> PrefixIterator {
        PrefixIterator { inner, prefix }
    }
}

impl DbIterator for PrefixIterator {
    fn valid(&self) -> bool {
        self.inner.valid() && self.inner.key().starts_with(&self.prefix)
    }

    fn seek_to_first(&mut self) {
        self.inner.seek(&self.prefix);
    }

    fn seek(&mut self, target: &[u8]) {
        let mut full = self.prefix.clone();
        full.extend_from_slice(target);
        self.inner.seek(&full);
    }

    fn next(&mut self) {
        assert!(self.valid(), "next() on invalid iterator");
        self.inner.next();
    }

    fn key(&self) -> &[u8] {
        assert!(self.valid(), "key() on invalid iterator");
        &self.inner.key()[self.prefix.len()..]
    }

    fn value(&self) -> &[u8] {
        assert!(self.valid(), "value() on invalid iterator");
        self.inner.value()
    }

    fn status(&self) -> Result<()> {
        self.inner.status()
    }
}

struct PrefixRegistry {
    /// Live families by name.
    by_name: BTreeMap<String, CfId>,
    /// Live family names by id.
    by_id: BTreeMap<CfId, String>,
    next_id: CfId,
}

/// The core of a [`PrefixDb`]: the inner store plus the family registry.
struct PrefixCore {
    inner: Arc<dyn KvStore>,
    registry: Mutex<PrefixRegistry>,
}

impl PrefixCore {
    fn prefixed(&self, cf: CfId, key: &[u8]) -> Vec<u8> {
        let mut out = cf_prefix(cf);
        out.extend_from_slice(key);
        out
    }

    /// Rejects operations addressed at a family the registry no longer
    /// lists, matching the native engines' dropped-handle semantics.
    fn check_live(&self, cf: CfId) -> Result<()> {
        if self.registry.lock().by_id.contains_key(&cf) {
            Ok(())
        } else {
            Err(Error::invalid_argument(format!(
                "column family {cf} does not exist (dropped?)"
            )))
        }
    }
}

impl CfOps for PrefixCore {
    fn write(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        // Lower the per-record family ids into key prefixes; atomicity
        // across families is inherited from the inner store's plain batch.
        let mut lowered = WriteBatch::new();
        for record in batch.iter() {
            let record = record?;
            self.check_live(record.cf)?;
            let key = self.prefixed(record.cf, record.key);
            match record.value_type {
                ValueType::Value => lowered.put(&key, record.value),
                ValueType::Deletion => lowered.delete(&key),
                ValueType::ValuePointer => {
                    return Err(Error::invalid_argument(
                        "value-pointer records are engine-internal",
                    ))
                }
            }
        }
        self.inner.write_opts(opts, lowered)
    }

    fn get(&self, cf: CfId, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_live(cf)?;
        self.inner.get_opts(opts, &self.prefixed(cf, key))
    }

    fn iter(&self, cf: CfId, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.check_live(cf)?;
        Ok(Box::new(PrefixIterator::new(
            self.inner.iter(opts)?,
            cf_prefix(cf),
        )))
    }

    fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn stats(&self, _scope: Option<CfId>) -> StoreStats {
        // The emulation cannot attribute files to one namespace; every
        // scope reports the store-wide figures.
        let mut stats = self.inner.stats();
        stats.num_column_families = self.registry.lock().by_id.len() as u64;
        stats
    }

    fn live_file_sizes(&self, _scope: Option<CfId>) -> Vec<u64> {
        self.inner.live_file_sizes()
    }

    fn engine_name(&self) -> String {
        self.inner.engine_name()
    }

    fn create_cf(&self, name: &str) -> Result<CfId> {
        if name.is_empty() || name.contains('/') {
            return Err(Error::invalid_argument(format!(
                "invalid column family name {name:?}"
            )));
        }
        let mut registry = self.registry.lock();
        if registry.by_name.contains_key(name) {
            return Err(Error::invalid_argument(format!(
                "column family {name:?} already exists"
            )));
        }
        let id = registry.next_id;
        registry.next_id += 1;
        registry.by_name.insert(name.to_string(), id);
        registry.by_id.insert(id, name.to_string());
        Ok(id)
    }

    fn drop_cf(&self, name: &str) -> Result<()> {
        let id = {
            let mut registry = self.registry.lock();
            if name == DEFAULT_CF_NAME {
                return Err(Error::invalid_argument(
                    "the default column family cannot be dropped",
                ));
            }
            let id = registry
                .by_name
                .remove(name)
                .ok_or_else(|| Error::invalid_argument(format!("no column family {name:?}")))?;
            registry.by_id.remove(&id);
            id
        };
        // Delete the family's key range in bounded chunks.
        let prefix = cf_prefix(id);
        let end = prefix_successor(&prefix);
        loop {
            let chunk = self.inner.scan(&prefix, &end, 1024)?;
            if chunk.is_empty() {
                return Ok(());
            }
            let mut batch = WriteBatch::new();
            for (key, _) in &chunk {
                batch.delete(key);
            }
            self.inner.write(batch)?;
        }
    }

    fn list_cfs(&self) -> Vec<(CfId, String)> {
        let registry = self.registry.lock();
        let cfs = registry.by_id.iter();
        cfs.map(|(id, name)| (*id, name.clone())).collect()
    }

    fn cf_stats(&self) -> Vec<CfStats> {
        let stats = |(id, name)| CfStats {
            id,
            name,
            ..CfStats::default()
        };
        self.list_cfs().into_iter().map(stats).collect()
    }
}

/// Column families emulated by key prefixing over any plain [`KvStore`].
///
/// Every family's keys live in the inner store under an `@<id>/` prefix —
/// the exact scheme the application layers used to hand-roll per app. The
/// emulation is API-complete (cursors stay inside their family, mixed
/// batches are atomic, snapshots are shared) but per-family file statistics
/// are store-wide, and the family *registry* is in-memory: a reopened store
/// must re-create its families (their data is still there, because ids are
/// allocated deterministically in creation order).
///
/// Engines with native families should be preferred; this adapter exists so
/// the B+Tree engine and test doubles can serve the same multi-namespace
/// workloads.
pub struct PrefixDb {
    core: Arc<PrefixCore>,
}

impl PrefixDb {
    /// Wraps `inner`, exposing a [`Db`] over it.
    pub fn new(inner: Arc<dyn KvStore>) -> PrefixDb {
        let mut by_name = BTreeMap::new();
        let mut by_id = BTreeMap::new();
        by_name.insert(DEFAULT_CF_NAME.to_string(), 0);
        by_id.insert(0, DEFAULT_CF_NAME.to_string());
        PrefixDb {
            core: Arc::new(PrefixCore {
                inner,
                registry: Mutex::new(PrefixRegistry {
                    by_name,
                    by_id,
                    next_id: 1,
                }),
            }),
        }
    }
}

crate::store_views!(PrefixDb => |db| &db.core);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::{BytewiseOrder, VecIterator};
    use crate::snapshot::SnapshotList;

    /// A sorted in-memory store with enough behaviour for the emulation.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
        writes: std::sync::atomic::AtomicU64,
        snapshots: Arc<SnapshotList>,
    }

    impl KvStore for MapStore {
        fn put_opts(&self, _opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get_opts(&self, _opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().get(key).cloned())
        }
        fn delete_opts(&self, _opts: &WriteOptions, key: &[u8]) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
            for record in batch.iter() {
                let record = record?;
                match record.value_type {
                    ValueType::Value => self.put_opts(opts, record.key, record.value)?,
                    ValueType::Deletion => self.delete_opts(opts, record.key)?,
                    ValueType::ValuePointer => unreachable!("tests never build pointer records"),
                }
            }
            Ok(())
        }
        fn iter(&self, _opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
            let entries: Vec<_> = self
                .map
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            Ok(Box::new(VecIterator::<BytewiseOrder>::with_order(entries)))
        }
        fn snapshot(&self) -> Snapshot {
            self.snapshots.acquire(0)
        }
        fn flush(&self) -> Result<()> {
            Ok(())
        }
        fn stats(&self) -> StoreStats {
            StoreStats::default()
        }
        fn engine_name(&self) -> String {
            "MapStore".to_string()
        }
    }

    fn prefix_db() -> PrefixDb {
        PrefixDb::new(Arc::new(MapStore::default()))
    }

    #[test]
    fn families_are_isolated_namespaces() {
        let db = prefix_db();
        let users = db.create_cf("users").unwrap();
        let posts = db.create_cf("posts").unwrap();
        db.put(b"k", b"default").unwrap();
        users.put(b"k", b"user").unwrap();
        posts.put(b"k", b"post").unwrap();

        assert_eq!(db.get(b"k").unwrap(), Some(b"default".to_vec()));
        assert_eq!(users.get(b"k").unwrap(), Some(b"user".to_vec()));
        assert_eq!(posts.get(b"k").unwrap(), Some(b"post".to_vec()));

        users.delete(b"k").unwrap();
        assert_eq!(users.get(b"k").unwrap(), None);
        assert_eq!(posts.get(b"k").unwrap(), Some(b"post".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"default".to_vec()));
    }

    #[test]
    fn handle_cursors_stay_inside_their_family() {
        let db = prefix_db();
        let users = db.create_cf("users").unwrap();
        for i in 0..10u8 {
            users.put(&[b'u', b'0' + i], &[i]).unwrap();
            db.put(&[b'd', b'0' + i], &[i]).unwrap();
        }
        // Unbounded scan stays inside the family and strips the prefix.
        let got = users.scan(b"", &[], 100).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"u0".to_vec());
        // Bounded scan and limit behave like any KvStore.
        assert_eq!(users.scan(b"u3", b"u6", 100).unwrap().len(), 3);
        assert_eq!(users.scan(b"", &[], 4).unwrap().len(), 4);
        // A cursor ends at the family's last key.
        let mut iter = users.iter(&ReadOptions::default()).unwrap();
        iter.seek(b"u8");
        assert_eq!(iter.key(), b"u8");
        iter.next();
        assert_eq!(iter.key(), b"u9");
        iter.next();
        assert!(!iter.valid());
        // The default family does not see user keys.
        assert_eq!(db.scan(b"", &[], 100).unwrap().len(), 10);
        assert!(db.scan(b"", &[], 100).unwrap()[0].0.starts_with(b"d"));
    }

    #[test]
    fn mixed_batches_land_in_their_families() {
        let db = prefix_db();
        let index = db.create_cf("index").unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"row", b"payload");
        batch.put_cf(index.id(), b"idx", b"row");
        db.write(batch).unwrap();
        assert_eq!(db.get(b"row").unwrap(), Some(b"payload".to_vec()));
        assert_eq!(index.get(b"idx").unwrap(), Some(b"row".to_vec()));
        assert_eq!(db.get(b"idx").unwrap(), None);

        // A plain batch written through a handle targets that family.
        let mut plain = WriteBatch::new();
        plain.put(b"only-index", b"1");
        index.write(plain).unwrap();
        assert_eq!(index.get(b"only-index").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"only-index").unwrap(), None);
    }

    #[test]
    fn create_list_drop_lifecycle() {
        let db = prefix_db();
        assert_eq!(db.list_cfs(), vec![DEFAULT_CF_NAME.to_string()]);
        let cf = db.create_cf("temp").unwrap();
        assert!(db.create_cf("temp").is_err(), "duplicate create must fail");
        assert_eq!(db.list_cfs().len(), 2);
        assert_eq!(db.cf("temp").unwrap().id(), cf.id());
        assert!(db.cf("missing").is_none());

        for i in 0..50u8 {
            cf.put(&[i], b"x").unwrap();
        }
        db.drop_cf("temp").unwrap();
        assert!(db.cf("temp").is_none());
        assert!(db.drop_cf(DEFAULT_CF_NAME).is_err());
        // The dropped family's keys are gone from the inner store.
        let recreated = db.cf_or_create("temp").unwrap();
        assert_ne!(recreated.id(), cf.id(), "dropped ids are not reused");
        assert_eq!(recreated.scan(b"", &[], 100).unwrap().len(), 0);
    }
}
