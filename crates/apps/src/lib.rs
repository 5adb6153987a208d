//! Simulated NoSQL application layers over any [`KvStore`].
//!
//! Figure 5.6 of the paper evaluates PebblesDB *inside* two real
//! applications, HyperDex and MongoDB, and finds that the gains shrink
//! because (a) the applications add their own per-operation latency, so the
//! storage engine is no longer the bottleneck, and (b) HyperDex issues a read
//! before every write, which throttles the insert rate the engine sees.
//!
//! This crate reproduces those two decisive behaviours as thin, in-process
//! layers:
//!
//! * [`HyperDexLike`] — a searchable document store that checks whether a key
//!   exists before every put (read-before-write) and adds configurable
//!   client-side latency.
//! * [`MongoLike`] — a document store with a primary-`_id` index, a document
//!   encoding step and client-side latency, standing in for MongoDB whose
//!   default engine (WiredTiger) is modelled by the B+Tree crate.
//!
//! Both layers implement [`KvStore`](pebblesdb_common::KvStore) themselves,
//! so the YCSB runner drives "application + engine" stacks exactly like bare
//! engines — and both are built on real column families
//! ([`Db`](pebblesdb_common::Db)): HyperDex keeps its secondary index in its
//! own family, updated atomically with the primary row through cross-family
//! batches, and each Mongo collection is a family of its own. Engines
//! without native families run behind the shared
//! [`PrefixDb`](pebblesdb_common::PrefixDb) emulation.

pub mod document;
pub mod hyperdex;
mod iter;
pub mod mongo;

pub use document::Document;
pub use hyperdex::HyperDexLike;
pub use mongo::MongoLike;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pebblesdb_common::iterator::{BytewiseOrder, VecIterator};
    use pebblesdb_common::snapshot::{Snapshot, SnapshotList};
    use pebblesdb_common::{
        Db, DbIterator, KvStore, PrefixDb, ReadOptions, Result, StoreStats, WriteBatch,
        WriteOptions,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Minimal in-memory store for exercising the layers without an engine.
    #[derive(Default)]
    pub(crate) struct MapStore {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
        pub gets: std::sync::atomic::AtomicU64,
        pub puts: std::sync::atomic::AtomicU64,
        snapshots: Arc<SnapshotList>,
    }

    impl KvStore for MapStore {
        fn put_opts(&self, _opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
            self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn get_opts(&self, _opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
            self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(self.map.lock().get(key).cloned())
        }
        fn delete_opts(&self, _opts: &WriteOptions, key: &[u8]) -> Result<()> {
            self.map.lock().remove(key);
            Ok(())
        }
        fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
            for record in batch.iter() {
                let record = record.unwrap();
                match record.value_type {
                    pebblesdb_common::ValueType::Value => {
                        self.put_opts(opts, record.key, record.value)?
                    }
                    pebblesdb_common::ValueType::Deletion => self.delete_opts(opts, record.key)?,
                    pebblesdb_common::ValueType::ValuePointer => {
                        unreachable!("test batches never carry value pointers")
                    }
                }
            }
            Ok(())
        }
        fn iter(&self, _opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = self
                .map
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            Ok(Box::new(VecIterator::<BytewiseOrder>::with_order(entries)))
        }
        fn snapshot(&self) -> Snapshot {
            self.snapshots
                .acquire(self.puts.load(std::sync::atomic::Ordering::Relaxed))
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

    /// The engines the layers run over in these tests have no native
    /// column families; the shared prefix emulation supplies them.
    fn map_db() -> (Arc<MapStore>, Arc<dyn Db>) {
        let engine = Arc::new(MapStore::default());
        let db: Arc<dyn Db> = Arc::new(PrefixDb::new(engine.clone() as Arc<dyn KvStore>));
        (engine, db)
    }

    #[test]
    fn hyperdex_layer_reads_before_every_write() {
        let (engine, db) = map_db();
        let app = HyperDexLike::new(db, 0).unwrap();
        app.put(b"k1", b"v1").unwrap();
        app.put(b"k2", b"v2").unwrap();
        assert_eq!(app.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        // Two puts -> two existence checks, plus the explicit get above.
        let gets = engine.gets.load(std::sync::atomic::Ordering::Relaxed);
        // Primary rows plus their index entries reach the engine.
        let puts = engine.puts.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(puts, 4, "2 primary rows + 2 index entries");
        assert!(gets >= 3, "expected read-before-write gets, saw {gets}");
    }

    #[test]
    fn hyperdex_value_index_tracks_overwrites_and_deletes() {
        let (_, db) = map_db();
        let app = HyperDexLike::new(Arc::clone(&db), 0).unwrap();
        app.put(b"a", b"red").unwrap();
        app.put(b"b", b"red").unwrap();
        app.put(b"c", b"blue").unwrap();
        assert_eq!(
            app.search_by_value(b"red").unwrap(),
            vec![b"a".to_vec(), b"b".to_vec()]
        );
        // An overwrite retires the stale index entry atomically.
        app.put(b"a", b"blue").unwrap();
        assert_eq!(app.search_by_value(b"red").unwrap(), vec![b"b".to_vec()]);
        assert_eq!(
            app.search_by_value(b"blue").unwrap(),
            vec![b"a".to_vec(), b"c".to_vec()]
        );
        // A delete removes both the row and its index entry.
        app.delete(b"b").unwrap();
        assert!(app.search_by_value(b"red").unwrap().is_empty());
        // Values that are prefixes of each other do not alias in the index.
        app.put(b"d", b"blu").unwrap();
        assert_eq!(app.search_by_value(b"blu").unwrap(), vec![b"d".to_vec()]);
        assert_eq!(app.search_by_value(b"blue").unwrap().len(), 2);
    }

    #[test]
    fn mongo_layer_wraps_values_in_documents() {
        let (_, db) = map_db();
        let app = MongoLike::new(Arc::clone(&db), 0).unwrap();
        app.put(b"user1", b"profile-data").unwrap();
        // The raw value in the collection's column family is a document
        // envelope, not the bare bytes.
        let raw = app.collection_cf().get(b"user1").unwrap().unwrap();
        assert_ne!(raw, b"profile-data".to_vec());
        // Through the layer the original value round-trips.
        assert_eq!(app.get(b"user1").unwrap(), Some(b"profile-data".to_vec()));
        assert_eq!(app.get(b"missing").unwrap(), None);
        // The document never leaks into the default namespace.
        assert_eq!(db.get(b"user1").unwrap(), None);
    }

    #[test]
    fn mongo_collections_are_isolated_families() {
        let (_, db) = map_db();
        let users = MongoLike::new(Arc::clone(&db), 0).unwrap();
        let logs = users.collection("logs").unwrap();
        users.put(b"id1", b"alice").unwrap();
        logs.put(b"id1", b"login").unwrap();
        assert_eq!(users.get(b"id1").unwrap(), Some(b"alice".to_vec()));
        assert_eq!(logs.get(b"id1").unwrap(), Some(b"login".to_vec()));
        assert_eq!(users.scan(b"", &[], 100).unwrap().len(), 1);
        assert_eq!(logs.scan(b"", &[], 100).unwrap().len(), 1);
    }

    #[test]
    fn layers_support_scans_and_deletes() {
        let (_, db) = map_db();
        let app = MongoLike::new(db, 0).unwrap();
        for i in 0..20u32 {
            app.put(format!("doc{i:03}").as_bytes(), b"x").unwrap();
        }
        app.delete(b"doc005").unwrap();
        let results = app.scan(b"doc000", b"doc010", 100).unwrap();
        assert_eq!(results.len(), 9);
        assert!(results.iter().all(|(k, _)| k != b"doc005"));
    }
}
