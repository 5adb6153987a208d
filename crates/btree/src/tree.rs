//! The B+Tree store: tree operations over the pager, plus the [`KvStore`]
//! implementation used by the benchmark harness.
//!
//! The store is sequence-number versioned like the LSM engines: every write
//! bumps a sequence counter, [`KvStore::snapshot`] pins one, and while any
//! snapshot is live the write path keeps a copy-on-write *undo log* — the
//! value each key held before it was overwritten or deleted, tagged with the
//! sequence of the superseding write. Snapshot reads resolve a key by
//! looking for the earliest undo record newer than the snapshot; absent one,
//! the live tree value was already current at the snapshot. When the last
//! snapshot drops, the undo log is discarded — the RAII release the shared
//! store API promises.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use pebblesdb_common::filename::btree_pages_file_name;
use pebblesdb_common::key::ValueType;
use pebblesdb_common::snapshot::{Snapshot, SnapshotList};
use pebblesdb_common::{
    DbIterator, EngineCounters, Error, KvStore, ReadOptions, Result, StoreOptions, StoreStats,
    WriteBatch, WriteOptions,
};
use pebblesdb_env::Env;

use crate::node::{Node, NO_PAGE};
use crate::pager::Pager;
use crate::PAGE_SIZE;

/// Magic number stored in the meta page.
const META_MAGIC: u64 = 0x6274_7265_655f_7067; // "btree_pg"
/// Checkpoint after this many dirty operations (models a store that batches
/// page write-back, like WiredTiger's periodic checkpoints).
const CHECKPOINT_EVERY: u64 = 256;

/// The pre-image a write displaced: `None` means the key did not exist.
type UndoVersion = (u64, Option<Vec<u8>>);

struct TreeInner {
    pager: Pager,
    root: u32,
    ops_since_checkpoint: u64,
    /// Sequence of the most recent write (in-memory; snapshots do not
    /// survive a reopen).
    last_sequence: u64,
    /// Per-key pre-images kept while snapshots are live: `(valid_before,
    /// old value)` — the key held `old value` for every sequence `<
    /// valid_before`. Cleared when the last snapshot drops.
    undo: BTreeMap<Vec<u8>, Vec<UndoVersion>>,
}

impl TreeInner {
    /// The value of `key` visible at `snapshot_seq`, given the current live
    /// value.
    fn resolve_at(&self, key: &[u8], live: Option<Vec<u8>>, snapshot_seq: u64) -> Option<Vec<u8>> {
        if let Some(versions) = self.undo.get(key) {
            // The earliest write *after* the snapshot displaced the value
            // the snapshot saw.
            let mut best: Option<&UndoVersion> = None;
            for version in versions {
                if version.0 > snapshot_seq && best.map(|b| version.0 < b.0).unwrap_or(true) {
                    best = Some(version);
                }
            }
            if let Some((_, old_value)) = best {
                return old_value.clone();
            }
        }
        live
    }

    /// Records the pre-image of `key` before a write at `new_seq`.
    fn record_undo(&mut self, key: &[u8], old_value: Option<Vec<u8>>, new_seq: u64) {
        self.undo
            .entry(key.to_vec())
            .or_default()
            .push((new_seq, old_value));
    }
}

/// A persistent B+Tree key-value store.
pub struct BTreeStore {
    env: Arc<dyn Env>,
    inner: Arc<Mutex<TreeInner>>,
    counters: EngineCounters,
    snapshots: Arc<SnapshotList>,
}

impl BTreeStore {
    /// Opens (creating if necessary) the store at `path`.
    pub fn open(env: Arc<dyn Env>, path: &Path, options: StoreOptions) -> Result<BTreeStore> {
        env.create_dir_all(path)?;
        let pages_path = btree_pages_file_name(path, 1);
        let mut pager = Pager::open(env.as_ref(), &pages_path, options.block_cache_capacity)?;

        let root = if pager.num_pages() == 0 {
            // Fresh store: page 0 is the meta page, page 1 the empty root.
            let meta = pager.allocate();
            debug_assert_eq!(meta, 0);
            let root = pager.allocate();
            pager.write_page(root, Node::empty_leaf().encode()?)?;
            let mut tree = TreeInner {
                pager,
                root,
                ops_since_checkpoint: 0,
                last_sequence: 0,
                undo: BTreeMap::new(),
            };
            Self::write_meta(&mut tree)?;
            tree.pager.checkpoint()?;
            return Ok(BTreeStore {
                env,
                inner: Arc::new(Mutex::new(tree)),
                counters: EngineCounters::default(),
                snapshots: SnapshotList::new(),
            });
        } else {
            let meta = pager.read_page(0)?;
            let magic = u64::from_le_bytes(meta[..8].try_into().expect("meta page"));
            if magic != META_MAGIC {
                return Err(Error::corruption("bad b+tree meta page"));
            }
            u32::from_le_bytes(meta[8..12].try_into().expect("meta page"))
        };

        Ok(BTreeStore {
            env,
            inner: Arc::new(Mutex::new(TreeInner {
                pager,
                root,
                ops_since_checkpoint: 0,
                last_sequence: 0,
                undo: BTreeMap::new(),
            })),
            counters: EngineCounters::default(),
            snapshots: SnapshotList::new(),
        })
    }

    fn write_meta(tree: &mut TreeInner) -> Result<()> {
        let mut meta = vec![0u8; PAGE_SIZE];
        meta[..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        meta[8..12].copy_from_slice(&tree.root.to_le_bytes());
        tree.pager.write_page(0, meta)
    }

    /// Number of pages in the underlying file.
    pub fn num_pages(&self) -> u32 {
        self.inner.lock().pager.num_pages()
    }

    fn insert_entry(&self, tree: &mut TreeInner, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() + value.len() + 64 > PAGE_SIZE {
            return Err(Error::invalid_argument("entry too large for a b+tree page"));
        }
        let root = tree.root;
        if let Some((split_key, right_page)) = Self::insert_recursive(tree, root, key, value)? {
            // The root split: grow the tree by one level.
            let new_root = tree.pager.allocate();
            let node = Node::Internal {
                keys: vec![split_key],
                children: vec![root, right_page],
            };
            tree.pager.write_page(new_root, node.encode()?)?;
            tree.root = new_root;
            Self::write_meta(tree)?;
        }
        Ok(())
    }

    /// Inserts into the subtree rooted at `page`, returning the promoted key
    /// and new right sibling if the node split.
    fn insert_recursive(
        tree: &mut TreeInner,
        page: u32,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<(Vec<u8>, u32)>> {
        let node = Node::decode(&tree.pager.read_page(page)?)?;
        match node {
            Node::Leaf {
                mut entries,
                next_leaf,
            } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(idx) => entries[idx].1 = value.to_vec(),
                    Err(idx) => entries.insert(idx, (key.to_vec(), value.to_vec())),
                }
                let node = Node::Leaf { entries, next_leaf };
                if !node.overflows() {
                    tree.pager.write_page(page, node.encode()?)?;
                    return Ok(None);
                }
                // Split the leaf in half; the right half moves to a new page.
                let Node::Leaf { entries, next_leaf } = node else {
                    unreachable!()
                };
                let mid = entries.len() / 2;
                let right_entries = entries[mid..].to_vec();
                let left_entries = entries[..mid].to_vec();
                let split_key = right_entries[0].0.clone();
                let right_page = tree.pager.allocate();
                tree.pager.write_page(
                    right_page,
                    Node::Leaf {
                        entries: right_entries,
                        next_leaf,
                    }
                    .encode()?,
                )?;
                tree.pager.write_page(
                    page,
                    Node::Leaf {
                        entries: left_entries,
                        next_leaf: right_page,
                    }
                    .encode()?,
                )?;
                Ok(Some((split_key, right_page)))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = children[idx];
                if let Some((split_key, right_page)) =
                    Self::insert_recursive(tree, child, key, value)?
                {
                    keys.insert(idx, split_key);
                    children.insert(idx + 1, right_page);
                }
                let node = Node::Internal { keys, children };
                if !node.overflows() {
                    tree.pager.write_page(page, node.encode()?)?;
                    return Ok(None);
                }
                let Node::Internal { keys, children } = node else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let promote = keys[mid].clone();
                let right_keys = keys[mid + 1..].to_vec();
                let right_children = children[mid + 1..].to_vec();
                let left_keys = keys[..mid].to_vec();
                let left_children = children[..mid + 1].to_vec();
                let right_page = tree.pager.allocate();
                tree.pager.write_page(
                    right_page,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    }
                    .encode()?,
                )?;
                tree.pager.write_page(
                    page,
                    Node::Internal {
                        keys: left_keys,
                        children: left_children,
                    }
                    .encode()?,
                )?;
                Ok(Some((promote, right_page)))
            }
        }
    }

    /// Finds the leaf page that would contain `key`.
    fn find_leaf(tree: &mut TreeInner, key: &[u8]) -> Result<u32> {
        let mut page = tree.root;
        loop {
            let node = Node::decode(&tree.pager.read_page(page)?)?;
            match node {
                Node::Leaf { .. } => return Ok(page),
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page = children[idx];
                }
            }
        }
    }

    /// The live value of `key`, straight from the tree.
    fn live_value(tree: &mut TreeInner, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let leaf = Self::find_leaf(tree, key)?;
        let node = Node::decode(&tree.pager.read_page(leaf)?)?;
        let Node::Leaf { entries, .. } = node else {
            return Err(Error::corruption("expected leaf page"));
        };
        Ok(entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|idx| entries[idx].1.clone()))
    }

    /// Bumps the sequence for a write to `key`, saving its pre-image while
    /// snapshots are live (and discarding the undo log once none are).
    fn begin_write(&self, tree: &mut TreeInner, key: &[u8]) -> Result<u64> {
        tree.last_sequence += 1;
        let seq = tree.last_sequence;
        if self.snapshots.has_active() {
            let old = Self::live_value(tree, key)?;
            tree.record_undo(key, old, seq);
        } else if !tree.undo.is_empty() {
            tree.undo = BTreeMap::new();
        }
        Ok(seq)
    }

    fn maybe_checkpoint(&self, tree: &mut TreeInner) -> Result<()> {
        tree.ops_since_checkpoint += 1;
        if tree.ops_since_checkpoint >= CHECKPOINT_EVERY {
            tree.ops_since_checkpoint = 0;
            tree.pager.checkpoint()?;
        }
        Ok(())
    }
}

impl KvStore for BTreeStore {
    fn put_opts(&self, _opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut tree = self.inner.lock();
        self.begin_write(&mut tree, key)?;
        self.insert_entry(&mut tree, key, value)?;
        self.counters
            .user_bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        self.maybe_checkpoint(&mut tree)
    }

    fn get_opts(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let mut tree = self.inner.lock();
        let live = Self::live_value(&mut tree, key)?;
        match opts.snapshot {
            Some(snapshot_seq) if snapshot_seq < tree.last_sequence => {
                Ok(tree.resolve_at(key, live, snapshot_seq))
            }
            _ => Ok(live),
        }
    }

    fn delete_opts(&self, _opts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut tree = self.inner.lock();
        self.begin_write(&mut tree, key)?;
        let leaf = Self::find_leaf(&mut tree, key)?;
        let node = Node::decode(&tree.pager.read_page(leaf)?)?;
        let Node::Leaf {
            mut entries,
            next_leaf,
        } = node
        else {
            return Err(Error::corruption("expected leaf page"));
        };
        if let Ok(idx) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            entries.remove(idx);
            tree.pager
                .write_page(leaf, Node::Leaf { entries, next_leaf }.encode()?)?;
        }
        self.counters
            .user_bytes_written
            .fetch_add(key.len() as u64, Ordering::Relaxed);
        self.maybe_checkpoint(&mut tree)
    }

    fn write_opts(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        for record in batch.iter() {
            let record = record?;
            match record.value_type {
                ValueType::Value => self.put_opts(opts, record.key, record.value)?,
                ValueType::Deletion => self.delete_opts(opts, record.key)?,
                // Pointers are LSM-engine-internal; the B-tree baseline
                // stores every value inline.
                ValueType::ValuePointer => {
                    return Err(Error::invalid_argument(
                        "value pointers cannot be written directly",
                    ));
                }
            }
        }
        Ok(())
    }

    fn iter(&self, opts: &ReadOptions) -> Result<Box<dyn DbIterator>> {
        self.counters.seeks.fetch_add(1, Ordering::Relaxed);
        // The cursor outlives this call, so even a snapshot equal to the
        // current sequence must keep resolving through the undo overlay —
        // writes issued after cursor creation would otherwise leak into the
        // batches it loads lazily.
        let snapshot = {
            let tree = self.inner.lock();
            opts.snapshot.map(|seq| seq.min(tree.last_sequence))
        };
        Ok(Box::new(BTreeIterator::new(
            Arc::clone(&self.inner),
            snapshot,
        )))
    }

    fn snapshot(&self) -> Snapshot {
        let tree = self.inner.lock();
        self.snapshots.acquire(tree.last_sequence)
    }

    fn flush(&self) -> Result<()> {
        let mut tree = self.inner.lock();
        tree.ops_since_checkpoint = 0;
        tree.pager.checkpoint()
    }

    fn stats(&self) -> StoreStats {
        let io = self.env.io_stats().snapshot();
        let tree = self.inner.lock();
        let mut stats = StoreStats::default();
        self.counters.snapshot_into(&mut stats);
        // No compactions here: the two compaction byte rows carry the
        // pager's page traffic instead.
        StoreStats {
            bytes_written: io.bytes_written,
            bytes_read: io.bytes_read,
            disk_bytes_live: u64::from(tree.pager.num_pages()) * PAGE_SIZE as u64,
            num_files: 1,
            compaction_bytes_read: tree.pager.pages_read() * PAGE_SIZE as u64,
            compaction_bytes_written: tree.pager.pages_written() * PAGE_SIZE as u64,
            memory_usage_bytes: tree.pager.memory_usage() as u64,
            ..stats
        }
    }

    fn engine_name(&self) -> String {
        "BTree".to_string()
    }

    fn live_file_sizes(&self) -> Vec<u64> {
        vec![u64::from(self.num_pages()) * PAGE_SIZE as u64]
    }
}

/// A streaming cursor over the B+Tree's leaf pages.
///
/// The cursor materialises one leaf-sized batch at a time: it locks the
/// tree, loads the leaf owning the current position (merging the snapshot
/// undo overlay when reading as of a snapshot), and releases the lock until
/// the batch is exhausted, then follows the next bound (the following
/// leaf's first key).
struct BTreeIterator {
    tree: Arc<Mutex<TreeInner>>,
    /// Resolve against the undo overlay as of this sequence; `None` reads
    /// the live tree.
    snapshot: Option<u64>,
    /// The resolved batch: the entries from the loaded key up to `batch_upper`.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    idx: usize,
    /// Upper bound of the batch's coverage; `None` = unbounded above.
    batch_upper: Option<Vec<u8>>,
    valid: bool,
    /// First error hit while loading a leaf; ends iteration.
    error: Option<Error>,
}

impl BTreeIterator {
    fn new(tree: Arc<Mutex<TreeInner>>, snapshot: Option<u64>) -> Self {
        BTreeIterator {
            tree,
            snapshot,
            entries: Vec::new(),
            idx: 0,
            batch_upper: None,
            valid: false,
            error: None,
        }
    }

    fn record_load_error(&mut self, result: Result<()>) -> bool {
        match result {
            Ok(()) => true,
            Err(err) => {
                self.error = Some(err);
                self.valid = false;
                false
            }
        }
    }

    /// Resolves the batch covering `[from, upper)` from live entries and the
    /// undo overlay.
    fn resolve_batch(
        tree: &TreeInner,
        snapshot: Option<u64>,
        live: Vec<(Vec<u8>, Vec<u8>)>,
        from: &[u8],
        upper: Option<&[u8]>,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let Some(snapshot_seq) = snapshot else {
            return live;
        };
        // Union of live keys and undo keys in range, in order.
        let upper_bound = match upper {
            Some(u) => Bound::Excluded(u.to_vec()),
            None => Bound::Unbounded,
        };
        let undo_keys: Vec<&Vec<u8>> = tree
            .undo
            .range((Bound::Included(from.to_vec()), upper_bound))
            .map(|(k, _)| k)
            .collect();
        let mut out = Vec::new();
        let mut undo_idx = 0;
        let mut push = |key: &[u8], live_value: Option<Vec<u8>>| {
            if let Some(value) = tree.resolve_at(key, live_value, snapshot_seq) {
                out.push((key.to_vec(), value));
            }
        };
        for (key, value) in &live {
            while undo_idx < undo_keys.len() && undo_keys[undo_idx].as_slice() < key.as_slice() {
                push(undo_keys[undo_idx], None);
                undo_idx += 1;
            }
            if undo_idx < undo_keys.len() && undo_keys[undo_idx].as_slice() == key.as_slice() {
                undo_idx += 1;
            }
            push(key, Some(value.clone()));
        }
        while undo_idx < undo_keys.len() {
            push(undo_keys[undo_idx], None);
            undo_idx += 1;
        }
        out
    }

    /// Loads the batch of resolved entries with keys `>= from`.
    fn load(&mut self, from: &[u8]) -> Result<()> {
        let mut tree = self.tree.lock();
        let leaf = BTreeStore::find_leaf(&mut tree, from)?;
        let node = Node::decode(&tree.pager.read_page(leaf)?)?;
        let Node::Leaf { entries, next_leaf } = node else {
            return Err(Error::corruption("expected leaf page"));
        };
        // The batch's upper bound is the first key of the next non-empty
        // leaf (deletes can leave empty leaves in the chain).
        let mut upper: Option<Vec<u8>> = None;
        let mut next = next_leaf;
        while next != NO_PAGE {
            let node = Node::decode(&tree.pager.read_page(next)?)?;
            let Node::Leaf {
                entries: next_entries,
                next_leaf: after,
            } = node
            else {
                return Err(Error::corruption("expected leaf page"));
            };
            if let Some((first, _)) = next_entries.first() {
                upper = Some(first.clone());
                break;
            }
            next = after;
        }
        let live: Vec<(Vec<u8>, Vec<u8>)> = entries
            .into_iter()
            .filter(|(k, _)| k.as_slice() >= from)
            .collect();
        self.entries = Self::resolve_batch(&tree, self.snapshot, live, from, upper.as_deref());
        self.idx = 0;
        self.batch_upper = upper;
        Ok(())
    }

    /// Advances through forward batches until the cursor is on an entry
    /// or the key space is exhausted.
    fn settle(&mut self) {
        while self.idx >= self.entries.len() {
            let Some(upper) = self.batch_upper.take() else {
                self.valid = false;
                return;
            };
            let result = self.load(&upper);
            if !self.record_load_error(result) {
                return;
            }
        }
        self.valid = true;
    }
}

impl DbIterator for BTreeIterator {
    fn valid(&self) -> bool {
        self.valid && self.idx < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.seek(&[]);
    }

    fn seek(&mut self, target: &[u8]) {
        let result = self.load(target);
        if self.record_load_error(result) {
            self.settle();
        }
    }

    fn next(&mut self) {
        assert!(self.valid(), "next() on invalid iterator");
        self.idx += 1;
        self.settle();
    }

    fn key(&self) -> &[u8] {
        assert!(self.valid(), "key() on invalid iterator");
        &self.entries[self.idx].0
    }

    fn value(&self) -> &[u8] {
        assert!(self.valid(), "value() on invalid iterator");
        &self.entries[self.idx].1
    }

    fn status(&self) -> Result<()> {
        match &self.error {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::MemEnv;

    #[test]
    fn sequential_and_reverse_inserts_balance() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = BTreeStore::open(env, Path::new("/bt"), StoreOptions::default()).unwrap();
        for i in 0..1000u32 {
            db.put(format!("a{i:06}").as_bytes(), b"1").unwrap();
        }
        for i in (0..1000u32).rev() {
            db.put(format!("z{i:06}").as_bytes(), b"2").unwrap();
        }
        assert_eq!(db.get(b"a000500").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"z000500").unwrap(), Some(b"2".to_vec()));
        assert!(db.num_pages() > 4);
    }

    #[test]
    fn batch_writes_apply_in_order() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = BTreeStore::open(env, Path::new("/bt"), StoreOptions::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v1");
        batch.put(b"k", b"v2");
        batch.delete(b"gone");
        db.write(batch).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn cursor_streams_across_leaves() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = BTreeStore::open(env, Path::new("/bt"), StoreOptions::default()).unwrap();
        for i in 0..500u32 {
            db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert!(db.num_pages() > 3, "spans several leaves");

        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek_to_first();
        let mut count = 0u32;
        let mut last: Option<Vec<u8>> = None;
        while iter.valid() {
            if let Some(prev) = &last {
                assert!(prev.as_slice() < iter.key());
            }
            last = Some(iter.key().to_vec());
            count += 1;
            iter.next();
        }
        assert_eq!(count, 500);

        iter.seek(b"k00122x");
        let mut rest = 0u32;
        while iter.valid() {
            assert_eq!(iter.key(), format!("k{:05}", 123 + rest).as_bytes());
            rest += 1;
            iter.next();
        }
        assert_eq!(rest, 500 - 123);
    }

    #[test]
    fn snapshot_reads_see_pre_write_values() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = BTreeStore::open(env, Path::new("/bt"), StoreOptions::default()).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();

        let snap = db.snapshot();
        db.put(b"a", b"1x").unwrap();
        db.delete(b"b").unwrap();
        db.put(b"c", b"3").unwrap();

        let opts = snap.read_options();
        assert_eq!(db.get_opts(&opts, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get_opts(&opts, b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get_opts(&opts, b"c").unwrap(), None);
        // Latest reads are unaffected.
        assert_eq!(db.get(b"a").unwrap(), Some(b"1x".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), None);
        assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));

        // The snapshot cursor sees the old world, deletions included.
        let got = db.scan_opts(&opts, b"", &[], 100).unwrap();
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec())
            ]
        );

        // Dropping the snapshot releases the undo log on the next write.
        drop(snap);
        db.put(b"d", b"4").unwrap();
        assert!(db.inner.lock().undo.is_empty());
    }

    #[test]
    fn snapshot_cursor_hides_writes_made_after_its_creation() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = BTreeStore::open(env, Path::new("/bt"), StoreOptions::default()).unwrap();
        db.put(b"a", b"1").unwrap();

        // Snapshot at the *current* sequence, cursor created immediately —
        // the cursor loads its batches lazily, so writes racing it must
        // still be hidden.
        let snap = db.snapshot();
        let mut iter = db.iter(&snap.read_options()).unwrap();
        db.put(b"b", b"2").unwrap();
        db.put(b"a", b"1-new").unwrap();

        iter.seek_to_first();
        assert!(iter.valid());
        assert_eq!(iter.key(), b"a");
        assert_eq!(iter.value(), b"1");
        iter.next();
        assert!(!iter.valid(), "post-snapshot insert must stay hidden");
    }
}
