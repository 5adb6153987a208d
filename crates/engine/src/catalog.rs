//! The column-family catalog: the database-level manifest of namespaces.
//!
//! Each column family owns its own version set (CURRENT/MANIFEST) — the
//! default family in the database root, every other family in a `cf-<id>`
//! subdirectory — but the *set of families* is database-level metadata. It
//! lives in the `CFS` file at the root: a WAL-format log of create/drop
//! edits, CRC-protected and torn-tail-safe like every other manifest in the
//! workspace.
//!
//! ```text
//! CFS record := 0x01 varint32(id) varstring(name)   -- create family
//!             | 0x02 varint32(id)                   -- drop family
//!             | 0x03 varint32(next_id)              -- id floor (never reused)
//! ```
//!
//! Lifecycle and crash windows:
//!
//! * `create_cf` appends a create edit (synced) *before* the family's
//!   directory and version set are initialised. A crash in between leaves a
//!   catalog entry without a directory; reopen initialises the empty family
//!   then — creation is idempotent from the catalog's point of view.
//! * `drop_cf` appends a drop edit (synced) *before* the family's directory
//!   is deleted. A crash in between leaves an orphaned `cf-<id>` directory
//!   that reopen reaps (ids are never reused, so the directory is provably
//!   dead).
//! * On reopen the log is compacted: the surviving state is rewritten to
//!   `CFS.rewrite` and atomically renamed over `CFS` (directory synced), so
//!   the file does not grow with dead edits.
//!
//! A database that never creates a second family has no `CFS` file at all —
//! the single-namespace layout on disk is byte-identical to the
//! pre-column-family layout.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pebblesdb_common::coding::{put_length_prefixed_slice, put_varint32, Decoder};
use pebblesdb_common::{CfId, Error, Result, DEFAULT_CF_NAME};
use pebblesdb_env::Env;
use pebblesdb_wal::{LogReader, LogWriter};

const TAG_CREATE: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_NEXT_ID: u8 = 3;

/// The catalog file name inside the database root.
pub const CATALOG_FILE: &str = "CFS";

/// Returns the path of the catalog file inside `root`.
pub fn catalog_file_name(root: &Path) -> PathBuf {
    root.join(CATALOG_FILE)
}

/// Returns the directory of column family `id` (the root for the default).
pub fn cf_dir(root: &Path, id: CfId) -> PathBuf {
    if id == 0 {
        root.to_path_buf()
    } else {
        root.join(format!("cf-{id}"))
    }
}

/// The recovered catalog state: live families plus the id floor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogData {
    /// Live families `(id, name)` in id order; always starts with the
    /// default family.
    pub cfs: Vec<(CfId, String)>,
    /// The next id to allocate; dropped ids below it are never reused, so
    /// WAL records of a dropped family can never be mistaken for a new one.
    pub next_cf_id: CfId,
}

impl Default for CatalogData {
    fn default() -> Self {
        CatalogData {
            cfs: vec![(0, DEFAULT_CF_NAME.to_string())],
            next_cf_id: 1,
        }
    }
}

/// Reads the catalog from `root`, replaying create/drop edits in order.
///
/// A missing file means "default family only" — the pre-column-family
/// layout.
pub fn read(env: &dyn Env, root: &Path) -> Result<CatalogData> {
    let path = catalog_file_name(root);
    let mut data = CatalogData::default();
    if !env.file_exists(&path) {
        return Ok(data);
    }
    let file = env.new_sequential_file(&path)?;
    let mut reader = LogReader::new(file);
    // A torn tail ends replay, exactly like WAL recovery: the edit being
    // appended at the crash never committed.
    while let Some(record) = reader.read_record_or_tail()? {
        let mut dec = Decoder::new(&record);
        let Ok(tag) = dec.read_bytes(1) else { break };
        match tag[0] {
            TAG_CREATE => {
                let id = dec.read_varint32()?;
                let name = dec.read_length_prefixed_slice()?;
                let name = String::from_utf8(name.to_vec())
                    .map_err(|_| Error::corruption("non-utf8 column family name"))?;
                data.cfs.retain(|(existing, _)| *existing != id);
                data.cfs.push((id, name));
                data.next_cf_id = data.next_cf_id.max(id + 1);
            }
            TAG_DROP => {
                let id = dec.read_varint32()?;
                data.cfs.retain(|(existing, _)| *existing != id);
            }
            TAG_NEXT_ID => {
                let next = dec.read_varint32()?;
                data.next_cf_id = data.next_cf_id.max(next);
            }
            other => {
                return Err(Error::corruption(format!(
                    "unknown column family catalog tag {other}"
                )));
            }
        }
    }
    data.cfs.sort_by_key(|(id, _)| *id);
    Ok(data)
}

/// Encodes one catalog record; only create records carry a name.
fn record(tag: u8, id: CfId, name: &str) -> Vec<u8> {
    let mut out = vec![tag];
    put_varint32(&mut out, id);
    if tag == TAG_CREATE {
        put_length_prefixed_slice(&mut out, name.as_bytes());
    }
    out
}

/// An open, appendable catalog.
pub struct Catalog {
    writer: LogWriter,
}

impl Catalog {
    /// Writes a compacted snapshot of `data` and atomically installs it as
    /// the live catalog, returning a handle that can append further edits.
    ///
    /// Safe against a crash at any point: the rename is the commit, and the
    /// root directory is synced after it.
    pub fn rewrite(env: Arc<dyn Env>, root: &Path, data: &CatalogData) -> Result<Catalog> {
        let tmp = root.join(format!("{CATALOG_FILE}.rewrite"));
        let file = env.new_writable_file(&tmp)?;
        let mut writer = LogWriter::new(file);
        writer.add_record(&record(TAG_NEXT_ID, data.next_cf_id, ""))?;
        for (id, name) in &data.cfs {
            if *id != 0 {
                writer.add_record(&record(TAG_CREATE, *id, name))?;
            }
        }
        writer.sync()?;
        env.rename_file(&tmp, &catalog_file_name(root))?;
        env.sync_dir(root)?;
        // The writer's handle survives the rename (same inode / same
        // in-memory buffer), so later appends land in the live `CFS`.
        Ok(Catalog { writer })
    }

    /// Appends (and syncs) a create edit. This is the creation commit point.
    pub fn append_create(&mut self, id: CfId, name: &str) -> Result<()> {
        self.writer.add_record(&record(TAG_CREATE, id, name))?;
        self.writer.sync()
    }

    /// Appends (and syncs) a drop edit. This is the drop commit point; the
    /// family's directory may be deleted only after this returns.
    pub fn append_drop(&mut self, id: CfId) -> Result<()> {
        self.writer.add_record(&record(TAG_DROP, id, ""))?;
        self.writer.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_env::MemEnv;

    #[test]
    fn missing_catalog_means_default_family_only() {
        let env = MemEnv::new();
        let data = read(&env, Path::new("/db")).unwrap();
        assert_eq!(data, CatalogData::default());
        assert!(!env.file_exists(&catalog_file_name(Path::new("/db"))));
    }

    #[test]
    fn edits_roundtrip_through_rewrite_and_appends() {
        let env = Arc::new(MemEnv::new());
        let root = Path::new("/db");
        let mut catalog = Catalog::rewrite(
            Arc::clone(&env) as Arc<dyn Env>,
            root,
            &CatalogData::default(),
        )
        .unwrap();
        catalog.append_create(1, "users").unwrap();
        catalog.append_create(2, "posts").unwrap();
        catalog.append_drop(1).unwrap();

        let data = read(env.as_ref(), root).unwrap();
        assert_eq!(
            data.cfs,
            vec![(0, "default".to_string()), (2, "posts".to_string())]
        );
        assert_eq!(data.next_cf_id, 3);

        // A rewrite compacts the dead edits but preserves the id floor.
        let mut catalog = Catalog::rewrite(Arc::clone(&env) as Arc<dyn Env>, root, &data).unwrap();
        catalog.append_create(3, "tags").unwrap();
        let data = read(env.as_ref(), root).unwrap();
        assert_eq!(data.cfs.len(), 3);
        assert_eq!(data.next_cf_id, 4);
    }

    #[test]
    fn torn_tail_drops_only_the_last_edit() {
        let env = Arc::new(MemEnv::new());
        let root = Path::new("/db");
        let mut catalog = Catalog::rewrite(
            Arc::clone(&env) as Arc<dyn Env>,
            root,
            &CatalogData::default(),
        )
        .unwrap();
        catalog.append_create(1, "users").unwrap();
        catalog.append_create(2, "posts").unwrap();
        drop(catalog);

        let path = catalog_file_name(root);
        let size = env.file_size(&path).unwrap() as usize;
        env.truncate_file(&path, size - 3).unwrap();
        let data = read(env.as_ref(), root).unwrap();
        assert_eq!(
            data.cfs,
            vec![(0, "default".to_string()), (1, "users".to_string())]
        );
        // The torn create's id was never committed, so the floor stays at 2.
        assert_eq!(data.next_cf_id, 2);
    }

    #[test]
    fn cf_dirs_are_root_for_default_and_numbered_subdirs_otherwise() {
        let root = Path::new("/db");
        assert_eq!(cf_dir(root, 0), root);
        assert_eq!(cf_dir(root, 7), root.join("cf-7"));
    }
}
