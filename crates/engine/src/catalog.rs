//! The column-family catalog: the database-level manifest of namespaces.
//!
//! Each column family owns its own version set (CURRENT/MANIFEST) — the
//! default family in the database root, every other family in a `cf-<id>`
//! subdirectory — but the *set of families* is database-level metadata. It
//! lives in the `CFS` file at the root: a record log of [`CatalogEdit`]s.
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
//! * The first edit of a session, and the first after a failed append,
//!   rewrites the live state to `CFS.rewrite` and atomically renames it over
//!   `CFS` (directory synced): the file does not grow with dead edits, and a
//!   tear a failed append left is never buried under later ones.
//!
//! A database that never creates a second family has no `CFS` file at all —
//! the single-namespace layout on disk is byte-identical to the
//! pre-column-family layout.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pebblesdb_common::coding::{put_length_prefixed_slice, put_varint32, Decoder};
use pebblesdb_common::{CfId, Error, Result, DEFAULT_CF_NAME};
use pebblesdb_env::Env;
use pebblesdb_wal::{LogWriter, Record, Replay, Tail};

const TAG_CREATE: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_NEXT_ID: u8 = 3;

/// One record of the `CFS` log: a tag byte, `varint32(id)` and, in a create,
/// `varstring(name)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogEdit {
    /// Tag 1: the family `id` exists from here on, under this name.
    Create(CfId, String),
    /// Tag 2: the family `id` is gone.
    Drop(CfId),
    /// Tag 3: the id floor — no id below it is ever handed out again.
    NextId(CfId),
}

impl Record for CatalogEdit {
    fn encode(&self) -> Vec<u8> {
        let (tag, id) = match self {
            CatalogEdit::Create(id, _) => (TAG_CREATE, id),
            CatalogEdit::Drop(id) => (TAG_DROP, id),
            CatalogEdit::NextId(id) => (TAG_NEXT_ID, id),
        };
        let mut out = vec![tag];
        put_varint32(&mut out, *id);
        if let CatalogEdit::Create(_, name) = self {
            put_length_prefixed_slice(&mut out, name.as_bytes());
        }
        out
    }

    fn decode(bytes: Vec<u8>) -> Result<CatalogEdit> {
        let mut dec = Decoder::new(&bytes);
        let (tag, id) = (dec.read_bytes(1)?[0], dec.read_varint32()?);
        match tag {
            TAG_NEXT_ID => Ok(CatalogEdit::NextId(id)),
            TAG_CREATE | TAG_DROP if id == 0 => {
                Err(Error::corruption("catalog edit of the default family"))
            }
            TAG_DROP => Ok(CatalogEdit::Drop(id)),
            TAG_CREATE => String::from_utf8(dec.read_length_prefixed_slice()?.to_vec())
                .map(|name| CatalogEdit::Create(id, name))
                .map_err(|_| Error::corruption("non-utf8 column family name")),
            _ => Err(Error::corruption(format!("unknown catalog tag {tag}"))),
        }
    }
}

/// Returns the path of the catalog file inside `root`.
pub fn catalog_file_name(root: &Path) -> PathBuf {
    root.join("CFS")
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
    let mut replay = Replay::new(env.new_sequential_file(&path)?, Tail::Torn);
    while let Some(edit) = replay.next_record()? {
        match edit {
            CatalogEdit::Create(id, name) => {
                data.cfs.retain(|(existing, _)| *existing != id);
                data.cfs.push((id, name));
                data.next_cf_id = data.next_cf_id.max(id.saturating_add(1));
            }
            CatalogEdit::Drop(id) => data.cfs.retain(|(existing, _)| *existing != id),
            CatalogEdit::NextId(next) => data.next_cf_id = data.next_cf_id.max(next),
        }
    }
    data.cfs.sort_by_key(|(id, _)| *id);
    Ok(data)
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
        let tmp = catalog_file_name(root).with_extension("rewrite");
        let file = env.new_writable_file(&tmp)?;
        let mut writer = LogWriter::new(file);
        writer.add_record(&CatalogEdit::NextId(data.next_cf_id).encode())?;
        for (id, name) in data.cfs.iter().filter(|(id, _)| *id != 0) {
            writer.add_record(&CatalogEdit::Create(*id, name.clone()).encode())?;
        }
        writer.sync()?;
        env.rename_file(&tmp, &catalog_file_name(root))?;
        env.sync_dir(root)?;
        // The writer's handle survives the rename (same inode / same
        // in-memory buffer), so later appends land in the live `CFS`.
        Ok(Catalog { writer })
    }

    /// Appends (and syncs) an edit: the commit point of a create or a drop
    /// (a family's directory may be deleted only after its drop returned).
    /// After an error the file may end in a tear that later appends would
    /// bury: the handle must be dropped, and the next edit rewrites.
    pub fn append(&mut self, edit: &CatalogEdit) -> Result<()> {
        self.writer.add_record(&edit.encode())?;
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
        catalog
            .append(&CatalogEdit::Create(1, "users".into()))
            .unwrap();
        catalog
            .append(&CatalogEdit::Create(2, "posts".into()))
            .unwrap();
        catalog.append(&CatalogEdit::Drop(1)).unwrap();

        let data = read(env.as_ref(), root).unwrap();
        assert_eq!(
            data.cfs,
            vec![(0, "default".to_string()), (2, "posts".to_string())]
        );
        assert_eq!(data.next_cf_id, 3);

        // A rewrite compacts the dead edits but preserves the id floor.
        let mut catalog = Catalog::rewrite(Arc::clone(&env) as Arc<dyn Env>, root, &data).unwrap();
        catalog
            .append(&CatalogEdit::Create(3, "tags".into()))
            .unwrap();
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
        catalog
            .append(&CatalogEdit::Create(1, "users".into()))
            .unwrap();
        catalog
            .append(&CatalogEdit::Create(2, "posts".into()))
            .unwrap();
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
