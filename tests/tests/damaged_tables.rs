//! A damaged sstable entry is `Corruption` wherever a store reads it — a
//! cursor, a `get`, a compaction input — and never the quiet end of its
//! block or a wrong value. A compaction that meets one fails and deletes
//! its outputs; the damaged table stays, so no key is dropped or rewritten
//! without an error.
//!
//! Each test plants one byte in entry 2 of the largest table's first data
//! block and reads with `ReadOptions::default()`. A malformed entry (more
//! shared key bytes than its predecessor's key holds) is planted under a
//! re-sealed block CRC, so that the block decoder, not the checksum, meets
//! it. It used to end the block quietly — an `LsmDb` of 4,000 keys reopened
//! to a cursor of 3,965 keys with status `Ok`, and 16,000 more puts
//! compacted the table away and the 35 keys with it. A flipped value byte
//! breaks no structure; only the block CRC sees it, which every block
//! passes once on its way into memory, whoever reads it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pebblesdb::PebblesDb;
use pebblesdb_common::coding::decode_varint32;
use pebblesdb_common::{
    crc32c, Db, DbIterator, Error, ReadOptions, Result, StoreOptions, StorePreset,
};
use pebblesdb_env::{Env, MemEnv};
use pebblesdb_lsm::LsmDb;
use pebblesdb_sstable::footer::FOOTER_SIZE;
use pebblesdb_sstable::{Block, BlockHandle, Footer};

const KEYS: u32 = 4_000;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// A later write that sorts right after `key(i % KEYS)`, into the damaged
/// table's range.
fn later_key(i: u32) -> Vec<u8> {
    format!("key{:06}+{i}", i % KEYS).into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("{i:0100}").into_bytes()
}

/// Either engine on `env`, flushing and compacting on the calling thread.
fn open(engine: &str, env: &MemEnv) -> Result<Box<dyn Db>> {
    let mut options = StoreOptions::default();
    options.write_buffer_size = 64 << 10;
    options.base_level_bytes = 256 << 10;
    options.compaction_threads = 0;
    let (env, dir): (Arc<dyn Env>, _) = (Arc::new(env.clone()), Path::new("/db"));
    Ok(match engine {
        "flsm" => Box::new(PebblesDb::open_with_options(env, dir, options)?),
        _ => Box::new(LsmDb::open_with_options(
            env,
            dir,
            options,
            StorePreset::HyperLevelDb,
        )?),
    })
}

/// Where a test plants its one byte: entry 2 of the largest table's first
/// data block.
#[derive(Debug)]
enum Damage {
    /// The entry claims 127 shared key bytes, more than its predecessor's
    /// key holds, and the block's CRC is re-sealed over the change: the
    /// block passes its checksum and no longer parses.
    SharedLength,
    /// One byte of the entry's value is flipped: the block parses, and
    /// only its CRC says the value is wrong.
    ValueByte,
}

impl Damage {
    /// The `Corruption` message a read that meets the damage reports.
    fn error(&self) -> &'static str {
        match self {
            Damage::SharedLength => "malformed block entry",
            Damage::ValueByte => "block checksum mismatch",
        }
    }
}

/// Re-seals the CRC of the table's first data block over the bytes it now
/// holds.
fn reseal_first_block(contents: &mut [u8]) {
    let footer = Footer::decode(&contents[contents.len() - FOOTER_SIZE..]).unwrap();
    let index = footer.index_handle;
    let index = &contents[index.offset as usize..(index.offset + index.size) as usize];
    let mut iter = Block::new(index.to_vec().into()).unwrap().iter();
    iter.seek_to_first();
    let (first, _) = BlockHandle::decode_from(iter.value()).unwrap();
    let tag = (first.offset + first.size) as usize;
    let crc = crc32c::mask(crc32c::crc32c(&contents[first.offset as usize..=tag]));
    contents[tag + 1..tag + 5].copy_from_slice(&crc.to_le_bytes());
}

/// The store's tables.
fn tables(env: &MemEnv) -> impl Iterator<Item = PathBuf> {
    let dir = Path::new("/db");
    let names = env.children(dir).unwrap().into_iter();
    names
        .filter(|name| name.ends_with(".sst"))
        .map(move |name| dir.join(name))
}

/// Plants `damage` in the largest table and returns its path.
fn plant(env: &MemEnv, damage: &Damage) -> PathBuf {
    let path = tables(env)
        .max_by_key(|path| env.file_size(path).unwrap())
        .unwrap();
    plant_in(env, damage, &path);
    path
}

/// Plants `damage` in the table at `path`.
fn plant_in(env: &MemEnv, damage: &Damage, path: &Path) {
    let mut contents = env.read_file_to_vec(path).unwrap();
    let (mut entry, mut value) = (0, 0);
    for _ in 0..2 {
        let mut pos = entry;
        let mut lengths = [0; 3];
        for length in &mut lengths {
            let (decoded, used) = decode_varint32(&contents[pos..]).unwrap();
            (*length, pos) = (decoded as usize, pos + used);
        }
        (entry, value) = (pos + lengths[1] + lengths[2], pos + lengths[1]);
    }
    match damage {
        Damage::SharedLength => {
            assert!(
                (1..20).contains(&contents[entry]),
                "a prefix-compressed key"
            );
            contents[entry] = 127;
            reseal_first_block(&mut contents);
        }
        Damage::ValueByte => contents[value + 50] ^= 1,
    }
    let mut file = env.new_writable_file(path).unwrap();
    file.append(&contents).unwrap();
    file.close().unwrap();
}

/// Every key the store holds is either read right or refused with the
/// damage's `Corruption` — never missing, never wrong — and the damage shows
/// on each read path.
fn check_damaged_reads(name: &str, db: &dyn Db, damage: &Damage) {
    let mut refused = 0;
    for i in 0..KEYS {
        match db.get(&key(i)) {
            Ok(found) => assert_eq!(found, Some(value(i)), "{name}: key {i}"),
            Err(Error::Corruption(msg)) if msg == damage.error() => refused += 1,
            Err(err) => panic!("{name}: key {i}: {err:?}"),
        }
    }
    assert!(refused > 0, "{name}: no get met the damage");

    let mut iter = db.iter(&ReadOptions::default()).unwrap();
    iter.seek_to_first();
    let mut seen = 0;
    while iter.valid() {
        if let Ok(i) = std::str::from_utf8(&iter.key()[3..]).unwrap().parse() {
            assert_eq!(iter.value(), value(i), "{name}: cursor at key {i}");
            seen += 1;
        }
        iter.next();
    }
    assert!(seen < KEYS, "{name}: the cursor read past the damage");
    assert!(
        matches!(iter.status(), Err(Error::Corruption(msg)) if msg == damage.error()),
        "{name}: {seen} keys, then {:?}",
        iter.status()
    );
}

/// Loads each engine, plants `damage`, checks the reads, then writes enough
/// to compact every level: the job that reads the damaged table fails and
/// poisons the store instead of rewriting the table without the keys it
/// hid, or with a wrong value under a fresh CRC. The table stays.
fn damaged_table_survives_compaction(damage: Damage) {
    for engine in ["flsm", "lsm"] {
        let name = format!("{engine}, {damage:?}");
        let env = MemEnv::new();
        let db = open(engine, &env).unwrap();
        for i in 0..KEYS {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        drop(db);
        let damaged = plant(&env, &damage);

        let db = open(engine, &env).unwrap();
        check_damaged_reads(&name, db.as_ref(), &damage);
        let failed = (KEYS..5 * KEYS).find(|&i| db.put(&later_key(i), &value(i)).is_err());
        drop(db);

        assert!(env.file_exists(&damaged), "{name}: damaged table deleted");
        let db = open(engine, &env).unwrap();
        check_damaged_reads(&name, db.as_ref(), &damage);
        // The FLSM appends these writes into guards and leaves the damaged
        // table where it is; the LSM must rewrite it, and cannot.
        if engine == "lsm" {
            assert!(failed.is_some(), "{name}: no compaction read the damage");
        }
    }
}

#[test]
fn a_malformed_entry_is_corruption_and_its_table_is_never_compacted_away() {
    damaged_table_survives_compaction(Damage::SharedLength);
}

/// Nothing but the block CRC sees a flipped value byte. Every block is
/// verified on its way into memory, so a default read refuses it, and a
/// compaction never rewrites the wrong value under a valid CRC.
#[test]
fn a_flipped_value_byte_is_never_laundered_by_a_compaction() {
    damaged_table_survives_compaction(Damage::ValueByte);
}

/// A damaged table stops a store's cursor even where older versions of its
/// keys lie in other tables beneath it. Here the newest table holds the
/// current values of the first `SHADOWED` keys over a store of stale ones;
/// a merged cursor that stepped past the failed table used to read on
/// through the tables below, yielding `stale` for every key after the
/// damage with `valid() == true`, and reported the error only at the end.
#[test]
fn a_damaged_table_never_uncovers_the_versions_it_shadows() {
    const SHADOWED: u32 = 400;
    for engine in ["flsm", "lsm"] {
        let env = MemEnv::new();
        let db = open(engine, &env).unwrap();
        for i in 0..KEYS {
            db.put(&key(i), b"stale").unwrap();
        }
        db.flush().unwrap();
        for i in 0..SHADOWED {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        drop(db);
        let newest = tables(&env).max().unwrap();
        plant_in(&env, &Damage::SharedLength, &newest);

        let db = open(engine, &env).unwrap();
        let mut iter = db.iter(&ReadOptions::default()).unwrap();
        iter.seek_to_first();
        let mut seen = 0;
        while iter.valid() {
            let i: u32 = std::str::from_utf8(&iter.key()[3..])
                .unwrap()
                .parse()
                .unwrap();
            assert!(i < SHADOWED, "{engine}: the cursor read past the damage");
            assert_eq!(iter.value(), value(i), "{engine}: key {i}");
            seen += 1;
            iter.next();
        }
        assert_eq!(seen, 2, "{engine}: entries 0 and 1 precede the damage");
        assert!(
            matches!(iter.status(), Err(Error::Corruption(msg)) if msg == "malformed block entry"),
            "{engine}: {:?}",
            iter.status()
        );
    }
}
