//! The shared engine chassis both LSM-family stores are built on.
//!
//! PebblesDB's core claim is that the FLSM *generalizes* the LSM: guards
//! partition each level, and a classic LSM is the degenerate case where every
//! level has exactly one implicit guard (section 3 of the paper). This crate
//! makes that framing structural: everything the two engines share lives here
//! once, in [`EngineCore`]/[`EngineDb`], parameterized by a [`ShapePolicy`].
//! One module per seam:
//!
//! * [`chassis`] — the types: [`EngineDb`], [`EngineCore`], [`EngineState`],
//!   [`CfState`], and the store's one operation surface: `CfOps` implemented
//!   on [`EngineShared`] (stats assembly included). `KvStore`, `Db` and the
//!   column-family handles are views `pebblesdb_common` derives from it, so
//!   a request crosses exactly one chassis frame before `EngineCore`;
//! * `open` — catalog + per-family CURRENT/MANIFEST recovery, WAL replay and
//!   the fresh WAL;
//! * `write` — the commit pipeline. Every mutation is a group of WAL records
//!   committed by one leader in named stages: plan → make room → number →
//!   take the log/vlog appenders → *(state mutex released)* separate → log →
//!   apply → reinstall + publish. `make_room_for_write` and memtable
//!   rotation live beside it;
//! * `read` — point gets, streaming cursors, snapshots;
//! * `background` — picking a flush or a compaction, the one job lifecycle
//!   both run through, `flush()` and the deletion of what commits unlink;
//! * `executor` — who runs those jobs (`compaction_threads` workers through
//!   `Env::spawn`, or with 0 the calling thread) behind `kick`,
//!   `wait_for_progress` and `flush()`'s `quiesce`, and a waiter's one due
//!   job before it parks; the only module that names a condvar of the
//!   background machinery or a worker thread;
//! * `families` — column-family create/drop ([`catalog`] is their log);
//! * [`vlog`] — key-value separation: appenders, reader cache, value-log GC;
//! * [`cdc`] — the published WAL frontier, WAL retention and
//!   [`EngineChangeStream`];
//! * [`version`] — the one [`Version`] of every shape: level 0 and one
//!   shared level per deeper level, and how an edit routes to them;
//! * [`version_set`] — the one MANIFEST format and version set, the
//!   per-level [`LevelTable`] and the MANIFEST snapshot of a version, the
//!   two edits a store commits (a level-0 table, a compaction), the list of
//!   files they made obsolete and the open-time sweep of a directory;
//! * [`runs`] — everything that reads a version or carries out a job: the
//!   point `get`, the lazy level cursor and a cursor's level iterators, the
//!   compaction merge loop and on-demand output numbering.
//!
//! A policy ([`policy`]) supplies only what *defines* a tree shape: its
//! level type (a [`RunSource`]: how a level is cut into slots, how an edit
//! rebuilds it and its invariant), when a compaction is due, which files
//! it takes and where their merge goes (a plain [`CompactionJob`] record),
//! which keys a merge makes guards, and the seek-triggered compaction.
//! The FLSM engine (`pebblesdb` crate) implements the guarded policy; the
//! baseline LSM (`pebblesdb-lsm`) implements the one-implicit-guard-per-level
//! policy.

mod background;
pub mod catalog;
pub mod cdc;
pub mod chassis;
mod executor;
mod families;
pub mod meta;
mod open;
pub mod policy;
mod read;
pub mod runs;
pub mod version;
pub mod version_set;
pub mod vlog;
mod write;

pub use cdc::{ChangeLog, EngineChangeStream, Frontier};
pub use chassis::{CfState, ClaimedJob, EngineCore, EngineDb, EngineShared, EngineState};
pub use meta::{FileMetaData, FileMetaDataEdit};
pub use policy::{Claim, Claims, CompactionJob, EngineIo, PolicyCtx, ShapePolicy};
pub use runs::{LevelCursor, RunSource};
pub use version::Version;
pub use version_set::{FileNumbers, LevelRow, LevelTable, VersionEdit, VersionSet};
pub use vlog::VlogGcReport;
