//! The shared engine chassis both LSM-family stores are built on.
//!
//! PebblesDB's core claim is that the FLSM *generalizes* the LSM: guards
//! partition each level, and a classic LSM is the degenerate case where every
//! level has exactly one implicit guard (section 3 of the paper). This crate
//! makes that framing structural. Everything the two engines share — DB
//! open/recovery (CURRENT/MANIFEST/WAL replay), the group-commit write path,
//! `make_room_for_write` and memtable rotation, the dedicated flush thread,
//! the compaction worker pool, live-file garbage collection, the snapshot
//! list and stats plumbing — lives here once, in [`EngineCore`]/[`EngineDb`],
//! parameterized by a [`ShapePolicy`]; and so do the sstable mechanics
//! underneath a level ([`runs`]): the file probe, the lazy level cursor, the
//! compaction merge loop and on-demand output numbering.
//!
//! A policy supplies only what actually differs between tree shapes:
//!
//! * the version *shape* — how edits build a version and what a snapshot of
//!   it enumerates; the MANIFEST format and the version set itself are the
//!   chassis's ([`version_set`]),
//! * how point gets and cursors route through a version (which slot of a
//!   level a key belongs to — a [`RunSource`]),
//! * how compaction jobs are picked, routed into partitions and committed,
//!   and
//! * write/read observations (guard selection, seek-triggered compaction).
//!
//! The FLSM engine (`pebblesdb` crate) implements the guarded policy; the
//! baseline LSM (`pebblesdb-lsm`) implements the one-implicit-guard-per-level
//! policy. Future subsystems (sharding, key-value separation, alternative
//! tiering) are written once against this chassis instead of twice per
//! engine.

pub mod catalog;
pub mod cdc;
pub mod chassis;
pub mod meta;
pub mod policy;
pub mod runs;
pub mod version_set;
pub mod vlog;

pub use cdc::{ChangeLog, TailBatch, TailRead};
pub use chassis::{
    CfState, ClaimedJob, EngineChangeStream, EngineCore, EngineDb, EngineShared, EngineState,
};
pub use meta::{FileMetaData, FileMetaDataEdit};
pub use policy::{EngineIo, JobClaim, PolicyCtx, ShapePolicy};
pub use runs::{LevelCursor, MergeSpec, RunSource};
pub use version_set::{FileNumbers, VersionEdit, VersionSet, VersionShape};
pub use vlog::VlogGcReport;
