//! Change-data-capture and WAL-shipping replication primitives.
//!
//! The chassis commits every write through one WAL and one sequence space,
//! so the committed batches already form a total order. This module defines
//! the two ways that order leaves the process:
//!
//! * [`ChangeStream`] — a cursor over committed [`WriteBatch`]es, handed out
//!   by [`Db::stream`](crate::cf::Db::stream). Events arrive in **commit
//!   order**, which is sequence order for engine-sequenced writes; a
//!   pre-sequenced batch (a vlog-GC relocation, a sharded coordinator) may
//!   carry an older sequence and is delivered where it committed.
//! * [`ReplicationFrame`] — the wire encoding of a stream over the RESP
//!   protocol (the server's `SYNC` verb ships these; a follower parses
//!   them). Frames reuse [`RespValue`] so both sides share the existing
//!   codec and its limits.
//!
//! ## Resume contract
//!
//! A consumer resumes by asking for `applied + 1`, where `applied` is the
//! highest `last_seq` it has durably applied. The stream delivers every
//! batch whose `last_seq >= cursor` — so a batch interrupted mid-ship is
//! re-delivered (the consumer skips batches with `last_seq <= applied`),
//! and no committed batch is ever skipped. When the requested history has
//! been reclaimed the stream fails with
//! [`Error::SequenceTruncated`](crate::error::Error), which is fatal for
//! the cursor: the consumer must re-seed from a full copy.

use std::time::Duration;

use crate::batch::{CfId, WriteBatch};
use crate::error::{Error, Result};
use crate::key::SequenceNumber;
use crate::resp::RespValue;

/// One committed write group delivered by a [`ChangeStream`].
#[derive(Debug, Clone)]
pub struct ChangeEvent {
    /// Sequence number of the batch's first record.
    pub first_seq: SequenceNumber,
    /// Sequence number of the batch's last record.
    pub last_seq: SequenceNumber,
    /// The committed batch, with column-family routing intact and any
    /// separated values resolved back inline (a follower re-separates into
    /// its own value log).
    pub batch: WriteBatch,
}

impl ChangeEvent {
    /// Wraps a committed batch, deriving the sequence range from its header.
    pub fn from_batch(batch: WriteBatch) -> ChangeEvent {
        ChangeEvent {
            first_seq: batch.sequence(),
            last_seq: batch.last_sequence(),
            batch,
        }
    }
}

/// A cursor over a store's committed batches.
///
/// Obtained from [`Db::stream`](crate::cf::Db::stream). The stream reads the
/// store's write-ahead log: closed segments when the cursor is behind, the
/// live one up to what the store has published as committed.
pub trait ChangeStream: Send {
    /// Returns the next committed batch at or past the cursor, waiting up
    /// to `timeout` for one to commit. `Ok(None)` means the timeout passed
    /// with the cursor at the frontier — poll again.
    fn next_event(&mut self, timeout: Duration) -> Result<Option<ChangeEvent>>;

    /// The next sequence number this stream will deliver from.
    fn cursor(&self) -> SequenceNumber;

    /// Sequences the store has committed that this cursor has not yet
    /// delivered — the consumer's lag: the store's last committed sequence
    /// minus the cursor's last delivered one. Zero iff caught up.
    fn backlog(&self) -> u64;
}

/// One frame of the `SYNC` wire protocol, leader to follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationFrame {
    /// The leader's column-family catalog: `(id, name)` pairs. Sent when a
    /// stream starts and again before any batch that references a family
    /// the follower has not been told about (create/drop do not ride the
    /// WAL). The follower mirrors the catalog exactly — ids included.
    Catalog(Vec<(CfId, String)>),
    /// One committed batch (its serialized [`WriteBatch`] contents, header
    /// included) plus the leader's current backlog for this cursor.
    Batch {
        /// Sequence number of the batch's last record.
        last_seq: SequenceNumber,
        /// Leader-side sequences committed but not yet shipped on this stream.
        backlog: u64,
        /// `WriteBatch::contents()` — parse with `WriteBatch::from_contents`.
        contents: Vec<u8>,
    },
    /// Keep-alive when no batch committed within the ship interval; carries
    /// the leader's frontier so the follower can track its lag while idle.
    Ping {
        /// The leader's last committed sequence number.
        last_seq: SequenceNumber,
        /// Leader-side sequences committed but not yet shipped on this stream.
        backlog: u64,
    },
    /// The cursor's history was reclaimed; the stream is dead. Sequences at
    /// or below `floor` are gone — the follower must re-seed.
    Truncated {
        /// The highest reclaimed sequence number.
        floor: SequenceNumber,
    },
}

const FRAME_CATALOG: &[u8] = b"CFS";
const FRAME_BATCH: &[u8] = b"BATCH";
const FRAME_PING: &[u8] = b"PING";
const FRAME_TRUNCATED: &[u8] = b"TRUNCATED";

fn frame_error(msg: impl std::fmt::Display) -> Error {
    Error::invalid_argument(format!("replication frame: {msg}"))
}

fn as_integer(value: &RespValue, what: &str) -> Result<u64> {
    match value {
        RespValue::Integer(i) if *i >= 0 => Ok(*i as u64),
        other => Err(frame_error(format!(
            "{what} must be a non-negative integer, got {}",
            other.type_name()
        ))),
    }
}

impl ReplicationFrame {
    /// Encodes the frame as a RESP array for the wire.
    pub fn encode(&self) -> RespValue {
        match self {
            ReplicationFrame::Catalog(cfs) => {
                let mut items = vec![RespValue::bulk(FRAME_CATALOG.to_vec())];
                for (id, name) in cfs {
                    items.push(RespValue::Integer(*id as i64));
                    items.push(RespValue::bulk(name.as_bytes().to_vec()));
                }
                RespValue::Array(items)
            }
            ReplicationFrame::Batch {
                last_seq,
                backlog,
                contents,
            } => RespValue::Array(vec![
                RespValue::bulk(FRAME_BATCH.to_vec()),
                RespValue::Integer(*last_seq as i64),
                RespValue::Integer(*backlog as i64),
                RespValue::bulk(contents.clone()),
            ]),
            ReplicationFrame::Ping { last_seq, backlog } => RespValue::Array(vec![
                RespValue::bulk(FRAME_PING.to_vec()),
                RespValue::Integer(*last_seq as i64),
                RespValue::Integer(*backlog as i64),
            ]),
            ReplicationFrame::Truncated { floor } => RespValue::Array(vec![
                RespValue::bulk(FRAME_TRUNCATED.to_vec()),
                RespValue::Integer(*floor as i64),
            ]),
        }
    }

    /// Parses a frame off the wire. Server `-ERR` replies arrive as
    /// [`RespValue::Error`] and must be handled by the caller before this.
    pub fn parse(value: RespValue) -> Result<ReplicationFrame> {
        let items = match value {
            RespValue::Array(items) if !items.is_empty() => items,
            other => {
                return Err(frame_error(format!(
                    "expected a non-empty array, got {}",
                    other.type_name()
                )))
            }
        };
        let tag = match &items[0] {
            RespValue::Bulk(bytes) => bytes.as_slice(),
            RespValue::Simple(s) => s.as_bytes(),
            other => {
                return Err(frame_error(format!(
                    "frame tag must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        match tag {
            t if t == FRAME_CATALOG => {
                let pairs = &items[1..];
                if pairs.len() % 2 != 0 {
                    return Err(frame_error("catalog frame has a dangling id"));
                }
                let mut cfs = Vec::with_capacity(pairs.len() / 2);
                for pair in pairs.chunks_exact(2) {
                    let id = as_integer(&pair[0], "catalog cf id")?;
                    let id = CfId::try_from(id)
                        .map_err(|_| frame_error("catalog cf id out of range"))?;
                    let name = match &pair[1] {
                        RespValue::Bulk(bytes) => String::from_utf8(bytes.clone())
                            .map_err(|_| frame_error("catalog cf name is not UTF-8"))?,
                        other => {
                            return Err(frame_error(format!(
                                "catalog cf name must be a bulk string, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    cfs.push((id, name));
                }
                Ok(ReplicationFrame::Catalog(cfs))
            }
            t if t == FRAME_BATCH => {
                if items.len() != 4 {
                    return Err(frame_error("batch frame must have 4 elements"));
                }
                let last_seq = as_integer(&items[1], "batch last_seq")?;
                let backlog = as_integer(&items[2], "batch backlog")?;
                let contents = match &items[3] {
                    RespValue::Bulk(bytes) => bytes.clone(),
                    other => {
                        return Err(frame_error(format!(
                            "batch contents must be a bulk string, got {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(ReplicationFrame::Batch {
                    last_seq,
                    backlog,
                    contents,
                })
            }
            t if t == FRAME_PING => {
                if items.len() != 3 {
                    return Err(frame_error("ping frame must have 3 elements"));
                }
                Ok(ReplicationFrame::Ping {
                    last_seq: as_integer(&items[1], "ping last_seq")?,
                    backlog: as_integer(&items[2], "ping backlog")?,
                })
            }
            t if t == FRAME_TRUNCATED => {
                if items.len() != 2 {
                    return Err(frame_error("truncated frame must have 2 elements"));
                }
                Ok(ReplicationFrame::Truncated {
                    floor: as_integer(&items[1], "truncated floor")?,
                })
            }
            other => Err(frame_error(format!(
                "unknown frame tag {:?}",
                String::from_utf8_lossy(other)
            ))),
        }
    }
}

/// How long a `SYNC` connection waits on its [`ChangeStream`] before it
/// checks for shutdown and pings an idle follower.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_resp() {
        let frames = vec![
            ReplicationFrame::Catalog(vec![(0, "default".to_string()), (3, "users".to_string())]),
            ReplicationFrame::Catalog(Vec::new()),
            ReplicationFrame::Batch {
                last_seq: 42,
                backlog: 7,
                contents: vec![1, 2, 3, 0, 255],
            },
            ReplicationFrame::Ping {
                last_seq: 99,
                backlog: 0,
            },
            ReplicationFrame::Truncated { floor: 12 },
        ];
        for frame in frames {
            let encoded = frame.encode();
            // Survive an actual wire trip through the shared codec.
            let bytes = encoded.encode();
            let (decoded, used) = crate::resp::decode(&bytes, &crate::resp::RespLimits::default())
                .expect("decode")
                .expect("complete frame");
            assert_eq!(used, bytes.len());
            assert_eq!(ReplicationFrame::parse(decoded).expect("parse"), frame);
        }
    }

    #[test]
    fn parse_rejects_malformed_frames() {
        assert!(ReplicationFrame::parse(RespValue::Integer(1)).is_err());
        assert!(ReplicationFrame::parse(RespValue::Array(vec![])).is_err());
        assert!(
            ReplicationFrame::parse(RespValue::Array(vec![RespValue::bulk(b"WHAT".to_vec())]))
                .is_err()
        );
        // Dangling catalog id.
        assert!(ReplicationFrame::parse(RespValue::Array(vec![
            RespValue::bulk(b"CFS".to_vec()),
            RespValue::Integer(1),
        ]))
        .is_err());
        // Negative sequence.
        assert!(ReplicationFrame::parse(RespValue::Array(vec![
            RespValue::bulk(b"PING".to_vec()),
            RespValue::Integer(-1),
            RespValue::Integer(0),
        ]))
        .is_err());
        // Batch with the wrong arity.
        assert!(ReplicationFrame::parse(RespValue::Array(vec![
            RespValue::bulk(b"BATCH".to_vec()),
            RespValue::Integer(1),
        ]))
        .is_err());
    }

    #[test]
    fn change_event_derives_its_sequence_range() {
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.set_sequence(10);
        let event = ChangeEvent::from_batch(batch);
        assert_eq!(event.first_seq, 10);
        assert_eq!(event.last_seq, 11);

        let empty = ChangeEvent::from_batch(WriteBatch::new());
        assert_eq!(empty.first_seq, 0);
        assert_eq!(empty.last_seq, 0);
    }
}
