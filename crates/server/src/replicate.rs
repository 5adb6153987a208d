//! Leader-side replication streaming: the `SYNC` verb's second half.
//!
//! After the dispatcher acknowledges `SYNC <from_seq>`, the connection
//! layer hands the socket here and the conversation inverts: the server
//! pushes [`ReplicationFrame`]s and the follower only reads. The stream
//! opens with the column-family catalog (creates and drops do not ride the
//! WAL), then ships every committed batch with `last_seq >= from_seq` in
//! commit order, interleaving keep-alive pings while idle so the follower
//! can track the leader's frontier — and so a dead peer is noticed by the
//! failed write rather than hanging the stream forever.
//!
//! Termination is always in-band: a reclaimed cursor sends a `TRUNCATED`
//! frame (fatal for the cursor — the follower must re-seed), any other
//! stream failure an `-ERR` reply, and server shutdown simply closes the
//! socket (the follower resumes from its durable applied sequence).

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pebblesdb_common::replication::POLL_INTERVAL;
use pebblesdb_common::resp::RespValue;
use pebblesdb_common::{CfId, Db, Error, ReplicationFrame, SequenceNumber, WriteBatch};

use crate::connection::{write_reply, ConnShared};

/// Streams replication frames over `stream` until the peer disconnects, the
/// cursor's history is truncated, the stream fails, or the server shuts
/// down. The `+OK` for the `SYNC` command has already been flushed.
pub(crate) fn serve_sync(
    stream: &mut TcpStream,
    db: &Arc<dyn Db>,
    from_seq: SequenceNumber,
    shared: &ConnShared,
) {
    let mut advertised: HashSet<CfId> = HashSet::new();
    if !send_catalog(stream, db, &mut advertised, shared) {
        return;
    }
    let mut changes = match db.stream(from_seq) {
        Ok(changes) => changes,
        Err(err) => {
            send_failure(stream, &err, shared);
            return;
        }
    };
    loop {
        if shared.kill.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match changes.next_event(POLL_INTERVAL) {
            Ok(Some(event)) => {
                // Re-advertise the catalog before any batch that references
                // a family the follower has not been told about.
                if has_unseen_cf(&event.batch, &advertised)
                    && !send_catalog(stream, db, &mut advertised, shared)
                {
                    return;
                }
                // A family dropped on the leader can still appear in older
                // batches; mark its id seen so one drop does not re-send the
                // catalog for every batch that follows.
                for record in event.batch.iter().flatten() {
                    advertised.insert(record.cf);
                }
                let frame = ReplicationFrame::Batch {
                    last_seq: event.last_seq,
                    backlog: changes.backlog(),
                    contents: event.batch.contents().to_vec(),
                };
                if !send_frame(stream, &frame, shared) {
                    return;
                }
            }
            Ok(None) => {
                let frame = ReplicationFrame::Ping {
                    last_seq: db.committed_sequence(),
                    backlog: changes.backlog(),
                };
                if !send_frame(stream, &frame, shared) {
                    return;
                }
            }
            Err(err) => {
                send_failure(stream, &err, shared);
                return;
            }
        }
    }
}

/// Sends the current catalog, recording every advertised family id.
/// Returns `false` when the connection is gone.
fn send_catalog(
    stream: &mut TcpStream,
    db: &Arc<dyn Db>,
    advertised: &mut HashSet<CfId>,
    shared: &ConnShared,
) -> bool {
    let cfs: Vec<(CfId, String)> = db
        .cf_stats()
        .iter()
        .map(|cf| (cf.id, cf.name.clone()))
        .collect();
    for (id, _) in &cfs {
        advertised.insert(*id);
    }
    send_frame(stream, &ReplicationFrame::Catalog(cfs), shared)
}

/// Whether `batch` routes any record to a family id not yet advertised.
fn has_unseen_cf(batch: &WriteBatch, advertised: &HashSet<CfId>) -> bool {
    batch
        .iter()
        .flatten()
        .any(|record| !advertised.contains(&record.cf))
}

/// Terminal in-band report: `TRUNCATED` for a reclaimed cursor, `-ERR`
/// otherwise. Delivery is best-effort — the stream is over either way.
fn send_failure(stream: &mut TcpStream, err: &Error, shared: &ConnShared) {
    let value = if let Error::SequenceTruncated { floor, .. } = err {
        ReplicationFrame::Truncated { floor: *floor }.encode()
    } else {
        RespValue::error(format!("ERR {err}"))
    };
    let mut bytes = Vec::new();
    value.encode_into(&mut bytes);
    let _ = write_reply(stream, &bytes, shared);
}

fn send_frame(stream: &mut TcpStream, frame: &ReplicationFrame, shared: &ConnShared) -> bool {
    let mut bytes = Vec::new();
    frame.encode().encode_into(&mut bytes);
    write_reply(stream, &bytes, shared)
}
