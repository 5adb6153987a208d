//! The per-connection read loop.
//!
//! One thread per connection (the workspace has no async runtime — and a
//! storage server's connection counts are small enough that threads are the
//! simpler, debuggable choice). The loop polls the socket with a short read
//! timeout so it can notice the server-wide shutdown and kill flags between
//! reads, feeds bytes into a resumable [`RespCodec`], and answers complete
//! frames in bounded pipeline batches.
//!
//! Shutdown semantics:
//! - *graceful* (`shutdown` flag): drain whatever complete frames are
//!   already buffered or sitting in the socket, flush their replies, then
//!   close — in-flight commands finish, new bytes after the drain are
//!   abandoned.
//! - *kill* (`kill` flag): return immediately without draining; the crash
//!   tests use this to model a server process dying mid-write.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebblesdb_common::resp::{RespCodec, RespLimits, RespValue};

use crate::dispatch::Session;
use crate::metrics::ServerCounters;

/// Commands answered per reply flush: bounds the in-flight pipeline, so a
/// deep pipeline cannot build an unbounded reply buffer.
const MAX_PIPELINE: usize = 128;

/// Shared state the connection loop needs from the server.
pub(crate) struct ConnShared {
    pub shutdown: Arc<AtomicBool>,
    pub kill: Arc<AtomicBool>,
    pub counters: Arc<ServerCounters>,
    pub idle_timeout: Duration,
    pub limits: RespLimits,
}

/// Outcome of handling buffered frames: keep serving or close.
enum Flow {
    Continue,
    Close,
}

/// Runs one connection to completion. Returns when the peer disconnects, a
/// protocol violation closes the connection, the session requests close
/// (`QUIT`), the idle timeout fires, or the server shuts down.
pub(crate) fn serve_connection(mut stream: TcpStream, mut session: Session, shared: &ConnShared) {
    // A short poll interval, not a real deadline: the loop must keep
    // noticing the shutdown/kill flags even on an idle socket.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);

    let mut codec = RespCodec::new(shared.limits.clone());
    let mut read_buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();

    loop {
        if shared.kill.load(Ordering::Acquire) {
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            drain_and_close(&mut stream, &mut codec, &mut session, shared);
            return;
        }
        match stream.read(&mut read_buf) {
            Ok(0) => return,
            Ok(n) => {
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                codec.feed(&read_buf[..n]);
                last_activity = Instant::now();
                match answer_ready_frames(&mut stream, &mut codec, &mut session, shared) {
                    Flow::Continue => {}
                    Flow::Close => return,
                }
            }
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if last_activity.elapsed() >= shared.idle_timeout {
                    let mut reply = Vec::new();
                    RespValue::error("ERR idle timeout, closing connection")
                        .encode_into(&mut reply);
                    write_reply(&mut stream, &reply, shared);
                    return;
                }
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Executes every complete frame currently buffered, flushing replies every
/// [`MAX_PIPELINE`] commands.
fn answer_ready_frames(
    stream: &mut TcpStream,
    codec: &mut RespCodec,
    session: &mut Session,
    shared: &ConnShared,
) -> Flow {
    let mut replies = Vec::new();
    let mut in_flight = 0usize;
    loop {
        match codec.next_frame() {
            Ok(Some(frame)) => {
                let reply = match frame.into_command() {
                    Ok(args) => session.execute(args),
                    Err(err) => {
                        // A frame that decoded but is not a command array is
                        // a protocol violation: reply, then close.
                        shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        RespValue::error(format!("ERR {err}")).encode_into(&mut replies);
                        write_reply(stream, &replies, shared);
                        return Flow::Close;
                    }
                };
                reply.encode_into(&mut replies);
                if session.close_requested() {
                    write_reply(stream, &replies, shared);
                    return Flow::Close;
                }
                // An acknowledged `SYNC` inverts the connection: flush the
                // `+OK` (and anything pipelined before it), then the socket
                // becomes a one-way replication stream until it closes.
                // Commands pipelined *after* SYNC are never executed.
                if let Some(from_seq) = session.take_pending_sync() {
                    if !write_reply(stream, &replies, shared) {
                        return Flow::Close;
                    }
                    crate::replicate::serve_sync(stream, session.db(), from_seq, shared);
                    return Flow::Close;
                }
                in_flight += 1;
                if in_flight >= MAX_PIPELINE {
                    if !write_reply(stream, &replies, shared) {
                        return Flow::Close;
                    }
                    replies.clear();
                    in_flight = 0;
                }
            }
            Ok(None) => break,
            Err(err) => {
                // Framing is unrecoverable mid-stream: error reply, close.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                RespValue::error(format!("ERR {err}")).encode_into(&mut replies);
                write_reply(stream, &replies, shared);
                return Flow::Close;
            }
        }
    }
    if !replies.is_empty() && !write_reply(stream, &replies, shared) {
        return Flow::Close;
    }
    Flow::Continue
}

/// Graceful-shutdown drain: pull whatever bytes are already in the socket,
/// answer the complete frames, flush, close.
fn drain_and_close(
    stream: &mut TcpStream,
    codec: &mut RespCodec,
    session: &mut Session,
    shared: &ConnShared,
) {
    let _ = stream.set_nonblocking(true);
    let mut read_buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut read_buf) {
            Ok(0) => break,
            Ok(n) => {
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                codec.feed(&read_buf[..n]);
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    match answer_ready_frames(stream, codec, session, shared) {
        Flow::Continue => {
            let mut farewell = Vec::new();
            RespValue::error("ERR server shutting down").encode_into(&mut farewell);
            if !write_reply(stream, &farewell, shared) {
                shared
                    .counters
                    .shutdown_drain_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        // The client asked to close (`QUIT`) while we drained: its reply was
        // delivered and the close is clean, not a failed drain.
        Flow::Close if session.close_requested() => {}
        // The socket died (or framing broke) mid-drain: in-flight replies
        // were lost and a farewell would go into a dead pipe. Skip it and
        // record the failed drain instead of pretending it completed.
        Flow::Close => {
            shared
                .counters
                .shutdown_drain_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Writes a buffered reply batch; `false` means the connection is gone.
pub(crate) fn write_reply(stream: &mut TcpStream, bytes: &[u8], shared: &ConnShared) -> bool {
    if bytes.is_empty() {
        return true;
    }
    match stream.write_all(bytes).and_then(|()| stream.flush()) {
        Ok(()) => {
            shared
                .counters
                .bytes_out
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            true
        }
        Err(_) => false,
    }
}
