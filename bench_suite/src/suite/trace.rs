//! Spans and aggregates of the traced run.
//!
//! The benchmark measures layers from outside: each operation it issues is a
//! *root span*, and every [`TimedEnv`](super::timed_env::TimedEnv) call made
//! on the issuing thread while the span is open is its child, found through
//! a thread-local "current span". A root span's self time is its duration
//! minus the time its children cover (children of one root run one after the
//! other, so that is their sum). `TimedEnv` calls on threads with no open
//! span — flush and compaction threads, the server's connection threads —
//! are background work.
//!
//! Aggregates cover every operation issued while the tracer is enabled. Full
//! span records are kept in memory for one operation in [`SAMPLE_EVERY`] and
//! written out as JSON lines when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One operation in this many keeps its full span records.
pub const SAMPLE_EVERY: u64 = 64;

/// Span records kept at most; later ones are counted in `dropped`.
const MAX_RECORDS: usize = 1 << 20;

/// The root spans the workloads open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `KvStore::put`.
    Put,
    /// `KvStore::get`.
    Get,
    /// `KvStore::iter` (cursor creation).
    IterNew,
    /// `DbIterator::seek`.
    Seek,
    /// Fifty `DbIterator::next` calls.
    Next50,
    /// One RESP command, from send to reply.
    NetCmd,
}

impl OpKind {
    const COUNT: usize = 6;

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "op.put",
            OpKind::Get => "op.get",
            OpKind::IterNew => "op.iter_new",
            OpKind::Seek => "op.seek",
            OpKind::Next50 => "op.next50",
            OpKind::NetCmd => "net.cmd",
        }
    }
}

/// Totals of one kind of root span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of the time their `TimedEnv` children covered.
    pub child_ns: u64,
}

#[derive(Default)]
struct OpAgg {
    count: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`op.get`, `env.sst.read`, `bg.sst`, ...).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// This span's id (unique within the run, never 0).
    pub id: u64,
    /// The id of the span that caused it, 0 for a root.
    pub parent: u64,
    /// The operation index shared by every span of one request; 0 for
    /// background spans, which serve many requests.
    pub request: u64,
}

#[derive(Clone, Copy, Default)]
struct Current {
    active: bool,
    sampled: bool,
    id: u64,
    request: u64,
    child_ns: u64,
}

thread_local! {
    static CURRENT: Cell<Current> = const { Cell::new(Current {
        active: false, sampled: false, id: 0, request: 0, child_ns: 0,
    }) };
    static CHILDREN: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Collects the spans of one traced store.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    ops: [OpAgg; OpKind::COUNT],
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer; nothing is recorded until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            ops: Default::default(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off. The flag publishes no data, so relaxed
    /// ordering is enough: a call that straddles the switch is simply
    /// counted on one side or the other.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens the root span of request `request` on the calling thread.
    pub fn begin_op(&self, request: u64) {
        let sampled = request.is_multiple_of(SAMPLE_EVERY);
        CURRENT.with(|c| {
            c.set(Current {
                active: true,
                sampled,
                id: if sampled { self.new_id() } else { 0 },
                request,
                child_ns: 0,
            })
        });
    }

    /// Closes the calling thread's root span as a `kind` that ran from
    /// `start` to `end`.
    pub fn end_op(&self, kind: OpKind, start: Instant, end: Instant) {
        let current = CURRENT.with(|c| c.replace(Current::default()));
        let agg = &self.ops[kind as usize];
        let total = end.saturating_duration_since(start).as_nanos() as u64;
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.total_ns.fetch_add(total, Ordering::Relaxed);
        agg.child_ns.fetch_add(current.child_ns, Ordering::Relaxed);
        if current.sampled {
            let root = SpanRecord {
                name: kind.name(),
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
                id: current.id,
                parent: 0,
                request: current.request,
            };
            CHILDREN.with(|children| {
                let mut children = children.borrow_mut();
                self.keep(std::iter::once(root).chain(children.drain(..)));
            });
        }
    }

    /// Accounts one `TimedEnv` call on the calling thread. Returns `true`
    /// when it ran inside a root span (foreground), `false` for background.
    pub fn env_call(&self, name: &'static str, start: Instant, end: Instant) -> bool {
        let mut current = CURRENT.with(Cell::get);
        if !current.active {
            return false;
        }
        current.child_ns += end.saturating_duration_since(start).as_nanos() as u64;
        CURRENT.with(|c| c.set(current));
        if current.sampled {
            let record = SpanRecord {
                name,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
                id: self.new_id(),
                parent: current.id,
                request: current.request,
            };
            CHILDREN.with(|children| children.borrow_mut().push(record));
        }
        true
    }

    /// Records one background span: the calls a flush or compaction thread
    /// made on one file, coalesced from the first call's start to the last
    /// call's end.
    pub fn background_span(&self, name: &'static str, start: Instant, end: Instant) {
        let record = SpanRecord {
            name,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            id: self.new_id(),
            parent: 0,
            request: 0,
        };
        self.keep(std::iter::once(record));
    }

    fn keep(&self, spans: impl Iterator<Item = SpanRecord>) {
        let mut records = self.records.lock().expect("no panic while recording");
        for span in spans {
            if records.len() < MAX_RECORDS {
                records.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Totals of the `kind` root spans closed so far.
    pub fn op_totals(&self, kind: OpKind) -> OpTotals {
        let agg = &self.ops[kind as usize];
        OpTotals {
            count: agg.count.load(Ordering::Relaxed),
            total_ns: agg.total_ns.load(Ordering::Relaxed),
            child_ns: agg.child_ns.load(Ordering::Relaxed),
        }
    }

    /// Span records kept so far.
    pub fn span_count(&self) -> u64 {
        self.records.lock().expect("no panic while recording").len() as u64
    }

    /// Span records that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends the kept span records to `out`, one JSON object per line,
    /// each tagged with the engine `label` it was recorded on.
    pub fn write_jsonl(&self, label: &str, out: &mut impl Write) -> std::io::Result<()> {
        for span in self
            .records
            .lock()
            .expect("no panic while recording")
            .iter()
        {
            writeln!(
                out,
                "{{\"engine\":\"{label}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.id, span.parent, span.request
            )?;
        }
        Ok(())
    }
}

/// Writes the span records of each `(label, tracer)` to the file at `path`.
pub fn write_trace_file(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (label, tracer) in tracers {
        tracer.write_jsonl(label, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children_and_sampled_ops_keep_records() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);

        // Request 0 is sampled (0 % 64 == 0); request 1 is not.
        tracer.begin_op(0);
        assert!(tracer.env_call("env.sst.read", at(10), at(30)));
        assert!(tracer.env_call("env.sst.read", at(40), at(50)));
        tracer.end_op(OpKind::Get, at(0), at(100));
        tracer.begin_op(1);
        assert!(tracer.env_call("env.sst.read", at(110), at(120)));
        tracer.end_op(OpKind::Get, at(100), at(150));

        let totals = tracer.op_totals(OpKind::Get);
        assert_eq!(totals.count, 2);
        assert_eq!(totals.total_ns, 150_000);
        assert_eq!(totals.child_ns, 40_000);
        assert_eq!(tracer.op_totals(OpKind::Put), OpTotals::default());

        // Only the sampled request left records: one root and two children
        // that name it as parent and share its request id.
        assert_eq!(tracer.span_count(), 3);
        let mut out = Vec::new();
        tracer.write_jsonl("flsm", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"op.get\"") && lines[0].contains("\"parent\":0"));
        assert!(
            lines[1].contains("\"name\":\"env.sst.read\"") && lines[1].contains("\"parent\":1")
        );
    }

    #[test]
    fn calls_outside_a_span_are_background() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let now = Instant::now();
        assert!(!tracer.env_call("env.sst.append", now, now));
        tracer.background_span("bg.sst", now, now + Duration::from_millis(1));
        assert_eq!(tracer.span_count(), 1);
    }
}
