//! The measuring loops and the statistics taken from them.
//!
//! A measured phase is cut into *slices*: fixed stretches of time for the
//! time-bound workloads, fixed numbers of operations for `write_heavy`. In
//! the traced run the odd-numbered slices are traced and the even-numbered
//! ones are not, so the two kinds see the same store in the same state and
//! their rates give the tracing overhead. Tail percentiles are taken over
//! all slices together. On the time-bound workloads throughput and median
//! latency are those of the run's *quiet* slices ([`QUIET_SHARE`]): the box
//! is a share of a host whose neighbours slow it by a third for seconds to
//! minutes at a time, which only ever costs time, so the slices least
//! disturbed say most about the program. On `write_heavy`, which is bound
//! by work, throughput is operations over time and the median is over all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::trace::{OpKind, Tracer};

/// Slices per measured phase of one engine.
pub const SLICES: usize = 10;

/// Counts operations and check failures; reports the first few failures
/// with the seed that replays them.
#[derive(Debug)]
pub struct Checks {
    seed: u64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
}

impl Checks {
    /// No operations yet.
    pub fn new(seed: u64) -> Checks {
        Checks {
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `problem` describes what was wrong with it.
    pub fn check(&mut self, problem: Option<impl FnOnce() -> String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("CHECK FAILED (seed {}): {}", self.seed, problem());
            }
        }
    }

    /// Counts `n` operations that were due but never issued.
    pub fn never_issued(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        if n > 0 {
            eprintln!(
                "CHECK FAILED (seed {}): {n} paced operations were never issued",
                self.seed
            );
        }
    }

    /// Adds another thread's counts.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one slice of a measured phase saw.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Seconds the slice took.
    pub secs: f64,
    /// Latency of every operation started in it, in nanoseconds.
    pub latencies_ns: Vec<u32>,
}

/// The slices of one measured phase, in order. Odd slices are the traced
/// ones of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// One entry per slice.
    pub slices: Vec<Slice>,
}

impl Samples {
    /// Operations measured.
    pub fn ops(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.latencies_ns.len() as u64)
            .sum()
    }

    /// Adds what another load thread measured over the same slices, at the
    /// same time.
    pub fn merge_parallel(&mut self, other: Samples) {
        if self.slices.is_empty() {
            self.slices = other.slices;
            return;
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.secs = mine.secs.max(theirs.secs);
            mine.latencies_ns.extend(theirs.latencies_ns);
        }
    }

    /// Appends the slices measured next, on another store. Each store adds
    /// [`SLICES`] of them, an even number, so odd slices stay the traced
    /// ones.
    pub fn append(&mut self, other: Samples) {
        self.slices.extend(other.slices);
    }

    /// Operations per second over the slices whose number `keep` accepts.
    pub fn rate_where(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let kept = || {
            self.slices
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, s)| s)
        };
        let secs: f64 = kept().map(|s| s.secs).sum();
        if secs > 0.0 {
            kept().map(|s| s.latencies_ns.len()).sum::<usize>() as f64 / secs
        } else {
            0.0
        }
    }

    /// Operations per second over the whole phase.
    pub fn rate(&self) -> f64 {
        self.rate_where(|_| true)
    }

    /// Operations per second of a quiet slice: the slice rate that
    /// [`QUIET_SHARE`] of the slices reach or exceed.
    pub fn quiet_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.secs > 0.0)
            .map(|s| s.latencies_ns.len() as f64 / s.secs)
            .collect();
        quantile(&rates, 1.0 - QUIET_SHARE)
    }

    /// Median latency of a quiet slice, in microseconds: the slice median
    /// that [`QUIET_SHARE`] of the slices reach or stay under.
    pub fn quiet_p50_us(&self) -> f64 {
        let medians: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| {
                let mut sorted = s.latencies_ns.clone();
                sorted.sort_unstable();
                percentile_us(&sorted, 50.0)
            })
            .collect();
        quantile(&medians, QUIET_SHARE)
    }

    /// Every latency of the phase, in ascending order.
    pub fn sorted_latencies(&self) -> Vec<u32> {
        let mut sorted: Vec<u32> = self
            .slices
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        sorted.sort_unstable();
        sorted
    }
}

/// The share of a phase's slices taken to be undisturbed by the host: the
/// time-bound workloads report the slice at this distance from the best one.
/// A fifth keeps the reported slice among the quiet ones until four fifths
/// of a run are disturbed, and with sixty slices still has eleven better
/// ones beyond it, so that no single lucky slice decides.
pub const QUIET_SHARE: f64 = 0.2;

/// Odd slices are the traced ones.
pub fn is_traced_slice(slice: usize) -> bool {
    slice % 2 == 1
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, in microseconds.
pub fn percentile_us(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1000.0
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0..=1) of `values`, interpolated between neighbours
/// (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// What a measuring loop hands each operation.
pub struct OpContext<'a> {
    /// The operation's index, unique within the phase: its request id.
    pub request: u64,
    /// When the operation starts (the previous one's end: the loop is
    /// closed, and reads the clock once per operation).
    pub start: Instant,
    /// The tracer, in a traced slice of a traced run.
    pub tracer: Option<&'a Tracer>,
}

impl OpContext<'_> {
    /// Runs `op` as this operation's root span of `kind` (a plain call in
    /// an untraced slice). Returns what `op` returned and when it ended.
    pub fn span<T>(&self, kind: OpKind, op: impl FnOnce() -> T) -> (T, Instant) {
        if let Some(tracer) = self.tracer {
            tracer.begin_op(self.request);
        }
        let out = op();
        let end = Instant::now();
        if let Some(tracer) = self.tracer {
            tracer.end_op(kind, self.start, end);
        }
        (out, end)
    }
}

/// Hands out the request ids of one load thread: `lane`, `lane + lanes`, ...
/// so that ids are unique across the `lanes` threads of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Requests {
    next: u64,
    lanes: u64,
}

impl Requests {
    /// The ids of thread `lane` of `lanes`.
    pub fn lane(lane: u64, lanes: u64) -> Requests {
        Requests { next: lane, lanes }
    }

    fn take(&mut self) -> u64 {
        let id = self.next;
        self.next += self.lanes;
        id
    }
}

/// When a slice ends.
#[derive(Debug, Clone, Copy)]
pub enum SliceEnd {
    /// At this instant: the next operation does not start after it.
    At(Instant),
    /// After this many operations.
    After(u64),
}

/// Runs `op` in a closed loop for slice number `index` of a phase. `op`
/// returns the time it ended. With a `tracer`, the slice is traced if its
/// number is odd and the tracer is switched accordingly.
pub fn run_slice(
    index: usize,
    end: SliceEnd,
    tracer: Option<&Tracer>,
    requests: &mut Requests,
    op: &mut impl FnMut(OpContext) -> Instant,
) -> Slice {
    let active = tracer.filter(|_| is_traced_slice(index));
    if let Some(tracer) = tracer {
        tracer.set_enabled(active.is_some());
    }
    let mut slice = Slice::default();
    let started = Instant::now();
    let mut at = started;
    loop {
        match end {
            SliceEnd::At(end) if at >= end => break,
            SliceEnd::After(count) if slice.latencies_ns.len() as u64 >= count => break,
            _ => {}
        }
        let ended = op(OpContext {
            request: requests.take(),
            start: at,
            tracer: active,
        });
        let ns = ended.saturating_duration_since(at).as_nanos();
        slice.latencies_ns.push(ns.min(u32::MAX as u128) as u32);
        at = ended;
    }
    if let Some(tracer) = tracer {
        tracer.set_enabled(false);
    }
    slice.secs = at.duration_since(started).as_secs_f64();
    slice
}

/// Runs [`SLICES`] slices of `length` each, one after the other, on a clock
/// that started at `start` (shared by the load threads of a phase).
pub fn timed_slices(
    start: Instant,
    length: Duration,
    tracer: Option<&Tracer>,
    requests: &mut Requests,
    op: &mut impl FnMut(OpContext) -> Instant,
) -> Samples {
    while Instant::now() < start {
        std::thread::sleep(start - Instant::now());
    }
    Samples {
        slices: (0..SLICES)
            .map(|i| {
                run_slice(
                    i,
                    SliceEnd::At(start + length * (i as u32 + 1)),
                    tracer,
                    requests,
                    op,
                )
            })
            .collect(),
    }
}

/// Runs `count` operations in [`SLICES`] slices of equal operation count.
pub fn counted_slices(
    count: u64,
    tracer: Option<&Tracer>,
    op: &mut impl FnMut(OpContext) -> Instant,
) -> Samples {
    let mut requests = Requests::lane(0, 1);
    let per_slice = count / SLICES as u64;
    Samples {
        slices: (0..SLICES)
            .map(|i| {
                // The last slice takes the remainder.
                let ops = if i + 1 == SLICES {
                    count - per_slice * i as u64
                } else {
                    per_slice
                };
                run_slice(i, SliceEnd::After(ops), tracer, &mut requests, op)
            })
            .collect(),
    }
}

/// Aborts the process when a phase overruns its deadline, so that a store
/// that stops making progress cannot hang the benchmark.
pub struct Watchdog {
    state: Arc<(Mutex<Armed>, Condvar)>,
    stop: Arc<AtomicBool>,
}

/// The phase being watched and its deadline.
type Armed = Option<(String, Instant)>;

/// A phase may take this many times its budget before the run is aborted.
pub const WATCHDOG_FACTOR: u32 = 3;

impl Watchdog {
    /// Starts the watchdog thread.
    pub fn start() -> Watchdog {
        let state = Arc::new((Mutex::new(Armed::None), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_state, thread_stop) = (Arc::clone(&state), Arc::clone(&stop));
        // Detached on purpose: it lives as long as the process and exits it.
        std::thread::spawn(move || {
            let (lock, wake) = &*thread_state;
            let mut armed = lock.lock().expect("watchdog state");
            while !thread_stop.load(Ordering::SeqCst) {
                if let Some((phase, deadline)) = armed.as_ref() {
                    if Instant::now() >= *deadline {
                        eprintln!("WATCHDOG: phase `{phase}` overran {WATCHDOG_FACTOR}x its budget; aborting");
                        std::process::exit(3);
                    }
                }
                armed = wake
                    .wait_timeout(armed, Duration::from_millis(100))
                    .expect("watchdog state")
                    .0;
            }
        });
        Watchdog { state, stop }
    }

    /// Gives the phase that starts now `budget` to finish (times
    /// [`WATCHDOG_FACTOR`]), replacing the previous phase's deadline.
    pub fn phase(&self, name: &str, budget: Duration) {
        let deadline = Instant::now() + budget * WATCHDOG_FACTOR;
        *self.state.0.lock().expect("watchdog state") = Some((name.to_string(), deadline));
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.state.1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_median() {
        let sorted: Vec<u32> = (1..=1000).map(|v| v * 1000).collect();
        assert_eq!(percentile_us(&sorted, 50.0), 500.0);
        assert_eq!(percentile_us(&sorted, 99.0), 990.0);
        assert_eq!(percentile_us(&sorted, 100.0), 1000.0);
        assert_eq!(percentile_us(&[], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn counted_slices_alternate_tracing_and_split_the_count() {
        let tracer = Tracer::new();
        let mut traced_requests = 0;
        let samples = counted_slices(205, Some(&tracer), &mut |ctx| {
            assert_eq!(ctx.tracer.is_some(), tracer.enabled());
            traced_requests += ctx.tracer.is_some() as u64;
            Instant::now()
        });
        assert!(!tracer.enabled());
        assert_eq!(samples.slices.len(), SLICES);
        assert_eq!(samples.ops(), 205);
        assert_eq!(samples.slices[0].latencies_ns.len(), 205 / SLICES);
        let traced: usize = samples
            .slices
            .iter()
            .skip(1)
            .step_by(2)
            .map(|s| s.latencies_ns.len())
            .sum();
        assert_eq!(traced_requests, traced as u64);
    }

    #[test]
    fn timed_slices_end_on_the_shared_clock_and_number_requests_by_lane() {
        let mut requests = Vec::new();
        let start = Instant::now();
        let samples = timed_slices(
            start,
            Duration::from_millis(1),
            None,
            &mut Requests::lane(1, 2),
            &mut |ctx| {
                requests.push(ctx.request);
                assert!(ctx.tracer.is_none());
                Instant::now()
            },
        );
        assert!(start.elapsed() >= Duration::from_millis(SLICES as u64));
        assert!(requests.len() >= 2);
        assert!(requests.iter().all(|r| r % 2 == 1));
        assert_eq!(samples.ops(), requests.len() as u64);
    }

    #[test]
    fn sample_statistics_and_merges() {
        let slice = |secs: f64, latencies: &[u32]| Slice {
            secs,
            latencies_ns: latencies.to_vec(),
        };
        let mut a = Samples {
            slices: vec![slice(1.0, &[1000, 3000]), slice(3.0, &[5000])],
        };
        assert_eq!(a.rate(), 0.75);
        assert_eq!(a.rate_where(is_traced_slice), 1.0 / 3.0);
        assert_eq!(a.rate_where(|i| !is_traced_slice(i)), 2.0);
        assert_eq!(a.rate_where(|i| i > 5), 0.0);
        assert_eq!(a.sorted_latencies(), vec![1000, 3000, 5000]);
        let b = Samples {
            slices: vec![slice(0.5, &[2000]), slice(4.0, &[7000, 9000])],
        };
        a.merge_parallel(b.clone());
        assert_eq!((a.slices[0].secs, a.slices[1].secs, a.ops()), (1.0, 4.0, 6));
        // Slice rates 3 and 0.75, slice medians 2 and 7 us: the quiet slice
        // lies a fifth of the way from the better to the worse.
        assert!((a.quiet_rate() - 2.55).abs() < 1e-9);
        assert!((a.quiet_p50_us() - 3.0).abs() < 1e-9);
        a.append(b);
        assert_eq!((a.slices.len(), a.ops()), (4, 9));
        // Slice rates 3, 0.75, 2 and 0.5, slice medians 2, 7, 2 and 7 us;
        // 9 operations in 9.5 s.
        assert!((a.quiet_rate() - 2.4).abs() < 1e-9);
        assert_eq!(a.quiet_p50_us(), 2.0);
        assert_eq!(a.rate(), 9.0 / 9.5);
        assert!(a.rate_where(is_traced_slice) < a.rate_where(|i| !is_traced_slice(i)));
        // A slice that took no time has no rate and no median.
        a.slices.push(Slice::default());
        assert!((a.quiet_rate() - 2.4).abs() < 1e-9);
        assert_eq!(a.quiet_p50_us(), 2.0);
        assert_eq!(Samples::default().quiet_rate(), 0.0);
        assert_eq!(Samples::default().quiet_p50_us(), 0.0);
    }

    #[test]
    fn checks_count_failures() {
        let mut checks = Checks::new(1);
        checks.check(None::<fn() -> String>);
        checks.check(Some(|| "wrong value".to_string()));
        checks.never_issued(3);
        assert_eq!((checks.attempted, checks.failed), (5, 4));
    }
}
