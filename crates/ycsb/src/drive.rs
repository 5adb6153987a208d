//! The closed-loop load driver: the one place the workspace's benchmarks
//! spawn worker threads, split an operation budget and time each operation.
//!
//! Every load generator is a *worker* of [`drive`]: the embedded `db_bench`
//! workloads, the YCSB operation mixes
//! ([`CoreWorkload::worker`](crate::CoreWorkload::worker)) and `net_bench`'s
//! RESP clients. A change to how load is offered (pacing, warm-up, tail
//! sampling) is a change to this one loop.

use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pebblesdb_common::histogram::Histogram;
use pebblesdb_common::Result;

/// What one [`drive`] call executed.
#[derive(Debug, Clone)]
pub struct Driven {
    /// Operations executed — exactly the number requested.
    pub operations: u64,
    /// Wall-clock seconds from before the first thread started until the
    /// last one finished (thread start-up and worker set-up included).
    pub seconds: f64,
    /// Per-operation latency in microseconds, merged over all threads.
    pub latency: Histogram,
}

impl Driven {
    /// Throughput in thousands of operations per second (the paper's unit).
    pub fn kops_per_second(&self) -> f64 {
        self.operations as f64 / self.seconds.max(1e-9) / 1000.0
    }
}

/// One thread's operation, boxed: what a worker that cannot name its closure
/// type returns (called with the operation's index and the thread's rng).
pub type BoxedOp<'a> = Box<dyn FnMut(u64, &mut StdRng) -> Result<()> + 'a>;

/// Runs `ops` operations on `threads` threads, closed-loop.
///
/// `worker(thread)` runs once on each thread and returns that thread's
/// operation: a closure called with the operation's global index and the
/// thread's generator (seeded `seed + thread`). Indices `0..ops` are handed
/// out as one contiguous range per thread, and the remainder of
/// `ops / threads` goes one apiece to the first threads, so every index is
/// executed exactly once whatever the thread count. The first error stops
/// its thread and is returned once every thread has finished.
pub fn drive<W>(
    threads: usize,
    ops: u64,
    seed: u64,
    worker: impl Fn(usize) -> Result<W> + Sync,
) -> Result<Driven>
where
    W: FnMut(u64, &mut StdRng) -> Result<()>,
{
    let threads = threads.max(1);
    let (share, remainder) = (ops / threads as u64, ops % threads as u64);
    let latency = Mutex::new(Histogram::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (worker, latency) = (&worker, &latency);
                scope.spawn(move || -> Result<()> {
                    let t = thread as u64;
                    let first = t * share + t.min(remainder);
                    let count = share + u64::from(t < remainder);
                    let mut operation = worker(thread)?;
                    let mut rng = StdRng::seed_from_u64(seed + t);
                    let mut local = Histogram::new();
                    for index in first..first + count {
                        let op_start = Instant::now();
                        operation(index, &mut rng)?;
                        local.record(op_start.elapsed().as_micros() as u64);
                    }
                    latency.lock().merge(&local);
                    Ok(())
                })
            })
            .collect();
        let mut joined = handles.into_iter();
        joined.try_for_each(|handle| handle.join().expect("load thread panicked"))
    })?;
    Ok(Driven {
        operations: ops,
        seconds: start.elapsed().as_secs_f64(),
        latency: latency.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblesdb_common::Error;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_index_runs_exactly_once_whatever_the_split() {
        for ops in [0u64, 1, 10, 1000, 1001] {
            for threads in [1usize, 3, 4, 7] {
                let seen: Vec<AtomicU64> = (0..ops).map(|_| AtomicU64::new(0)).collect();
                let driven = drive(threads, ops, 1, |_| {
                    Ok(|index: u64, _: &mut StdRng| {
                        seen[index as usize].fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                })
                .unwrap();
                assert_eq!(driven.operations, ops);
                assert_eq!(driven.latency.count(), ops, "{ops} ops on {threads}");
                assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn threads_get_contiguous_ranges_and_their_own_seed() {
        let firsts = Mutex::new(Vec::new());
        drive(3, 10, 100, |thread| {
            let firsts = &firsts;
            let mut previous = None;
            Ok(move |index: u64, rng: &mut StdRng| {
                match previous {
                    None => {
                        let expected = StdRng::seed_from_u64(100 + thread as u64).gen::<u64>();
                        assert_eq!(rng.gen::<u64>(), expected);
                        firsts.lock().push((thread, index));
                    }
                    Some(p) => assert_eq!(index, p + 1),
                }
                previous = Some(index);
                Ok(())
            })
        })
        .unwrap();
        let mut firsts = firsts.into_inner();
        firsts.sort();
        // 10 = 4 + 3 + 3.
        assert_eq!(firsts, vec![(0, 0), (1, 4), (2, 7)]);
    }

    #[test]
    fn a_worker_error_is_returned_after_every_thread_finished() {
        let finished = AtomicU64::new(0);
        let result = drive(4, 400, 1, |thread| {
            let finished = &finished;
            Ok(move |index: u64, _: &mut StdRng| {
                if thread == 2 {
                    return Err(Error::internal("boom"));
                }
                if (index + 1).is_multiple_of(100) {
                    finished.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        });
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }

    use rand::Rng;
}
