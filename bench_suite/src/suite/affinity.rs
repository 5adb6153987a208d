//! Pinning threads to processors.
//!
//! On a two-processor box the scheduler decides afresh in every process
//! where the load thread, the flush thread and the compaction workers run,
//! and the outcome moves put latency and fill throughput by tens of percent
//! from one launch to the next. The benchmark takes that decision away: load
//! threads run on one processor, the store's own threads on another (a new
//! thread inherits the mask of the thread that spawns it, so a store opened
//! by a thread pinned to a processor keeps its background threads there).
//! With fewer than two processors allowed nothing is pinned.

/// The processors of this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus {
    /// Where the threads that issue operations run.
    pub load: usize,
    /// Where stores (and servers) are opened, and so where their background
    /// threads run.
    pub store: usize,
}

/// Words of the kernel's `cpu_set_t` (1024 bits).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The processors the calling thread may run on, in ascending order.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, which
    // is all `sched_getaffinity` requires; pid 0 means the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// The two processors to use, if the process is allowed at least two.
pub fn pick() -> Option<Cpus> {
    match allowed().as_slice() {
        [load, store, ..] => Some(Cpus {
            load: *load,
            store: *store,
        }),
        _ => None,
    }
}

/// Confines the calling thread (and the threads it spawns from now on) to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, which
    // is all `sched_setaffinity` requires; pid 0 means the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_their_processor() {
        let Some(cpus) = pick() else {
            return; // one processor: nothing to pin
        };
        std::thread::spawn(move || {
            assert!(pin(cpus.store));
            assert_eq!(allowed(), vec![cpus.store]);
            let child = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(child, vec![cpus.store]);
            assert!(pin(cpus.load));
            assert_eq!(allowed(), vec![cpus.load]);
        })
        .join()
        .unwrap();
        assert!(!pin(1 << 20));
    }
}
