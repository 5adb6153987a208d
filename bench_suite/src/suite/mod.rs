//! The benchmark suite: workloads, the tracing used to attribute their time
//! to layers, and the reporting around them. `BENCHMARK.md` is the guide.

pub mod affinity;
pub mod gen;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod stores;
pub mod timed_env;
pub mod trace;
pub mod workloads;

pub use workloads::{run, RunConfig, RunOutcome, Workload};
