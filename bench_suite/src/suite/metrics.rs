//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! lists the same metrics; a test keeps the two in step.

use super::stores::Engine;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};

/// Per-engine end-to-end metrics: `(suffix, unit, better, bound)`.
///
/// The bounds are what the run-to-run spread on a two-processor sandbox
/// allows (see `BENCHMARK.md`, "Repeatability"). Tail percentiles are not
/// here: across launches they spread by 20–30% on `range_scan`,
/// `read_while_writing` and `net_mixed`, more than any bound could absorb,
/// so they are reported per layer (`engine.p95_us`, `engine.p99_us`).
const END_TO_END_PER_ENGINE: &[(&str, &str, Better, f64)] = &[
    ("ops_s", "1/s", Higher, 0.25),
    ("p50_us", "us", Lower, 0.25),
    ("write_amp", "ratio", Lower, 0.15),
    ("space_amp", "ratio", Lower, 0.15),
];

/// The end-to-end metrics, which the untraced run reports on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut defs = vec![MetricDef {
        name: "setup_s".to_string(),
        unit: "s",
        better: Lower,
        bound: Some(0.25),
    }];
    for (suffix, unit, better, bound) in END_TO_END_PER_ENGINE {
        for engine in Engine::BOTH {
            defs.push(MetricDef {
                name: format!("{}_{suffix}", engine.label()),
                unit,
                better: *better,
                bound: Some(*bound),
            });
        }
    }
    defs
}

/// Per-layer metrics reported once per engine, as `<engine>.<name>`.
const PER_ENGINE_LAYERS: &[(&str, &str, Better)] = &[
    // The chassis seen through `KvStore`: operation spans and `StoreStats`.
    ("engine.op_self_us", "us", Lower),
    ("engine.op_env_wait_us", "us", Lower),
    ("engine.iter_new_us", "us", Lower),
    ("engine.seek_us", "us", Lower),
    ("engine.next_us", "us", Lower),
    ("engine.p95_us", "us", Lower),
    ("engine.p99_us", "us", Lower),
    ("engine.put_p99_us", "us", Lower),
    ("engine.flushes", "count", Lower),
    ("engine.compactions", "count", Lower),
    ("engine.compaction_busy_ms", "ms", Lower),
    ("engine.compaction_read_mib", "MiB", Lower),
    ("engine.compaction_write_mib", "MiB", Lower),
    ("engine.write_stalls", "count", Lower),
    ("engine.write_stall_ms", "ms", Lower),
    ("engine.max_concurrent_compactions", "count", Higher),
    ("engine.bg_env_busy_ms", "ms", Lower),
    ("engine.memory_mib", "MiB", Lower),
    ("engine.reopen_ms", "ms", Lower),
    ("engine.close_hung", "count", Lower),
    ("engine.reader_slowdown_ratio", "ratio", Higher),
    // Caches, from `StoreStats`.
    ("sstable.block_cache_hit_ratio", "ratio", Higher),
    ("sstable.block_cache_misses_per_op", "1/op", Lower),
    ("sstable.table_cache_hit_ratio", "ratio", Higher),
    ("sstable.decompress_ms", "ms", Lower),
    // `TimedEnv`, by file class.
    ("env.wal_mib", "MiB", Lower),
    ("env.wal_append_ms", "ms", Lower),
    ("env.wal_syncs", "count", Lower),
    ("env.wal_sync_ms", "ms", Lower),
    ("env.sst_write_mib", "MiB", Lower),
    ("env.sst_write_ms", "ms", Lower),
    ("env.sst_read_mib", "MiB", Lower),
    ("env.sst_reads_per_op", "1/op", Lower),
    ("env.sst_read_ms", "ms", Lower),
    ("env.manifest_mib", "MiB", Lower),
    ("env.manifest_ms", "ms", Lower),
    ("env.files_created", "count", Lower),
    ("env.files_removed", "count", Lower),
    ("env.dir_syncs", "count", Lower),
];

/// Per-layer metrics reported once per run.
const SHARED_LAYERS: &[(&str, &str, Better)] = &[
    // Tree shape after the measured phase.
    ("core.files", "count", Lower),
    ("core.levels", "count", Lower),
    ("core.guards", "count", Lower),
    ("core.empty_guards", "count", Lower),
    ("core.l0_files", "count", Lower),
    ("lsm.files", "count", Lower),
    ("lsm.levels", "count", Lower),
    ("lsm.l0_files", "count", Lower),
    // Component probes.
    ("sstable.build_mib_s", "MiB/s", Higher),
    ("sstable.get_cached_ns", "ns", Lower),
    ("sstable.get_uncached_ns", "ns", Lower),
    ("sstable.iter_seek_ns", "ns", Lower),
    ("sstable.iter_next_ns", "ns", Lower),
    ("skiplist.insert_ns", "ns", Lower),
    ("skiplist.get_ns", "ns", Lower),
    ("skiplist.iter_next_ns", "ns", Lower),
    ("wal.add_record_ns", "ns", Lower),
    ("wal.overhead_ratio", "ratio", Lower),
    ("bloom.build_ns_per_key", "ns", Lower),
    ("bloom.may_match_ns", "ns", Lower),
    ("bloom.false_positive_ratio", "ratio", Lower),
    ("compress.compress_mib_s", "MiB/s", Higher),
    ("compress.decompress_mib_s", "MiB/s", Higher),
    ("compress.ratio", "ratio", Lower),
    // The wire, on `net_mixed`.
    ("resp.encode_ns", "ns", Lower),
    ("resp.decode_ns", "ns", Lower),
    ("server.session_get_us", "us", Lower),
    ("server.session_set_us", "us", Lower),
    ("server.wire_us", "us", Lower),
    ("server.busy_replies", "count", Lower),
    ("server.rejected_connections", "count", Lower),
    // The benchmark itself.
    ("gen.max_lateness_ms", "ms", Lower),
    ("trace.overhead_ratio", "ratio", Higher),
    ("trace.spans", "count", Higher),
];

/// The per-layer metrics, which the traced run reports on every workload
/// (as 0 where the workload does not exercise the layer).
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for (name, unit, better) in PER_ENGINE_LAYERS {
        for engine in Engine::BOTH {
            defs.push(MetricDef {
                name: format!("{}.{name}", engine.label()),
                unit,
                better: *better,
                bound: None,
            });
        }
    }
    for (name, unit, better) in SHARED_LAYERS {
        defs.push(MetricDef {
            name: name.to_string(),
            unit,
            better: *better,
            bound: None,
        });
    }
    defs
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already recorded: each metric is measured in
    /// exactly one place.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} recorded twice");
        self.values.push((name, value));
    }

    /// Records `value` under `<engine>.<name>`.
    pub fn set_for(&mut self, engine: Engine, name: &str, value: f64) {
        self.set(format!("{}.{name}", engine.label()), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(e2e.len() <= 16, "{} end-to-end metrics", e2e.len());
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));

        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        for def in e2e.iter().chain(&layers) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{def:?}");
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layers.iter().all(|d| d.bound.is_none()));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_is_recorded_once() {
        let mut metrics = Metrics::default();
        metrics.set("a", 1.0);
        metrics.set("a", 2.0);
    }
}
