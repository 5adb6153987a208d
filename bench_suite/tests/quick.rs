//! Runs every workload in `--quick` mode, untraced and traced, and checks
//! what the benchmark promises about its output: every metric of the
//! catalogue once, by name and with a unit, nothing failed, and
//! `BENCHMARK.json` describing exactly what the program prints.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bench_suite::suite::metrics::{end_to_end, per_layer, MetricDef};
use bench_suite::suite::report::{benchmark_json, result_json, Json};
use bench_suite::suite::{run, RunConfig, Workload};

fn quick(workload: Workload, trace: bool, trace_out: Option<PathBuf>) -> RunConfig {
    RunConfig {
        workload,
        seed: 42,
        seconds: 0.4,
        trace,
        trace_out,
        quick: true,
        close_bound: Duration::from_secs(10),
        before_close: None,
    }
}

/// Per-layer metrics that only their home workload measures; everywhere
/// else they read 0.
fn home_metrics(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::WriteHeavy => &[
            "skiplist.insert_ns",
            "wal.add_record_ns",
            "wal.overhead_ratio",
            "bloom.build_ns_per_key",
            "compress.compress_mib_s",
            "compress.ratio",
            "sstable.build_mib_s",
        ],
        Workload::ReadPoint => &[
            "skiplist.get_ns",
            "bloom.may_match_ns",
            "bloom.false_positive_ratio",
            "compress.decompress_mib_s",
            "sstable.get_cached_ns",
            "sstable.get_uncached_ns",
        ],
        Workload::RangeScan => &[
            "skiplist.iter_next_ns",
            "sstable.iter_seek_ns",
            "sstable.iter_next_ns",
        ],
        Workload::ReadWhileWriting => &[],
        Workload::NetMixed => &[
            "resp.encode_ns",
            "resp.decode_ns",
            "server.session_get_us",
            "server.session_set_us",
            "server.wire_us",
            "server.busy_replies",
            "server.rejected_connections",
        ],
    }
}

fn is_home_metric(name: &str) -> bool {
    Workload::ALL
        .iter()
        .any(|w| home_metrics(*w).contains(&name))
}

#[test]
fn every_workload_emits_every_metric_once_and_nothing_fails() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let what = format!("{} trace={trace}", workload.name());
            let outcome =
                run(&quick(workload, trace, None)).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(outcome.attempted > 0, "{what}");
            assert_eq!(outcome.failed, 0, "{what}");

            // The printed object holds exactly the catalogue's names, in
            // order, each with its unit. (`Metrics::set` panics if a name
            // is recorded twice, so "once" is checked as the run goes.)
            let defs: Vec<MetricDef> = if trace { per_layer() } else { end_to_end() };
            let printed = Json::parse(&result_json(&outcome, &defs).unwrap()).unwrap();
            let Some(Json::Object(metrics)) = printed.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            assert_eq!(metrics.len(), defs.len(), "{what}");
            for ((name, metric), def) in metrics.iter().zip(&defs) {
                assert_eq!(name, &def.name, "{what}");
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{what}: {name}"
                );
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{what}: {name}"
                );
            }

            // The run measured what it was meant to: every end-to-end
            // metric is positive; every per-layer metric was recorded,
            // except other workloads' home metrics.
            for def in &defs {
                let recorded = outcome.metrics.get(&def.name);
                if !trace {
                    assert!(
                        recorded.is_some_and(|v| v > 0.0),
                        "{what}: {} = {recorded:?}",
                        def.name
                    );
                } else if home_metrics(workload).contains(&def.name.as_str()) {
                    assert!(
                        recorded.is_some_and(|v| v != 0.0 || def.name.starts_with("server.")),
                        "{what}: {} = {recorded:?}",
                        def.name
                    );
                } else {
                    assert_eq!(
                        recorded.is_some(),
                        !is_home_metric(&def.name),
                        "{what}: {}",
                        def.name
                    );
                }
            }
            for name in outcome.metrics.names() {
                assert!(
                    end_to_end()
                        .iter()
                        .chain(&per_layer())
                        .any(|d| d.name == name),
                    "{what}: {name} is not in the catalogue"
                );
            }
            if trace {
                for engine in ["flsm", "lsm"] {
                    let get =
                        |name: &str| outcome.metrics.get(&format!("{engine}.{name}")).unwrap();
                    // (`close_hung` may be 1 here: `EngineShared::drop` does
                    // lose its wake-up now and then. The run goes on.)
                    assert!(get("engine.close_hung") <= 2.0, "{what}");
                    assert!(get("engine.op_self_us") > 0.0, "{what}");
                    assert!(get("engine.reopen_ms") > 0.0, "{what}");
                }
                assert!(
                    outcome.metrics.get("trace.overhead_ratio").unwrap() > 0.0,
                    "{what}"
                );
                assert!(outcome.metrics.get("trace.spans").unwrap() > 0.0, "{what}");
            }
        }
    }
}

#[test]
fn traced_write_heavy_accounts_for_every_byte_of_write_amplification() {
    let outcome = run(&quick(Workload::WriteHeavy, true, None)).unwrap();
    for engine in ["flsm", "lsm"] {
        let get = |name: &str| outcome.metrics.get(&format!("{engine}.{name}")).unwrap();
        let device_mib = get("env.wal_mib") + get("env.sst_write_mib") + get("env.manifest_mib");
        // `<engine>_write_amp` is device bytes over user bytes; the store
        // was empty at the start, so its numerator is what the three file
        // classes took during the measured phase (plus the few hundred
        // bytes of MANIFEST an empty store starts with).
        let puts = get("env.wal_mib") * 1048576.0 / 1060.0;
        let user_mib = outcome
            .metrics
            .get(&format!("{engine}_write_amp"))
            .map(|amp| device_mib / amp)
            .unwrap();
        assert!(
            (user_mib * 1048576.0 / 1040.0 / puts - 1.0).abs() < 0.05,
            "{engine}: {user_mib} MiB of user data for {puts} puts"
        );
        assert!(
            get("engine.flushes") > 0.0 && get("engine.compaction_write_mib") > 0.0,
            "{engine}"
        );
        assert!(
            get("env.wal_append_ms") > 0.0 && get("engine.bg_env_busy_ms") > 0.0,
            "{engine}"
        );
    }
}

#[test]
fn traced_run_writes_span_records_that_link_children_to_roots() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-read-point-trace.jsonl");
    let outcome = run(&quick(Workload::ReadPoint, true, Some(path.clone()))).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(
        spans.len() as f64,
        outcome.metrics.get("trace.spans").unwrap()
    );

    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).unwrap() as u64;
    let name = |span: &Json| span.get("name").and_then(Json::as_str).unwrap().to_string();
    let roots: Vec<&Json> = spans.iter().filter(|s| name(s) == "op.get").collect();
    assert!(!roots.is_empty());
    for root in &roots {
        assert_eq!(field(root, "parent"), 0);
        assert_eq!(
            field(root, "request") % 64,
            0,
            "only one operation in 64 keeps records"
        );
        assert!(field(root, "end_ns") >= field(root, "start_ns"));
    }
    // A point read of a store six times the block cache reads sstable
    // blocks, on the reading thread, inside the read's span.
    let children: Vec<&Json> = spans.iter().filter(|s| name(s) == "env.sst.read").collect();
    assert!(!children.is_empty());
    for child in children {
        let parent = roots
            .iter()
            .find(|r| {
                field(r, "id") == field(child, "parent") && r.get("engine") == child.get("engine")
            })
            .expect("a child's parent is a kept root span");
        assert_eq!(field(parent, "request"), field(child, "request"));
        assert!(field(child, "start_ns") >= field(parent, "start_ns"));
        assert!(field(child, "end_ns") <= field(parent, "end_ns"));
    }
}

#[test]
fn benchmark_json_is_the_catalogue_and_keeps_the_contract_limits() {
    // The file is `bench_suite --describe`, byte for byte, so it lists
    // exactly the metrics the program prints.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text,
        benchmark_json(),
        "regenerate BENCHMARK.json with `bench_suite --describe`"
    );

    assert!(text.len() <= 64 << 10);
    let json = Json::parse(&text).unwrap();
    let Json::Object(members) = &json else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| match json.get(key) {
        Some(Json::Array(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    assert_eq!(list("paths"), vec![Json::String("bench_suite".to_string())]);
    for part in list("command") {
        let part = part.as_str().unwrap().to_string();
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.contains(".."),
            "{part}"
        );
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let listed = list("workloads");
    assert_eq!(
        listed
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect::<Vec<_>>(),
        names
    );
    for workload in &listed {
        let why = workload.get("why").and_then(Json::as_str).unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let seconds = json.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(list("end_to_end").len(), end_to_end().len());
    assert_eq!(list("per_layer").len(), per_layer().len());
}

#[test]
fn a_run_whose_closes_hang_still_ends_with_its_metrics_and_says_so() {
    // What `EngineShared::drop` does when it loses its wake-up: never return.
    fn hang() {
        loop {
            std::thread::park();
        }
    }
    let cfg = RunConfig {
        close_bound: Duration::from_millis(200),
        before_close: Some(hang),
        ..quick(Workload::WriteHeavy, true, None)
    };
    let started = Instant::now();
    let outcome = run(&cfg).unwrap();
    assert!(started.elapsed() < Duration::from_secs(30));
    // Each engine's store hung twice: before the reopen, and at the end.
    assert_eq!(outcome.metrics.get("flsm.engine.close_hung"), Some(2.0));
    assert_eq!(outcome.metrics.get("lsm.engine.close_hung"), Some(2.0));
    // The reopened stores still verified every acknowledged write.
    assert_eq!(outcome.failed, 0);
    assert!(outcome.metrics.get("flsm_write_amp").unwrap() > 1.0);
    assert!(outcome.metrics.get("flsm.env.wal_mib").unwrap() > 0.0);
}
