//! Printing results, saving them, and comparing two saved result sets.
//!
//! A *result set* is a file of JSON lines, one per run, as `--out` appends
//! them: `{"workload":..,"seed":..,"trace":0|1,"result":{..}}` where
//! `result` is the object the run printed as its last line. The workspace is
//! offline and has no JSON crate, so the writer and the small parser the
//! comparison needs live here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::measure::median;
use super::metrics::{end_to_end, per_layer, Better, MetricDef};
use super::workloads::{RunConfig, RunOutcome, Workload};

/// The object a run prints as its last line: the metrics `defs` names, in
/// that order. A metric the workload did not measure reads 0.
///
/// Returns an error naming the metric if a value is not a finite number.
pub fn result_json(outcome: &RunOutcome, defs: &[MetricDef]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value = outcome.metrics.get(&def.name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        let comma = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    Ok(out)
}

/// Seconds the driver asks each run to measure (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The contents of `BENCHMARK.json`, written from the same catalogue the
/// program prints from, so that the two cannot drift apart.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench_suite/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench_suite\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a String");
    out.push_str("  \"workloads\": [\n");
    for (i, workload) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 == Workload::ALL.len() {
            ""
        } else {
            ","
        };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            workload.name(),
            workload.why()
        )
        .expect("writing to a String");
    }
    out.push_str("  ],\n");
    for (key, defs, last) in [
        ("end_to_end", end_to_end(), false),
        ("per_layer", per_layer(), true),
    ] {
        writeln!(out, "  \"{key}\": [").expect("writing to a String");
        for (i, def) in defs.iter().enumerate() {
            let bound = def
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            let comma = if i + 1 == defs.len() { "" } else { "," };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}",
                def.name,
                def.unit,
                def.better.word()
            )
            .expect("writing to a String");
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    out.push_str("}\n");
    out
}

/// The line `--out` appends for one run.
pub fn saved_line(cfg: &RunConfig, result: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8
    )
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in order of appearance.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value(0)?;
        parser.skip_space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected input at byte {}", self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nested too deeply".to_string());
        }
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A string without escapes other than `\"`, `\\` and `\/`: all the
    /// benchmark's own files contain.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => match self.bytes.get(self.at + 1) {
                    Some(c @ (b'"' | b'\\' | b'/')) => {
                        out.push(*c);
                        self.at += 2;
                    }
                    _ => return Err(format!("unsupported escape at byte {}", self.at)),
                },
                Some(c) => {
                    out.push(*c);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Untraced values of one result set: workload → metric → one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", number + 1);
        let run = Json::parse(line).map_err(|e| at(&e))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let Some(Json::Object(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(at("no result.metrics"));
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("a metric has no value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// Compares the untraced runs of two result sets: per workload and
/// end-to-end metric, both medians, how much worse `b` is than `a` as a share
/// of `a`, and the metric's bound. Returns the table and whether every
/// difference stays within its bound.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_set(a)?, load_set(b)?);
    let mut table = format!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "median a", "median b", "worse by", "bound"
    );
    let mut within = true;
    let mut compared = 0;
    for workload in Workload::ALL {
        let (Some(a), Some(b)) = (a.get(workload.name()), b.get(workload.name())) else {
            continue;
        };
        for def in end_to_end() {
            let (Some(a), Some(b)) = (a.get(&def.name), b.get(&def.name)) else {
                return Err(format!(
                    "{}: {} is missing from a set",
                    workload.name(),
                    def.name
                ));
            };
            let (a, b) = (median(a), median(b));
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse > bound {
                within = false;
                "  EXCEEDED"
            } else {
                ""
            };
            writeln!(
                table,
                "{:<20} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                workload.name(),
                def.name,
                worse * 100.0,
                bound * 100.0
            )
            .expect("writing to a String");
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("the two sets share no workload".to_string());
    }
    Ok((table, within))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::metrics::Metrics;

    fn saved(workload: Workload, ops_s: f64) -> String {
        let mut metrics = Metrics::default();
        for def in end_to_end() {
            metrics.set(
                def.name.clone(),
                if def.name == "flsm_ops_s" { ops_s } else { 2.0 },
            );
        }
        let outcome = RunOutcome {
            attempted: 10,
            failed: 0,
            metrics,
        };
        let cfg = RunConfig {
            workload,
            seed: 1,
            seconds: 1.0,
            trace: false,
            trace_out: None,
            quick: true,
            close_bound: std::time::Duration::from_secs(1),
            before_close: None,
        };
        saved_line(&cfg, &result_json(&outcome, &end_to_end()).unwrap())
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses_back() {
        let line = saved(Workload::ReadPoint, 1234.5);
        let run = Json::parse(&line).unwrap();
        assert_eq!(
            run.get("workload").and_then(Json::as_str),
            Some("read_point")
        );
        let Some(Json::Object(result)) = run.get("result") else {
            panic!("no result object");
        };
        let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result[0].1, Json::Bool(true));
        let metric = run
            .get("result")
            .unwrap()
            .get("metrics")
            .unwrap()
            .get("flsm_ops_s")
            .unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", f64::NAN);
        let outcome = RunOutcome {
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(result_json(&outcome, &end_to_end())
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn compare_flags_a_drop_beyond_the_bound_only() {
        let a = [
            saved(Workload::ReadPoint, 1000.0),
            saved(Workload::ReadPoint, 1010.0),
        ]
        .join("\n");
        let slightly = saved(Workload::ReadPoint, 950.0);
        let badly = saved(Workload::ReadPoint, 700.0);
        let (table, within) = compare(&a, &slightly).unwrap();
        assert!(within, "{table}");
        let (table, within) = compare(&a, &badly).unwrap();
        assert!(!within);
        assert!(table
            .lines()
            .any(|l| l.contains("flsm_ops_s") && l.contains("EXCEEDED")));
        // Higher throughput is never a regression.
        assert!(compare(&a, &saved(Workload::ReadPoint, 5000.0)).unwrap().1);
        assert!(compare(&a, &saved(Workload::NetMixed, 1000.0)).is_err());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"\\u0041\"",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        assert_eq!(
            Json::parse(" [1, -2.5e3, \"a\\\"b\", true, null, {}] ").unwrap(),
            Json::Array(vec![
                Json::Number(1.0),
                Json::Number(-2500.0),
                Json::String("a\"b".to_string()),
                Json::Bool(true),
                Json::Null,
                Json::Object(vec![]),
            ])
        );
    }
}
