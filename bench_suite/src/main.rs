//! `bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process, prints every metric by name with its
//! unit, checks what the stores returned, and ends with one JSON object on
//! the last line of standard output. It exits non-zero when a check failed.
//!
//! `bench_suite --compare <a> <b>` compares two result sets saved with
//! `--out` and exits non-zero when `b` is worse than `a` beyond a bound.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use bench_suite::suite::metrics::{end_to_end, per_layer};
use bench_suite::suite::report::{benchmark_json, compare, result_json, saved_line, RUN_SECONDS};
use bench_suite::suite::stores::CLOSE_BOUND;
use bench_suite::suite::{run, RunConfig, Workload};

const USAGE: &str = "\
bench_suite --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
            [--trace-out <file>] [--out <file>] [--quick]
bench_suite --compare <a> <b>
bench_suite --describe

workloads: write_heavy read_point range_scan read_while_writing net_mixed
  --seconds    seconds the measured phases take together (default 15)
  --trace 1    the traced run: prints the per-layer metrics, not the end-to-end ones
  --trace-out  where the traced run writes its span records, as JSON lines
  --out        append this run's result to a result set
  --quick      tiny datasets (what the tests use)
  --describe   print BENCHMARK.json as the program's metric catalogue defines it";

enum Command {
    Run {
        cfg: RunConfig,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
    Describe,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let (mut trace_out, mut out) = (None, None);
    let mut quick = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--describe" => return Ok(Command::Describe),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.01..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 0.01 and 60".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run {
        cfg: RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            trace_out,
            quick,
            close_bound: CLOSE_BOUND,
            before_close: None,
        },
        out,
    })
}

fn run_command(cfg: &RunConfig, out: Option<PathBuf>) -> Result<bool, String> {
    let outcome = run(cfg).map_err(|err| format!("{} failed: {err}", cfg.workload.name()))?;
    let defs = if cfg.trace { per_layer() } else { end_to_end() };
    for def in &defs {
        let value = outcome.metrics.get(&def.name).unwrap_or(0.0);
        println!("{:<42} {value:>18.4} {}", def.name, def.unit);
    }
    if !cfg.trace {
        // The contract wants end-to-end metrics that are never 0; a 0 here
        // means a phase measured nothing.
        let unmeasured: Vec<&str> = defs
            .iter()
            .filter(|def| !outcome.metrics.get(&def.name).is_some_and(|v| v > 0.0))
            .map(|def| def.name.as_str())
            .collect();
        if !unmeasured.is_empty() {
            return Err(format!(
                "end-to-end metrics not measured: {}",
                unmeasured.join(", ")
            ));
        }
    }
    let result = result_json(&outcome, &defs)?;
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|err| format!("{}: {err}", path.display()))?;
        writeln!(file, "{}", saved_line(cfg, &result))
            .map_err(|err| format!("{}: {err}", path.display()))?;
    }
    println!("{result}");
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(problem) => {
            eprintln!("{problem}\n\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Compare(a, b)) => (|| {
            let read = |path: &PathBuf| {
                std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))
            };
            let (table, within) = compare(&read(&a)?, &read(&b)?)?;
            print!("{table}");
            Ok(within)
        })(),
        Ok(Command::Describe) => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Ok(Command::Run { cfg, out }) => run_command(&cfg, out),
    };
    // Stores the run left closing (or hung in close) live on other threads;
    // leaving `main` ends them with the process.
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("{problem}");
            ExitCode::from(1)
        }
    }
}
