//! A tiny `--flag [value]` command-line parser for the workspace binaries
//! (`db_bench`, `net_bench` and `pebblesdb-server`), so none of them needs an
//! external CLI dependency.
//!
//! Each binary declares its flags once — as its usage text, which is also
//! the validator. A flag line is two spaces, `--name`, an optional operand
//! word, then at least two spaces and the help:
//!
//! ```text
//! db_bench [options]
//!   --keys N          key-space size          (N: an unsigned integer)
//!   --ratio X         target compressibility  (X: a floating-point number)
//!   --engine NAME     which engine            (any other word: a string)
//!   --sync            fsync every write       (no operand: a switch)
//! ```
//!
//! A flag that is not in the text, a value flag without a value and a number
//! that does not parse are errors ([`Args::parse`] prints the usage and exits
//! 2) — a benchmark that silently ran the default (`--keys 10k`,
//! `--kyes 1000`) reported a number for a run nobody asked for.

use std::collections::HashMap;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    Switch,
    Text,
    Int,
    Float,
}

/// The flags a usage text declares.
fn declared(usage: &str) -> impl Iterator<Item = (&str, FlagKind)> {
    usage.lines().filter_map(|line| {
        let spec = line.strip_prefix("  --")?.split("  ").next()?;
        let mut words = spec.split_whitespace();
        let name = words.next()?;
        let kind = match words.next() {
            None => FlagKind::Switch,
            Some("N") => FlagKind::Int,
            Some("X") => FlagKind::Float,
            Some(_) => FlagKind::Text,
        };
        Some((name, kind))
    })
}

/// Parsed command-line flags, checked against the binary's usage text.
#[derive(Debug, Clone)]
pub struct Args {
    usage: &'static str,
    values: HashMap<String, String>,
}

impl Args {
    /// Parses the process arguments against `usage`. `--help` prints it and
    /// exits 0; any error prints it to stderr and exits 2.
    pub fn parse(usage: &'static str) -> Args {
        let argv: Vec<String> = std::env::args().collect();
        if argv.iter().any(|arg| arg == "--help") {
            println!("{usage}");
            std::process::exit(0);
        }
        Args::parse_from(argv, usage).unwrap_or_else(|err| {
            eprintln!("error: {err}\n{usage}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument vector (the first element is skipped).
    pub fn parse_from(argv: Vec<String>, usage: &'static str) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut iter = argv.into_iter().skip(1);
        while let Some(arg) = iter.next() {
            let Some((name, kind)) = arg
                .strip_prefix("--")
                .and_then(|name| declared(usage).find(|flag| flag.0 == name))
            else {
                return Err(format!("unknown argument {arg:?}"));
            };
            let value = match kind {
                FlagKind::Switch => String::new(),
                _ => iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?,
            };
            let parses = match kind {
                FlagKind::Int => value.parse::<u64>().is_ok(),
                FlagKind::Float => value.parse::<f64>().is_ok(),
                FlagKind::Switch | FlagKind::Text => true,
            };
            if !parses {
                return Err(format!("--{name}: {value:?} is not a number"));
            }
            values.insert(name.to_string(), value);
        }
        Ok(Args { usage, values })
    }

    /// The value of the declared flag `name`, if it was passed.
    fn value(&self, name: &str, kind: FlagKind) -> Option<&str> {
        debug_assert!(
            declared(self.usage).any(|flag| flag == (name, kind)),
            "--{name} is not declared as {kind:?} in the usage text"
        );
        self.values.get(name).map(String::as_str)
    }

    /// Returns the integer value of `name`, or `default`.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.value(name, FlagKind::Int)
            .map_or(default, |v| v.parse().expect("checked by parse_from"))
    }

    /// Returns the floating-point value of `name`, or `default`.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.value(name, FlagKind::Float)
            .map_or(default, |v| v.parse().expect("checked by parse_from"))
    }

    /// Returns the string value of `name`, or `default`.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.value(name, FlagKind::Text)
            .unwrap_or(default)
            .to_string()
    }

    /// Returns `true` if the switch `--name` was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.value(name, FlagKind::Switch).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "prog [options]
  --keys N        keys to write  (two spaces inside the help are fine)
  --ratio X       a ratio
  --engine NAME   which engine
  --quick         a switch
  --help          print this help";

    fn parse(args: &[&str]) -> Result<Args, String> {
        let argv = std::iter::once("prog").chain(args.iter().copied());
        Args::parse_from(argv.map(String::from).collect(), USAGE)
    }

    #[test]
    fn the_usage_text_declares_names_and_kinds() {
        let flags: Vec<_> = declared(USAGE).collect();
        let expected = [
            ("keys", FlagKind::Int),
            ("ratio", FlagKind::Float),
            ("engine", FlagKind::Text),
            ("quick", FlagKind::Switch),
            ("help", FlagKind::Switch),
        ];
        assert_eq!(flags, expected);
    }

    #[test]
    fn declared_flags_parse_and_absent_ones_default() {
        let args = parse(&[
            "--keys",
            "1234",
            "--engine",
            "pebblesdb",
            "--quick",
            "--ratio",
            "0.25",
        ])
        .unwrap();
        assert_eq!(args.get_u64("keys", 10), 1234);
        assert_eq!(args.get_f64("ratio", 1.0), 0.25);
        assert_eq!(args.get_str("engine", "x"), "pebblesdb");
        assert!(args.has_flag("quick"));

        let empty = parse(&[]).unwrap();
        assert_eq!(empty.get_u64("keys", 7), 7);
        assert_eq!(empty.get_str("engine", "x"), "x");
        assert!(!empty.has_flag("quick"));
    }

    #[test]
    fn a_switch_takes_no_value_and_a_value_flag_needs_one() {
        // A switch never swallows the next flag's name or a stray word.
        assert!(parse(&["--quick", "--keys", "5"]).is_ok());
        assert!(parse(&["--quick", "yes"]).is_err());
        assert!(parse(&["--keys"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn unknown_flags_and_unparsable_numbers_are_errors_not_defaults() {
        // The two silent-default cases the lenient parser let through.
        assert!(parse(&["--keys", "10k"]).unwrap_err().contains("--keys"));
        assert!(parse(&["--kyes", "1"]).unwrap_err().contains("--kyes"));
        assert!(parse(&["--ratio", "half"]).is_err());
        assert!(parse(&["keys", "5"]).is_err());
        assert!(parse(&["--keys", "-3"]).is_err());
    }
}
