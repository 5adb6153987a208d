//! `bench_suite`: the repo's one benchmark. See `BENCHMARK.md` beside this
//! package's `Cargo.toml`, and `BENCHMARK.json` at the root of the repo.

pub mod suite;
