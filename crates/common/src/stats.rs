//! The stat table: one declarative registry per counter set.
//!
//! A counter is written down once, as one row of a
//! [`stat_table!`](crate::stat_table) — `kind name: unit, merge rule;` under
//! its doc comment. Everything else is generated from the rows, so no copy
//! can fall behind (a hand-written shard merge once reported eleven
//! counters of a sharded store as 0):
//!
//! * the snapshot struct of plain `pub u64` fields
//!   ([`StoreStats`](crate::StoreStats), [`CfStats`](crate::CfStats), the
//!   server's `ServerStats`),
//! * `fields()`, the one list every reporting surface renders (the
//!   `db_bench` tables, the server's `INFO` command and its Prometheus
//!   endpoint only decide *presentation*, never *which* counters exist),
//! * `merge()`, which folds one shard's snapshot into a total by each row's
//!   [`MergeRule`], and
//! * for the `counter` rows, a sink struct of named `AtomicU64` cells with
//!   one `snapshot_into()`; `computed` rows are filled in by whoever takes
//!   the snapshot (live bytes, file counts, cache hit rates).
//!
//! Adding a stat is one row plus its increment site.

/// What a counter measures, so surfaces can format it appropriately
/// (e.g. bytes as MiB in human output, raw in Prometheus output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatUnit {
    /// A plain count (operations, files, ...).
    Count,
    /// A byte quantity.
    Bytes,
    /// A duration in microseconds.
    Micros,
}

/// How a row combines across the shards of one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeRule {
    /// Each shard counts its own share: add them up.
    Sum,
    /// A high-water mark: the store-wide figure is the largest shard's.
    Max,
    /// Every shard reports the same store-wide figure (one shared `Env`,
    /// one mirrored catalog): take it once — summing would multiply it by
    /// the shard count.
    Shared,
}

impl MergeRule {
    /// Folds one shard's `value` into `total`.
    pub fn apply(self, total: &mut u64, value: u64) {
        match self {
            MergeRule::Sum => *total += value,
            MergeRule::Max => *total = (*total).max(value),
            MergeRule::Shared => *total = value,
        }
    }
}

/// One row of a stat table with a snapshot's value.
#[derive(Debug, Clone)]
pub struct StatField {
    /// Snake-case field name, stable across surfaces.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
    /// What the value measures.
    pub unit: StatUnit,
    /// How the value combines across shards.
    pub merge: MergeRule,
}

impl StatField {
    /// Renders the value for human output: bytes as MiB, durations as
    /// milliseconds, counts as-is.
    pub fn human_value(&self) -> String {
        match self.unit {
            StatUnit::Count => self.value.to_string(),
            StatUnit::Bytes => format_mib(self.value),
            StatUnit::Micros => format!("{:.1} ms", self.value as f64 / 1000.0),
        }
    }
}

/// Declares one stat table. See the [module docs](crate::stats).
///
/// ```text
/// stat_table! {
///     /// The snapshot: `identity` fields (not stats) first, then one
///     /// `pub u64` per row.
///     #[derive(Debug, Clone, Default, PartialEq)]
///     pub struct Snapshot { pub name: String, }
///     /// Optional: the atomic sink holding the `counter` rows, plus any
///     /// working cells that are not reported.
///     #[derive(Debug, Default)]
///     pub sink Counters { pub in_flight: AtomicU64, }
///     rows {
///         /// Doc comment, shared by the snapshot field and the cell.
///         counter requests: Count, Sum;
///         /// Filled in by the code that takes the snapshot.
///         computed open_files: Count, Sum;
///     }
/// }
/// ```
#[macro_export]
macro_rules! stat_table {
    (
        $(#[$snapshot_meta:meta])*
        pub struct $Snapshot:ident { $($identity:tt)* }
        $(#[$sink_meta:meta])*
        pub sink $Sink:ident { $($working:tt)* }
        rows { $($rows:tt)* }
    ) => {
        $crate::stat_table! {
            $(#[$snapshot_meta])*
            pub struct $Snapshot { $($identity)* }
            rows { $($rows)* }
        }
        $crate::stat_table!(@sink [$Snapshot $(#[$sink_meta])* $Sink] [$($working)*] [] $($rows)*);
    };
    (
        $(#[$snapshot_meta:meta])*
        pub struct $Snapshot:ident { $($identity:tt)* }
        rows { $( $(#[$doc:meta])* $kind:ident $name:ident: $unit:ident, $merge:ident; )* }
    ) => {
        $(#[$snapshot_meta])*
        pub struct $Snapshot {
            $($identity)*
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl $Snapshot {
            /// Every row of the table, in table order, with this
            /// snapshot's values.
            pub fn fields(&self) -> Vec<$crate::stats::StatField> {
                vec![$( $crate::stats::StatField {
                    name: stringify!($name),
                    value: self.$name,
                    unit: $crate::stats::StatUnit::$unit,
                    merge: $crate::stats::MergeRule::$merge,
                }, )*]
            }

            /// Folds `other` (one shard's snapshot) into `self`, each row
            /// by its merge rule. Identity fields are left alone.
            pub fn merge(&mut self, other: &$Snapshot) {
                $( $crate::stats::MergeRule::$merge.apply(&mut self.$name, other.$name); )*
            }

            /// A snapshot whose rows hold `first, first + 1, ...` in table
            /// order, so a test can tell every row apart.
            #[cfg(test)]
            pub(crate) fn numbered(first: u64) -> $Snapshot {
                let mut snapshot = <$Snapshot>::default();
                let mut next = first..;
                $( snapshot.$name = next.next().unwrap(); )*
                snapshot
            }
        }
    };
    // The sink: munch the rows, keeping a cell per `counter` row.
    (@sink [$Snapshot:ident $(#[$sink_meta:meta])* $Sink:ident] [$($cells:tt)*] [$($counter:ident)*]) => {
        $(#[$sink_meta])*
        pub struct $Sink { $($cells)* }

        impl $Sink {
            /// Copies every counter into its snapshot field (relaxed
            /// loads); `computed` rows are left for the caller.
            pub fn snapshot_into(&self, snapshot: &mut $Snapshot) {
                $( snapshot.$counter = self.$counter.load(::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
    (@sink $head:tt [$($cells:tt)*] [$($counter:ident)*]
        $(#[$doc:meta])* counter $name:ident: $unit:ident, $merge:ident; $($rest:tt)*
    ) => {
        $crate::stat_table!(@sink $head
            [$($cells)* $(#[$doc])* pub $name: ::std::sync::atomic::AtomicU64,]
            [$($counter)* $name] $($rest)*);
    };
    (@sink $head:tt $cells:tt $counters:tt
        $(#[$doc:meta])* computed $name:ident: $unit:ident, $merge:ident; $($rest:tt)*
    ) => {
        $crate::stat_table!(@sink $head $cells $counters $($rest)*);
    };
}

/// Formats a byte count as mebibytes with two decimals.
pub fn format_mib(bytes: u64) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::CfStats;
    use crate::store::StoreStats;

    /// Walks one table through two distinct-valued snapshots `a` and `b`
    /// and `merged` = `a` merged with `b`: every row exactly once, in
    /// table order, merged by its own rule.
    fn walk_table(a: &[StatField], b: &[StatField], merged: &[StatField]) {
        let mut names: Vec<&str> = a.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a.len(), "a row name appears twice");
        // `numbered(1)`: the i-th row holds i + 1 — no row forgotten,
        // double-mapped or out of order.
        let values: Vec<u64> = a.iter().map(|f| f.value).collect();
        assert_eq!(values, (1..=a.len() as u64).collect::<Vec<u64>>());
        for ((a, b), merged) in a.iter().zip(b).zip(merged) {
            let expected = match a.merge {
                MergeRule::Sum => a.value + b.value,
                MergeRule::Max => a.value.max(b.value),
                MergeRule::Shared => b.value,
            };
            assert_eq!(merged.value, expected, "{} ({:?})", a.name, a.merge);
        }
    }

    #[test]
    fn store_fields_cover_every_stats_member() {
        let a = StoreStats::numbered(1);
        let b = StoreStats::numbered(1000);
        let mut merged = a.clone();
        merged.merge(&b);
        walk_table(&a.fields(), &b.fields(), &merged.fields());
        // The rules the paper's amplification figures depend on.
        let rule = |name: &str| a.fields().iter().find(|f| f.name == name).unwrap().merge;
        assert_eq!(rule("user_bytes_written"), MergeRule::Sum);
        assert_eq!(rule("bytes_written"), MergeRule::Shared);
        assert_eq!(rule("bytes_read"), MergeRule::Shared);
        assert_eq!(rule("max_concurrent_compactions"), MergeRule::Max);
    }

    #[test]
    fn cf_fields_and_info_render() {
        let a = CfStats::numbered(1);
        let b = CfStats::numbered(1000);
        let mut merged = a.clone();
        merged.merge(&b);
        walk_table(&a.fields(), &b.fields(), &merged.fields());

        // Identity fields are not rows; the rows carry the values.
        let cf = CfStats {
            id: 1,
            name: "users".to_string(),
            num_files: 3,
            live_bytes: 1024,
            ..Default::default()
        };
        let fields = cf.fields();
        assert!(fields.iter().all(|f| f.name != "id" && f.name != "name"));
        assert_eq!((fields[0].name, fields[0].value), ("num_files", 3));
        assert_eq!((fields[1].name, fields[1].value), ("live_bytes", 1024));
    }

    #[test]
    fn human_values_follow_units() {
        let field = |value, unit| StatField {
            name: "x",
            value,
            unit,
            merge: MergeRule::Sum,
        };
        assert_eq!(field(3 << 20, StatUnit::Bytes).human_value(), "3.00 MiB");
        assert_eq!(field(2500, StatUnit::Micros).human_value(), "2.5 ms");
        assert_eq!(field(7, StatUnit::Count).human_value(), "7");
    }
}
