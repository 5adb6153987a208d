//! Bloom filters for block-level and sstable-level key membership tests.
//!
//! PebblesDB attaches a bloom filter to *every sstable* so a `get()` that has
//! located the right guard can skip the sstables that cannot contain the key
//! (section 4.1 of the paper). The same policy doubles as the per-block
//! filter used by the baseline engine.
//!
//! The filter uses the standard double-hashing construction: a single base
//! hash is split into `k` probe positions by repeatedly adding a rotated
//! delta, the scheme used by the LevelDB family.

pub mod policy;

pub use policy::{BloomFilterBuilder, BloomFilterPolicy};

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn no_false_negatives() {
        let policy = BloomFilterPolicy::new(10);
        let keys: Vec<Vec<u8>> = (0..1000).map(key).collect();
        let filter = policy.create_filter(&keys);
        for k in &keys {
            assert!(
                policy.key_may_match(k, &filter),
                "bloom filter must never produce a false negative"
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let policy = BloomFilterPolicy::new(10);
        let keys: Vec<Vec<u8>> = (0..10_000).map(key).collect();
        let filter = policy.create_filter(&keys);
        let mut false_positives = 0;
        let probes = 10_000;
        for i in 0..probes {
            if policy.key_may_match(&key(1_000_000 + i), &filter) {
                false_positives += 1;
            }
        }
        // 10 bits/key gives ~1% theoretical FP rate; allow generous slack.
        assert!(
            (false_positives as f64) / (probes as f64) < 0.03,
            "false positive rate too high: {false_positives}/{probes}"
        );
    }

    #[test]
    fn empty_filter_rejects_everything_cheaply() {
        let policy = BloomFilterPolicy::new(10);
        let filter = policy.create_filter(&[]);
        // An empty filter may be a single metadata byte; lookups must not panic.
        let _ = policy.key_may_match(b"anything", &filter);
    }

    #[test]
    fn builder_and_batch_creation_agree() {
        let policy = BloomFilterPolicy::new(8);
        let keys: Vec<Vec<u8>> = (0..500).map(key).collect();
        let batch = policy.create_filter(&keys);

        let mut builder = BloomFilterBuilder::new(8, keys.len());
        for k in &keys {
            builder.add_key(k);
        }
        let incremental = builder.finish();
        assert_eq!(batch, incremental);
    }

    /// The sstable builder keeps each key's hash, not the key: the filter
    /// it gets from the hashes is byte for byte the one the keys give.
    #[test]
    fn hashes_build_the_filter_the_keys_do() {
        let policy = BloomFilterPolicy::new(10);
        // A repeated key, as several versions of one user key in a table.
        let mut keys: Vec<Vec<u8>> = (0..777).map(key).collect();
        keys.extend([key(5), key(5), Vec::new()]);
        let mut builder = BloomFilterBuilder::new(10, keys.len());
        for k in &keys {
            builder.add_hash(pebblesdb_common::hash::bloom_hash(k));
        }
        assert_eq!(builder.finish(), policy.create_filter(&keys));
    }
}
