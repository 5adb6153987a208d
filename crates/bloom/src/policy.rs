//! The bloom filter policy and incremental builder.

use pebblesdb_common::hash::bloom_hash;

/// A bloom filter policy parameterised by bits per key.
///
/// `create_filter` produces a byte array whose last byte records the number
/// of probes `k`, so readers do not need out-of-band configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomFilterPolicy {
    bits_per_key: usize,
    k: usize,
}

impl BloomFilterPolicy {
    /// Creates a policy using `bits_per_key` filter bits for every key.
    pub fn new(bits_per_key: usize) -> Self {
        // k = bits_per_key * ln(2) rounded, clamped to a sane range.
        let mut k = (bits_per_key as f64 * 0.69) as usize;
        k = k.clamp(1, 30);
        BloomFilterPolicy { bits_per_key, k }
    }

    /// The number of probe positions per key.
    pub fn num_probes(&self) -> usize {
        self.k
    }

    /// The configured bits per key.
    pub fn bits_per_key(&self) -> usize {
        self.bits_per_key
    }

    /// Builds a filter over `keys`.
    pub fn create_filter(&self, keys: &[Vec<u8>]) -> Vec<u8> {
        let mut builder = BloomFilterBuilder::new(self.bits_per_key, keys.len());
        for key in keys {
            builder.add_key(key);
        }
        builder.finish()
    }

    /// Returns `false` only if `key` was definitely not added to `filter`.
    pub fn key_may_match(&self, key: &[u8], filter: &[u8]) -> bool {
        if filter.len() < 2 {
            // A degenerate filter cannot exclude anything reliably; treat the
            // single metadata byte (or empty array) as "maybe".
            return !filter.is_empty();
        }
        let bits = (filter.len() - 1) * 8;
        let k = filter[filter.len() - 1] as usize;
        if k > 30 {
            // Reserved for future encodings; err on the side of a false
            // positive rather than losing data.
            return true;
        }
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let bit_pos = (h as usize) % bits;
            if filter[bit_pos / 8] & (1 << (bit_pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

/// Incrementally builds a bloom filter without buffering the keys.
///
/// The filter sees nothing of a key but its [`bloom_hash`], so the sstable
/// builder keeps four bytes per key rather than the key, and feeds the
/// hashes through [`BloomFilterBuilder::add_hash`] once the key count that
/// sizes the filter is known.
#[derive(Debug, Clone)]
pub struct BloomFilterBuilder {
    bits: Vec<u8>,
    num_bits: usize,
    k: usize,
}

impl BloomFilterBuilder {
    /// Creates a builder sized for `expected_keys` keys at `bits_per_key`.
    pub fn new(bits_per_key: usize, expected_keys: usize) -> Self {
        let policy = BloomFilterPolicy::new(bits_per_key);
        let mut num_bits = expected_keys.saturating_mul(bits_per_key);
        // Tiny filters have disproportionately high false-positive rates.
        if num_bits < 64 {
            num_bits = 64;
        }
        let num_bytes = num_bits.div_ceil(8);
        // Room for the probe count `finish` appends.
        let mut bits = Vec::with_capacity(num_bytes + 1);
        bits.resize(num_bytes, 0);
        BloomFilterBuilder {
            bits,
            num_bits: num_bytes * 8,
            k: policy.num_probes(),
        }
    }

    /// Adds one key to the filter.
    pub fn add_key(&mut self, key: &[u8]) {
        self.add_hash(bloom_hash(key));
    }

    /// Adds the key whose [`bloom_hash`] is `h`: the same bits as
    /// [`BloomFilterBuilder::add_key`] of that key.
    pub fn add_hash(&mut self, mut h: u32) {
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let bit_pos = (h as usize) % self.num_bits;
            self.bits[bit_pos / 8] |= 1 << (bit_pos % 8);
            h = h.wrapping_add(delta);
        }
    }

    /// Approximate heap memory the finished filter will occupy, in bytes.
    pub fn memory_usage(&self) -> usize {
        self.bits.len() + 1
    }

    /// Finalises the filter, appending the probe count as the last byte.
    pub fn finish(mut self) -> Vec<u8> {
        self.bits.push(self.k as u8);
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_count_scales_with_bits_per_key() {
        assert_eq!(BloomFilterPolicy::new(10).num_probes(), 6);
        assert!(BloomFilterPolicy::new(1).num_probes() >= 1);
        assert!(BloomFilterPolicy::new(100).num_probes() <= 30);
    }

    #[test]
    fn filter_encodes_probe_count_in_last_byte() {
        let policy = BloomFilterPolicy::new(10);
        let filter = policy.create_filter(&[b"a".to_vec()]);
        assert_eq!(*filter.last().unwrap() as usize, policy.num_probes());
    }

    #[test]
    fn minimum_filter_size_is_enforced() {
        let builder = BloomFilterBuilder::new(10, 1);
        assert!(builder.memory_usage() >= 8);
    }

    #[test]
    fn unknown_probe_count_is_treated_as_match() {
        let policy = BloomFilterPolicy::new(10);
        let filter = vec![0u8, 0, 0, 0, 200];
        assert!(policy.key_may_match(b"whatever", &filter));
    }

    #[test]
    fn keys_not_added_are_usually_rejected() {
        let policy = BloomFilterPolicy::new(12);
        let keys: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("present-{i}").into_bytes())
            .collect();
        let filter = policy.create_filter(&keys);
        let mut rejected = 0;
        for i in 0..100 {
            if !policy.key_may_match(format!("absent-{i}").as_bytes(), &filter) {
                rejected += 1;
            }
        }
        assert!(rejected > 90, "only {rejected} of 100 absent keys rejected");
    }
}
