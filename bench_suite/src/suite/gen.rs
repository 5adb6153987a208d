//! Seeded input generation.
//!
//! Every generator of a run derives from `--seed` through [`stream_rng`]; the
//! stores under test see only the keys and values generated here. Values are
//! [`VALUE_LEN`] bytes: bytes 0..8 hold the key index and bytes 8..16 the
//! operation number (both little-endian), so a read can tell which key a
//! value was written for and whether it is the newest version.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub use pebblesdb_bench::bench_key;

/// Length of every generated value.
pub const VALUE_LEN: usize = 1024;
/// User bytes of one entry: a 16-byte key plus its value.
pub const ENTRY_BYTES: u64 = 16 + VALUE_LEN as u64;

const HEADER_LEN: usize = 16;
const POOL_LEN: usize = 64 << 10;

/// The independent random streams of one run. Each gets its own generator so
/// that, say, adding a draw to the key stream does not shift the value bytes.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Order in which the preload inserts its keys.
    PreloadOrder,
    /// Filler bytes of values.
    Values,
    /// Key choice (and GET/SET mix) of load thread or connection `n`.
    Ops(u64),
    /// Membership of the hot set.
    HotSet,
    /// Inputs of the component probes.
    Probes,
}

/// The generator for `stream` of the run seeded with `seed`.
pub fn stream_rng(seed: u64, stream: Stream) -> StdRng {
    let tag: u64 = match stream {
        Stream::PreloadOrder => 1,
        Stream::Values => 2,
        Stream::HotSet => 3,
        Stream::Probes => 4,
        Stream::Ops(n) => 16 + n,
    };
    // Multiplying by an odd constant spreads neighbouring tags over the seed
    // space; `seed_from_u64` then runs splitmix over the result.
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Builds values: a checked 16-byte header followed by filler cut from a
/// seeded random pool (one `memcpy` per value, so generation stays far
/// cheaper than the `put` it feeds).
pub struct ValueGen {
    rng: StdRng,
    pool: Vec<u8>,
}

impl ValueGen {
    /// A value generator for the run seeded with `seed`; `lane` separates
    /// concurrent writers.
    pub fn new(seed: u64, lane: u64) -> ValueGen {
        let mut rng = stream_rng(seed, Stream::Values);
        let pool = (0..POOL_LEN + VALUE_LEN).map(|_| rng.gen()).collect();
        let rng = StdRng::seed_from_u64(rng.gen::<u64>().wrapping_add(lane));
        ValueGen { rng, pool }
    }

    /// Writes the value of operation `op` on key `key` into `buf`.
    pub fn fill(&mut self, buf: &mut Vec<u8>, key: u64, op: u64) {
        buf.clear();
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&op.to_le_bytes());
        let offset = self.rng.gen_range(0..POOL_LEN);
        buf.extend_from_slice(&self.pool[offset..offset + VALUE_LEN - HEADER_LEN]);
    }
}

/// The key index a value was written for, if it has the generated shape.
pub fn value_key(value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_LEN {
        return None;
    }
    Some(u64::from_le_bytes(value[..8].try_into().expect("8 bytes")))
}

/// The operation number carried by a generated value.
pub fn value_op(value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_LEN {
        return None;
    }
    Some(u64::from_le_bytes(
        value[8..16].try_into().expect("8 bytes"),
    ))
}

/// The key index encoded in a [`bench_key`].
pub fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key).ok()?.parse().ok()
}

/// Keys `0..keys` in the seeded order the preload inserts them.
pub fn preload_order(seed: u64, keys: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..keys).collect();
    order.shuffle(&mut stream_rng(seed, Stream::PreloadOrder));
    order
}

/// `count` distinct key indices below `keys`: the hot set.
pub fn hot_set(seed: u64, keys: u64, count: usize) -> Vec<u64> {
    let mut order: Vec<u64> = (0..keys).collect();
    order.shuffle(&mut stream_rng(seed, Stream::HotSet));
    order.truncate(count);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(preload_order(7, 1000), preload_order(7, 1000));
        assert_ne!(preload_order(7, 1000), preload_order(8, 1000));
        assert_eq!(hot_set(7, 1000, 16), hot_set(7, 1000, 16));
        assert_ne!(hot_set(7, 1000, 16), hot_set(8, 1000, 16));

        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        ValueGen::new(7, 0).fill(&mut a, 1, 2);
        ValueGen::new(7, 0).fill(&mut b, 1, 2);
        ValueGen::new(8, 0).fill(&mut c, 1, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn values_carry_key_and_operation() {
        let mut buf = Vec::new();
        ValueGen::new(1, 0).fill(&mut buf, 42, 77);
        assert_eq!(buf.len(), VALUE_LEN);
        assert_eq!(value_key(&buf), Some(42));
        assert_eq!(value_op(&buf), Some(77));
        assert_eq!(value_key(&buf[..100]), None);
        assert_eq!(key_index(&bench_key(42)), Some(42));
        assert_eq!(key_index(b"not a key"), None);
    }

    #[test]
    fn hot_set_is_distinct_and_in_range() {
        let mut hot = hot_set(3, 500, 64);
        assert_eq!(hot.len(), 64);
        assert!(hot.iter().all(|k| *k < 500));
        hot.sort_unstable();
        hot.dedup();
        assert_eq!(hot.len(), 64);
    }
}
