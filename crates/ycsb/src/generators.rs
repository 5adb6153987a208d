//! Request-distribution generators used by the YCSB core workloads.

use rand::Rng;

use pebblesdb_common::hash::hash_seeded;

/// A generator of item indices in `[0, item_count)`.
pub trait Generator: Send + Sync {
    /// Draws the next item index.
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64;
    /// Informs the generator that the item space grew (after inserts).
    fn set_item_count(&mut self, item_count: u64);
}

/// The YCSB skew constant.
const THETA: f64 = 0.99;

/// Zipfian-distributed item selection (popular items are requested often).
///
/// Implements the Gray et al. "quick" zipfian algorithm used by the original
/// YCSB, with incremental recomputation of the zeta constant when the item
/// count grows.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    item_count: u64,
    /// `zeta(item_count)`: the sum of `1 / i^THETA` over `1..=item_count`.
    zeta_n: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// Creates a zipfian generator over `item_count` items.
    pub fn new(item_count: u64) -> Self {
        let mut gen = ZipfianGenerator {
            item_count: 0,
            zeta_n: 0.0,
            eta: 0.0,
        };
        gen.set_item_count(item_count);
        gen
    }
}

impl Generator for ZipfianGenerator {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(THETA) {
            return 1;
        }
        let alpha = 1.0 / (1.0 - THETA);
        let index = (self.item_count as f64 * (self.eta * u - self.eta + 1.0).powf(alpha)) as u64;
        index.min(self.item_count - 1)
    }

    fn set_item_count(&mut self, item_count: u64) {
        let item_count = item_count.max(1);
        if item_count > self.item_count {
            // Extend the zeta sum incrementally.
            for i in self.item_count..item_count {
                self.zeta_n += 1.0 / ((i + 1) as f64).powf(THETA);
            }
            self.item_count = item_count;
            let zeta2 = 1.0 + 1.0 / 2f64.powf(THETA);
            self.eta =
                (1.0 - (2.0 / item_count as f64).powf(1.0 - THETA)) / (1.0 - zeta2 / self.zeta_n);
        }
    }
}

/// Zipfian popularity scattered across the whole key space.
///
/// YCSB hashes the zipfian rank so that the hot keys are spread over the
/// table instead of being clustered at the low end.
#[derive(Debug, Clone)]
pub struct ScrambledZipfianGenerator {
    inner: ZipfianGenerator,
    item_count: u64,
}

impl ScrambledZipfianGenerator {
    /// Creates a scrambled zipfian generator over `item_count` items.
    pub fn new(item_count: u64) -> Self {
        ScrambledZipfianGenerator {
            inner: ZipfianGenerator::new(item_count),
            item_count: item_count.max(1),
        }
    }
}

impl Generator for ScrambledZipfianGenerator {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let rank = self.inner.next(rng);
        u64::from(hash_seeded(&rank.to_le_bytes(), 0x5bd1_e995)) % self.item_count
    }

    fn set_item_count(&mut self, item_count: u64) {
        self.item_count = item_count.max(1);
        self.inner.set_item_count(item_count);
    }
}

/// Skewed towards the most recently inserted items (news-feed pattern,
/// workload D).
#[derive(Debug, Clone)]
pub struct LatestGenerator {
    zipfian: ZipfianGenerator,
    item_count: u64,
}

impl LatestGenerator {
    /// Creates a latest-skewed generator over `item_count` items.
    pub fn new(item_count: u64) -> Self {
        LatestGenerator {
            zipfian: ZipfianGenerator::new(item_count),
            item_count: item_count.max(1),
        }
    }
}

impl Generator for LatestGenerator {
    fn next(&mut self, rng: &mut dyn rand::RngCore) -> u64 {
        let offset = self.zipfian.next(rng);
        self.item_count.saturating_sub(1).saturating_sub(offset)
    }

    fn set_item_count(&mut self, item_count: u64) {
        self.item_count = item_count.max(1);
        self.zipfian.set_item_count(item_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(gen: &mut dyn Generator, n: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n).map(|_| gen.next(&mut rng)).collect()
    }

    #[test]
    fn zipfian_is_skewed_towards_low_ranks() {
        let mut gen = ZipfianGenerator::new(10_000);
        let samples = draw(&mut gen, 20_000);
        assert!(samples.iter().all(|&s| s < 10_000));
        let hot = samples.iter().filter(|&&s| s < 100).count();
        // With theta=0.99 the first 1% of items gets far more than 1% of
        // requests.
        assert!(hot > samples.len() / 10, "hot count {hot}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut gen = ScrambledZipfianGenerator::new(10_000);
        let samples = draw(&mut gen, 20_000);
        assert!(samples.iter().all(|&s| s < 10_000));
        // Hot keys exist (some item drawn many times) ...
        let mut counts = std::collections::HashMap::new();
        for s in &samples {
            *counts.entry(*s).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 100, "expected a hot key, max draw count {max}");
        // ... but they are not clustered at the low end of the key space.
        let low = samples.iter().filter(|&&s| s < 100).count();
        assert!(low < samples.len() / 10, "low-end count {low}");
    }

    #[test]
    fn latest_prefers_recent_items_and_tracks_growth() {
        let mut gen = LatestGenerator::new(1000);
        let samples = draw(&mut gen, 5000);
        let recent = samples.iter().filter(|&&s| s >= 900).count();
        assert!(recent > samples.len() / 2, "recent count {recent}");

        gen.set_item_count(2000);
        let samples = draw(&mut gen, 5000);
        assert!(samples.iter().any(|&s| s >= 1500));
        assert!(samples.iter().all(|&s| s < 2000));
    }

    #[test]
    fn zipfian_item_count_growth_is_monotonic() {
        let mut gen = ZipfianGenerator::new(10);
        gen.set_item_count(1000);
        let samples = draw(&mut gen, 1000);
        assert!(samples.iter().all(|&s| s < 1000));
    }
}
