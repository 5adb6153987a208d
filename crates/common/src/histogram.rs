//! A simple latency histogram with logarithmic buckets.

/// Records microsecond-scale latencies and reports percentiles.
///
/// Buckets grow geometrically (~25 % per bucket) so the histogram covers
/// nanoseconds to minutes in a fixed, small amount of memory.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

const NUM_BUCKETS: usize = 200;

fn bucket_for(value: u64) -> usize {
    // log_1.25(value) compressed into NUM_BUCKETS buckets.
    let value = value.max(1) as f64;
    let bucket = (value.ln() / 1.25f64.ln()) as usize;
    bucket.min(NUM_BUCKETS - 1)
}

fn bucket_upper_bound(bucket: usize) -> u64 {
    1.25f64.powi(bucket as i32 + 1) as u64
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation (typically microseconds).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_for(value)] += 1;
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded observation.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded observation.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate value at the given percentile (0.0–100.0).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (self.count as f64 * (p / 100.0)).ceil() as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= threshold {
                return bucket_upper_bound(bucket).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1.0);
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 3000 && p50 < 7500, "p50={p50}");
        assert!(p99 >= 9000, "p99={p99}");
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }
}
