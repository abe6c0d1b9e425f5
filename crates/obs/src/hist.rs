//! Log₂-bucketed histograms over `u64` values: nanosecond latencies,
//! and counts such as batch widths.
//!
//! The serving engine measures nanosecond latencies on every request, so
//! the recording side must be as cheap as a counter bump: a
//! [`LogHistogram`] has **fixed** power-of-two buckets (bucket `b ≥ 1`
//! holds the integers `2^(b-1) ..= 2^b − 1`, bucket 0 holds exact
//! zeros), so [`LogHistogram::observe`] is one `leading_zeros` plus three
//! relaxed atomic adds — lock-free, allocation-free, and safe to share
//! as a `&'static` handle across threads.
//!
//! [`HistSnapshot::diff`] windows a histogram: subtract an earlier
//! snapshot to get the distribution of just the observations in between.
//!
//! The [`percentile`](HistSnapshot::percentile) estimator returns the
//! midpoint of the bucket containing the requested rank. Since a
//! non-zero observation `v` in bucket `b` satisfies
//! `2^(b-1) <= v < 2^b` and the midpoint is `1.5 · 2^(b-1)`, the
//! estimate is always within a **factor of 1.5** of the true sample
//! percentile (ratio in `(0.75, 1.5]`) — the bound the proptests in
//! this module and the `serve_bench` driver-vs-engine cross-check rely
//! on.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible bit width.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for an observation: 0 for 0, else `64 - leading_zeros`
/// (so `[2^(b-1), 2^b)` maps to bucket `b`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `b` (0 for the zero bucket).
#[inline]
pub fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Inclusive upper bound of bucket `b`: `2^b − 1`, and 0 for the zero
/// bucket. Shifting down from `u64::MAX` keeps the top bucket (`b = 64`)
/// from overflowing, where `bucket_lo(b + 1)` would shift by 64.
#[inline]
pub fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        u64::MAX >> (64 - b)
    }
}

/// Midpoint estimate reported for bucket `b`: `1.5 · 2^(b-1)` for
/// non-zero buckets (saturating at the top), 0 for the zero bucket.
#[inline]
pub fn bucket_mid(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        let lo = bucket_lo(b);
        lo.saturating_add(lo / 2)
    }
}

/// A lock-free histogram over `u64` values with fixed log₂ buckets.
/// All state is atomic; `observe` never allocates and never takes a
/// lock, so handles can be interned `&'static` in the metrics registry
/// and hit from the serving hot path.
pub struct LogHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub const fn new() -> LogHistogram {
        // `AtomicU64` is not Copy; an inline-const element repeats it.
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation (nanoseconds or a count): one branch-free
    /// bucket computation + three relaxed atomic adds.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for diffing and percentile queries.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) histogram state: the unit of export and of
/// windowing across time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Rebuild a snapshot from serialized bucket counts (e.g. a metrics
    /// JSONL line). Extra buckets are ignored, missing ones are zero.
    pub fn from_parts(buckets: &[u64], count: u64, sum: u64) -> HistSnapshot {
        let mut s = HistSnapshot {
            count,
            sum,
            ..HistSnapshot::default()
        };
        for (dst, &src) in s.buckets.iter_mut().zip(buckets) {
            *dst = src;
        }
        s
    }

    /// Pointwise difference vs. an `earlier` snapshot of the same
    /// histogram: the distribution of observations made in between.
    /// Saturates at zero, so a stale `earlier` cannot underflow.
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for (i, dst) in out.buckets.iter_mut().enumerate() {
            *dst = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `p`-th percentile (`0 < p <= 100`): the midpoint of
    /// the bucket containing rank `ceil(p/100 · count)`. Within a factor
    /// of 1.5 of the exact sample percentile (see module docs); 0 when
    /// the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(NUM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_hi(64), u64::MAX);
        for b in 1..NUM_BUCKETS {
            assert_eq!(bucket_of(bucket_lo(b)), b, "lower bound lands in bucket");
            assert_eq!(bucket_of(bucket_hi(b)), b, "upper bound lands in bucket");
            assert!(bucket_lo(b) <= bucket_mid(b) && bucket_mid(b) <= bucket_hi(b));
        }
    }

    #[test]
    fn observe_counts_and_sums() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 5, 5, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_011);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1, "one exact zero");
        assert_eq!(s.buckets[bucket_of(5)], 2);
    }

    #[test]
    fn percentile_of_uniform_values_is_in_their_bucket() {
        let h = LogHistogram::new();
        for _ in 0..100 {
            h.observe(700); // bucket [512, 1024)
        }
        for p in [1.0, 50.0, 99.0, 100.0] {
            let est = h.snapshot().percentile(p);
            assert_eq!(est, bucket_mid(bucket_of(700)));
            assert!((512..1024).contains(&est));
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(LogHistogram::new().snapshot().percentile(99.0), 0);
        assert_eq!(HistSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn diff_isolates_a_window() {
        let h = LogHistogram::new();
        h.observe(100);
        h.observe(200);
        let before = h.snapshot();
        h.observe(4000);
        h.observe(4001);
        let window = h.snapshot().diff(&before);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum, 8001);
        assert_eq!(window.buckets[bucket_of(4000)], 2);
        assert_eq!(window.buckets[bucket_of(100)], 0);
    }

    /// Exact percentile with the same rank convention the estimator
    /// uses: rank = ceil(p/100 · n), 1-indexed into the sorted sample.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The estimator is within its documented 1.5× bound of the
        /// exact sorted-vector percentile, for arbitrary samples and
        /// percentiles.
        #[test]
        fn percentile_within_factor_of_exact(
            seed in 0u64..10_000,
            n in 1usize..400,
            pi in 0usize..5,
        ) {
            let p = [10.0, 50.0, 90.0, 99.0, 100.0][pi];
            // Deterministic mixed-magnitude sample from the seed.
            let mut vals = Vec::with_capacity(n);
            let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            for _ in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Spread across ~12 orders of magnitude, with some zeros.
                let mag = s % 40;
                vals.push(if mag >= 38 { 0 } else { (s >> 24) % (1u64 << (mag.min(37) + 4)) });
            }
            let h = LogHistogram::new();
            for &v in &vals {
                h.observe(v);
            }
            vals.sort_unstable();
            let exact = exact_percentile(&vals, p);
            let est = h.snapshot().percentile(p);
            if exact == 0 {
                prop_assert_eq!(est, 0, "zero sample percentile must estimate 0");
            } else {
                let ratio = est as f64 / exact as f64;
                prop_assert!(
                    ratio > 0.75 && ratio <= 1.5,
                    "estimate {} vs exact {} (ratio {:.3}) out of the 1.5x bound",
                    est, exact, ratio
                );
            }
        }

        /// Count/sum bookkeeping matches the raw sample for any input.
        #[test]
        fn count_and_sum_match_sample(vals in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let h = LogHistogram::new();
            let mut sum = 0u64;
            for &v in &vals {
                h.observe(v);
                sum += v;
            }
            prop_assert_eq!(h.count(), vals.len() as u64);
            prop_assert_eq!(h.sum(), sum);
        }
    }
}
