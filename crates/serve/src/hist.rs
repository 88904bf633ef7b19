//! Log-linear latency histogram for the `Stats` endpoint.
//!
//! Quantiles without dependencies and without unbounded memory: one
//! atomic counter per bucket. Each power-of-two octave of microseconds
//! is split into 16 equal sub-buckets (below 32 µs every microsecond
//! has its own bucket). Recording is a single relaxed `fetch_add` (safe
//! from every worker concurrently); reading walks the counters. A
//! reported quantile is the *upper edge* of the bucket the target
//! sample fell into, so values are conservative (never under-reported)
//! and, for samples of 16 µs and more, at most 6.25 % (1/16) above the
//! true latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 4;

/// Samples of `2^TOP_BIT` µs and more (2^40 µs ≈ 12.7 days) share the
/// top bucket, which comfortably covers any request this service will
/// ever answer.
const TOP_BIT: u32 = 40;

/// Bucket count: 32 one-microsecond buckets, then 16 per octave from
/// `2^5` up to `2^TOP_BIT` µs.
const BUCKETS: usize = (TOP_BIT - SUB_BITS + 1) as usize * (1 << SUB_BITS);

/// A concurrent log-linear-bucket histogram of durations.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A sample `us` with `shift = max(0, ⌊log2 us⌋ - 4)` goes to bucket
/// `16·shift + (us >> shift)`: below 32 µs that is `us` itself, above
/// it the 16 buckets of an octave are each `2^shift` µs wide.
fn bucket_of(us: u64) -> usize {
    let us = us.min((1 << TOP_BIT) - 1);
    let shift = us.checked_ilog2().unwrap_or(0).saturating_sub(SUB_BITS);
    ((shift as usize) << SUB_BITS) + (us >> shift) as usize
}

/// Exclusive upper edge of bucket `i`, in microseconds.
fn upper_edge(i: usize) -> u64 {
    let shift = (i >> SUB_BITS).saturating_sub(1);
    let mantissa = (i - (shift << SUB_BITS)) as u64;
    (mantissa + 1) << shift
}

impl LatencyHistogram {
    /// A fresh zeroed histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as an upper bound, or `None`
    /// when nothing has been recorded yet.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // 1-based rank of the sample we want, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(upper_edge(i)));
            }
        }
        unreachable!("rank is bounded by the total")
    }

    /// Convenience pair for the stats report: `(p50, p99)`.
    pub fn p50_p99(&self) -> (Option<Duration>, Option<Duration>) {
        (self.quantile(0.50), self.quantile(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn buckets_are_log_linear() {
        // One bucket per microsecond below 32 µs.
        for us in 0..32 {
            assert_eq!(bucket_of(us), us as usize);
            assert_eq!(upper_edge(us as usize), us + 1);
        }
        // Then 16 buckets per octave, each 2^shift µs wide.
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_of(34), 33);
        assert_eq!(bucket_of(63), 47);
        assert_eq!(bucket_of(64), 48);
        assert_eq!(upper_edge(32), 34);
        assert_eq!(upper_edge(48), 68);
        assert_eq!(bucket_of(1000), 16 * 5 + 31); // [992, 1024)
        assert_eq!(upper_edge(bucket_of(1000)), 1024);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_edge(BUCKETS - 1), 1 << TOP_BIT);
    }

    #[test]
    fn buckets_tile_the_range_with_bounded_relative_width() {
        // Consecutive buckets share an edge, and every sample of 16 µs
        // or more lies at most 1/16 of itself below its upper edge.
        for i in 1..BUCKETS {
            assert_eq!(
                bucket_of(upper_edge(i - 1)),
                i,
                "gap after bucket {}",
                i - 1
            );
        }
        let mut us = 16u64;
        while us < 1 << TOP_BIT {
            for v in [us, us + 1, us * 17 / 16, us * 2 - 1] {
                let edge = upper_edge(bucket_of(v));
                assert!(edge > v, "{} µs at or above its edge {}", v, edge);
                assert!(
                    (edge - v) * 16 <= v,
                    "{} µs reported as {} µs: over 6.25 %",
                    v,
                    edge
                );
            }
            us *= 2;
        }
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::new();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // 1 ms lands in [992, 1024) µs; 100 ms in [98.304, 102.4) ms.
        assert_eq!(p50, Duration::from_micros(1024));
        assert_eq!(p99, Duration::from_micros(102_400));
        assert!(h.quantile(0.0).unwrap() <= p50);
        assert_eq!(h.quantile(1.0).unwrap(), p99);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        h.record(Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
