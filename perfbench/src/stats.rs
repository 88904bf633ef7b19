//! Exact-sample statistics: medians, the tail-percentile rule and the
//! per-class geometric mean.
//!
//! Every latency is kept as an exact sample; nothing here buckets.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: a class with no samples is a bug in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of `xs`, with the number of samples that
/// lie beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let rank = nearest_rank(s.len(), p);
    (s[rank - 1], s.len() - rank)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it in a class of `n` samples; `None` if even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - nearest_rank(n, p) >= MIN_BEYOND)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    let logs: f64 = xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (logs / xs.len() as f64).exp()
}

/// Latency summary of several request classes: each class's median and
/// tail, combined across classes by geometric mean so no percentile
/// straddles two classes.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Geometric mean of the class medians.
    pub p50: f64,
    /// Geometric mean of the class tails, all at `tail_pct`.
    pub tail: f64,
    /// The percentile reported as the tail (common to every class).
    pub tail_pct: f64,
    /// Samples in the smallest class.
    pub min_class_n: usize,
    /// Samples beyond the tail rank in the smallest class.
    pub min_beyond: usize,
    /// Samples over all classes.
    pub total_n: usize,
}

/// Summarize per-class samples. The tail percentile is chosen once, for
/// the smaller of the smallest class and `design_n`, the class size the
/// workload is built to reach: every class is read at the same percentile,
/// and a run that happens to collect more samples still reports the same
/// percentile as the others. `None` if some class is empty or too small
/// for even a median tail.
pub fn summarize(classes: &[&[f64]], design_n: usize) -> Option<LatencySummary> {
    let min_n = classes.iter().map(|c| c.len()).min()?;
    if min_n == 0 {
        return None;
    }
    let tail_pct = tail_percentile(min_n.min(design_n))?;
    let medians: Vec<f64> = classes.iter().map(|c| median(c)).collect();
    let tails: Vec<f64> = classes.iter().map(|c| percentile(c, tail_pct).0).collect();
    Some(LatencySummary {
        p50: geomean(&medians),
        tail: geomean(&tails),
        tail_pct,
        min_class_n: min_n,
        min_beyond: min_n - nearest_rank(min_n, tail_pct),
        total_n: classes.iter().map(|c| c.len()).sum(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 1000 samples: p99.9 leaves 1, p99.5 leaves 5, p99 leaves 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 rank is 990, 9 beyond: fall to p98 (rank 980).
        assert_eq!(tail_percentile(999), Some(98.0));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), (90.0, 10));
        assert_eq!(percentile(&xs, 50.0), (50.0, 50));
        assert_eq!(percentile(&xs, 100.0), (100.0, 0));
    }

    #[test]
    fn per_class_geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Two classes of 40 samples: a fast class at 1 ms and a slow one
        // at 100 ms. The p50 is the geometric mean of the class medians,
        // never a sample from whichever class dominates the pooled order.
        let fast = vec![1.0; 40];
        let mut slow: Vec<f64> = vec![100.0; 30];
        slow.extend(vec![400.0; 10]);
        let s = summarize(&[&fast, &slow], usize::MAX).unwrap();
        assert!((s.p50 - 10.0).abs() < 1e-9);
        assert_eq!(s.tail_pct, 75.0);
        assert_eq!(s.min_beyond, 10);
        // Tail of the slow class at p75 is 100 (rank 30); fast is 1.
        assert!((s.tail - 10.0).abs() < 1e-9);
        assert_eq!(s.total_n, 80);
    }

    #[test]
    fn summary_uses_the_smallest_class_for_the_tail() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&[&big, &small], usize::MAX).unwrap();
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.min_class_n, 100);
        assert!((s.tail - (900.0f64 * 90.0).sqrt()).abs() < 1e-9);
        assert!(summarize(&[&big, &[]], usize::MAX).is_none());
    }

    #[test]
    fn design_size_fixes_the_tail_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples would allow p99; a workload built for 500 per class
        // reports p98 in every run, and still has at least 10 beyond.
        let s = summarize(&[&xs], 500).unwrap();
        assert_eq!(s.tail_pct, 98.0);
        assert_eq!(s.min_beyond, 20);
        // A run that falls short of the design size drops to what it has.
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(summarize(&[&few], 500).unwrap().tail_pct, 90.0);
    }
}
