//! Order statistics for the benchmark's samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct`-th percentile of `xs`: the smallest sample
/// with at least `pct` % of the samples at or below it.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    let s = sorted(xs);
    rank_of(s.len(), pct).map(|k| s[k])
}

/// Zero-based index of the nearest-rank `pct`-th percentile among `n`
/// sorted samples.
fn rank_of(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let k = (pct / 100.0 * n as f64).ceil() as usize;
    Some(k.clamp(1, n) - 1)
}

/// Samples strictly after the nearest-rank `pct`-th percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    rank_of(n, pct).map_or(0, |k| n - 1 - k)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a sample: the highest of [`TAIL_PCTS`] that has at
/// least `min_beyond` samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 90.0.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the tail was taken over.
    pub n: usize,
}

/// The highest reportable tail of `xs`, or `None` when even the median
/// has fewer than `min_beyond` samples beyond it.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    let pct = TAIL_PCTS
        .into_iter()
        .find(|&p| beyond(n, p) >= min_beyond)?;
    Some(Tail {
        pct,
        value: percentile(xs, pct)?,
        n,
    })
}

/// The interquartile mean of `xs`: the mean of the samples left after
/// dropping the lowest and the highest quarter (⌊n/4⌋ each); `None`
/// when empty.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!((t.pct, t.value, t.n), (90.0, 90.0, 100));
        // 99 samples: p90 has 9 beyond it, so the tail drops to p75.
        let t = tail(&xs[..99], 10).unwrap();
        assert_eq!(t.pct, 75.0);
        // 1000 samples reach p99 (10 beyond), not p99.9 (1 beyond).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).unwrap().pct, 99.0);
        // Too few samples for any tail.
        assert_eq!(tail(&xs[..15], 10), None);
        assert_eq!(tail(&xs[..20], 10).unwrap().pct, 50.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[4.0, 1.0, 7.0]), Some(4.0));
        // 8 samples: the 2 lowest and 2 highest go.
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&xs), Some(3.5));
        // Steps of a quantized clock average out instead of jumping.
        let steps = [0.61, 0.71, 0.71, 0.61, 0.81, 0.71, 0.61, 0.71];
        let iqm = interquartile_mean(&steps).unwrap();
        assert!((iqm - 0.685).abs() < 1e-12, "{iqm}");
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
