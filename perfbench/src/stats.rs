//! Order statistics for the per-run samples: median, quartiles (the
//! same "exclusive" method as Python's `statistics.quantiles(xs, n=4)`,
//! which is how run-to-run spreads of this benchmark are judged), and
//! the tail percentile rule — the highest percentile of a fixed ladder
//! that still has at least ten samples beyond it.

/// Percentiles tried for the tail figure, highest first, in tenths of
/// a percent (integer, so nearest ranks are exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The summary printed beside every end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle pair for even counts).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`TAIL_MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `[q1, q2, q3]` by Python's default (`exclusive`) quantile method;
/// a single sample is its own quartiles (as in Python 3.13). `None`
/// when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank, as `(percentile, value)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&permille| {
        let rank = (permille * n).div_ceil(1000).max(1);
        (n >= rank + TAIL_MIN_BEYOND).then(|| (permille as f64 / 10.0, v[rank - 1]))
    })
}

/// Median, quartiles, tail and count of `xs`; `None` when empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let [q1, _, q3] = quartiles(xs)?;
    Some(Summary {
        n: xs.len(),
        median: median(xs),
        q1,
        q3,
        tail: tail(xs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: every statistic must sort first.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([0.5, 4, 9], n=4) == [0.5, 4.0, 9.0]
        assert_eq!(quartiles(&[9.0, 0.5, 4.0]), Some([0.5, 4.0, 9.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even the median has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10, with exactly 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 39 samples: p75 is rank 30 with 9 beyond, so p50 remains.
        assert_eq!(tail(&ramp(39)), Some((50.0, 20.0)));
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn summary_reports_count_and_spread() {
        let s = summarize(&ramp(20)).expect("non-empty");
        assert_eq!(s.n, 20);
        assert_eq!(s.median, 10.5);
        // statistics.quantiles(range(1, 21), n=4) == [5.25, 10.5, 15.75]
        assert_eq!((s.q1, s.q3), (5.25, 15.75));
        assert_eq!(s.tail, Some((50.0, 10.0)));
        assert_eq!(summarize(&[]), None);
    }
}
