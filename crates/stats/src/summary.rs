//! Summary statistics for experiment samples.

/// Descriptive statistics of a sample.
///
/// # Examples
///
/// ```
/// use crn_stats::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n = 1).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Half-width of the normal-approximation 95% confidence interval
    /// of the mean; `None` for `n = 1`, where no spread can be
    /// estimated (a zero-width interval would overstate confidence).
    pub ci95: Option<f64>,
}

impl Summary {
    /// Computes the summary; returns `None` on an empty sample or any
    /// non-finite value.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std = var.sqrt();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        // Linearly interpolated percentile (the rank `p·(n−1)` falls
        // between two order statistics). Nearest-rank rounding would
        // collapse p90/p99 to `max` for any n ≤ 5, biasing the tails.
        let pct = |p: f64| -> f64 {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            if frac == 0.0 || lo + 1 >= n {
                sorted[lo]
            } else {
                sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
            }
        };
        Some(Summary {
            n,
            mean,
            std,
            min: sorted[0],
            max: sorted[n - 1],
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            ci95: (n > 1).then(|| 1.96 * std / (n as f64).sqrt()),
        })
    }

    /// Convenience for integer slot counts.
    pub fn of_u64(samples: &[u64]) -> Option<Summary> {
        let f: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95, None, "one trial supports no interval estimate");
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.p99, 3.5);
    }

    #[test]
    fn ci95_present_from_two_samples() {
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        let w = s.ci95.expect("n = 2 has an interval");
        // std = sqrt(2), half-width = 1.96·sqrt(2)/sqrt(2) = 1.96.
        assert!((w - 1.96).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_instead_of_collapsing_to_max() {
        // Nearest-rank rounding reported p90 = p99 = max = 5 here.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((s.p50 - 3.0).abs() < 1e-12);
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert!((s.p99 - 4.96).abs() < 1e-12);
        assert!(s.p99 < s.max);

        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert!((s.p50 - 5.5).abs() < 1e-12);
        assert!((s.p90 - 9.1).abs() < 1e-12);
        assert!((s.p99 - 9.91).abs() < 1e-12);
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn median_of_odd_sample() {
        let s = Summary::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.p50, 5.0);
    }

    #[test]
    fn of_u64_matches_of() {
        let a = Summary::of_u64(&[1, 2, 3]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_bounds_hold(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&xs).unwrap();
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.min <= s.p50 && s.p50 <= s.max);
            prop_assert!(s.p50 <= s.p90 + 1e-9 && s.p90 <= s.p99 + 1e-9);
            prop_assert!(s.std >= 0.0);
        }

        #[test]
        fn prop_constant_sample_has_zero_std(x in -1e6f64..1e6, n in 1usize..50) {
            let s = Summary::of(&vec![x; n]).unwrap();
            prop_assert!(s.std.abs() < 1e-9 * (1.0 + x.abs()));
            prop_assert_eq!(s.min, s.max);
        }
    }
}
