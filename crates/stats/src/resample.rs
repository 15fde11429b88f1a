//! Bootstrap resampling for distribution-free confidence intervals.
//!
//! Slot-count distributions are skewed (geometric-ish tails), so the
//! normal-approximation CI in [`crate::Summary`] can be optimistic;
//! the experiment tables that make close calls use a percentile
//! bootstrap instead.

use crn_sim::rng::SimRng;

/// A percentile-bootstrap confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// The confidence level used (e.g. 0.95).
    pub level: f64,
}

impl BootstrapCi {
    /// True if `other`'s interval does not overlap this one (a
    /// conservative "significantly different" check).
    pub fn separated_from(&self, other: &BootstrapCi) -> bool {
        self.hi < other.lo || other.hi < self.lo
    }
}

/// Percentile bootstrap of the sample mean.
///
/// Returns `None` for empty/non-finite samples or `level` outside
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// use crn_stats::resample::bootstrap_mean_ci;
/// let xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
/// let ci = bootstrap_mean_ci(&xs, 500, 0.95, 42).unwrap();
/// assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
/// assert!((ci.mean - 4.5).abs() < 1e-9);
/// ```
pub fn bootstrap_mean_ci(
    samples: &[f64],
    iterations: usize,
    level: f64,
    seed: u64,
) -> Option<BootstrapCi> {
    if samples.is_empty()
        || iterations == 0
        || !(0.0..1.0).contains(&level)
        || level <= 0.0
        || samples.iter().any(|x| !x.is_finite())
    {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..iterations)
        .map(|_| {
            let mut total = 0.0;
            for _ in 0..n {
                total += samples[rng.gen_range(0..n)];
            }
            total / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let alpha = (1.0 - level) / 2.0;
    let idx =
        |q: f64| -> usize { ((q * (iterations - 1) as f64).round() as usize).min(iterations - 1) };
    Some(BootstrapCi {
        mean,
        lo: means[idx(alpha)],
        hi: means[idx(1.0 - alpha)],
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_brackets_the_mean() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let ci = bootstrap_mean_ci(&xs, 1000, 0.95, 1).unwrap();
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.lo > 18.0 && ci.hi < 33.0, "{ci:?}");
    }

    #[test]
    fn constant_sample_collapses() {
        let ci = bootstrap_mean_ci(&[7.0; 30], 200, 0.9, 2).unwrap();
        assert_eq!(ci.lo, 7.0);
        assert_eq!(ci.hi, 7.0);
    }

    #[test]
    fn separation_detects_distinct_distributions() {
        let a: Vec<f64> = (0..60).map(|i| 10.0 + (i % 5) as f64).collect();
        let b: Vec<f64> = (0..60).map(|i| 50.0 + (i % 5) as f64).collect();
        let ca = bootstrap_mean_ci(&a, 500, 0.95, 3).unwrap();
        let cb = bootstrap_mean_ci(&b, 500, 0.95, 4).unwrap();
        assert!(ca.separated_from(&cb));
        assert!(cb.separated_from(&ca));
        assert!(!ca.separated_from(&ca));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(bootstrap_mean_ci(&[], 100, 0.95, 0).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 0, 0.95, 0).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 100, 1.5, 0).is_none());
        assert!(bootstrap_mean_ci(&[f64::NAN], 100, 0.95, 0).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..40).map(|i| (i * i % 17) as f64).collect();
        let a = bootstrap_mean_ci(&xs, 300, 0.95, 9).unwrap();
        let b = bootstrap_mean_ci(&xs, 300, 0.95, 9).unwrap();
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_interval_ordered(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..60),
            seed in 0u64..100,
        ) {
            let ci = bootstrap_mean_ci(&xs, 200, 0.9, seed).unwrap();
            prop_assert!(ci.lo <= ci.hi);
            prop_assert!(ci.lo <= ci.mean + 1e-9);
            prop_assert!(ci.mean <= ci.hi + 1e-9);
        }
    }
}
