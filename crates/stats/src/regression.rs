//! Least-squares fits for scaling-law checks.
//!
//! The experiments verify asymptotic *shapes* ("slots grow like
//! `(c/k)·lg n`") by fitting power laws: a linear regression in log-log
//! space whose slope is the empirical exponent.

/// An ordinary-least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// The fitted slope.
    pub slope: f64,
    /// The fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Fits a least-squares line; `None` if fewer than two points, lengths
/// differ, any value is non-finite, or the x-values are all equal.
///
/// # Examples
///
/// ```
/// use crn_stats::regression::linear_fit;
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r2 - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LineFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LineFit {
        slope,
        intercept,
        r2,
    })
}

/// Fits `y ≈ a·x^slope` by regressing `ln y` on `ln x`; the returned
/// slope is the empirical scaling exponent. Requires strictly positive
/// data.
///
/// # Examples
///
/// ```
/// use crn_stats::regression::power_law_fit;
/// let xs = [1.0, 2.0, 4.0, 8.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
/// let fit = power_law_fit(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-9);
/// ```
pub fn power_law_fit(xs: &[f64], ys: &[f64]) -> Option<LineFit> {
    if xs.iter().chain(ys).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    linear_fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -3.0 * x + 7.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope + 3.0).abs() < 1e-12);
        assert!((f.intercept - 7.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!(f.r2 < 1.0);
        assert!((f.slope - 2.0).abs() < 0.3);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn power_law_rejects_nonpositive() {
        assert!(power_law_fit(&[0.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(power_law_fit(&[1.0, 2.0], &[-1.0, 2.0]).is_none());
    }

    #[test]
    fn constant_ys_have_full_r2() {
        let f = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    proptest! {
        #[test]
        fn prop_recovers_random_lines(
            slope in -100.0f64..100.0,
            intercept in -100.0f64..100.0,
        ) {
            let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            let f = linear_fit(&xs, &ys).unwrap();
            prop_assert!((f.slope - slope).abs() < 1e-6);
            prop_assert!((f.intercept - intercept).abs() < 1e-6);
        }

        #[test]
        fn prop_power_law_exponent(exp in 0.2f64..3.0, scale in 0.1f64..10.0) {
            let xs = [1.0f64, 2.0, 4.0, 8.0, 16.0];
            let ys: Vec<f64> = xs.iter().map(|x| scale * x.powf(exp)).collect();
            let f = power_law_fit(&xs, &ys).unwrap();
            prop_assert!((f.slope - exp).abs() < 1e-6);
        }
    }
}
