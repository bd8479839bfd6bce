//! Alternative inequality indices.
//!
//! The paper measures F1/F2 with the Gini coefficient only. These indices
//! are the standard robustness companions from the inequality literature;
//! the Gini ablation of the `paper` preset in `fairswap-core` re-evaluates
//! the paper's k = 4 vs k = 20 comparison under each of them to show the
//! finding does not hinge on the choice of metric.

use crate::error::FairnessError;

fn validated_positive_mean(values: &[f64]) -> Result<f64, FairnessError> {
    if values.is_empty() {
        return Err(FairnessError::EmptyInput);
    }
    let mut sum = 0.0;
    for (index, &value) in values.iter().enumerate() {
        if !value.is_finite() {
            return Err(FairnessError::NonFiniteValue { index });
        }
        if value < 0.0 {
            return Err(FairnessError::NegativeValue { index, value });
        }
        sum += value;
    }
    if sum == 0.0 {
        return Err(FairnessError::ZeroTotal);
    }
    Ok(sum / values.len() as f64)
}

/// Theil T index: `(1/n) Σ (xᵢ/μ) ln(xᵢ/μ)`, with `0 ln 0 = 0`.
///
/// 0 means perfect equality; the maximum is `ln n` (one peer holds
/// everything). More sensitive to the top of the distribution than Gini.
///
/// # Errors
///
/// Same input conditions as [`crate::gini`].
pub fn theil(values: &[f64]) -> Result<f64, FairnessError> {
    let mean = validated_positive_mean(values)?;
    let n = values.len() as f64;
    let t = values
        .iter()
        .filter(|&&x| x > 0.0)
        .map(|&x| {
            let r = x / mean;
            r * r.ln()
        })
        .sum::<f64>()
        / n;
    Ok(t.max(0.0))
}

/// Atkinson index with inequality-aversion `epsilon > 0` (`epsilon != 1`
/// uses the power mean; `epsilon == 1` the geometric mean).
///
/// Ranges over `[0, 1)`; 0 is perfect equality. With any `epsilon >= 1`
/// a single zero value drives the index to 1 (the geometric mean
/// collapses), making it the strictest of the three on excluded peers.
///
/// # Errors
///
/// Same input conditions as [`crate::gini`], plus
/// [`FairnessError::NonFiniteValue`] for a non-positive or non-finite
/// `epsilon`.
pub fn atkinson(values: &[f64], epsilon: f64) -> Result<f64, FairnessError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(FairnessError::NonFiniteValue { index: usize::MAX });
    }
    let mean = validated_positive_mean(values)?;
    let n = values.len() as f64;
    let ede = if (epsilon - 1.0).abs() < 1e-12 {
        // Geometric mean; any zero collapses it to zero.
        if values.contains(&0.0) {
            0.0
        } else {
            (values.iter().map(|&x| x.ln()).sum::<f64>() / n).exp()
        }
    } else {
        let p = 1.0 - epsilon;
        if p < 0.0 && values.contains(&0.0) {
            // x^p diverges at 0 for p < 0: the power mean is 0.
            0.0
        } else {
            (values.iter().map(|&x| x.powf(p)).sum::<f64>() / n).powf(1.0 / p)
        }
    };
    Ok((1.0 - ede / mean).clamp(0.0, 1.0))
}

/// Hoover (Robin Hood) index: the fraction of the total that would have to
/// be redistributed to reach perfect equality,
/// `Σ |xᵢ − μ| / (2 Σ xᵢ)`.
///
/// # Errors
///
/// Same input conditions as [`crate::gini`].
pub fn hoover(values: &[f64]) -> Result<f64, FairnessError> {
    let mean = validated_positive_mean(values)?;
    let total: f64 = values.iter().sum();
    let deviation: f64 = values.iter().map(|&x| (x - mean).abs()).sum();
    Ok((deviation / (2.0 * total)).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gini::gini;

    #[test]
    fn equality_gives_zero_everywhere() {
        let v = [5.0; 8];
        assert!(theil(&v).unwrap().abs() < 1e-12);
        assert!(atkinson(&v, 0.5).unwrap().abs() < 1e-12);
        assert!(atkinson(&v, 1.0).unwrap().abs() < 1e-12);
        assert!(hoover(&v).unwrap().abs() < 1e-12);
    }

    #[test]
    fn point_mass_extremes() {
        let mut v = vec![0.0; 10];
        v[0] = 10.0;
        // Theil max is ln n.
        assert!((theil(&v).unwrap() - (10.0f64).ln()).abs() < 1e-9);
        // Atkinson(1) with zeros is 1.
        assert!((atkinson(&v, 1.0).unwrap() - 1.0).abs() < 1e-12);
        // Hoover: 9/10 of mass must move.
        assert!((hoover(&v).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn known_two_point_distribution() {
        // x = [1, 3], mean 2.
        let v = [1.0, 3.0];
        let expected_theil = (0.5 * 0.5f64.ln() + 1.5 * 1.5f64.ln()) / 2.0;
        assert!((theil(&v).unwrap() - expected_theil).abs() < 1e-12);
        // Hoover = (1 + 1) / (2*4) = 0.25; equals Gini for n = 2.
        assert!((hoover(&v).unwrap() - 0.25).abs() < 1e-12);
        assert!((gini(&v).unwrap() - 0.25).abs() < 1e-12);
        // Atkinson(1): ede = sqrt(3), A = 1 - sqrt(3)/2.
        assert!((atkinson(&v, 1.0).unwrap() - (1.0 - 3f64.sqrt() / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn indices_agree_on_ordering() {
        let mild = [4.0, 5.0, 6.0, 5.0];
        let harsh = [0.5, 1.0, 2.0, 16.5];
        assert!(theil(&harsh).unwrap() > theil(&mild).unwrap());
        assert!(atkinson(&harsh, 0.5).unwrap() > atkinson(&mild, 0.5).unwrap());
        assert!(hoover(&harsh).unwrap() > hoover(&mild).unwrap());
        assert!(gini(&harsh).unwrap() > gini(&mild).unwrap());
    }

    #[test]
    fn scale_invariance() {
        let v = [1.0, 2.0, 7.0, 3.5];
        let scaled: Vec<f64> = v.iter().map(|x| x * 250.0).collect();
        assert!((theil(&v).unwrap() - theil(&scaled).unwrap()).abs() < 1e-12);
        assert!((atkinson(&v, 0.5).unwrap() - atkinson(&scaled, 0.5).unwrap()).abs() < 1e-12);
        assert!((hoover(&v).unwrap() - hoover(&scaled).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn error_cases() {
        assert_eq!(theil(&[]), Err(FairnessError::EmptyInput));
        assert_eq!(theil(&[0.0]), Err(FairnessError::ZeroTotal));
        assert!(theil(&[-1.0]).is_err());
        assert!(atkinson(&[1.0], 0.0).is_err());
        assert!(atkinson(&[1.0], f64::NAN).is_err());
        assert!(hoover(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn atkinson_epsilon_monotone() {
        // Higher aversion -> higher measured inequality.
        let v = [1.0, 2.0, 3.0, 10.0];
        let a_low = atkinson(&v, 0.25).unwrap();
        let a_mid = atkinson(&v, 1.0).unwrap();
        let a_high = atkinson(&v, 2.0).unwrap();
        assert!(a_low < a_mid && a_mid < a_high, "{a_low} {a_mid} {a_high}");
    }
}
