//! Ordinary least-squares and ridge regression, plus the feature rows of
//! eqs. (2)–(3).
//!
//! The N-sigma model of the paper fits its quantile coefficients (`A_ni`,
//! `B_nj` of Table I) and its moment-calibration coefficients (`P`, `Q`, `R`,
//! `K` of eqs. 2–3) by linear regression over Monte-Carlo characterization
//! data. This module provides exactly that machinery.

use crate::linalg::{cholesky_solve, Matrix, SolveError};

/// Result of a least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Fitted coefficients, one per design-matrix column.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
    /// Root-mean-square residual on the training data.
    pub rmse: f64,
}

impl LinearFit {
    /// Predicts the response for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the number of coefficients.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature dimension mismatch"
        );
        features
            .iter()
            .zip(&self.coefficients)
            .map(|(x, c)| x * c)
            .sum()
    }
}

/// Error returned by the regression entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer observations than columns (or zero observations).
    Underdetermined {
        /// Observation count supplied.
        rows: usize,
        /// Design-matrix column count.
        cols: usize,
    },
    /// Normal equations could not be solved even with ridge damping.
    Numerical(SolveError),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Underdetermined { rows, cols } => {
                write!(f, "underdetermined fit: {rows} rows for {cols} columns")
            }
            FitError::Numerical(e) => write!(f, "numerical failure in normal equations: {e}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fits `y ≈ X·β` by ordinary least squares using the normal equations.
///
/// If the Gram matrix is numerically singular, retries with a small ridge
/// term (`λ = 1e-10 · trace/n`), which is the standard remedy for the nearly
/// collinear feature sets that arise when a moment (e.g. skewness) barely
/// moves across a characterization grid.
///
/// # Errors
///
/// Returns [`FitError::Underdetermined`] when there are fewer rows than
/// columns, or [`FitError::Numerical`] if even the damped system fails.
///
/// # Examples
///
/// ```
/// use nsigma_stats::linalg::Matrix;
/// use nsigma_stats::regression::ols;
///
/// // y = 1 + 2x sampled exactly.
/// let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
/// let fit = ols(&x, &[1.0, 3.0, 5.0])?;
/// assert!((fit.coefficients[0] - 1.0).abs() < 1e-9);
/// assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
/// # Ok::<(), nsigma_stats::regression::FitError>(())
/// ```
pub fn ols(x: &Matrix, y: &[f64]) -> Result<LinearFit, FitError> {
    ridge(x, y, 0.0)
}

/// Fits `y ≈ X·β` with an L2 penalty `λ‖β‖²` (ridge regression).
///
/// `lambda = 0` reduces to OLS (with automatic tiny-ridge retry on singular
/// Gram matrices).
///
/// # Errors
///
/// See [`ols`].
fn ridge(x: &Matrix, y: &[f64], lambda: f64) -> Result<LinearFit, FitError> {
    let rows = x.rows();
    let cols = x.cols();
    if rows < cols || rows == 0 {
        return Err(FitError::Underdetermined { rows, cols });
    }
    assert_eq!(y.len(), rows, "response length must match design rows");

    let mut gram = x.gram();
    let xty: Vec<f64> = {
        let xt = x.transpose();
        xt.matvec(y)
    };

    if lambda > 0.0 {
        for i in 0..cols {
            gram[(i, i)] += lambda;
        }
    }

    let beta = match cholesky_solve(&gram, &xty) {
        Ok(b) => b,
        Err(_) => {
            // Tiny automatic ridge keyed to the trace scale.
            let trace: f64 = (0..cols).map(|i| gram[(i, i)]).sum();
            let eps = 1e-10 * (trace / cols as f64).max(1e-30);
            let mut damped = gram.clone();
            for i in 0..cols {
                damped[(i, i)] += eps;
            }
            cholesky_solve(&damped, &xty).map_err(FitError::Numerical)?
        }
    };

    // Training diagnostics.
    let y_mean = y.iter().sum::<f64>() / rows as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (i, &yi) in y.iter().enumerate().take(rows) {
        let pred: f64 = x.row(i).iter().zip(&beta).map(|(a, b)| a * b).sum();
        ss_res += (yi - pred).powi(2);
        ss_tot += (yi - y_mean).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Ok(LinearFit {
        coefficients: beta,
        r_squared,
        rmse: (ss_res / rows as f64).sqrt(),
    })
}

/// Builds the bivariate cubic-with-cross-term feature row used by the paper's
/// eq. (3): `[1, Δs, Δc, Δs², Δc², Δs³, Δc³, Δs·Δc]`.
pub fn cubic_cross_features(ds: f64, dc: f64) -> [f64; 8] {
    [
        1.0,
        ds,
        dc,
        ds * ds,
        dc * dc,
        ds * ds * ds,
        dc * dc * dc,
        ds * dc,
    ]
}

/// Builds the bilinear-with-cross-term feature row used by the paper's
/// eq. (2): `[1, Δs, Δc, Δs·Δc]`.
pub fn bilinear_cross_features(ds: f64, dc: f64) -> [f64; 4] {
    [1.0, ds, dc, ds * dc]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_line() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = [5.0, 7.0, 9.0, 11.0]; // 5 + 2x
        let fit = ols(&x, &y).unwrap();
        assert!((fit.coefficients[0] - 5.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
        assert!(fit.rmse < 1e-9);
    }

    #[test]
    fn ols_underdetermined_errors() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert!(matches!(
            ols(&x, &[1.0]),
            Err(FitError::Underdetermined { rows: 1, cols: 3 })
        ));
    }

    #[test]
    fn collinear_columns_survive_via_auto_ridge() {
        // Second and third columns identical -> singular Gram.
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0, 1.0],
            vec![1.0, 2.0, 2.0],
            vec![1.0, 3.0, 3.0],
            vec![1.0, 4.0, 4.0],
        ]);
        let y = [3.0, 5.0, 7.0, 9.0];
        let fit = ols(&x, &y).unwrap();
        // Split between the twin columns is arbitrary; predictions must hold.
        let pred = fit.predict(&[1.0, 2.5, 2.5]);
        assert!((pred - 6.0).abs() < 1e-4);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = [5.0, 7.0, 9.0, 11.0];
        let hard = ridge(&x, &y, 100.0).unwrap();
        let soft = ridge(&x, &y, 0.0).unwrap();
        assert!(hard.coefficients[1].abs() < soft.coefficients[1].abs());
    }

    #[test]
    fn polyfit_quadratic() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 - x + 0.5 * x * x).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x, x * x]).collect();
        let fit = ols(&Matrix::from_rows(&rows), &ys).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-8);
        assert!((fit.coefficients[1] + 1.0).abs() < 1e-8);
        assert!((fit.coefficients[2] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn feature_builders_have_documented_shapes() {
        assert_eq!(bilinear_cross_features(2.0, 3.0), [1.0, 2.0, 3.0, 6.0]);
        let c = cubic_cross_features(2.0, 3.0);
        assert_eq!(c, [1.0, 2.0, 3.0, 4.0, 9.0, 8.0, 27.0, 6.0]);
    }
}
