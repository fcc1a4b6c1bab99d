//! Cross-validation of the execution-time predictor.
//!
//! The paper validates its model against held-out test domains (§3.1). This
//! module provides leave-one-out and k-fold cross-validation over a
//! measured basis, so a deployment can estimate the model's error — and
//! detect an inadequate basis — *without extra profiling runs*.

use crate::interpolator::ExecTimePredictor;
use crate::naive::NaivePointsModel;
use nestwx_grid::DomainFeatures;
use serde::{Deserialize, Serialize};

/// Summary of a cross-validation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvReport {
    /// Relative error of each evaluated held-out point (absolute value).
    pub errors: Vec<f64>,
    /// Held-out points that could not be predicted (outside the reduced
    /// hull, degenerate fold, …).
    pub(crate) skipped: usize,
}

impl CvReport {
    /// Mean relative error.
    pub fn mean_error(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }
}

/// Leave-one-out cross-validation: refit on `n − 1` basis points, predict
/// the held-out one. Hull-corner points (whose removal shrinks the hull so
/// the query falls outside) are predicted through the out-of-hull fallback,
/// like any production query.
pub fn leave_one_out(basis: &[(DomainFeatures, f64)]) -> CvReport {
    k_fold(basis, basis.len())
}

/// k-fold cross-validation (deterministic round-robin fold assignment).
pub(crate) fn k_fold(basis: &[(DomainFeatures, f64)], k: usize) -> CvReport {
    assert!(k >= 2 && k <= basis.len(), "need 2 ≤ k ≤ n folds");
    let mut errors = Vec::new();
    let mut skipped = 0;
    for fold in 0..k {
        let train: Vec<(DomainFeatures, f64)> = basis
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k != fold)
            .map(|(_, b)| *b)
            .collect();
        let Ok(model) = ExecTimePredictor::fit(&train) else {
            skipped += basis.len().div_ceil(k);
            continue;
        };
        for (i, (f, truth)) in basis.iter().enumerate() {
            if i % k != fold {
                continue;
            }
            match model.predict(f) {
                Ok(pred) if *truth > 0.0 => errors.push((pred - truth).abs() / truth),
                _ => skipped += 1,
            }
        }
    }
    CvReport { errors, skipped }
}

/// Cross-validated comparison of the interpolation model against the naïve
/// points-proportional baseline on the same folds: returns
/// `(interpolation, naive)` reports.
pub fn compare_models(basis: &[(DomainFeatures, f64)], k: usize) -> (CvReport, CvReport) {
    let interp = k_fold(basis, k);
    let mut errors = Vec::new();
    for fold in 0..k {
        let train: Vec<(DomainFeatures, f64)> = basis
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k != fold)
            .map(|(_, b)| *b)
            .collect();
        let model = NaivePointsModel::fit(&train);
        for (i, (f, truth)) in basis.iter().enumerate() {
            if i % k == fold && *truth > 0.0 {
                errors.push((model.predict(f) - truth).abs() / truth);
            }
        }
    }
    (interp, CvReport { errors, skipped: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic surface with an aspect term (like the simulator's).
    fn basis() -> Vec<(DomainFeatures, f64)> {
        let dims: [(u32, u32); 13] = [
            (94, 124),
            (415, 445),
            (100, 200),
            (300, 200),
            (200, 300),
            (250, 250),
            (150, 300),
            (375, 250),
            (160, 140),
            (360, 390),
            (120, 240),
            (420, 280),
            (240, 160),
        ];
        dims.iter()
            .map(|&(nx, ny)| {
                let f = DomainFeatures::from_dims(nx, ny);
                (f, 1e-6 * f.points + 4e-4 * (nx + ny) as f64)
            })
            .collect()
    }

    #[test]
    fn loo_error_is_small_on_smooth_surface() {
        let r = leave_one_out(&basis());
        assert!(!r.errors.is_empty());
        assert!(
            r.mean_error() < 0.10,
            "LOO mean error {:.3}",
            r.mean_error()
        );
    }

    #[test]
    fn k_fold_runs_and_bounds() {
        let r = k_fold(&basis(), 4);
        assert!(r.errors.len() + r.skipped >= 12);
        assert!(r.errors.iter().all(|&e| e < 0.5));
    }

    #[test]
    fn interpolation_beats_naive_in_cv() {
        let (interp, naive) = compare_models(&basis(), 4);
        assert!(
            interp.mean_error() < naive.mean_error(),
            "interp {:.3} !< naive {:.3}",
            interp.mean_error(),
            naive.mean_error()
        );
    }

    #[test]
    #[should_panic]
    fn rejects_k_of_one() {
        k_fold(&basis(), 1);
    }
}
