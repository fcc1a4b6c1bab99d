//! The 2-D feature space of the performance predictor.
//!
//! §3.1 of the paper: a domain of width `nx` and height `ny` is represented
//! by the point `(aspect ratio, total points)` in the plane. Using both
//! features (rather than points alone) lets the model distinguish the x- and
//! y-communication volumes of two domains with equal area.

use crate::domain::{Domain, NestSpec};
use serde::{Deserialize, Serialize};

/// A domain's position in the predictor's feature plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainFeatures {
    /// `nx / ny`.
    pub aspect_ratio: f64,
    /// `nx * ny`.
    pub points: f64,
}

impl DomainFeatures {
    /// Features from raw dimensions.
    pub fn from_dims(nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "features of an empty domain");
        DomainFeatures {
            aspect_ratio: nx as f64 / ny as f64,
            points: nx as f64 * ny as f64,
        }
    }

    /// Recovers `(nx, ny)` (real-valued) from the features. Inverse of
    /// [`DomainFeatures::from_dims`] up to rounding: `nx = sqrt(a·p)`,
    /// `ny = sqrt(p/a)`.
    pub fn dims(&self) -> (f64, f64) {
        (
            (self.aspect_ratio * self.points).sqrt(),
            (self.points / self.aspect_ratio).sqrt(),
        )
    }
}

impl From<&Domain> for DomainFeatures {
    fn from(d: &Domain) -> Self {
        DomainFeatures::from_dims(d.nx, d.ny)
    }
}

impl From<&NestSpec> for DomainFeatures {
    fn from(n: &NestSpec) -> Self {
        DomainFeatures::from_dims(n.nx, n.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_of_paper_ranges() {
        // Paper: domain sizes 94×124 .. 415×445, aspect ratio 0.5–1.5.
        let f = DomainFeatures::from_dims(94, 124);
        assert!((f.points - 11656.0).abs() < 1e-9);
        assert!(f.aspect_ratio > 0.5 && f.aspect_ratio < 1.5);
    }

    #[test]
    fn equal_area_different_aspect_are_distinct() {
        // The whole motivation for the second feature (§3.1): nx1·ny1 ==
        // nx2·ny2 must not collapse to the same feature point.
        let a = DomainFeatures::from_dims(200, 300);
        let b = DomainFeatures::from_dims(300, 200);
        assert_eq!(a.points, b.points);
        assert_ne!(a.aspect_ratio, b.aspect_ratio);
    }

    #[test]
    fn dims_roundtrip() {
        let f = DomainFeatures::from_dims(286, 307);
        let (nx, ny) = f.dims();
        assert!((nx - 286.0).abs() < 1e-9);
        assert!((ny - 307.0).abs() < 1e-9);
    }
}
