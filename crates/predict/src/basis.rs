//! Basis-set generation and selection.
//!
//! §3.1: "we randomly generated a large number of points with domain size
//! ranging from 94×124 to 415×445 and the aspect ratio ranging from
//! 0.5–1.5. From this large set, we manually selected a subset of 13 points
//! that nicely cover the rectangular region … selected in a way that the
//! region formed by them could be triangulated well." We automate the
//! manual selection with a max–min-dispersion greedy sweep seeded by the
//! corners of the feature rectangle.

use crate::geometry::Point;
use nestwx_grid::DomainFeatures;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A candidate or selected basis domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasisDomain {
    /// Width in grid points.
    pub nx: u32,
    /// Height in grid points.
    pub ny: u32,
}

impl BasisDomain {
    /// Feature-plane coordinates.
    pub fn features(&self) -> DomainFeatures {
        DomainFeatures::from_dims(self.nx, self.ny)
    }
}

/// Randomly generates `n` candidate domains with point counts spanning
/// `[min_points, max_points]` and aspect ratios in `[0.5, 1.5]`, like the
/// paper's candidate pool.
pub fn generate_candidates<R: Rng>(
    rng: &mut R,
    n: usize,
    min_points: u64,
    max_points: u64,
) -> Vec<BasisDomain> {
    assert!(min_points >= 4 && max_points > min_points);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let points = rng.gen_range(min_points..=max_points) as f64;
        let aspect = rng.gen_range(0.5..=1.5);
        let nx = (points * aspect).sqrt().round().max(2.0) as u32;
        let ny = (points / aspect).sqrt().round().max(2.0) as u32;
        let d = BasisDomain { nx, ny };
        let f = d.features();
        if f.aspect_ratio >= 0.45 && f.aspect_ratio <= 1.55 {
            out.push(d);
        }
    }
    out
}

/// Synthesises a domain with the given aspect ratio and point count.
pub(crate) fn domain_with(aspect: f64, points: f64) -> BasisDomain {
    let nx = (points * aspect).sqrt().round().max(2.0) as u32;
    let ny = (points / aspect).sqrt().round().max(2.0) as u32;
    BasisDomain { nx, ny }
}

/// Like `select_basis` but first pins the four corners of the feature
/// rectangle `[aspect_lo, aspect_hi] × [points_lo, points_hi]` (slightly
/// widened), guaranteeing that every query in the stated ranges lies inside
/// the basis convex hull — the "nicely cover the rectangular region"
/// property the paper obtained by manual selection.
pub fn select_basis_covering(
    candidates: &[BasisDomain],
    k: usize,
    aspect: (f64, f64),
    points: (f64, f64),
) -> Vec<BasisDomain> {
    assert!(k >= 7, "need room for 4 corners plus interior points");
    let (alo, ahi) = (aspect.0 * 0.94, aspect.1 * 1.06);
    let (plo, phi) = (points.0 * 0.9, points.1 * 1.1);
    let mut out = vec![
        domain_with(alo, plo),
        domain_with(ahi, plo),
        domain_with(ahi, phi),
        domain_with(alo, phi),
        // Edge midpoints widen the hull along its long sides.
        domain_with(alo, 0.5 * (plo + phi)),
        domain_with(ahi, 0.5 * (plo + phi)),
    ];
    let rest = select_basis(candidates, k - out.len());
    out.extend(rest);
    out.truncate(k);
    out
}

/// Selects `k` basis domains from `candidates` that cover the feature
/// rectangle well: the four corner-most candidates first, then greedy
/// max–min dispersion in the normalised feature plane.
pub(crate) fn select_basis(candidates: &[BasisDomain], k: usize) -> Vec<BasisDomain> {
    assert!(k >= 3, "need at least 3 basis points to triangulate");
    assert!(candidates.len() >= k, "not enough candidates");
    let feats: Vec<DomainFeatures> = candidates.iter().map(BasisDomain::features).collect();
    let (x_min, x_max) = min_max(feats.iter().map(|f| f.aspect_ratio));
    let (y_min, y_max) = min_max(feats.iter().map(|f| f.points));
    let xr = (x_max - x_min).max(1e-9);
    let yr = (y_max - y_min).max(1e-9);
    let norm: Vec<Point> = feats
        .iter()
        .map(|f| Point::new((f.aspect_ratio - x_min) / xr, (f.points - y_min) / yr))
        .collect();

    let mut selected: Vec<usize> = Vec::with_capacity(k);
    // Seed with the candidates closest to the 4 corners of the unit square,
    // pushing the hull as wide as possible.
    for corner in [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ] {
        let best = (0..norm.len())
            .filter(|i| !selected.contains(i))
            .min_by(|&a, &b| norm[a].dist(&corner).total_cmp(&norm[b].dist(&corner)))
            .expect("candidates available");
        selected.push(best);
        if selected.len() == k {
            break;
        }
    }
    // Greedy max–min dispersion for the interior points.
    while selected.len() < k {
        let best = (0..norm.len())
            .filter(|i| !selected.contains(i))
            .max_by(|&a, &b| {
                let da = selected
                    .iter()
                    .map(|&s| norm[a].dist(&norm[s]))
                    .fold(f64::INFINITY, f64::min);
                let db = selected
                    .iter()
                    .map(|&s| norm[b].dist(&norm[s]))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("candidates available");
        selected.push(best);
    }
    selected.into_iter().map(|i| candidates[i]).collect()
}

fn min_max(v: impl Iterator<Item = f64>) -> (f64, f64) {
    v.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpolator::ExecTimePredictor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn candidates_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        let cands = generate_candidates(&mut rng, 200, 94 * 124, 415 * 445);
        assert_eq!(cands.len(), 200);
        for c in &cands {
            let f = c.features();
            assert!(f.aspect_ratio >= 0.45 && f.aspect_ratio <= 1.55);
            assert!(f.points >= 0.8 * (94.0 * 124.0) && f.points <= 1.2 * (415.0 * 445.0));
        }
    }

    #[test]
    fn selection_is_deterministic_and_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let cands = generate_candidates(&mut rng, 500, 94 * 124, 415 * 445);
        let a = select_basis(&cands, 13);
        let b = select_basis(&cands, 13);
        assert_eq!(a, b);
        let unique: std::collections::HashSet<_> = a.iter().map(|d| (d.nx, d.ny)).collect();
        assert_eq!(unique.len(), 13);
    }

    #[test]
    fn selected_basis_triangulates() {
        // The automated selection must replicate the paper's "manual"
        // property: the region can be triangulated well.
        let mut rng = StdRng::seed_from_u64(42);
        let cands = generate_candidates(&mut rng, 500, 94 * 124, 415 * 445);
        let basis = select_basis(&cands, 13);
        let measured: Vec<(nestwx_grid::DomainFeatures, f64)> = basis
            .iter()
            .map(|d| (d.features(), 1e-6 * d.nx as f64 * d.ny as f64 + 1.0))
            .collect();
        assert!(ExecTimePredictor::fit(&measured).is_ok());
    }

    #[test]
    fn selection_covers_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        let cands = generate_candidates(&mut rng, 500, 94 * 124, 415 * 445);
        let basis = select_basis(&cands, 13);
        let pts: Vec<f64> = basis.iter().map(|d| d.features().points).collect();
        let all: Vec<f64> = cands.iter().map(|d| d.features().points).collect();
        let (bmin, bmax) = min_max(pts.iter().copied());
        let (amin, amax) = min_max(all.iter().copied());
        // Selected basis spans at least 80 % of the candidate range.
        assert!((bmax - bmin) > 0.8 * (amax - amin));
    }
}
