//! Parent domains and nested regions of interest.
//!
//! Mirrors WRF's nesting vocabulary (§1, §4.1 of the paper): a coarse
//! *parent* domain may contain several *nests* (children). Nests sharing a
//! parent are *siblings*. Each nest runs at a resolution `parent_dx / r`
//! where `r` is the refinement ratio, and is integrated `r` times per parent
//! step.

use crate::rect::Rect;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors arising when assembling a nested configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// A nest (converted to parent coordinates) sticks out of its parent.
    NestOutsideParent {
        /// Index of the offending nest (0-based among siblings).
        nest: usize,
    },
    /// Refinement ratio must be at least 1.
    BadRefinement {
        /// Index of the offending nest.
        nest: usize,
        /// The offending ratio.
        ratio: u32,
    },
    /// A second-level nest referenced an invalid parent (must be an
    /// earlier, first-level nest).
    BadNestParent {
        /// Index of the offending nest.
        nest: usize,
        /// The referenced parent index.
        parent: usize,
    },
    /// A domain dimension was zero.
    EmptyDomain,
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::NestOutsideParent { nest } => {
                write!(f, "nest {nest} does not fit inside its parent domain")
            }
            DomainError::BadRefinement { nest, ratio } => {
                write!(f, "nest {nest} has invalid refinement ratio {ratio}")
            }
            DomainError::BadNestParent { nest, parent } => {
                write!(f, "nest {nest} references invalid parent nest {parent}")
            }
            DomainError::EmptyDomain => write!(f, "domain has a zero dimension"),
        }
    }
}

impl std::error::Error for DomainError {}

/// A simulation domain: a grid of `nx × ny` points at horizontal resolution
/// `dx_km`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    /// Points in the x (west–east) direction.
    pub nx: u32,
    /// Points in the y (south–north) direction.
    pub ny: u32,
    /// Horizontal grid spacing in kilometres.
    pub dx_km: f64,
}

impl Domain {
    /// Creates a parent domain. The paper's Pacific parent is
    /// `Domain::parent(286, 307, 24.0)`.
    pub fn parent(nx: u32, ny: u32, dx_km: f64) -> Self {
        Domain { nx, ny, dx_km }
    }

    /// Total number of grid points, the predictor's first feature.
    pub fn points(&self) -> u64 {
        self.nx as u64 * self.ny as u64
    }

    /// Aspect ratio `nx / ny`, the predictor's second feature.
    pub fn aspect_ratio(&self) -> f64 {
        self.nx as f64 / self.ny as f64
    }

    /// The domain as a rectangle anchored at the origin.
    pub fn rect(&self) -> Rect {
        Rect::of_size(self.nx, self.ny)
    }
}

/// Specification of one nested region of interest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestSpec {
    /// Points in x at the *nest's* resolution.
    pub nx: u32,
    /// Points in y at the nest's resolution.
    pub ny: u32,
    /// Refinement ratio `r`: the nest is stepped `r` times per parent step
    /// and its resolution is `parent.dx_km / r`.
    pub refine_ratio: u32,
    /// Position of the nest's lower-left corner in *parent* grid coordinates
    /// (the main domain for level-1 nests, the enclosing nest's grid for
    /// level-2 nests).
    pub offset: (u32, u32),
    /// `None` for a first-level nest (child of the main domain); `Some(i)`
    /// for a second-level nest inside `nests[i]` — §4.1.1's
    /// "sibling domains at the second level".
    #[serde(default)]
    pub parent_nest: Option<usize>,
}

impl NestSpec {
    /// Creates a first-level nest spec. `offset` is in parent grid
    /// coordinates.
    pub fn new(nx: u32, ny: u32, refine_ratio: u32, offset: (u32, u32)) -> Self {
        NestSpec {
            nx,
            ny,
            refine_ratio,
            offset,
            parent_nest: None,
        }
    }

    /// Creates a second-level nest inside nest `parent_idx` (offset in that
    /// nest's grid coordinates; `refine_ratio` is relative to that nest).
    pub fn child_of(
        parent_idx: usize,
        nx: u32,
        ny: u32,
        refine_ratio: u32,
        offset: (u32, u32),
    ) -> Self {
        NestSpec {
            nx,
            ny,
            refine_ratio,
            offset,
            parent_nest: Some(parent_idx),
        }
    }

    /// Number of nest grid points.
    pub fn points(&self) -> u64 {
        self.nx as u64 * self.ny as u64
    }

    /// Footprint of the nest in parent grid coordinates (rounded up to whole
    /// parent cells).
    pub fn footprint_in_parent(&self) -> Rect {
        let w = self.nx.div_ceil(self.refine_ratio);
        let h = self.ny.div_ceil(self.refine_ratio);
        Rect::new(self.offset.0, self.offset.1, w, h)
    }
}

/// A validated parent-with-siblings configuration — the unit of work the
/// whole paper is about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestedConfig {
    /// The coarse parent domain.
    pub parent: Domain,
    /// The sibling nests (all at nesting level 1).
    pub nests: Vec<NestSpec>,
}

impl NestedConfig {
    /// Validates and builds a configuration.
    ///
    /// Checks that every nest has `r ≥ 1` and that its footprint (in its
    /// parent's coordinates) lies inside that parent — the main domain for
    /// first-level nests, the referenced nest for second-level nests (whose
    /// `parent_nest` must point at an *earlier, first-level* nest). Note
    /// that WRF allows sibling *overlap* in general but the paper's
    /// configurations are disjoint regions of interest; overlap is
    /// therefore allowed here and only containment is enforced.
    pub fn new(parent: Domain, nests: Vec<NestSpec>) -> Result<Self, DomainError> {
        if parent.nx == 0 || parent.ny == 0 {
            return Err(DomainError::EmptyDomain);
        }
        for (i, n) in nests.iter().enumerate() {
            if n.nx == 0 || n.ny == 0 {
                return Err(DomainError::EmptyDomain);
            }
            if n.refine_ratio == 0 {
                return Err(DomainError::BadRefinement {
                    nest: i,
                    ratio: n.refine_ratio,
                });
            }
            match n.parent_nest {
                None => {
                    if !parent.rect().contains_rect(&n.footprint_in_parent()) {
                        return Err(DomainError::NestOutsideParent { nest: i });
                    }
                }
                Some(p) => {
                    // Two levels of nesting, defined parent-before-child.
                    if p >= i || nests[p].parent_nest.is_some() {
                        return Err(DomainError::BadNestParent { nest: i, parent: p });
                    }
                    let host = Rect::of_size(nests[p].nx, nests[p].ny);
                    if !host.contains_rect(&n.footprint_in_parent()) {
                        return Err(DomainError::NestOutsideParent { nest: i });
                    }
                }
            }
        }
        Ok(NestedConfig { parent, nests })
    }

    /// Indices of the first-level nests, in order.
    pub fn level1(&self) -> Vec<usize> {
        (0..self.nests.len())
            .filter(|&i| self.nests[i].parent_nest.is_none())
            .collect()
    }

    /// Indices of the second-level nests inside nest `i`, in order.
    pub fn children_of(&self, i: usize) -> Vec<usize> {
        (0..self.nests.len())
            .filter(|&j| self.nests[j].parent_nest == Some(i))
            .collect()
    }

    /// `true` if any nest is at the second level.
    pub fn has_second_level(&self) -> bool {
        self.nests.iter().any(|n| n.parent_nest.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacific_parent() -> Domain {
        Domain::parent(286, 307, 24.0)
    }

    #[test]
    fn points_and_aspect() {
        let d = pacific_parent();
        assert_eq!(d.points(), 286 * 307);
        assert!((d.aspect_ratio() - 286.0 / 307.0).abs() < 1e-12);
    }

    #[test]
    fn nest_footprint_rounds_up() {
        let n = NestSpec::new(415, 445, 3, (10, 10));
        let fp = n.footprint_in_parent();
        assert_eq!(fp.w, 139); // ceil(415/3)
        assert_eq!(fp.h, 149); // ceil(445/3)
        assert_eq!((fp.x0, fp.y0), (10, 10));
    }

    #[test]
    fn config_accepts_paper_setup() {
        // Fig. 2's configuration: 286×307 parent, 415×445 nest at r = 3.
        let cfg = NestedConfig::new(pacific_parent(), vec![NestSpec::new(415, 445, 3, (50, 60))])
            .unwrap();
        assert_eq!(cfg.nests.len(), 1);
    }

    #[test]
    fn config_rejects_out_of_bounds_nest() {
        let err = NestedConfig::new(
            pacific_parent(),
            vec![NestSpec::new(415, 445, 3, (200, 200))],
        )
        .unwrap_err();
        assert_eq!(err, DomainError::NestOutsideParent { nest: 0 });
    }

    #[test]
    fn config_rejects_zero_refinement() {
        let err = NestedConfig::new(pacific_parent(), vec![NestSpec::new(50, 50, 0, (0, 0))])
            .unwrap_err();
        assert!(matches!(
            err,
            DomainError::BadRefinement { nest: 0, ratio: 0 }
        ));
    }

    #[test]
    fn config_rejects_empty_domains() {
        assert_eq!(
            NestedConfig::new(Domain::parent(0, 10, 24.0), vec![]).unwrap_err(),
            DomainError::EmptyDomain
        );
        assert_eq!(
            NestedConfig::new(pacific_parent(), vec![NestSpec::new(0, 5, 3, (0, 0))]).unwrap_err(),
            DomainError::EmptyDomain
        );
    }
}
