//! Performance prediction via Delaunay interpolation (§3.1 of the paper).
//!
//! A domain is a point in the 2-D feature plane *(aspect ratio, total
//! points)*. The execution times of a small basis set (13 domains in the
//! paper) are measured once; the convex hull of the basis points is
//! Delaunay-triangulated, and the time of any other domain is interpolated
//! barycentrically inside the triangle containing its feature point
//! (Eqs. (1)–(4)). Queries outside the hull are scaled down into the region
//! of coverage, predicting *relative* times, which is all the processor
//! allocator needs.
//!
//! The naïve baseline — time proportional to point count — is also provided;
//! the paper reports > 19 % error for it versus < 6 % for the interpolator.
//!
//! Everything here is built from scratch: orientation/in-circumcircle
//! predicates, Andrew's monotone-chain convex hull, Bowyer–Watson
//! triangulation and the barycentric solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barycentric;
pub mod basis;
mod delaunay;
pub mod geometry;
mod interpolator;
pub mod naive;
pub mod validate;

pub use basis::{generate_candidates, select_basis_covering, BasisDomain};
pub use delaunay::Delaunay;
pub use geometry::{convex_hull, Point};
pub use interpolator::{ExecTimePredictor, PredictError};
pub use naive::NaivePointsModel;
pub use validate::{compare_models, leave_one_out};
