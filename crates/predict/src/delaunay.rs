//! Bowyer–Watson Delaunay triangulation.
//!
//! The basis set is small (13 points in the paper), so the O(n²)
//! incremental construction with a super-triangle is both adequate and easy
//! to verify. The resulting triangulation satisfies the empty-circumcircle
//! property, which the property tests assert directly.

use crate::geometry::{circumcircle, in_circumcircle, orient2d, Point};
use serde::{Deserialize, Serialize};

/// A triangle as indices into the triangulation's point list, stored in
/// counter-clockwise order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Triangle {
    /// Vertex indices (CCW).
    pub v: [usize; 3],
}

/// A Delaunay triangulation of a planar point set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Delaunay {
    points: Vec<Point>,
    triangles: Vec<Triangle>,
}

impl Delaunay {
    /// Triangulates `points` (at least 3, not all collinear).
    ///
    /// Duplicate points are rejected with `None`, as is a fully collinear
    /// input. Near-degenerate inputs (slivers, cocircular clusters) can
    /// defeat floating-point predicates; when the built triangulation fails
    /// to cover the convex hull, the input is retried with a tiny
    /// deterministic perturbation (well below any meaningful feature
    /// distance), up to three times.
    pub fn new(points: &[Point]) -> Option<Delaunay> {
        let hull = crate::geometry::convex_hull(points);
        if hull.len() < 3 {
            return None;
        }
        let hull_area: f64 = (1..hull.len() - 1)
            .map(|i| orient2d(hull[0], hull[i], hull[i + 1]) / 2.0)
            .sum();
        let scale = points
            .iter()
            .flat_map(|p| [p.x.abs(), p.y.abs()])
            .fold(0.0f64, f64::max)
            .max(1e-12);
        for attempt in 0..5u32 {
            let magnitude = match attempt {
                0 => 0.0,
                1 => 1e-7,
                2 => 1e-6,
                3 => 1e-5,
                _ => 1e-4,
            };
            let jittered: Vec<Point> = if attempt == 0 {
                points.to_vec()
            } else {
                points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let j = |k: u64| {
                            let mut z = (i as u64 + 1)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(k)
                                .wrapping_mul(attempt as u64 + 1);
                            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                        };
                        Point::new(
                            p.x + scale * magnitude * j(1),
                            p.y + scale * magnitude * j(2),
                        )
                    })
                    .collect()
            };
            if let Some(d) = Delaunay::build_once(&jittered) {
                // Recompute against the *jittered* hull (jitter can shift
                // the hull area slightly).
                let jhull = crate::geometry::convex_hull(&jittered);
                let jarea: f64 = (1..jhull.len().saturating_sub(1))
                    .map(|i| orient2d(jhull[0], jhull[i], jhull[i + 1]) / 2.0)
                    .sum();
                let target = if attempt == 0 { hull_area } else { jarea };
                if (d.area() - target).abs() <= 1e-6 * target.max(1e-12) {
                    return Some(d);
                }
            }
        }
        // A triangulation that does not cover the hull would silently
        // mis-interpolate; report the input as degenerate instead.
        None
    }

    /// One Bowyer–Watson construction attempt.
    fn build_once(points: &[Point]) -> Option<Delaunay> {
        if points.len() < 3 {
            return None;
        }
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                if a.dist(b) < 1e-12 {
                    return None; // duplicate
                }
            }
        }

        // Super-triangle comfortably containing all points.
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // The super-triangle must be far enough away that its vertices'
        // circumcircles through input edges approximate half-planes;
        // otherwise points near a hull edge can eat that edge and leave a
        // notch after the super vertices are dropped.
        let d = (max_x - min_x).max(max_y - min_y).max(1.0) * 4096.0;
        let mid = Point::new((min_x + max_x) / 2.0, (min_y + max_y) / 2.0);
        let s0 = Point::new(mid.x - d, mid.y - d * 0.7);
        let s1 = Point::new(mid.x + d, mid.y - d * 0.7);
        let s2 = Point::new(mid.x, mid.y + d);

        let mut pts: Vec<Point> = points.to_vec();
        let n = pts.len();
        pts.push(s0);
        pts.push(s1);
        pts.push(s2);
        let mut tris: Vec<Triangle> = vec![Triangle {
            v: ccw(&pts, [n, n + 1, n + 2]),
        }];

        for (i, &p) in points.iter().enumerate() {
            // Find all triangles whose circumcircle contains p.
            // Strict in-circle only: a looser boundary band here can make
            // the cavity non-star-shaped around slivers and produce
            // overlapping triangles. Cocircular ambiguities are repaired by
            // the Lawson flip pass below instead.
            let (bad, good): (Vec<Triangle>, Vec<Triangle>) = tris
                .iter()
                .partition(|t| in_circumcircle(pts[t.v[0]], pts[t.v[1]], pts[t.v[2]], p));
            if bad.is_empty() {
                // Numerically stuck (shouldn't happen inside the super
                // triangle) — treat as failure.
                return None;
            }
            tris = good;
            // Boundary of the cavity: edges appearing exactly once.
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for t in &bad {
                for k in 0..3 {
                    let e = (t.v[k], t.v[(k + 1) % 3]);
                    // An edge shared with another bad triangle appears
                    // reversed there.
                    if let Some(pos) = edges.iter().position(|&(a, b)| (a, b) == (e.1, e.0)) {
                        edges.remove(pos);
                    } else {
                        edges.push(e);
                    }
                }
            }
            for (a, b) in edges {
                // Scale-relative degeneracy guard: skip triangles whose
                // area is vanishing relative to the edge length.
                let len2 = pts[a].dist(&pts[b]).powi(2);
                if orient2d(pts[a], pts[b], p).abs() > 1e-12 * len2.max(f64::MIN_POSITIVE) {
                    tris.push(Triangle {
                        v: ccw(&pts, [a, b, i]),
                    });
                }
            }
        }

        // Drop triangles touching the super-triangle.
        tris.retain(|t| t.v.iter().all(|&v| v < n));
        pts.truncate(n);
        if tris.is_empty() {
            return None; // all input collinear
        }
        // Lawson flip post-pass: repair any locally non-Delaunay edges the
        // incremental cavities missed on near-degenerate input.
        lawson_flips(&pts, &mut tris);
        Some(Delaunay {
            points: pts,
            triangles: tris,
        })
    }

    /// The triangulated points.
    pub(crate) fn points(&self) -> &[Point] {
        &self.points
    }

    /// The triangles.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Finds a triangle containing `p` (boundary inclusive), returning its
    /// index. Linear scan — the basis set is tiny.
    pub(crate) fn locate(&self, p: Point) -> Option<usize> {
        let eps = 1e-9;
        self.triangles.iter().position(|t| {
            let [a, b, c] = [
                self.points[t.v[0]],
                self.points[t.v[1]],
                self.points[t.v[2]],
            ];
            orient2d(a, b, p) >= -eps && orient2d(b, c, p) >= -eps && orient2d(c, a, p) >= -eps
        })
    }

    /// Verifies the empty-circumcircle property over all triangles — the
    /// defining Delaunay invariant (used by tests). Points within the
    /// construction's epsilon band of a circumcircle boundary are treated
    /// as on the boundary (floating-point input admits only
    /// Delaunay-up-to-epsilon).
    pub fn is_delaunay(&self) -> bool {
        for t in &self.triangles {
            let [a, b, c] = [
                self.points[t.v[0]],
                self.points[t.v[1]],
                self.points[t.v[2]],
            ];
            for (i, &p) in self.points.iter().enumerate() {
                if t.v.contains(&i) {
                    continue;
                }
                if in_circumcircle(a, b, c, p) && !on_triangle_boundary_circ(&self.points, t, p) {
                    return false;
                }
            }
        }
        true
    }

    /// Total area of the triangulation (should equal the convex hull area).
    pub fn area(&self) -> f64 {
        self.triangles
            .iter()
            .map(|t| {
                orient2d(
                    self.points[t.v[0]],
                    self.points[t.v[1]],
                    self.points[t.v[2]],
                ) / 2.0
            })
            .sum()
    }
}

/// Lawson edge-flipping until every interior edge is locally Delaunay.
/// O(T²) per pass — fine for the small basis sets this crate triangulates.
fn lawson_flips(pts: &[Point], tris: &mut [Triangle]) {
    let max_passes = 4 * tris.len() * tris.len() + 16;
    for _ in 0..max_passes {
        let mut flipped = false;
        'outer: for i in 0..tris.len() {
            for j in (i + 1)..tris.len() {
                if let Some((a, b, c, d)) = shared_edge(&tris[i], &tris[j]) {
                    // t_i = (a, b, c) CCW, t_j contains edge (b, a) with
                    // opposite vertex d. Flip if d is strictly inside the
                    // circumcircle of (a, b, c) and the quad a-d-b-c is
                    // convex.
                    let (pa, pb, pc, pd) = (pts[a], pts[b], pts[c], pts[d]);
                    // Convex quad ⇔ a and b lie strictly on opposite sides
                    // of the prospective new edge c–d.
                    let sa = orient2d(pc, pd, pa);
                    let sb = orient2d(pc, pd, pb);
                    if in_circumcircle(pa, pb, pc, pd) && sa * sb < 0.0 {
                        tris[i] = Triangle {
                            v: ccw(pts, [a, d, c]),
                        };
                        tris[j] = Triangle {
                            v: ccw(pts, [d, b, c]),
                        };
                        flipped = true;
                        break 'outer;
                    }
                }
            }
        }
        if !flipped {
            break;
        }
    }
}

/// If `t1` and `t2` share exactly one edge, returns `(a, b, c, d)` where
/// `(a, b)` is the shared edge oriented so that `t1 = (a, b, c)` is CCW and
/// `d` is `t2`'s opposite vertex.
fn shared_edge(t1: &Triangle, t2: &Triangle) -> Option<(usize, usize, usize, usize)> {
    for k in 0..3 {
        let a = t1.v[k];
        let b = t1.v[(k + 1) % 3];
        let c = t1.v[(k + 2) % 3];
        if t2.v.contains(&a) && t2.v.contains(&b) {
            let d = *t2.v.iter().find(|v| **v != a && **v != b)?;
            return Some((a, b, c, d));
        }
    }
    None
}

/// Ensures CCW ordering of a vertex triple.
fn ccw(pts: &[Point], v: [usize; 3]) -> [usize; 3] {
    if orient2d(pts[v[0]], pts[v[1]], pts[v[2]]) < 0.0 {
        [v[0], v[2], v[1]]
    } else {
        v
    }
}

/// Conservative companion to the strict in-circle test: `true` when `p` is
/// within epsilon of triangle `t`'s circumcircle boundary, so cavity
/// formation does not leave slivers for cocircular inputs.
fn on_triangle_boundary_circ(pts: &[Point], t: &Triangle, p: Point) -> bool {
    match circumcircle(pts[t.v[0]], pts[t.v[1]], pts[t.v[2]]) {
        Some((c, r2)) => {
            let d2 = c.dist(&p).powi(2);
            (d2 - r2).abs() < 1e-9 * r2.max(1.0)
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::convex_hull;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn triangulates_square_into_two() {
        let d = Delaunay::new(&square()).unwrap();
        assert_eq!(d.triangles().len(), 2);
        assert!(d.is_delaunay());
        assert!((d.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(Delaunay::new(&[Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_none());
        assert!(Delaunay::new(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0)
        ])
        .is_none());
        assert!(Delaunay::new(&[
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0)
        ])
        .is_none());
    }

    #[test]
    fn locate_inside_and_outside() {
        let d = Delaunay::new(&square()).unwrap();
        assert!(d.locate(Point::new(0.25, 0.25)).is_some());
        assert!(d.locate(Point::new(0.5, 0.5)).is_some()); // on diagonal
        assert!(d.locate(Point::new(2.0, 2.0)).is_none());
    }

    #[test]
    fn thirteen_point_basis_like_paper() {
        // A 13-point spread like the paper's basis (Fig. 3a): corners plus
        // interior points of the (aspect, points) rectangle, normalised.
        let pts = vec![
            Point::new(0.5, 0.0),
            Point::new(1.5, 0.0),
            Point::new(1.5, 1.0),
            Point::new(0.5, 1.0),
            Point::new(1.0, 0.5),
            Point::new(0.75, 0.25),
            Point::new(1.25, 0.25),
            Point::new(0.75, 0.75),
            Point::new(1.25, 0.75),
            Point::new(1.0, 0.1),
            Point::new(1.0, 0.9),
            Point::new(0.6, 0.5),
            Point::new(1.4, 0.5),
        ];
        let d = Delaunay::new(&pts).unwrap();
        assert!(d.is_delaunay());
        // Every interior point of the hull must be locatable.
        assert!(d.locate(Point::new(1.0, 0.4)).is_some());
        assert!(d.locate(Point::new(0.55, 0.05)).is_some());
        // Triangulation area == hull area.
        let hull = convex_hull(&pts);
        let hull_area: f64 = (1..hull.len() - 1)
            .map(|i| crate::geometry::orient2d(hull[0], hull[i], hull[i + 1]) / 2.0)
            .sum();
        assert!((d.area() - hull_area).abs() < 1e-9);
    }

    #[test]
    fn cocircular_points_handled() {
        // 4 cocircular points (unit circle) + center.
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 0.0),
            Point::new(0.0, -1.0),
            Point::new(0.0, 0.0),
        ];
        let d = Delaunay::new(&pts).unwrap();
        assert!(d.is_delaunay());
        assert!((d.area() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn euler_relation_holds() {
        // For a triangulation of a point set with h hull vertices and n
        // total: triangles = 2n - h - 2.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
            Point::new(0.0, 3.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(3.0, 1.2),
        ];
        let d = Delaunay::new(&pts).unwrap();
        let h = convex_hull(&pts).len();
        assert_eq!(d.triangles().len(), 2 * pts.len() - h - 2);
    }
}
