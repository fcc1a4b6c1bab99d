//! Planar geometric primitives: points, orientation and in-circumcircle
//! predicates, convex hull.
//!
//! The feature plane mixes very different scales (aspect ratio ∈ [0.5, 1.5],
//! points ∈ [10⁴, 10⁶]); the interpolator normalises coordinates before
//! triangulating, so the predicates here can use plain `f64` arithmetic with
//! a relative epsilon rather than exact arithmetic.

use serde::{Deserialize, Serialize};

/// A point in the (normalised) feature plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate (aspect ratio).
    pub x: f64,
    /// Vertical coordinate (total points).
    pub y: f64,
}

impl Point {
    /// Convenience constructor.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance.
    pub fn dist(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Twice the signed area of triangle `abc`: positive when counter-clockwise.
pub fn orient2d(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// `true` when `d` lies strictly inside the circumcircle of the
/// counter-clockwise triangle `abc` — the Delaunay empty-circle predicate.
pub(crate) fn in_circumcircle(a: Point, b: Point, c: Point, d: Point) -> bool {
    debug_assert!(
        orient2d(a, b, c) > 0.0,
        "in_circumcircle requires CCW triangle"
    );
    let (adx, ady) = (a.x - d.x, a.y - d.y);
    let (bdx, bdy) = (b.x - d.x, b.y - d.y);
    let (cdx, cdy) = (c.x - d.x, c.y - d.y);
    let ad = adx * adx + ady * ady;
    let bd = bdx * bdx + bdy * bdy;
    let cd = cdx * cdx + cdy * cdy;
    let (m1, m2) = (bdy * cd, bd * cdy);
    let (m3, m4) = (bdx * cd, bd * cdx);
    let (m5, m6) = (bdx * cdy, bdy * cdx);
    let det = adx * (m1 - m2) - ady * (m3 - m4) + ad * (m5 - m6);
    // Static floating-point filter: the rounding error of the expansion is
    // bounded by a small multiple of machine epsilon times the permanent
    // (the same expression with all terms taken positively).
    let perm = adx.abs() * (m1.abs() + m2.abs())
        + ady.abs() * (m3.abs() + m4.abs())
        + ad * (m5.abs() + m6.abs());
    det > 1e-13 * perm.max(f64::MIN_POSITIVE)
}

/// Circumcenter and squared circumradius of triangle `abc`.
/// Returns `None` for (near-)degenerate triangles.
pub(crate) fn circumcircle(a: Point, b: Point, c: Point) -> Option<(Point, f64)> {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    if d.abs() < 1e-12 {
        return None;
    }
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    let center = Point::new(ux, uy);
    let r2 = center.dist(&a).powi(2);
    Some((center, r2))
}

/// Andrew's monotone-chain convex hull. Returns hull vertices in
/// counter-clockwise order, without repeating the first point. Collinear
/// boundary points are dropped.
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point == first point
    hull
}

/// `true` if `p` is inside or on the boundary of the counter-clockwise
/// polygon `hull`.
pub fn point_in_hull(hull: &[Point], p: Point, eps: f64) -> bool {
    if hull.len() < 3 {
        return false;
    }
    for i in 0..hull.len() {
        let a = hull[i];
        let b = hull[(i + 1) % hull.len()];
        if orient2d(a, b, p) < -eps {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_signs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        assert!(orient2d(a, b, c) > 0.0); // CCW
        assert!(orient2d(a, c, b) < 0.0); // CW
        assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn circumcircle_of_right_triangle() {
        // Right triangle: circumcenter at hypotenuse midpoint.
        let (c, r2) = circumcircle(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
        )
        .unwrap();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
        assert!((r2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn circumcircle_degenerate() {
        assert!(circumcircle(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0)
        )
        .is_none());
    }

    #[test]
    fn in_circle_unit_square_corners() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        assert!(in_circumcircle(a, b, c, Point::new(0.5, 0.5)));
        assert!(!in_circumcircle(a, b, c, Point::new(2.0, 2.0)));
        // (1,1) lies exactly on the circumcircle: not strictly inside.
        assert!(!in_circumcircle(a, b, c, Point::new(1.0, 1.0)));
    }

    #[test]
    fn hull_of_square_with_interior() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
            Point::new(0.5, 0.5),
            Point::new(0.25, 0.75),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        // CCW orientation.
        for i in 0..4 {
            assert!(orient2d(hull[i], hull[(i + 1) % 4], hull[(i + 2) % 4]) > 0.0);
        }
    }

    #[test]
    fn hull_drops_collinear() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 1.0),
        ];
        assert_eq!(convex_hull(&pts).len(), 3);
    }

    #[test]
    fn point_in_hull_checks() {
        let hull = convex_hull(&[
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert!(point_in_hull(&hull, Point::new(1.0, 1.0), 1e-12));
        assert!(point_in_hull(&hull, Point::new(0.0, 0.0), 1e-12)); // vertex
        assert!(point_in_hull(&hull, Point::new(1.0, 0.0), 1e-12)); // edge
        assert!(!point_in_hull(&hull, Point::new(3.0, 1.0), 1e-12));
        assert!(!point_in_hull(&hull, Point::new(-0.1, 1.0), 1e-12));
    }
}
