//! Barycentric coordinates and linear interpolation inside a triangle —
//! Eqs. (1)–(4) of the paper.
//!
//! Note: the paper's Eq. (3) prints `λ3 = λ1 − λ2`, a typo for the standard
//! identity `λ3 = 1 − λ1 − λ2` (the barycentric coordinates of a point must
//! sum to one); we implement the correct identity.

use crate::geometry::Point;

/// Barycentric coordinates `(λ1, λ2, λ3)` of `p` with respect to triangle
/// `(a, b, c)`. Returns `None` for a degenerate triangle.
pub(crate) fn barycentric(a: Point, b: Point, c: Point, p: Point) -> Option<(f64, f64, f64)> {
    let det = (b.y - c.y) * (a.x - c.x) + (c.x - b.x) * (a.y - c.y);
    if det.abs() < 1e-300 {
        return None;
    }
    // Eq. (1) and Eq. (2).
    let l1 = ((b.y - c.y) * (p.x - c.x) + (c.x - b.x) * (p.y - c.y)) / det;
    let l2 = ((c.y - a.y) * (p.x - c.x) + (a.x - c.x) * (p.y - c.y)) / det;
    // Eq. (3), corrected: coordinates sum to 1.
    let l3 = 1.0 - l1 - l2;
    Some((l1, l2, l3))
}

/// Eq. (4): interpolates the value at `p` from the vertex values
/// `(ta, tb, tc)` of triangle `(a, b, c)`.
pub(crate) fn interpolate(
    a: Point,
    b: Point,
    c: Point,
    p: Point,
    ta: f64,
    tb: f64,
    tc: f64,
) -> Option<f64> {
    let (l1, l2, l3) = barycentric(a, b, c, p)?;
    Some(l1 * ta + l2 * tb + l3 * tc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point = Point::new(0.0, 0.0);
    const B: Point = Point::new(1.0, 0.0);
    const C: Point = Point::new(0.0, 1.0);

    #[test]
    fn vertices_have_unit_coordinates() {
        assert_eq!(barycentric(A, B, C, A).unwrap(), (1.0, 0.0, 0.0));
        assert_eq!(barycentric(A, B, C, B).unwrap(), (0.0, 1.0, 0.0));
        let (l1, l2, l3) = barycentric(A, B, C, C).unwrap();
        assert!((l1, l2, l3) == (0.0, 0.0, 1.0) || (l3 - 1.0).abs() < 1e-15);
    }

    #[test]
    fn centroid_is_one_third_each() {
        let p = Point::new(1.0 / 3.0, 1.0 / 3.0);
        let (l1, l2, l3) = barycentric(A, B, C, p).unwrap();
        assert!((l1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((l2 - 1.0 / 3.0).abs() < 1e-12);
        assert!((l3 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coordinates_sum_to_one_everywhere() {
        for &p in &[
            Point::new(0.2, 0.3),
            Point::new(-1.0, 2.0), // outside: still sums to 1
            Point::new(5.0, -3.0),
        ] {
            let (l1, l2, l3) = barycentric(A, B, C, p).unwrap();
            assert!((l1 + l2 + l3 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_reproduces_linear_functions() {
        // f(x, y) = 3x + 2y + 1 must be reproduced exactly.
        let f = |p: Point| 3.0 * p.x + 2.0 * p.y + 1.0;
        let p = Point::new(0.31, 0.17);
        let t = interpolate(A, B, C, p, f(A), f(B), f(C)).unwrap();
        assert!((t - f(p)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_triangle_rejected() {
        assert!(barycentric(A, B, Point::new(2.0, 0.0), Point::new(0.5, 0.5)).is_none());
    }

    #[test]
    fn outside_point_has_negative_coordinate() {
        let (l1, l2, l3) = barycentric(A, B, C, Point::new(1.0, 1.0)).unwrap();
        assert!(l1 < 0.0 || l2 < 0.0 || l3 < 0.0);
    }
}
