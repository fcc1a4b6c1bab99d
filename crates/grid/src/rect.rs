//! Axis-aligned integer rectangles.
//!
//! [`Rect`] is used in two roles throughout the workspace: as a region of a
//! simulation domain (grid points) and as a sub-grid of the virtual processor
//! grid (ranks). Both are discrete, so one type serves.

use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle of integer cells: `[x0, x0+w) × [y0, y0+h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Leftmost column (inclusive).
    pub x0: u32,
    /// Topmost row (inclusive).
    pub y0: u32,
    /// Width in cells (columns).
    pub w: u32,
    /// Height in cells (rows).
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle at the origin.
    pub const fn of_size(w: u32, h: u32) -> Self {
        Rect { x0: 0, y0: 0, w, h }
    }

    /// Creates a rectangle with explicit position and size.
    pub const fn new(x0: u32, y0: u32, w: u32, h: u32) -> Self {
        Rect { x0, y0, w, h }
    }

    /// Number of cells contained.
    pub const fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// `true` if the rectangle contains no cells.
    pub const fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// One past the rightmost column.
    pub const fn x1(&self) -> u32 {
        self.x0 + self.w
    }

    /// One past the bottom row.
    pub(crate) const fn y1(&self) -> u32 {
        self.y0 + self.h
    }

    /// How square-like the rectangle is: `min(w,h) / max(w,h)` in `(0, 1]`.
    ///
    /// Algorithm 1 always splits along the longer dimension precisely to keep
    /// this metric high (Fig. 4), which balances x- and y-communication.
    pub fn squareness(&self) -> f64 {
        assert!(!self.is_empty(), "squareness of an empty rectangle");
        let (lo, hi) = if self.w < self.h {
            (self.w, self.h)
        } else {
            (self.h, self.w)
        };
        lo as f64 / hi as f64
    }

    /// `true` if `(x, y)` lies inside the rectangle.
    pub const fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// `true` if `other` lies fully inside `self`.
    pub const fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0
            && other.y0 >= self.y0
            && other.x0 + other.w <= self.x0 + self.w
            && other.y0 + other.h <= self.y0 + self.h
    }

    /// Intersection of two rectangles, or `None` when disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        if x0 < x1 && y0 < y1 {
            Some(Rect::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// `true` if the rectangles share no cell.
    pub fn is_disjoint(&self, other: &Rect) -> bool {
        self.intersect(other).is_none()
    }

    /// Splits vertically into a left part of width `w_left` and the rest.
    ///
    /// Panics if `w_left` is not strictly between 0 and `w`.
    pub fn split_x(&self, w_left: u32) -> (Rect, Rect) {
        assert!(
            w_left > 0 && w_left < self.w,
            "split_x({w_left}) of width-{} rect",
            self.w
        );
        (
            Rect::new(self.x0, self.y0, w_left, self.h),
            Rect::new(self.x0 + w_left, self.y0, self.w - w_left, self.h),
        )
    }

    /// Splits horizontally into a top part of height `h_top` and the rest.
    ///
    /// Panics if `h_top` is not strictly between 0 and `h`.
    pub fn split_y(&self, h_top: u32) -> (Rect, Rect) {
        assert!(
            h_top > 0 && h_top < self.h,
            "split_y({h_top}) of height-{} rect",
            self.h
        );
        (
            Rect::new(self.x0, self.y0, self.w, h_top),
            Rect::new(self.x0, self.y0 + h_top, self.w, self.h - h_top),
        )
    }

    /// Iterates over all `(x, y)` cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = *self;
        (r.y0..r.y1()).flat_map(move |y| (r.x0..r.x1()).map(move |x| (x, y)))
    }
}

/// Checks that `parts` exactly tile `whole`: pairwise disjoint and the areas
/// sum to the whole. Used as a correctness oracle by the partitioner tests.
pub fn tiles_exactly(whole: &Rect, parts: &[Rect]) -> bool {
    let total: u64 = parts.iter().map(Rect::area).sum();
    if total != whole.area() {
        return false;
    }
    for p in parts {
        if !whole.contains_rect(p) {
            return false;
        }
    }
    for (i, a) in parts.iter().enumerate() {
        for b in &parts[i + 1..] {
            if !a.is_disjoint(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_empty() {
        assert_eq!(Rect::of_size(3, 4).area(), 12);
        assert!(Rect::of_size(0, 4).is_empty());
        assert!(Rect::of_size(4, 0).is_empty());
        assert!(!Rect::of_size(1, 1).is_empty());
    }

    #[test]
    fn squareness_bounds() {
        assert_eq!(Rect::of_size(4, 4).squareness(), 1.0);
        assert_eq!(Rect::of_size(1, 4).squareness(), 0.25);
        assert_eq!(Rect::of_size(4, 1).squareness(), 0.25);
    }

    #[test]
    fn contains_cells() {
        let r = Rect::new(2, 3, 4, 5);
        assert!(r.contains(2, 3));
        assert!(r.contains(5, 7));
        assert!(!r.contains(6, 3));
        assert!(!r.contains(2, 8));
        assert!(!r.contains(1, 3));
    }

    #[test]
    fn contains_rect_edges() {
        let outer = Rect::new(0, 0, 10, 10);
        assert!(outer.contains_rect(&Rect::new(0, 0, 10, 10)));
        assert!(outer.contains_rect(&Rect::new(9, 9, 1, 1)));
        assert!(!outer.contains_rect(&Rect::new(9, 9, 2, 1)));
    }

    #[test]
    fn intersection() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 4, 4);
        assert_eq!(a.intersect(&b), Some(Rect::new(2, 2, 2, 2)));
        let c = Rect::new(4, 0, 2, 2);
        assert!(a.is_disjoint(&c)); // touching edges share no cell
    }

    #[test]
    fn split_x_partitions() {
        let r = Rect::new(1, 1, 6, 3);
        let (l, rr) = r.split_x(2);
        assert_eq!(l, Rect::new(1, 1, 2, 3));
        assert_eq!(rr, Rect::new(3, 1, 4, 3));
        assert!(tiles_exactly(&r, &[l, rr]));
    }

    #[test]
    fn split_y_partitions() {
        let r = Rect::new(0, 0, 3, 7);
        let (t, b) = r.split_y(5);
        assert_eq!(t, Rect::new(0, 0, 3, 5));
        assert_eq!(b, Rect::new(0, 5, 3, 2));
        assert!(tiles_exactly(&r, &[t, b]));
    }

    #[test]
    #[should_panic]
    fn split_x_rejects_degenerate() {
        Rect::of_size(4, 4).split_x(4);
    }

    #[test]
    fn cells_row_major() {
        let r = Rect::new(1, 2, 2, 2);
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells, vec![(1, 2), (2, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn tiling_oracle_detects_overlap_and_gap() {
        let whole = Rect::of_size(4, 4);
        let ok = [Rect::new(0, 0, 2, 4), Rect::new(2, 0, 2, 4)];
        assert!(tiles_exactly(&whole, &ok));
        let overlap = [Rect::new(0, 0, 3, 4), Rect::new(2, 0, 2, 4)];
        assert!(!tiles_exactly(&whole, &overlap));
        let gap = [Rect::new(0, 0, 1, 4), Rect::new(2, 0, 2, 4)];
        assert!(!tiles_exactly(&whole, &gap));
        let outside = [
            Rect::new(0, 0, 2, 4),
            Rect::new(2, 0, 2, 3),
            Rect::new(2, 3, 2, 2),
        ];
        assert!(!tiles_exactly(&whole, &outside));
    }
}
