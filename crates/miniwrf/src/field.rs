//! A 2-D scalar field with a one-cell halo ring.

/// An `nx × ny` field of `f64` stored row-major with a one-cell halo ring
/// around the interior, so stencil code can read `(i±1, j±1)` without bounds
/// branches. Interior indices run `0 ≤ i < nx`, `0 ≤ j < ny`.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2D {
    /// Interior width.
    pub nx: usize,
    /// Interior height.
    pub ny: usize,
    data: Vec<f64>,
}

impl Field2D {
    /// A field filled with `value`.
    pub(crate) fn filled(nx: usize, ny: usize, value: f64) -> Self {
        assert!(nx > 0 && ny > 0, "empty field");
        Field2D {
            nx,
            ny,
            data: vec![value; (nx + 2) * (ny + 2)],
        }
    }

    /// A zero field.
    pub(crate) fn zeros(nx: usize, ny: usize) -> Self {
        Field2D::filled(nx, ny, 0.0)
    }

    #[inline(always)]
    fn idx(&self, i: isize, j: isize) -> usize {
        debug_assert!(i >= -1 && i <= self.nx as isize, "i={i} out of range");
        debug_assert!(j >= -1 && j <= self.ny as isize, "j={j} out of range");
        (j + 1) as usize * (self.nx + 2) + (i + 1) as usize
    }

    /// Reads cell `(i, j)`; `-1` and `nx`/`ny` address the halo ring.
    #[inline(always)]
    pub fn get(&self, i: isize, j: isize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Writes cell `(i, j)` (halo addressable like [`Field2D::get`]).
    #[inline(always)]
    pub fn set(&mut self, i: isize, j: isize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Stored row `j` (`-1 ≤ j ≤ ny`), halo columns included: element
    /// `i + 1` is cell `(i, j)`.
    #[inline(always)]
    pub(crate) fn row(&self, j: isize) -> &[f64] {
        let k = self.idx(-1, j);
        &self.data[k..k + self.nx + 2]
    }

    /// The interior rows `0..ny` as one mutable slice of stored rows
    /// (`nx + 2` values each, halo columns included).
    pub(crate) fn interior_rows_mut(&mut self) -> &mut [f64] {
        let w = self.nx + 2;
        &mut self.data[w..w * (self.ny + 1)]
    }

    /// Interior values in row-major order (`j` outer, `i` inner) — the
    /// deterministic traversal field digests use.
    pub(crate) fn interior_values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.ny).flat_map(move |j| (0..self.nx).map(move |i| self.get(i as isize, j as isize)))
    }

    /// Sum over the interior (for conservation checks).
    pub(crate) fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.ny {
            for i in 0..self.nx {
                s += self.get(i as isize, j as isize);
            }
        }
        s
    }

    /// Maximum absolute interior value.
    pub fn max_abs(&self) -> f64 {
        let mut m = 0.0f64;
        for j in 0..self.ny {
            for i in 0..self.nx {
                m = m.max(self.get(i as isize, j as isize).abs());
            }
        }
        m
    }

    /// Copies each interior edge into the adjacent halo cell — zero-gradient
    /// (reflective for normal velocity handled by the solver) boundary.
    pub(crate) fn fill_halo_zero_gradient(&mut self) {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        for i in 0..nx {
            let top = self.get(i, 0);
            self.set(i, -1, top);
            let bot = self.get(i, ny - 1);
            self.set(i, ny, bot);
        }
        for j in -1..=ny {
            let l = self.get(0, j.clamp(0, ny - 1));
            self.set(-1, j, l);
            let r = self.get(nx - 1, j.clamp(0, ny - 1));
            self.set(nx, j, r);
        }
    }

    /// Splits the interior rows into `bands` contiguous row ranges
    /// `(j_start, j_end)` of near-equal height for the thread runtime.
    pub(crate) fn row_bands(ny: usize, bands: usize) -> Vec<(usize, usize)> {
        assert!(bands > 0);
        let bands = bands.min(ny);
        let base = ny / bands;
        let rem = ny % bands;
        let mut out = Vec::with_capacity(bands);
        let mut j = 0;
        for b in 0..bands {
            let h = base + usize::from(b < rem);
            out.push((j, j + h));
            j += h;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip_including_halo() {
        let mut f = Field2D::zeros(4, 3);
        f.set(0, 0, 1.5);
        f.set(3, 2, 2.5);
        f.set(-1, -1, 9.0);
        f.set(4, 3, 8.0);
        assert_eq!(f.get(0, 0), 1.5);
        assert_eq!(f.get(3, 2), 2.5);
        assert_eq!(f.get(-1, -1), 9.0);
        assert_eq!(f.get(4, 3), 8.0);
    }

    #[test]
    fn interior_sum_ignores_halo() {
        let mut f = Field2D::filled(3, 3, 1.0);
        f.set(-1, 0, 100.0);
        f.set(3, 3, 100.0);
        assert_eq!(f.interior_sum(), 9.0);
    }

    #[test]
    fn zero_gradient_halo() {
        let mut f = Field2D::zeros(3, 2);
        for j in 0..2 {
            for i in 0..3 {
                f.set(i, j, (10 * j + i) as f64);
            }
        }
        f.fill_halo_zero_gradient();
        assert_eq!(f.get(-1, 0), f.get(0, 0));
        assert_eq!(f.get(3, 1), f.get(2, 1));
        assert_eq!(f.get(1, -1), f.get(1, 0));
        assert_eq!(f.get(1, 2), f.get(1, 1));
        // Corners come from the clamped column fill.
        assert_eq!(f.get(-1, -1), f.get(0, 0));
    }

    #[test]
    fn row_bands_cover_exactly() {
        for (ny, bands) in [(10, 3), (7, 7), (5, 8), (100, 16)] {
            let b = Field2D::row_bands(ny, bands);
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, ny);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            let heights: Vec<usize> = b.iter().map(|(a, z)| z - a).collect();
            let (min, max) = (heights.iter().min().unwrap(), heights.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn max_abs_detects_peaks() {
        let mut f = Field2D::zeros(4, 4);
        f.set(2, 2, -7.0);
        assert_eq!(f.max_abs(), 7.0);
    }
}
