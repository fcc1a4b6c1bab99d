//! Lax–Friedrichs shallow-water solver.
//!
//! Solves the 2-D shallow-water equations in conservative form
//! `(h, hu, hv)` — the canonical stand-in for an atmospheric dynamical core:
//! hyperbolic, stencil-based, halo-exchanging, CFL-limited. Lax–Friedrichs
//! is diffusive but unconditionally stable under its CFL bound and exactly
//! conservative with periodic boundaries, giving us sharp invariants to
//! test.

use crate::field::Field2D;

/// Gravitational acceleration, m/s².
pub(crate) const GRAVITY: f64 = 9.81;

/// Numerical scheme for the shallow-water step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// First-order Lax–Friedrichs: very robust, diffusive. The default.
    #[default]
    LaxFriedrichs,
    /// Second-order Richtmyer two-step Lax–Wendroff: sharper features,
    /// mildly dispersive.
    LaxWendroff,
}

/// How the domain edges are closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Wrap-around (conservation-exact; used for invariant tests).
    Periodic,
    /// Zero-gradient outflow (used for the parent domain).
    ZeroGradient,
    /// Halo cells are set externally before each step — the nest case,
    /// where the parent supplies Dirichlet boundary data.
    External,
}

/// Shallow-water state on an `nx × ny` grid with spacing `dx` metres.
#[derive(Debug, Clone, PartialEq)]
pub struct ShallowWater {
    /// Interior width.
    pub nx: usize,
    /// Interior height.
    pub ny: usize,
    /// Grid spacing, metres (isotropic).
    pub dx: f64,
    /// Time step, seconds.
    pub dt: f64,
    /// Boundary treatment.
    pub boundary: Boundary,
    /// Numerical scheme.
    pub scheme: Scheme,
    /// Coriolis parameter `f` (s⁻¹); 0 disables rotation. Applied as a
    /// split source term after the hyperbolic update.
    pub(crate) coriolis: f64,
    /// Water depth.
    pub h: Field2D,
    /// x-momentum `h·u`.
    pub hu: Field2D,
    /// y-momentum `h·v`.
    pub hv: Field2D,
    /// Steps taken.
    pub steps: u64,
}

impl ShallowWater {
    /// Quiescent water of depth `depth` metres, with `dt` set from the CFL
    /// bound for gravity waves on that depth (CFL number 0.4).
    pub fn quiescent(nx: usize, ny: usize, dx: f64, depth: f64, boundary: Boundary) -> Self {
        assert!(depth > 0.0 && dx > 0.0);
        let c = (GRAVITY * depth).sqrt();
        let dt = 0.4 * dx / c;
        ShallowWater {
            nx,
            ny,
            dx,
            dt,
            boundary,
            scheme: Scheme::default(),
            coriolis: 0.0,
            h: Field2D::filled(nx, ny, depth),
            hu: Field2D::zeros(nx, ny),
            hv: Field2D::zeros(nx, ny),
            steps: 0,
        }
    }

    /// Switches the numerical scheme (builder style).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Enables rotation with Coriolis parameter `f` (s⁻¹, ≈ 1e-4 at
    /// mid-latitudes). Builder style.
    pub fn with_coriolis(mut self, f: f64) -> Self {
        self.coriolis = f;
        self
    }

    /// Adds a Gaussian depth perturbation — a "depression" like the Pacific
    /// systems of Fig. 1 — centred at `(cx, cy)` (grid coordinates) with
    /// amplitude `amp` metres and e-folding radius `radius` cells.
    pub fn add_gaussian(&mut self, cx: f64, cy: f64, amp: f64, radius: f64) {
        for j in 0..self.ny {
            for i in 0..self.nx {
                let d2 = ((i as f64 - cx).powi(2) + (j as f64 - cy).powi(2)) / (radius * radius);
                let v = self.h.get(i as isize, j as isize) + amp * (-d2).exp();
                self.h.set(i as isize, j as isize, v);
            }
        }
    }

    /// Fills halos according to the boundary kind (no-op for `External`).
    pub(crate) fn fill_halos(&mut self) {
        match self.boundary {
            Boundary::ZeroGradient => {
                self.h.fill_halo_zero_gradient();
                self.hu.fill_halo_zero_gradient();
                self.hv.fill_halo_zero_gradient();
            }
            Boundary::Periodic => {
                for f in [&mut self.h, &mut self.hu, &mut self.hv] {
                    let (nx, ny) = (f.nx as isize, f.ny as isize);
                    for i in 0..nx {
                        let s = f.get(i, ny - 1);
                        f.set(i, -1, s);
                        let n = f.get(i, 0);
                        f.set(i, ny, n);
                    }
                    for j in -1..=ny {
                        let jc = (j + ny) % ny;
                        let e = f.get(nx - 1, jc);
                        f.set(-1, j, e);
                        let w = f.get(0, jc);
                        f.set(nx, j, w);
                    }
                }
            }
            Boundary::External => {}
        }
    }

    /// Cuts one step into a [`Stencil`] and `bands` [`Band`]s
    /// ([`Field2D::row_bands`]): disjoint slices of the interior rows of
    /// `h/hu/hv` themselves, cut with `split_at_mut`, each with a copy of
    /// the old rows just outside it (`j0 − 1` and `j1`) taken before any
    /// band writes. Halos must be filled first; computing every band, in
    /// any order, then [`ShallowWater::finish_step`], advances the state by
    /// one step.
    pub(crate) fn split_step(&mut self, bands: usize) -> (Stencil, Vec<Band<'_>>) {
        fn cut<'a>(rest: &mut &'a mut [f64], n: usize) -> &'a mut [f64] {
            let (head, tail) = std::mem::take(rest).split_at_mut(n);
            *rest = tail;
            head
        }
        let w = self.nx + 2;
        let ranges = Field2D::row_bands(self.ny, bands);
        let ghosts: Vec<Vec<f64>> = ranges
            .iter()
            .map(|&(j0, j1)| {
                let mut ghost = Vec::with_capacity(6 * w);
                for j in [j0 as isize - 1, j1 as isize] {
                    for f in [&self.h, &self.hu, &self.hv] {
                        ghost.extend_from_slice(f.row(j));
                    }
                }
                ghost
            })
            .collect();
        let fields = [&mut self.h, &mut self.hu, &mut self.hv];
        let mut rest = fields.map(Field2D::interior_rows_mut);
        let bands = ranges
            .into_iter()
            .zip(ghosts)
            .map(|((j0, j1), ghosts)| Band {
                rows: rest.each_mut().map(|r| cut(r, (j1 - j0) * w)),
                ghosts,
            })
            .collect();
        let stencil = Stencil {
            scheme: self.scheme,
            dt: self.dt,
            dx: self.dx,
            rotation: (self.coriolis != 0.0).then(|| (self.coriolis * self.dt).sin_cos()),
            w,
        };
        (stencil, bands)
    }

    /// Counts the step once every band is computed. Only interior cells
    /// were written: the halos still hold the last refill until the next
    /// `fill_halos` / `apply_boundary`.
    pub(crate) fn finish_step(&mut self) {
        self.steps += 1;
    }

    /// One single-threaded step (fill halos, compute and rotate in place).
    pub fn step(&mut self) {
        self.fill_halos();
        let (stencil, bands) = self.split_step(1);
        bands.into_iter().for_each(|band| stencil.compute(band));
        self.finish_step();
    }

    /// Total water volume (mass) in the interior.
    pub fn mass(&self) -> f64 {
        self.h.interior_sum() * self.dx * self.dx
    }

    /// Largest gravity-wave CFL number of the current state — must stay
    /// below 1 for stability.
    pub fn cfl(&self) -> f64 {
        let mut c_max = 0.0f64;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let (ii, jj) = (i as isize, j as isize);
                let h = self.h.get(ii, jj);
                if h <= 0.0 {
                    return f64::INFINITY;
                }
                let u = (self.hu.get(ii, jj) / h).abs();
                let v = (self.hv.get(ii, jj) / h).abs();
                c_max = c_max.max(u.max(v) + (GRAVITY * h).sqrt());
            }
        }
        c_max * self.dt / self.dx
    }
}

/// One step's constants: scheme, time step, spacing, Coriolis rotation and
/// stored row width.
pub(crate) struct Stencil {
    scheme: Scheme,
    dt: f64,
    dx: f64,
    /// `(sin, cos)` of the split Coriolis rotation angle `f·dt`; `None`
    /// without rotation.
    rotation: Option<(f64, f64)>,
    /// Stored row width, `nx + 2` (halo columns included).
    w: usize,
}

/// Rows `j0..j1` of `[h, hu, hv]`, stepped in place, as stored rows of
/// `nx + 2` values (halo columns included).
pub(crate) struct Band<'a> {
    rows: [&'a mut [f64]; 3],
    /// The old `[h | hu | hv]` of row `j0 − 1`, then of row `j1`, copied
    /// before any band wrote: a neighbouring band steps those rows.
    ghosts: Vec<f64>,
}

/// One stored row of each of `[h, hu, hv]`.
type Rows<'r> = [&'r [f64]; 3];

/// Cuts `[h | hu | hv]`, three stored rows of `w` values back to back,
/// into one row per field.
fn split_fields(s: &[f64], w: usize) -> Rows<'_> {
    std::array::from_fn(|k| &s[k * w..(k + 1) * w])
}

impl Stencil {
    /// Steps the band's interior cells in place, row by row. New row `j`
    /// goes to a two-row buffer and is written back only after row `j + 1`
    /// is computed, so every stencil reads old values: rows inside the band
    /// are not written back yet, and rows outside it are the ghost copies.
    ///
    /// Lax–Friedrichs keeps three rolling flux rows (north, centre, south;
    /// see [`flux_row`]): each row pass computes the south row's fluxes and
    /// the row's stencil in one loop, so every cell's three divisions are
    /// done once per step instead of once per neighbour.
    pub(crate) fn compute(&self, band: Band<'_>) {
        let w = self.w;
        let Band { mut rows, ghosts } = band;
        let (north, south) = ghosts.split_at(3 * w);
        let height = rows[0].len() / w;
        let mut buf = vec![0.0; 15 * w];
        let (new_rows, flux) = buf.split_at_mut(6 * w);
        let (mut out, mut prev) = new_rows.split_at_mut(3 * w);
        let (mut flux_n, flux) = flux.split_at_mut(3 * w);
        let (mut flux_c, mut flux_s) = flux.split_at_mut(3 * w);
        if self.scheme == Scheme::LaxFriedrichs {
            flux_row(split_fields(north, w), flux_n);
            flux_row(rows.each_ref().map(|f| &f[..w]), flux_c);
        }
        for r in 0..height {
            let old = rows.each_ref().map(|f| &**f);
            let n_rows = if r == 0 {
                split_fields(north, w)
            } else {
                old.map(|f| &f[(r - 1) * w..r * w])
            };
            let c_rows = old.map(|f| &f[r * w..(r + 1) * w]);
            let s_rows = if r + 1 == height {
                split_fields(south, w)
            } else {
                old.map(|f| &f[(r + 1) * w..(r + 2) * w])
            };
            let (out_h, out_rest) = out.split_at_mut(w);
            let (out_hu, out_hv) = out_rest.split_at_mut(w);
            let new = [out_h, out_hu, out_hv];
            match self.scheme {
                Scheme::LaxFriedrichs => {
                    let fluxes = [&*flux_n, &*flux_c];
                    self.lax_friedrichs(n_rows, c_rows, s_rows, fluxes, flux_s, new);
                    (flux_n, flux_c, flux_s) = (flux_c, flux_s, flux_n);
                }
                Scheme::LaxWendroff => self.lax_wendroff(n_rows, c_rows, s_rows, new),
            }
            if r > 0 {
                self.write_back(&mut rows, r - 1, prev);
            }
            (out, prev) = (prev, out);
        }
        self.write_back(&mut rows, height - 1, prev);
    }

    /// Lax–Friedrichs: new interior cells of one row from the old rows
    /// north of it, at it and south of it, and the [`flux_row`]s of the
    /// rows north of it and at it. Fills `flux_s` with the south row's
    /// fluxes in the same loop, so each cell's three divisions are done
    /// once per step.
    ///
    /// Every flux is the per-neighbour kernel's expression, combined in
    /// its order, so the new state is bitwise the same; the tests hold it
    /// to that kernel (`reference_lax_friedrichs`).
    fn lax_friedrichs(
        &self,
        n: Rows<'_>,
        c: Rows<'_>,
        s: Rows<'_>,
        fluxes: [&[f64]; 2],
        flux_s: &mut [f64],
        out: [&mut [f64]; 3],
    ) {
        let w = self.w;
        let lam = self.dt / (2.0 * self.dx);
        let ([h_n, hu_n, hv_n], [h, hu, hv], [h_s, hu_s, hv_s]) = (n, c, s);
        let [[_, uv_n, vv_n], [uu_c, uv_c, _]] = fluxes.map(|f| split_fields(f, w));
        let (uu_s, rest) = flux_s.split_at_mut(w);
        let (uv_s, vv_s) = rest.split_at_mut(w);
        let [out_h, out_hu, out_hv] = out;
        // The south row's halo columns: the next pass reads them as its
        // centre row's west and east neighbours.
        for i in [0, w - 1] {
            [uu_s[i], uv_s[i], vv_s[i]] = flux(h_s[i], hu_s[i], hv_s[i]);
        }
        for i in 1..w - 1 {
            let [uu, uv, vv] = flux(h_s[i], hu_s[i], hv_s[i]);
            [uu_s[i], uv_s[i], vv_s[i]] = [uu, uv, vv];
            out_h[i] = 0.25 * (h[i - 1] + h[i + 1] + h_n[i] + h_s[i])
                - lam * (hu[i + 1] - hu[i - 1])
                - lam * (hv_s[i] - hv_n[i]);
            out_hu[i] = 0.25 * (hu[i - 1] + hu[i + 1] + hu_n[i] + hu_s[i])
                - lam * (uu_c[i + 1] - uu_c[i - 1])
                - lam * (uv - uv_n[i]);
            out_hv[i] = 0.25 * (hv[i - 1] + hv[i + 1] + hv_n[i] + hv_s[i])
                - lam * (uv_c[i + 1] - uv_c[i - 1])
                - lam * (vv - vv_n[i]);
        }
    }

    /// Richtmyer two-step Lax–Wendroff: half-step predictor states at the
    /// four cell edges, then a conservative corrector. New interior cells
    /// of one row from the old rows north of it, at it and south of it.
    fn lax_wendroff(&self, n: Rows<'_>, c: Rows<'_>, s: Rows<'_>, out: [&mut [f64]; 3]) {
        let lam = self.dt / self.dx;
        let [out_h, out_hu, out_hv] = out;
        // Fluxes of the state vector (h, hu, hv).
        #[inline(always)]
        fn fx(u: [f64; 3]) -> [f64; 3] {
            let [h, hu, hv] = u;
            [hu, hu * hu / h + 0.5 * GRAVITY * h * h, hu * hv / h]
        }
        #[inline(always)]
        fn gy(u: [f64; 3]) -> [f64; 3] {
            let [h, hu, hv] = u;
            [hv, hu * hv / h, hv * hv / h + 0.5 * GRAVITY * h * h]
        }
        let at = |r: Rows<'_>, i: usize| -> [f64; 3] { [r[0][i], r[1][i], r[2][i]] };
        // Half-step edge state between u_l and u_r along x (or y with gy).
        let half_x = |l: [f64; 3], r: [f64; 3]| -> [f64; 3] {
            let (fl, fr) = (fx(l), fx(r));
            std::array::from_fn(|k| 0.5 * (l[k] + r[k]) - 0.5 * lam * (fr[k] - fl[k]))
        };
        let half_y = |l: [f64; 3], r: [f64; 3]| -> [f64; 3] {
            let (gl, gr) = (gy(l), gy(r));
            std::array::from_fn(|k| 0.5 * (l[k] + r[k]) - 0.5 * lam * (gr[k] - gl[k]))
        };
        for i in 1..self.w - 1 {
            let u = at(c, i);
            let east = half_x(u, at(c, i + 1));
            let west = half_x(at(c, i - 1), u);
            let south = half_y(u, at(s, i));
            let north = half_y(at(n, i), u);
            let (fe, fw) = (fx(east), fx(west));
            let (gs, gn) = (gy(south), gy(north));
            out_h[i] = u[0] - lam * (fe[0] - fw[0]) - lam * (gs[0] - gn[0]);
            out_hu[i] = u[1] - lam * (fe[1] - fw[1]) - lam * (gs[1] - gn[1]);
            out_hv[i] = u[2] - lam * (fe[2] - fw[2]) - lam * (gs[2] - gn[2]);
        }
    }

    /// Copies the interior cells of `new` (`[h | hu | hv]`, stored rows)
    /// into band row `r` of each field, rotating `(hu, hv)` by the split
    /// Coriolis angle on the way; the halo columns keep their last refill.
    fn write_back(&self, rows: &mut [&mut [f64]; 3], r: usize, new: &[f64]) {
        let w = self.w;
        let cells = r * w + 1..(r + 1) * w - 1;
        let [h, hu, hv] = rows;
        let [new_h, new_hu, new_hv] = split_fields(new, w).map(|f| &f[1..w - 1]);
        h[cells.clone()].copy_from_slice(new_h);
        // Split-step Coriolis rotation: (hu, hv) rotates by f·dt each step;
        // an exact rotation (rather than forward Euler) preserves kinetic
        // energy and keeps the scheme stable for any f·dt.
        let Some((s, c)) = self.rotation else {
            hu[cells.clone()].copy_from_slice(new_hu);
            hv[cells].copy_from_slice(new_hv);
            return;
        };
        let (hu, hv) = (&mut hu[cells.clone()], &mut hv[cells]);
        for i in 0..w - 2 {
            let (u, v) = (new_hu[i], new_hv[i]);
            hu[i] = c * u + s * v;
            hv[i] = -s * u + c * v;
        }
    }
}

/// The three distinct flux quotients of one cell, `[uu, uv, vv] =
/// [hu²/h + gh²/2, hu·hv/h, hv²/h + gh²/2]`: the x-flux of `hu`, the
/// x-flux of `hv` (equal to the y-flux of `hu`) and the y-flux of `hv`.
#[inline(always)]
fn flux(h: f64, hu: f64, hv: f64) -> [f64; 3] {
    [
        hu * hu / h + 0.5 * GRAVITY * h * h,
        hu * hv / h,
        hv * hv / h + 0.5 * GRAVITY * h * h,
    ]
}

/// Fills `out` (`[uu | uv | vv]`, stored rows) with the [`flux`]es of
/// every cell of one stored row, halo columns included.
fn flux_row(row: Rows<'_>, out: &mut [f64]) {
    let w = row[0].len();
    let (uu, rest) = out.split_at_mut(w);
    let (uv, vv) = rest.split_at_mut(w);
    for i in 0..w {
        [uu[i], uv[i], vv[i]] = flux(row[0][i], row[1][i], row[2][i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Imposes the geostrophically balanced velocity field for the current
    /// depth field: `f·u = −g ∂h/∂y`, `f·v = g ∂h/∂x`. With rotation on,
    /// such a state is (discretely, approximately) steady.
    fn balance_geostrophic(sw: &mut ShallowWater) {
        assert!(sw.coriolis != 0.0, "geostrophic balance needs rotation");
        sw.fill_halos();
        for j in 0..sw.ny as isize {
            for i in 0..sw.nx as isize {
                let h = sw.h.get(i, j);
                let dhdx = (sw.h.get(i + 1, j) - sw.h.get(i - 1, j)) / (2.0 * sw.dx);
                let dhdy = (sw.h.get(i, j + 1) - sw.h.get(i, j - 1)) / (2.0 * sw.dx);
                let u = -GRAVITY / sw.coriolis * dhdy;
                let v = GRAVITY / sw.coriolis * dhdx;
                sw.hu.set(i, j, h * u);
                sw.hv.set(i, j, h * v);
            }
        }
    }

    /// The per-neighbour Lax–Friedrichs row kernel the fused one replaced,
    /// eight divisions per cell: the oracle `fused_kernel_matches_oracle`
    /// holds [`Stencil::lax_friedrichs`] to, bit for bit.
    fn reference_lax_friedrichs(
        st: &Stencil,
        n: Rows<'_>,
        c: Rows<'_>,
        s: Rows<'_>,
        out: [&mut [f64]; 3],
    ) {
        let lam = st.dt / (2.0 * st.dx);
        let ([h_n, hu_n, hv_n], [h, hu, hv], [h_s, hu_s, hv_s]) = (n, c, s);
        let [out_h, out_hu, out_hv] = out;
        for i in 1..st.w - 1 {
            // Neighbour states.
            let (hw, he) = (h[i - 1], h[i + 1]);
            let (hn, hs) = (h_n[i], h_s[i]);
            let (huw, hue) = (hu[i - 1], hu[i + 1]);
            let (hun, hus) = (hu_n[i], hu_s[i]);
            let (hvw, hve) = (hv[i - 1], hv[i + 1]);
            let (hvn, hvs) = (hv_n[i], hv_s[i]);

            // Fluxes: F = (hu, hu²/h + gh²/2, hu·hv/h) in x,
            //         G = (hv, hu·hv/h, hv²/h + gh²/2) in y.
            let fx = |_h: f64, hu: f64| hu;
            let fxu = |h: f64, hu: f64| hu * hu / h + 0.5 * GRAVITY * h * h;
            let fxv = |h: f64, hu: f64, hv: f64| hu * hv / h;
            let gy = |_h: f64, hv: f64| hv;
            let gyu = |h: f64, hu: f64, hv: f64| hu * hv / h;
            let gyv = |h: f64, hv: f64| hv * hv / h + 0.5 * GRAVITY * h * h;

            out_h[i] = 0.25 * (hw + he + hn + hs)
                - lam * (fx(he, hue) - fx(hw, huw))
                - lam * (gy(hs, hvs) - gy(hn, hvn));
            out_hu[i] = 0.25 * (huw + hue + hun + hus)
                - lam * (fxu(he, hue) - fxu(hw, huw))
                - lam * (gyu(hs, hus, hvs) - gyu(hn, hun, hvn));
            out_hv[i] = 0.25 * (hvw + hve + hvn + hvs)
                - lam * (fxv(he, hue, hve) - fxv(hw, huw, hvw))
                - lam * (gyv(hs, hvs) - gyv(hn, hvn));
        }
    }

    #[test]
    fn fused_kernel_matches_oracle() {
        // Random `[h | hu | hv]` rows: depths log-uniform over 1e-3..1e4,
        // momenta of either sign and exactly zero one time in four, odd and
        // even widths, bands from one row up, with and without rotation.
        let mut rng = StdRng::seed_from_u64(45);
        let row = |rng: &mut StdRng, w: usize| -> Vec<f64> {
            let h: Vec<f64> = (0..w)
                .map(|_| 10f64.powf(rng.gen_range(-3.0..4.0)))
                .collect();
            let momentum = |rng: &mut StdRng| -> Vec<f64> {
                h.iter()
                    .map(|&h| match rng.gen_range(0..4) {
                        0 => 0.0,
                        _ => rng.gen_range(-3.0..3.0) * h,
                    })
                    .collect()
            };
            let (hu, hv) = (momentum(rng), momentum(rng));
            [h, hu, hv].concat()
        };
        for nx in [1, 2, 5, 8, 31, 64] {
            let w = nx + 2;
            for height in [1, 2, 3, 6] {
                for rotation in [None, Some((0.3f64).sin_cos())] {
                    let stencil = Stencil {
                        scheme: Scheme::LaxFriedrichs,
                        dt: rng.gen_range(0.5..50.0),
                        dx: rng.gen_range(10.0..1e4),
                        rotation,
                        w,
                    };
                    // Stored rows -1..=height: `[h | hu | hv]` each.
                    let old: Vec<Vec<f64>> = (0..height + 2).map(|_| row(&mut rng, w)).collect();
                    let mut want = old[1..=height].to_vec();
                    for (r, new) in want.iter_mut().enumerate() {
                        let [n, c, s] = [r, r + 1, r + 2].map(|k| split_fields(&old[k], w));
                        let (out_h, rest) = new.split_at_mut(w);
                        let (out_hu, out_hv) = rest.split_at_mut(w);
                        reference_lax_friedrichs(&stencil, n, c, s, [out_h, out_hu, out_hv]);
                        if let Some((s, c)) = rotation {
                            for i in 1..w - 1 {
                                let (hu, hv) = (new[w + i], new[2 * w + i]);
                                new[w + i] = c * hu + s * hv;
                                new[2 * w + i] = -s * hu + c * hv;
                            }
                        }
                    }
                    let mut fields: [Vec<f64>; 3] = std::array::from_fn(|k| {
                        old[1..=height]
                            .iter()
                            .flat_map(|r| r[k * w..(k + 1) * w].to_vec())
                            .collect()
                    });
                    let band = Band {
                        rows: fields.each_mut().map(|f| f.as_mut_slice()),
                        ghosts: [old[0].clone(), old[height + 1].clone()].concat(),
                    };
                    stencil.compute(band);
                    for (r, want) in want.iter().enumerate() {
                        for (k, field) in fields.iter().enumerate() {
                            let got = &field[r * w..(r + 1) * w];
                            let want = &want[k * w..(k + 1) * w];
                            assert_eq!(
                                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                "nx {nx}, height {height}, row {r}, field {k}, {rotation:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quiescent_state_is_steady() {
        let mut sw = ShallowWater::quiescent(16, 16, 1000.0, 100.0, Boundary::Periodic);
        let m0 = sw.mass();
        for _ in 0..10 {
            sw.step();
        }
        assert!((sw.mass() - m0).abs() / m0 < 1e-12);
        assert!((sw.h.get(5, 5) - 100.0).abs() < 1e-12);
        assert_eq!(sw.hu.max_abs(), 0.0);
    }

    #[test]
    fn mass_conserved_with_periodic_boundary() {
        let mut sw = ShallowWater::quiescent(32, 32, 1000.0, 100.0, Boundary::Periodic);
        sw.add_gaussian(16.0, 16.0, -5.0, 4.0);
        let m0 = sw.mass();
        for _ in 0..50 {
            sw.step();
        }
        assert!((sw.mass() - m0).abs() / m0 < 1e-10, "mass drifted");
    }

    #[test]
    fn wave_propagates_outward() {
        let mut sw = ShallowWater::quiescent(64, 64, 1000.0, 100.0, Boundary::Periodic);
        sw.add_gaussian(32.0, 32.0, -5.0, 3.0);
        let probe_before = sw.h.get(48, 32);
        for _ in 0..40 {
            sw.step();
        }
        let probe_after = sw.h.get(48, 32);
        assert!(
            (probe_after - 100.0).abs() > 1e-6,
            "disturbance never reached the probe: {probe_before} → {probe_after}"
        );
    }

    #[test]
    fn cfl_stays_stable() {
        let mut sw = ShallowWater::quiescent(32, 32, 1000.0, 100.0, Boundary::ZeroGradient);
        sw.add_gaussian(16.0, 16.0, -10.0, 4.0);
        for _ in 0..100 {
            sw.step();
            let c = sw.cfl();
            assert!(c < 1.0, "CFL {c} blew past stability");
            assert!(sw.h.max_abs().is_finite());
        }
    }

    #[test]
    fn geostrophic_balance_is_quasi_steady() {
        // A rotating, geostrophically balanced depression should evolve far
        // more slowly than the same depression without rotation balance
        // (which collapses into gravity waves).
        let f = 1e-4;
        // Second-order scheme (Lax-Friedrichs' diffusion would flatten the
        // vortex regardless of balance) on a domain larger than the Rossby
        // deformation radius √(gH)/f ≈ 990 km.
        let build = |balanced: bool| {
            let mut sw = ShallowWater::quiescent(64, 64, 20_000.0, 1000.0, Boundary::Periodic)
                .with_scheme(Scheme::LaxWendroff)
                .with_coriolis(f);
            sw.add_gaussian(32.0, 32.0, -10.0, 12.0);
            if balanced {
                balance_geostrophic(&mut sw);
            }
            sw
        };
        let centre0 = build(true).h.get(32, 32);
        let mut balanced = build(true);
        let mut unbalanced = build(false);
        for _ in 0..100 {
            balanced.step();
            unbalanced.step();
        }
        let drift_bal = (balanced.h.get(32, 32) - centre0).abs();
        let drift_unb = (unbalanced.h.get(32, 32) - centre0).abs();
        assert!(balanced.cfl() < 1.0);
        assert!(
            drift_bal < 0.3 * drift_unb,
            "balanced drift {drift_bal:.3} not ≪ unbalanced {drift_unb:.3}"
        );
    }

    #[test]
    fn coriolis_rotation_preserves_momentum_magnitude() {
        // The split rotation is exact: |(hu, hv)| unchanged by the source
        // step (checked on a uniform-flow state where fluxes are constant).
        let mut sw =
            ShallowWater::quiescent(16, 16, 1000.0, 100.0, Boundary::Periodic).with_coriolis(2e-4);
        for j in 0..16 {
            for i in 0..16 {
                sw.hu.set(i, j, 300.0);
                sw.hv.set(i, j, 400.0);
            }
        }
        let mag0 = (300.0f64 * 300.0 + 400.0 * 400.0).sqrt();
        sw.step();
        let (hu, hv) = (sw.hu.get(8, 8), sw.hv.get(8, 8));
        let mag1 = (hu * hu + hv * hv).sqrt();
        assert!(
            (mag1 - mag0).abs() / mag0 < 1e-9,
            "momentum magnitude drifted: {mag0} → {mag1}"
        );
        // And the vector actually rotated.
        assert!((hu - 300.0).abs() > 1e-6);
    }

    #[test]
    fn lax_wendroff_conserves_mass_and_is_sharper() {
        let setup = |scheme: Scheme| {
            let mut sw = ShallowWater::quiescent(48, 48, 1000.0, 100.0, Boundary::Periodic)
                .with_scheme(scheme);
            sw.add_gaussian(24.0, 24.0, -5.0, 4.0);
            sw
        };
        let mut lf = setup(Scheme::LaxFriedrichs);
        let mut lw = setup(Scheme::LaxWendroff);
        let m0 = lw.mass();
        for _ in 0..40 {
            lf.step();
            lw.step();
        }
        // Conservative form: mass preserved by both.
        assert!((lw.mass() - m0).abs() / m0 < 1e-10);
        assert!(lw.cfl() < 1.0, "LW unstable: CFL {}", lw.cfl());
        // Second order is less diffusive: the remaining disturbance
        // amplitude exceeds Lax-Friedrichs'.
        let amp = |sw: &ShallowWater| -> f64 {
            let mut a = 0.0f64;
            for j in 0..48 {
                for i in 0..48 {
                    a = a.max((sw.h.get(i, j) - 100.0).abs());
                }
            }
            a
        };
        assert!(
            amp(&lw) > 1.2 * amp(&lf),
            "LW amplitude {:.3} not sharper than LF {:.3}",
            amp(&lw),
            amp(&lf)
        );
    }

    #[test]
    fn lax_wendroff_banded_matches_serial() {
        let mut a = ShallowWater::quiescent(20, 20, 1000.0, 100.0, Boundary::Periodic)
            .with_scheme(Scheme::LaxWendroff);
        a.add_gaussian(10.0, 10.0, -3.0, 3.0);
        let mut b = a.clone();
        for _ in 0..5 {
            a.step();
            crate::runtime::step_parallel(&mut b, 3);
        }
        assert_eq!(a.h, b.h);
    }

    #[test]
    fn banded_computation_matches_full() {
        // Two uneven bands (11 + 10 rows), computed in reverse order, must
        // equal one band: the whole state, scratch buffers included.
        let mut a =
            ShallowWater::quiescent(20, 21, 1000.0, 100.0, Boundary::Periodic).with_coriolis(1e-4);
        a.add_gaussian(10.0, 10.0, -3.0, 3.0);
        let mut b = a.clone();
        a.step();
        b.fill_halos();
        let (stencil, bands) = b.split_step(2);
        let heights: Vec<usize> = bands.iter().map(|band| band.rows[0].len() / 22).collect();
        assert_eq!(heights, [11, 10]);
        for band in bands.into_iter().rev() {
            stencil.compute(band);
        }
        b.finish_step();
        assert_eq!(a, b);
    }

    #[test]
    fn band_edges_match_step_in_any_order() {
        // One-row bands (ny − 1 and ny bands) make every row a band edge;
        // computed in reverse order, each band's ghost rows are already
        // overwritten in the field when it runs.
        let (nx, ny) = (7, 9);
        let ring: Vec<_> = (-1..=nx)
            .flat_map(|i| [(i, -1), (i, ny)])
            .chain((0..ny).flat_map(|j| [(-1, j), (nx, j)]))
            .map(|(i, j)| (i, j, 100.0 + 0.3 * i as f64 - 0.2 * j as f64, 2.0, -1.0))
            .collect();
        let bc = crate::nest::BoundaryData::from_cells(ring);
        for scheme in [Scheme::LaxFriedrichs, Scheme::LaxWendroff] {
            for boundary in [
                Boundary::Periodic,
                Boundary::ZeroGradient,
                Boundary::External,
            ] {
                for bands in [1, 2, 3, ny as usize - 1, ny as usize] {
                    let mut a =
                        ShallowWater::quiescent(nx as usize, ny as usize, 1000.0, 100.0, boundary)
                            .with_scheme(scheme)
                            .with_coriolis(1e-4);
                    a.add_gaussian(3.0, 4.0, -3.0, 2.0);
                    let mut b = a.clone();
                    for _ in 0..3 {
                        if boundary == Boundary::External {
                            crate::nest::apply_boundary(&mut a, &bc);
                            crate::nest::apply_boundary(&mut b, &bc);
                        }
                        a.step();
                        b.fill_halos();
                        let (stencil, split) = b.split_step(bands);
                        assert_eq!(split.len(), bands);
                        for band in split.into_iter().rev() {
                            stencil.compute(band);
                        }
                        b.finish_step();
                    }
                    assert_eq!(a, b, "{scheme:?} {boundary:?} {bands} bands");
                }
            }
        }
    }

    #[test]
    fn symmetric_initial_state_stays_symmetric() {
        let n = 33; // odd: symmetric centre cell
        let mut sw = ShallowWater::quiescent(n, n, 1000.0, 100.0, Boundary::Periodic);
        sw.add_gaussian((n / 2) as f64, (n / 2) as f64, -5.0, 4.0);
        for _ in 0..20 {
            sw.step();
        }
        for j in 0..n {
            for i in 0..(n / 2) {
                let l = sw.h.get(i as isize, j as isize);
                let r = sw.h.get((n - 1 - i) as isize, j as isize);
                assert!((l - r).abs() < 1e-9, "asymmetry at ({i},{j}): {l} vs {r}");
            }
        }
    }
}
