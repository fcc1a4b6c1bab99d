//! Block decomposition of a domain over a processor grid, with halo
//! geometry.
//!
//! A domain of `nx × ny` points distributed over a `Px × Py` processor grid
//! gives each rank a patch of roughly `nx/Px × ny/Py` points (§3.2). Each
//! integration step exchanges halos with the four neighbouring patches —
//! in WRF, 144 point-to-point messages per step spread over the four
//! neighbours (§3.3).

use crate::procgrid::ProcGrid;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// Which side of a patch a halo exchange crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Neighbor {
    /// Negative-x neighbour.
    West,
    /// Positive-x neighbour.
    East,
    /// Negative-y neighbour.
    North,
    /// Positive-y neighbour.
    South,
}

impl Neighbor {
    /// All four directions, in the order used throughout the workspace.
    pub const ALL: [Neighbor; 4] = [
        Neighbor::West,
        Neighbor::East,
        Neighbor::North,
        Neighbor::South,
    ];
}

/// Halo-exchange parameters of the numerical scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HaloSpec {
    /// Halo depth in grid points. WRF-ARW's RK3 advection needs up to 5.
    pub width: u32,
    /// Number of 3-D fields exchanged per step.
    pub fields: u32,
    /// Vertical levels per field.
    pub levels: u32,
    /// Bytes per value (4 for single precision WRF).
    pub bytes_per_value: u32,
    /// Point-to-point messages per step in total (WRF: 144, i.e. 36 per
    /// neighbour, §3.3).
    pub messages_per_step: u32,
}

impl HaloSpec {
    /// WRF-ARW-like halo parameters used for all paper experiments.
    ///
    /// `fields` counts 3-D field-equivalents exchanged per integration step
    /// *summed over the RK3 sub-stages* (WRF exchanges most prognostic and
    /// several diagnostic arrays once per stage — hence the 144 messages and
    /// the ≈ 40 % communication share the paper reports in §3.3).
    pub fn wrf_arw() -> Self {
        HaloSpec {
            width: 5,
            fields: 16,
            levels: 28,
            bytes_per_value: 4,
            messages_per_step: 144,
        }
    }

    /// Bytes moved across one patch edge of `edge_points` points.
    pub fn edge_bytes(&self, edge_points: u32) -> u64 {
        self.width as u64
            * edge_points as u64
            * self.fields as u64
            * self.levels as u64
            * self.bytes_per_value as u64
    }

    /// Messages sent to one neighbour per step.
    pub fn messages_per_neighbor(&self) -> u32 {
        self.messages_per_step / 4
    }
}

/// One rank's patch of a decomposed domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// The rank owning this patch (rank within the *sub-communicator* of the
    /// domain being decomposed, i.e. an index into the partition's rank
    /// list).
    pub(crate) local_rank: u32,
    /// The region of the domain owned, in domain grid coordinates.
    pub region: Rect,
}

impl Patch {
    /// Number of owned grid points.
    pub fn points(&self) -> u64 {
        self.region.area()
    }
}

/// Block decomposition of an `nx × ny` domain over a `Px × Py` grid.
///
/// Remainder points go to the lower-indexed rows/columns, matching WRF's
/// `compute_memory_dims` convention, so patch sizes differ by at most one
/// point per dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// Domain extent in x.
    pub nx: u32,
    /// Domain extent in y.
    pub ny: u32,
    /// Processor grid the domain is spread over.
    pub grid: ProcGrid,
    /// x-extent (start, width) per processor column.
    cols: Vec<(u32, u32)>,
    /// y-extent (start, height) per processor row.
    rows: Vec<(u32, u32)>,
}

/// Splits `n` points over `p` parts: remainder to the first parts.
fn block_extents(n: u32, p: u32) -> Vec<(u32, u32)> {
    let base = n / p;
    let rem = n % p;
    let mut out = Vec::with_capacity(p as usize);
    let mut start = 0;
    for i in 0..p {
        let len = base + u32::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

impl Decomposition {
    /// Decomposes an `nx × ny` domain over `grid`.
    ///
    /// Panics if the grid has more rows/columns than the domain has points
    /// in that dimension (a patch would be empty) — the planner never
    /// allocates such grids.
    pub fn new(nx: u32, ny: u32, grid: ProcGrid) -> Self {
        assert!(grid.px > 0 && grid.py > 0, "empty processor grid");
        assert!(
            grid.px <= nx && grid.py <= ny,
            "processor grid {}x{} larger than domain {}x{}",
            grid.px,
            grid.py,
            nx,
            ny
        );
        Decomposition {
            nx,
            ny,
            grid,
            cols: block_extents(nx, grid.px),
            rows: block_extents(ny, grid.py),
        }
    }

    /// The patch of the rank at grid position `(px, py)`.
    pub fn patch_at(&self, px: u32, py: u32) -> Patch {
        let (x0, w) = self.cols[px as usize];
        let (y0, h) = self.rows[py as usize];
        Patch {
            local_rank: self.grid.rank_of(px, py),
            region: Rect::new(x0, y0, w, h),
        }
    }

    /// The patch of local rank `rank` (row-major in the grid).
    pub fn patch(&self, rank: u32) -> Patch {
        let (x, y) = self.grid.coords_of(rank);
        self.patch_at(x, y)
    }

    /// All patches, ordered by local rank.
    pub fn patches(&self) -> Vec<Patch> {
        (0..self.grid.len()).map(|r| self.patch(r)).collect()
    }

    /// Bytes this rank exchanges with each existing neighbour per step.
    pub fn halo_bytes(&self, rank: u32, halo: &HaloSpec) -> [(Neighbor, Option<u64>); 4] {
        let (x, y) = self.grid.coords_of(rank);
        let p = self.patch_at(x, y);
        let mut out = [
            (Neighbor::West, None),
            (Neighbor::East, None),
            (Neighbor::North, None),
            (Neighbor::South, None),
        ];
        if x > 0 {
            out[0].1 = Some(halo.edge_bytes(p.region.h));
        }
        if x + 1 < self.grid.px {
            out[1].1 = Some(halo.edge_bytes(p.region.h));
        }
        if y > 0 {
            out[2].1 = Some(halo.edge_bytes(p.region.w));
        }
        if y + 1 < self.grid.py {
            out[3].1 = Some(halo.edge_bytes(p.region.w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::tiles_exactly;

    #[test]
    fn block_extents_even() {
        assert_eq!(block_extents(8, 4), vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
    }

    #[test]
    fn block_extents_remainder_first() {
        assert_eq!(block_extents(10, 4), vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
    }

    #[test]
    fn patches_tile_domain() {
        let d = Decomposition::new(286, 307, ProcGrid::new(16, 32));
        let regions: Vec<Rect> = d.patches().iter().map(|p| p.region).collect();
        assert!(tiles_exactly(&Rect::of_size(286, 307), &regions));
    }

    #[test]
    fn patch_sizes_near_uniform() {
        let d = Decomposition::new(415, 445, ProcGrid::new(18, 24));
        let pts: Vec<u64> = d.patches().iter().map(Patch::points).collect();
        let (min, max) = (pts.iter().min().unwrap(), pts.iter().max().unwrap());
        // Widths differ by ≤1 and heights differ by ≤1.
        assert!(max - min <= 24 + 19); // (w+1)(h+1) - wh = w + h + 1 bound
    }

    #[test]
    #[should_panic]
    fn rejects_grid_larger_than_domain() {
        Decomposition::new(4, 4, ProcGrid::new(8, 2));
    }

    #[test]
    fn halo_bytes_boundary_ranks() {
        let d = Decomposition::new(100, 100, ProcGrid::new(4, 4));
        let halo = HaloSpec::wrf_arw();
        // Corner rank 0 has only east and south neighbours.
        let hb = d.halo_bytes(0, &halo);
        assert!(hb[0].1.is_none()); // west
        assert!(hb[1].1.is_some()); // east
        assert!(hb[2].1.is_none()); // north
        assert!(hb[3].1.is_some()); // south
                                    // Interior rank 5 has all four.
        let hb = d.halo_bytes(5, &halo);
        assert!(hb.iter().all(|(_, b)| b.is_some()));
    }

    #[test]
    fn halo_edge_bytes_formula() {
        let halo = HaloSpec {
            width: 5,
            fields: 12,
            levels: 28,
            bytes_per_value: 4,
            messages_per_step: 144,
        };
        // 25-point edge: 5 * 25 * 12 * 28 * 4 bytes.
        assert_eq!(halo.edge_bytes(25), 5 * 25 * 12 * 28 * 4);
        assert_eq!(halo.messages_per_neighbor(), 36);
    }

    #[test]
    fn wrf_messages_per_step_is_144() {
        assert_eq!(HaloSpec::wrf_arw().messages_per_step, 144);
    }
}
