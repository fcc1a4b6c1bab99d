//! 5-D torus (Blue Gene/Q) — the paper's future-work topology (§6: "develop
//! novel schemes for the 5D torus topology of Blue Gene/Q system").
//!
//! BG/Q arranges nodes as an `A × B × C × D × E` torus with `E = 2`. This
//! module provides the metric/routing substrate plus two 2-D → 5-D
//! mappings:
//!
//! * [`Mapping5::oblivious`] — ranks in increasing ABCDE order (the 5-D
//!   analogue of Fig. 5(b));
//! * [`Mapping5::partition_serpentine`] — each sibling partition placed on a
//!   contiguous run of a boustrophedon (serpentine) walk of the torus, in
//!   which consecutive slots are exactly one hop apart; within a partition,
//!   ranks follow a row-serpentine of the rectangle, so most virtual
//!   neighbours stay 1–2 hops apart.

use crate::mapping::MappingError;
use nestwx_grid::{ProcGrid, Rect};
use serde::{Deserialize, Serialize};

/// A 5-dimensional torus of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus5 {
    /// Extents in A, B, C, D, E.
    pub dims: [u32; 5],
}

impl Torus5 {
    /// Creates a torus; all dimensions must be positive.
    pub(crate) fn new(dims: [u32; 5]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "5-D torus dimensions must be positive"
        );
        Torus5 { dims }
    }

    /// A one-rack BG/Q (1024 nodes): 4 × 4 × 4 × 8 × 2.
    pub fn bgq_rack() -> Self {
        Torus5::new([4, 4, 4, 8, 2])
    }

    /// Node count.
    pub fn nodes(&self) -> u32 {
        self.dims.iter().product()
    }

    /// Linear index (A fastest).
    pub(crate) fn index(&self, c: [u32; 5]) -> u32 {
        let mut idx = 0;
        for d in (0..5).rev() {
            idx = idx * self.dims[d] + c[d];
        }
        idx
    }

    /// Coordinates of a linear index.
    pub(crate) fn coord(&self, mut idx: u32) -> [u32; 5] {
        let mut c = [0u32; 5];
        for (ci, &n) in c.iter_mut().zip(&self.dims) {
            *ci = idx % n;
            idx /= n;
        }
        c
    }

    /// Hop distance with wrap-around in every dimension.
    pub(crate) fn hops(&self, a: [u32; 5], b: [u32; 5]) -> u32 {
        (0..5)
            .map(|d| {
                let n = self.dims[d];
                let diff = a[d].abs_diff(b[d]);
                diff.min(n - diff)
            })
            .sum()
    }

    /// A boustrophedon walk visiting every node exactly once with
    /// consecutive nodes one hop apart (serpentine nesting across all five
    /// dimensions).
    pub(crate) fn serpentine(&self) -> Vec<[u32; 5]> {
        let mut out = Vec::with_capacity(self.nodes() as usize);
        let [da, db, dc, dd, de] = self.dims;
        for e in 0..de {
            for dd_i in 0..dd {
                let d = if e % 2 == 1 { dd - 1 - dd_i } else { dd_i };
                for dc_i in 0..dc {
                    let c = if (e * dd + dd_i) % 2 == 1 {
                        dc - 1 - dc_i
                    } else {
                        dc_i
                    };
                    for db_i in 0..db {
                        let b = if (e * dd * dc + dd_i * dc + dc_i) % 2 == 1 {
                            db - 1 - db_i
                        } else {
                            db_i
                        };
                        for da_i in 0..da {
                            let a = if (e * dd * dc * db + dd_i * dc * db + dc_i * db + db_i) % 2
                                == 1
                            {
                                da - 1 - da_i
                            } else {
                                da_i
                            };
                            out.push([a, b, c, d, e]);
                        }
                    }
                }
            }
        }
        out
    }
}

/// An injective rank → node assignment on a 5-D torus (one rank per node
/// for simplicity — BG/Q runs 16 per node, folded the same way the 3-D
/// extended-z treatment handles cores).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping5 {
    /// The torus mapped onto.
    pub torus: Torus5,
    rank_to_node: Vec<u32>,
}

impl Mapping5 {
    /// Ranks in plain increasing ABCDE order.
    pub fn oblivious(torus: Torus5, nranks: u32) -> Result<Self, MappingError> {
        if nranks > torus.nodes() {
            return Err(MappingError::TooManyRanks {
                ranks: nranks,
                slots: torus.nodes(),
            });
        }
        Ok(Mapping5 {
            torus,
            rank_to_node: (0..nranks).collect(),
        })
    }

    /// Partition-aware serpentine: each partition's ranks (row-serpentine
    /// within the rectangle) occupy a contiguous run of the torus's
    /// serpentine walk.
    pub fn partition_serpentine(
        torus: Torus5,
        grid: &ProcGrid,
        partitions: &[Rect],
    ) -> Result<Self, MappingError> {
        let nranks = grid.len();
        if nranks > torus.nodes() {
            return Err(MappingError::TooManyRanks {
                ranks: nranks,
                slots: torus.nodes(),
            });
        }
        let walk = torus.serpentine();
        let mut rank_to_node = vec![u32::MAX; nranks as usize];
        let mut cursor = 0usize;
        // Row-serpentine within each rectangle keeps consecutive ranks
        // adjacent in the virtual grid too.
        let mut ordered: Vec<u32> = Vec::with_capacity(nranks as usize);
        for rect in partitions {
            for j in 0..rect.h {
                if j % 2 == 0 {
                    for i in 0..rect.w {
                        ordered.push(grid.rank_of(rect.x0 + i, rect.y0 + j));
                    }
                } else {
                    for i in (0..rect.w).rev() {
                        ordered.push(grid.rank_of(rect.x0 + i, rect.y0 + j));
                    }
                }
            }
        }
        for &r in &ordered {
            rank_to_node[r as usize] = torus.index(walk[cursor]);
            cursor += 1;
        }
        // Leftover ranks (non-tiling partition lists) continue the walk.
        for r in 0..nranks {
            if rank_to_node[r as usize] == u32::MAX {
                rank_to_node[r as usize] = torus.index(walk[cursor]);
                cursor += 1;
            }
        }
        Ok(Mapping5 {
            torus,
            rank_to_node,
        })
    }

    /// Universal folded mapping: factor the torus dimensions into two
    /// groups whose extents multiply to the virtual grid's width and
    /// height, then snake virtual x over the first group and virtual y over
    /// the second. Every virtual-grid neighbour — nest *and* parent — is
    /// then exactly one hop apart: with five dimensions to combine, the
    /// "non-foldable" problem of the 3-D torus disappears whenever the
    /// extents factor (they do for the power-of-two BG/Q shapes).
    ///
    /// Returns `None` if no dimension split matches the grid.
    pub fn universal_folded(torus: Torus5, grid: &ProcGrid) -> Option<Self> {
        if grid.len() != torus.nodes() {
            return None;
        }
        // Find a subset of dims whose product is exactly grid.px (the
        // complement must then multiply to grid.py).
        let dims = torus.dims;
        let split = (0u32..32).find(|mask| {
            let px: u32 = (0..5)
                .filter(|d| mask & (1 << d) != 0)
                .map(|d| dims[d])
                .product();
            px == grid.px
        })?;
        let x_dims: Vec<usize> = (0..5).filter(|d| split & (1 << d) != 0).collect();
        let y_dims: Vec<usize> = (0..5).filter(|d| split & (1 << d) == 0).collect();

        // Multi-level snake: decompose a virtual coordinate over an ordered
        // dim list so that +1 in the virtual coordinate moves exactly one
        // hop in exactly one torus dimension.
        let snake = |mut v: u32, ds: &[usize], coord: &mut [u32; 5]| {
            for &d in ds {
                let n = dims[d];
                let digit = v % n;
                v /= n;
                // Reflect this level when the combined higher digits are
                // odd — the recursive boustrophedon condition.
                coord[d] = if v % 2 == 1 { n - 1 - digit } else { digit };
            }
        };
        let mut rank_to_node = vec![0u32; grid.len() as usize];
        for y in 0..grid.py {
            for x in 0..grid.px {
                let mut c = [0u32; 5];
                snake(x, &x_dims, &mut c);
                snake(y, &y_dims, &mut c);
                rank_to_node[grid.rank_of(x, y) as usize] = torus.index(c);
            }
        }
        Some(Mapping5 {
            torus,
            rank_to_node,
        })
    }

    /// Node coordinates of a rank.
    pub(crate) fn coord(&self, rank: u32) -> [u32; 5] {
        self.torus.coord(self.rank_to_node[rank as usize])
    }

    /// Hop distance between two ranks.
    pub(crate) fn hops(&self, a: u32, b: u32) -> u32 {
        self.torus.hops(self.coord(a), self.coord(b))
    }

    /// Mean hops over a set of rank pairs.
    pub fn avg_hops(&self, edges: &[(u32, u32)]) -> f64 {
        if edges.is_empty() {
            return 0.0;
        }
        edges
            .iter()
            .map(|&(a, b)| self.hops(a, b) as u64)
            .sum::<u64>() as f64
            / edges.len() as f64
    }
}

/// Nest-halo edges of the partitions (both directions), as rank pairs.
pub fn partition_halo_pairs(grid: &ProcGrid, partitions: &[Rect]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for p in partitions {
        for rank in grid.ranks_in(p) {
            for nb in grid.neighbors_within(rank, p).into_iter().flatten() {
                out.push((rank, nb));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Blue Gene/Q midplane: 4 × 4 × 4 × 4 × 2 = 512 nodes.
    fn bgq_midplane() -> Torus5 {
        Torus5::new([4, 4, 4, 4, 2])
    }

    #[test]
    fn index_coord_roundtrip() {
        let t = bgq_midplane();
        for i in 0..t.nodes() {
            assert_eq!(t.index(t.coord(i)), i);
        }
    }

    #[test]
    fn hops_metric_with_wraparound() {
        let t = Torus5::new([4, 4, 4, 4, 2]);
        assert_eq!(t.hops([0, 0, 0, 0, 0], [0, 0, 0, 0, 0]), 0);
        assert_eq!(t.hops([0, 0, 0, 0, 0], [3, 0, 0, 0, 0]), 1); // wrap
        assert_eq!(t.hops([0, 0, 0, 0, 0], [2, 2, 0, 0, 1]), 5);
        let (a, b) = ([1, 2, 3, 0, 1], [3, 0, 1, 2, 0]);
        assert_eq!(t.hops(a, b), t.hops(b, a));
    }

    #[test]
    fn serpentine_is_hamiltonian_one_hop() {
        for t in [Torus5::new([2, 3, 2, 2, 2]), bgq_midplane()] {
            let walk = t.serpentine();
            assert_eq!(walk.len() as u32, t.nodes());
            let unique: std::collections::HashSet<_> = walk.iter().collect();
            assert_eq!(unique.len() as u32, t.nodes());
            for w in walk.windows(2) {
                assert_eq!(t.hops(w[0], w[1]), 1, "walk step {:?} → {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn mappings_injective() {
        let t = bgq_midplane();
        let grid = ProcGrid::new(32, 16); // 512 ranks
        let parts = [Rect::new(0, 0, 16, 16), Rect::new(16, 0, 16, 16)];
        for m in [
            Mapping5::oblivious(t, 512).unwrap(),
            Mapping5::partition_serpentine(t, &grid, &parts).unwrap(),
        ] {
            let nodes: std::collections::HashSet<_> = (0..512).map(|r| m.coord(r)).collect();
            assert_eq!(nodes.len(), 512);
        }
    }

    #[test]
    fn partition_serpentine_beats_oblivious_on_nest_hops() {
        // The paper's mapping claim carries to 5-D: partition-contiguous
        // placement cuts the average nest-halo hops.
        let t = Torus5::bgq_rack(); // 1024 nodes
        let grid = ProcGrid::new(32, 32);
        let parts = [
            Rect::new(0, 0, 18, 24),
            Rect::new(0, 24, 18, 8),
            Rect::new(18, 0, 14, 12),
            Rect::new(18, 12, 14, 20),
        ];
        let edges = partition_halo_pairs(&grid, &parts);
        let ob = Mapping5::oblivious(t, 1024).unwrap();
        let ps = Mapping5::partition_serpentine(t, &grid, &parts).unwrap();
        let (h_ob, h_ps) = (ob.avg_hops(&edges), ps.avg_hops(&edges));
        assert!(h_ps < h_ob, "serpentine {h_ps:.2} !< oblivious {h_ob:.2}");
    }

    #[test]
    fn universal_folded_every_neighbor_one_hop() {
        let t = Torus5::bgq_rack();
        let grid = ProcGrid::new(32, 32);
        let m = Mapping5::universal_folded(t, &grid).unwrap();
        // Injective onto all nodes.
        let nodes: std::collections::HashSet<_> = (0..1024).map(|r| m.coord(r)).collect();
        assert_eq!(nodes.len(), 1024);
        // Every virtual-grid neighbour is exactly one hop apart.
        let edges = partition_halo_pairs(&grid, &[grid.rect()]);
        for &(a, b) in &edges {
            assert_eq!(
                m.hops(a, b),
                1,
                "ranks {a},{b} are {} hops apart",
                m.hops(a, b)
            );
        }
        // No valid split → None.
        assert!(Mapping5::universal_folded(Torus5::new([3, 5, 7, 2, 2]), &grid).is_none());
    }

    #[test]
    fn rejects_too_many_ranks() {
        let t = bgq_midplane();
        assert!(Mapping5::oblivious(t, 513).is_err());
    }
}
