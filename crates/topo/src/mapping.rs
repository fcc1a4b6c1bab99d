//! Rank → (node, core) mappings: the paper's four schemes.

use crate::embed::{placement_offsets, Fold, Orientation, SlotSpace};
use crate::torus::{Axis, MachineShape, NodeCoord};
use nestwx_grid::{ProcGrid, Rect};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A rank's placement: which node and which core within the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Linear node index in the torus.
    pub node: u32,
    /// Core within the node.
    pub core: u32,
}

/// Errors building a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// More ranks than slots on the machine.
    TooManyRanks {
        /// Requested ranks.
        ranks: u32,
        /// Available slots.
        slots: u32,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::TooManyRanks { ranks, slots } => {
                write!(f, "{ranks} ranks do not fit on {slots} machine slots")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// An injective assignment of MPI ranks to machine slots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The machine being mapped onto.
    pub shape: MachineShape,
    /// `rank → slot id` (slot id = `node * cores_per_node + core`).
    rank_to_slot: Vec<u32>,
}

impl Mapping {
    /// Builds a mapping from an explicit slot list (must be injective).
    pub(crate) fn from_slots(
        shape: MachineShape,
        rank_to_slot: Vec<u32>,
    ) -> Result<Self, MappingError> {
        if rank_to_slot.len() as u32 > shape.slots() {
            return Err(MappingError::TooManyRanks {
                ranks: rank_to_slot.len() as u32,
                slots: shape.slots(),
            });
        }
        debug_assert!(
            {
                let mut s: Vec<u32> = rank_to_slot.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "mapping is not injective"
        );
        Ok(Mapping {
            shape,
            rank_to_slot,
        })
    }

    /// Number of mapped ranks.
    pub fn len(&self) -> u32 {
        self.rank_to_slot.len() as u32
    }

    /// `true` when no ranks are mapped.
    pub fn is_empty(&self) -> bool {
        self.rank_to_slot.is_empty()
    }

    /// The slot of `rank`.
    pub fn slot(&self, rank: u32) -> Slot {
        let s = self.rank_to_slot[rank as usize];
        Slot {
            node: s / self.shape.cores_per_node,
            core: s % self.shape.cores_per_node,
        }
    }

    /// Torus coordinate of `rank`'s node.
    pub fn node_coord(&self, rank: u32) -> NodeCoord {
        self.shape.torus.coord(self.slot(rank).node)
    }

    /// Hop distance between two ranks (0 when they share a node).
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        self.shape
            .torus
            .hops(self.node_coord(a), self.node_coord(b))
    }

    /// Generic Blue Gene mapfile ordering: `order` lists the axes from the
    /// fastest-varying to the slowest. `[X, Y, Z, T]` is the default
    /// topology-oblivious mapping of Fig. 5(b); `[T, X, Y, Z]` is the TXYZ
    /// mapping compared against in Table 4.
    pub(crate) fn ordered(
        shape: MachineShape,
        nranks: u32,
        order: [Axis; 4],
    ) -> Result<Self, MappingError> {
        if nranks > shape.slots() {
            return Err(MappingError::TooManyRanks {
                ranks: nranks,
                slots: shape.slots(),
            });
        }
        let extent = |a: Axis| -> u32 {
            match a {
                Axis::X => shape.torus.dims[0],
                Axis::Y => shape.torus.dims[1],
                Axis::Z => shape.torus.dims[2],
                Axis::T => shape.cores_per_node,
            }
        };
        let mut slots = Vec::with_capacity(nranks as usize);
        for rank in 0..nranks {
            let mut tmp = rank;
            let (mut x, mut y, mut z, mut t) = (0, 0, 0, 0);
            for &axis in &order {
                let e = extent(axis);
                let c = tmp % e;
                tmp /= e;
                match axis {
                    Axis::X => x = c,
                    Axis::Y => y = c,
                    Axis::Z => z = c,
                    Axis::T => t = c,
                }
            }
            let node = shape.torus.index(NodeCoord::new(x, y, z));
            slots.push(node * shape.cores_per_node + t);
        }
        Mapping::from_slots(shape, slots)
    }

    /// The topology-oblivious sequential mapping (§3.3.1, Fig. 5b): ranks in
    /// increasing order of x, then y, then z (cores of a node filled last).
    pub fn oblivious(shape: MachineShape, nranks: u32) -> Result<Self, MappingError> {
        Mapping::ordered(shape, nranks, [Axis::X, Axis::Y, Axis::Z, Axis::T])
    }

    /// The Blue Gene `TXYZ` mapfile ordering (cores of each node filled
    /// first), the existing alternative the paper compares against.
    pub fn txyz(shape: MachineShape, nranks: u32) -> Result<Self, MappingError> {
        Mapping::ordered(shape, nranks, [Axis::T, Axis::X, Axis::Y, Axis::Z])
    }

    /// Partition mapping (§3.3.2, Fig. 6a): each sibling partition is
    /// embedded into a compact folded cuboid of the torus via first-fit
    /// placement, so neighbouring processes of each nested simulation are
    /// neighbouring nodes.
    ///
    /// `partitions` are rectangles of `grid` (they need not tile it; ranks
    /// outside any partition are placed serpentine in the leftover slots).
    pub fn partition(
        shape: MachineShape,
        grid: &ProcGrid,
        partitions: &[Rect],
    ) -> Result<Self, MappingError> {
        Self::folded(shape, grid, partitions, 0, false)
    }

    /// Multi-level mapping (§3.3.2, Fig. 6b): like partition mapping but
    /// each rectangle is folded once more than necessary (spanning at least
    /// two z planes) and its orientation (mirrorings) is chosen to minimise
    /// the hop distance of **parent-domain** halo edges to the partitions
    /// already placed — the "universal mapping scheme that benefits both
    /// the parent and nested simulations".
    pub fn multilevel(
        shape: MachineShape,
        grid: &ProcGrid,
        partitions: &[Rect],
    ) -> Result<Self, MappingError> {
        Self::folded(shape, grid, partitions, 1, true)
    }

    /// (score, orientation, anchor, offsets) of the best placement found.
    #[allow(clippy::type_complexity)]
    fn folded(
        shape: MachineShape,
        grid: &ProcGrid,
        partitions: &[Rect],
        extra_x_folds: u32,
        orient_aware: bool,
    ) -> Result<Self, MappingError> {
        let nranks = grid.len();
        if nranks > shape.slots() {
            return Err(MappingError::TooManyRanks {
                ranks: nranks,
                slots: shape.slots(),
            });
        }
        let (ex, ey, _) = crate::embed::ext_dims(&shape);
        let mut space = SlotSpace::new(shape);
        // rank -> slot id. Ordered map: lookups only today, but any future
        // iteration (debug dumps, tie-breaking scans) is deterministic for
        // free — this is a planner-output path (lint rule NW-D001).
        let mut placed: BTreeMap<u32, u32> = BTreeMap::new();

        let cross_edges = if orient_aware {
            cross_partition_edges(grid, partitions)
        } else {
            Vec::new()
        };

        for rect in partitions {
            let ranks = grid.ranks_in(rect);
            let orientations: &[Orientation] = if orient_aware {
                &Orientation::ALL
            } else {
                std::slice::from_ref(&Orientation::ALL[0])
            };

            // Try the requested fold depth first; if its cuboid cannot be
            // placed (too deep or fragmented), retreat to the minimal fold
            // before falling back to a serpentine fill.
            let mut best: Option<(u64, Orientation, (u32, u32, u32), Vec<(u32, u32, u32)>)> = None;
            let mut fold_options = vec![extra_x_folds];
            if extra_x_folds > 0 {
                fold_options.push(0);
            }
            for extra in fold_options {
                let fold = Fold::for_rect(rect.w, rect.h, ex, ey, extra);
                for &o in orientations {
                    let offs = placement_offsets(rect, &fold, o);
                    if let Some(anchor) = space.find_anchor(&offs) {
                        let score = if orient_aware {
                            orientation_score(&shape, &ranks, &offs, anchor, &cross_edges, &placed)
                        } else {
                            0
                        };
                        let better = match &best {
                            None => true,
                            Some((s, ..)) => score < *s,
                        };
                        if better {
                            best = Some((score, o, anchor, offs));
                        }
                    }
                }
                if best.is_some() {
                    break;
                }
            }
            let slots = match best {
                Some((_, _, anchor, offs)) => space.claim(&offs, anchor),
                // Fragmented / oversized: fall back to serpentine fill,
                // which still keeps consecutive ranks adjacent.
                None => space.claim_serpentine(ranks.len()),
            };
            for (rank, slot) in ranks.iter().zip(slots) {
                placed.insert(*rank, slot);
            }
        }

        // Ranks not covered by any partition (e.g. a non-tiling partition
        // list) go serpentine in the remaining slots.
        let leftover: Vec<u32> = (0..nranks).filter(|r| !placed.contains_key(r)).collect();
        if !leftover.is_empty() {
            let slots = space.claim_serpentine(leftover.len());
            for (rank, slot) in leftover.into_iter().zip(slots) {
                placed.insert(rank, slot);
            }
        }

        let rank_to_slot: Vec<u32> = (0..nranks).map(|r| placed[&r]).collect();
        Mapping::from_slots(shape, rank_to_slot)
    }
}

/// Pairs of ranks adjacent in the full virtual grid but lying in different
/// partitions — the parent-domain halo edges the multi-level mapping
/// optimises across partition boundaries.
pub fn cross_partition_edges(grid: &ProcGrid, partitions: &[Rect]) -> Vec<(u32, u32)> {
    let part_of =
        |x: u32, y: u32| -> Option<usize> { partitions.iter().position(|p| p.contains(x, y)) };
    let mut edges = Vec::new();
    for y in 0..grid.py {
        for x in 0..grid.px {
            let here = part_of(x, y);
            if x + 1 < grid.px && here != part_of(x + 1, y) {
                edges.push((grid.rank_of(x, y), grid.rank_of(x + 1, y)));
            }
            if y + 1 < grid.py && here != part_of(x, y + 1) {
                edges.push((grid.rank_of(x, y), grid.rank_of(x, y + 1)));
            }
        }
    }
    edges
}

/// Total hop count of the cross edges touching this candidate placement
/// whose other endpoint is already placed.
fn orientation_score(
    shape: &MachineShape,
    ranks: &[u32],
    offs: &[(u32, u32, u32)],
    anchor: (u32, u32, u32),
    cross_edges: &[(u32, u32)],
    placed: &BTreeMap<u32, u32>,
) -> u64 {
    let cpn = shape.cores_per_node;
    let candidate: BTreeMap<u32, NodeCoord> = ranks
        .iter()
        .zip(offs)
        .map(|(&r, &(ox, oy, oz))| {
            let (x, y, ez) = (anchor.0 + ox, anchor.1 + oy, anchor.2 + oz);
            (r, NodeCoord::new(x, y, ez / cpn))
        })
        .collect();
    let mut score = 0u64;
    for &(a, b) in cross_edges {
        let (ca, cb) = (candidate.get(&a), candidate.get(&b));
        let node_of_placed = |r: u32| placed.get(&r).map(|&s| shape.torus.coord(s / cpn));
        match (ca, cb) {
            (Some(&na), None) => {
                if let Some(nb) = node_of_placed(b) {
                    score += shape.torus.hops(na, nb) as u64;
                }
            }
            (None, Some(&nb)) => {
                if let Some(na) = node_of_placed(a) {
                    score += shape.torus.hops(na, nb) as u64;
                }
            }
            _ => {}
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Torus;

    fn shape_4x4x2() -> MachineShape {
        MachineShape::new(Torus::new(4, 4, 2), 1)
    }

    #[test]
    fn oblivious_matches_fig5b() {
        // Fig. 5(b): 32 ranks on a 4×4×2 torus; ranks 0–3 on the y=0 row of
        // plane z=0, ranks 4–7 on y=1, …, ranks 16+ on plane z=1.
        let m = Mapping::oblivious(shape_4x4x2(), 32).unwrap();
        assert_eq!(m.node_coord(0), NodeCoord::new(0, 0, 0));
        assert_eq!(m.node_coord(1), NodeCoord::new(1, 0, 0));
        assert_eq!(m.node_coord(4), NodeCoord::new(0, 1, 0));
        assert_eq!(m.node_coord(8), NodeCoord::new(0, 2, 0));
        assert_eq!(m.node_coord(16), NodeCoord::new(0, 0, 1));
        // The paper's complaint: virtual neighbours 0 and 8 (8×4 grid) are
        // 2 hops apart, 8 and 16 are 3 hops apart.
        assert_eq!(m.hops(0, 8), 2);
        assert_eq!(m.hops(8, 16), 3);
    }

    #[test]
    fn txyz_fills_cores_first() {
        let shape = MachineShape::new(Torus::new(4, 4, 2), 2);
        let m = Mapping::txyz(shape, 8).unwrap();
        // Ranks 0 and 1 share node (0,0,0); rank 2 moves to (1,0,0).
        assert_eq!(m.slot(0), Slot { node: 0, core: 0 });
        assert_eq!(m.slot(1), Slot { node: 0, core: 1 });
        assert_eq!(m.node_coord(2), NodeCoord::new(1, 0, 0));
        assert_eq!(m.hops(0, 1), 0);
    }

    #[test]
    fn mapping_rejects_too_many_ranks() {
        let err = Mapping::oblivious(shape_4x4x2(), 33).unwrap_err();
        assert_eq!(
            err,
            MappingError::TooManyRanks {
                ranks: 33,
                slots: 32
            }
        );
    }

    #[test]
    fn partition_mapping_matches_fig6a() {
        // Fig. 5(a)/6(a): 8×4 virtual grid, two 4×4 partitions on a 4×4×2
        // torus. Partition mapping keeps virtual neighbours of each nest 1
        // hop apart (e.g. ranks 0 and 8).
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let m = Mapping::partition(shape_4x4x2(), &grid, &parts).unwrap();
        for rect in &parts {
            for rank in grid.ranks_in(rect) {
                for n in grid.neighbors_within(rank, rect).into_iter().flatten() {
                    assert!(
                        m.hops(rank, n) <= 1,
                        "nest neighbours {rank},{n} are {} hops apart",
                        m.hops(rank, n)
                    );
                }
            }
        }
    }

    #[test]
    fn partition_mapping_is_injective_and_total() {
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let m = Mapping::partition(shape_4x4x2(), &grid, &parts).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in 0..32 {
            let s = m.slot(r);
            assert!(seen.insert((s.node, s.core)));
        }
    }

    #[test]
    fn multilevel_mapping_nest_neighbors_one_hop() {
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let m = Mapping::multilevel(shape_4x4x2(), &grid, &parts).unwrap();
        for rect in &parts {
            for rank in grid.ranks_in(rect) {
                for n in grid.neighbors_within(rank, rect).into_iter().flatten() {
                    assert!(m.hops(rank, n) <= 1);
                }
            }
        }
    }

    #[test]
    fn multilevel_parent_boundary_no_worse_than_partition() {
        // The whole point of multi-level mapping: cross-partition parent
        // edges should be no longer on average than under partition mapping.
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let edges = cross_partition_edges(&grid, &parts);
        assert!(!edges.is_empty());
        let mp = Mapping::partition(shape_4x4x2(), &grid, &parts).unwrap();
        let mm = Mapping::multilevel(shape_4x4x2(), &grid, &parts).unwrap();
        let total = |m: &Mapping| -> u32 { edges.iter().map(|&(a, b)| m.hops(a, b)).sum() };
        assert!(
            total(&mm) <= total(&mp),
            "multilevel {} > partition {}",
            total(&mm),
            total(&mp)
        );
    }

    #[test]
    fn cross_partition_edges_found() {
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let edges = cross_partition_edges(&grid, &parts);
        // The boundary between the partitions is the column pair (3,4): 4
        // horizontal edges.
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(3, 4)));
        assert!(edges.contains(&(grid.rank_of(3, 3), grid.rank_of(4, 3))));
    }

    #[test]
    fn folded_mapping_on_bgl_scale() {
        // Table 2's real configuration: 32×32 virtual grid on a BG/L rack,
        // partitions 18×24, 18×8, 14×12, 14×20.
        let shape = MachineShape::bgl_rack_vn();
        let grid = ProcGrid::new(32, 32);
        let parts = [
            Rect::new(0, 0, 18, 24),
            Rect::new(0, 24, 18, 8),
            Rect::new(18, 0, 14, 12),
            Rect::new(18, 12, 14, 20),
        ];
        let m = Mapping::partition(shape, &grid, &parts).unwrap();
        assert_eq!(m.len(), 1024);
        let mut seen = std::collections::HashSet::new();
        for r in 0..1024 {
            let s = m.slot(r);
            assert!(seen.insert((s.node, s.core)));
        }
        // Average nest-neighbour hops must be well below the oblivious
        // mapping's.
        let ob = Mapping::oblivious(shape, 1024).unwrap();
        let avg = |m: &Mapping| -> f64 {
            let mut total = 0u64;
            let mut n = 0u64;
            for rect in &parts {
                for rank in grid.ranks_in(rect) {
                    for nb in grid.neighbors_within(rank, rect).into_iter().flatten() {
                        total += m.hops(rank, nb) as u64;
                        n += 1;
                    }
                }
            }
            total as f64 / n as f64
        };
        let (a_part, a_obl) = (avg(&m), avg(&ob));
        assert!(
            a_part < a_obl * 0.75,
            "partition mapping avg hops {a_part:.2} not ≪ oblivious {a_obl:.2}"
        );
    }
}
