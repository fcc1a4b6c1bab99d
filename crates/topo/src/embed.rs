//! Folded embedding of virtual-grid rectangles into the torus.
//!
//! The topology-aware mappings of §3.3.2 place each sibling partition (a
//! `w × h` rectangle of the virtual processor grid) onto a *compact* region
//! of the torus so that neighbouring processes of the nested simulation are
//! neighbouring nodes. A 2-D rectangle generally does not fit in one torus
//! plane, so it is **folded**: the x extent is folded into `fx` segments of
//! length `≤ EX` and the y extent into `fy` segments of length `≤ EY`; the
//! `fx · fy` segment combinations stack along the (core-extended) z axis.
//! Folds are serpentine, so a virtual neighbour that crosses a fold line
//! moves exactly one plane in z — this generalises the two-plane fold of
//! Fig. 6(b) to arbitrary rectangle sizes.
//!
//! Placement is first-fit over a free-slot bitmap; ranks whose preferred
//! slot cannot be honoured (rounding waste, fragmentation) fall back to the
//! nearest free slot in serpentine order. The fallback keeps the mapping a
//! total injection — every rank gets a core — at a small locality cost,
//! mirroring how real mapfiles must be total.

use crate::torus::MachineShape;
use nestwx_grid::Rect;

/// Coordinates in the *core-extended* torus: `(x, y, ez)` where
/// `ez = z * cores_per_node + core`. Two slots with the same node are 0 hops
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExtCoord {
    /// Torus x.
    pub x: u32,
    /// Torus y.
    pub y: u32,
    /// Extended z (z-plane × cores-per-node + core).
    pub(crate) ez: u32,
}

/// The extended extents of a machine shape.
pub(crate) fn ext_dims(shape: &MachineShape) -> (u32, u32, u32) {
    (
        shape.torus.dims[0],
        shape.torus.dims[1],
        shape.torus.dims[2] * shape.cores_per_node,
    )
}

/// Slot id of an extended coordinate (node-major: all cores of a node are
/// consecutive).
pub(crate) fn slot_of(shape: &MachineShape, c: ExtCoord) -> u32 {
    let z = c.ez / shape.cores_per_node;
    let core = c.ez % shape.cores_per_node;
    let node = shape.torus.index(crate::torus::NodeCoord::new(c.x, c.y, z));
    node * shape.cores_per_node + core
}

/// Fold geometry of a `w × h` rectangle on an `(ex, ey, _)` extended torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fold {
    /// Number of x segments.
    pub fx: u32,
    /// Segment length in x (`≤ ex`).
    pub rx: u32,
    /// Number of y segments.
    pub fy: u32,
    /// Segment length in y (`≤ ey`).
    pub ry: u32,
}

impl Fold {
    /// Minimal fold of a `w × h` rectangle onto extents `(ex, ey)`.
    ///
    /// `extra_x_folds` doubles the x fold count that many times beyond the
    /// minimum — the multi-level mapping of Fig. 6(b) folds once more than
    /// strictly necessary so each partition spans two z planes and sibling
    /// boundaries meet across plane edges.
    pub(crate) fn for_rect(w: u32, h: u32, ex: u32, ey: u32, extra_x_folds: u32) -> Fold {
        assert!(w > 0 && h > 0);
        let mut fx = w.div_ceil(ex);
        for _ in 0..extra_x_folds {
            // Only fold further while segments stay at least 2 wide.
            if w.div_ceil(fx * 2) >= 2 {
                fx *= 2;
            }
        }
        let rx = w.div_ceil(fx);
        let fy = h.div_ceil(ey);
        let ry = h.div_ceil(fy);
        Fold { fx, rx, fy, ry }
    }

    /// Preferred offset (relative to the cuboid anchor) of rectangle-local
    /// cell `(i, j)`, `0 ≤ i < w`, `0 ≤ j < h`.
    ///
    /// Folds are serpentine in both directions, and the x-segment index is
    /// itself serpentine within each y segment, so crossing an x fold is a
    /// single z hop.
    pub(crate) fn offset(&self, i: u32, j: u32) -> (u32, u32, u32) {
        let kx = i / self.rx;
        let mut px = i % self.rx;
        if kx % 2 == 1 {
            px = self.rx - 1 - px;
        }
        let ky = j / self.ry;
        let mut py = j % self.ry;
        if ky % 2 == 1 {
            py = self.ry - 1 - py;
        }
        let kxs = if ky % 2 == 1 { self.fx - 1 - kx } else { kx };
        let layer = ky * self.fx + kxs;
        (px, py, layer)
    }
}

/// How a rectangle is mirrored before folding. The multi-level mapping
/// searches orientations; the plain partition mapping uses the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Orientation {
    /// Mirror the rectangle left-right before folding.
    pub(crate) mirror_x: bool,
    /// Mirror the rectangle top-bottom before folding.
    pub(crate) mirror_y: bool,
}

impl Orientation {
    /// All four orientations.
    pub const ALL: [Orientation; 4] = [
        Orientation {
            mirror_x: false,
            mirror_y: false,
        },
        Orientation {
            mirror_x: true,
            mirror_y: false,
        },
        Orientation {
            mirror_x: false,
            mirror_y: true,
        },
        Orientation {
            mirror_x: true,
            mirror_y: true,
        },
    ];
}

/// A tentative placement of one partition: for each rect-local cell
/// (row-major), the extended coordinate it would occupy.
pub(crate) fn placement_offsets(
    rect: &Rect,
    fold: &Fold,
    orient: Orientation,
) -> Vec<(u32, u32, u32)> {
    let mut out = Vec::with_capacity(rect.area() as usize);
    for j in 0..rect.h {
        let ej = if orient.mirror_y { rect.h - 1 - j } else { j };
        for i in 0..rect.w {
            let ei = if orient.mirror_x { rect.w - 1 - i } else { i };
            out.push(fold.offset(ei, ej));
        }
    }
    out
}

/// A free-slot bitmap over a machine shape with first-fit cuboid placement.
#[derive(Debug, Clone)]
pub(crate) struct SlotSpace {
    shape: MachineShape,
    free: Vec<bool>,
}

impl SlotSpace {
    /// All slots free.
    pub(crate) fn new(shape: MachineShape) -> Self {
        SlotSpace {
            shape,
            free: vec![true; shape.slots() as usize],
        }
    }

    /// Is the slot at extended coordinate `c` free?
    fn is_free(&self, c: ExtCoord) -> bool {
        self.free[slot_of(&self.shape, c) as usize]
    }

    /// Tries to place `offsets` at anchor `(ax, ay, az)` (no wrap-around).
    fn fits(&self, offsets: &[(u32, u32, u32)], anchor: (u32, u32, u32)) -> bool {
        let (ex, ey, ez) = ext_dims(&self.shape);
        offsets.iter().all(|&(ox, oy, oz)| {
            let (x, y, z) = (anchor.0 + ox, anchor.1 + oy, anchor.2 + oz);
            x < ex && y < ey && z < ez && self.is_free(ExtCoord { x, y, ez: z })
        })
    }

    /// First-fit anchor scan (z outermost, then y, then x) for a set of
    /// offsets; returns the anchor or `None`.
    pub(crate) fn find_anchor(&self, offsets: &[(u32, u32, u32)]) -> Option<(u32, u32, u32)> {
        let (ex, ey, ez) = ext_dims(&self.shape);
        let max = offsets.iter().fold((0, 0, 0), |m, &(x, y, z)| {
            (m.0.max(x), m.1.max(y), m.2.max(z))
        });
        if max.0 >= ex || max.1 >= ey || max.2 >= ez {
            return None;
        }
        for az in 0..=(ez - 1 - max.2) {
            for ay in 0..=(ey - 1 - max.1) {
                for ax in 0..=(ex - 1 - max.0) {
                    if self.fits(offsets, (ax, ay, az)) {
                        return Some((ax, ay, az));
                    }
                }
            }
        }
        None
    }

    /// Claims the slots of `offsets` at `anchor`, returning the slot id of
    /// each offset in order.
    pub(crate) fn claim(
        &mut self,
        offsets: &[(u32, u32, u32)],
        anchor: (u32, u32, u32),
    ) -> Vec<u32> {
        offsets
            .iter()
            .map(|&(ox, oy, oz)| {
                let c = ExtCoord {
                    x: anchor.0 + ox,
                    y: anchor.1 + oy,
                    ez: anchor.2 + oz,
                };
                let s = slot_of(&self.shape, c);
                assert!(self.free[s as usize], "claiming an occupied slot");
                self.free[s as usize] = false;
                s
            })
            .collect()
    }

    /// Claims the next `n` free slots in serpentine order (x serpentine
    /// within y, y serpentine within extended z), so consecutive fallback
    /// slots are at most one hop apart.
    pub(crate) fn claim_serpentine(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        let (ex, ey, ez) = ext_dims(&self.shape);
        'outer: for z in 0..ez {
            for yy in 0..ey {
                let y = if z % 2 == 1 { ey - 1 - yy } else { yy };
                for xx in 0..ex {
                    let x = if yy % 2 == 1 { ex - 1 - xx } else { xx };
                    let c = ExtCoord { x, y, ez: z };
                    let s = slot_of(&self.shape, c);
                    if self.free[s as usize] {
                        self.free[s as usize] = false;
                        out.push(s);
                        if out.len() == n {
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert_eq!(out.len(), n, "not enough free slots");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Torus;

    fn shape_4x4x2() -> MachineShape {
        MachineShape::new(Torus::new(4, 4, 2), 1)
    }

    /// Inverse of [`slot_of`].
    fn coord_of(shape: &MachineShape, slot: u32) -> ExtCoord {
        let node = slot / shape.cores_per_node;
        let core = slot % shape.cores_per_node;
        let nc = shape.torus.coord(node);
        ExtCoord {
            x: nc.x,
            y: nc.y,
            ez: nc.z * shape.cores_per_node + core,
        }
    }

    /// Depth (extended-z extent) of the folded cuboid.
    fn depth(f: &Fold) -> u32 {
        f.fx * f.fy
    }

    /// Number of still-free slots.
    fn free_count(space: &SlotSpace) -> usize {
        space.free.iter().filter(|f| **f).count()
    }

    #[test]
    fn slot_coord_roundtrip() {
        let s = MachineShape::new(Torus::new(4, 4, 2), 2);
        for slot in 0..s.slots() {
            assert_eq!(slot_of(&s, coord_of(&s, slot)), slot);
        }
    }

    #[test]
    fn fold_no_fold_needed() {
        // 4×4 rect on an 4×4 extent: one segment each.
        let f = Fold::for_rect(4, 4, 4, 4, 0);
        assert_eq!((f.fx, f.rx, f.fy, f.ry), (1, 4, 1, 4));
        assert_eq!(depth(&f), 1);
        assert_eq!(f.offset(0, 0), (0, 0, 0));
        assert_eq!(f.offset(3, 3), (3, 3, 0));
    }

    #[test]
    fn fold_x_two_segments() {
        // 8-wide rect on a 4-wide torus: two x segments stacked in z.
        let f = Fold::for_rect(8, 4, 4, 4, 0);
        assert_eq!((f.fx, f.rx), (2, 4));
        assert_eq!(depth(&f), 2);
        // First segment left-to-right on layer 0.
        assert_eq!(f.offset(0, 0), (0, 0, 0));
        assert_eq!(f.offset(3, 0), (3, 0, 0));
        // Second segment serpentine (right-to-left) on layer 1 — crossing
        // the fold (i = 3 → 4) is one z hop, like Fig. 6(b).
        assert_eq!(f.offset(4, 0), (3, 0, 1));
        assert_eq!(f.offset(7, 0), (0, 0, 1));
    }

    #[test]
    fn fig6b_multilevel_fold() {
        // Fig. 6(b): a 4×4 partition folded once more than necessary on a
        // 4-wide torus → 2×4×2 cuboid; process 0 → (0,0,0), 1 → (1,0,0),
        // 2 → (1,0,1), 3 → (0,0,1).
        let f = Fold::for_rect(4, 4, 4, 4, 1);
        assert_eq!((f.fx, f.rx), (2, 2));
        assert_eq!(f.offset(0, 0), (0, 0, 0));
        assert_eq!(f.offset(1, 0), (1, 0, 0));
        assert_eq!(f.offset(2, 0), (1, 0, 1));
        assert_eq!(f.offset(3, 0), (0, 0, 1));
    }

    #[test]
    fn fold_neighbor_offsets_close() {
        // Within any fold, virtual x-neighbours differ by ≤1 in x and ≤1 in
        // layer; virtual y-neighbours by ≤1 in y or a layer jump.
        let f = Fold::for_rect(18, 24, 8, 8, 0);
        for j in 0..24 {
            for i in 0..17 {
                let a = f.offset(i, j);
                let b = f.offset(i + 1, j);
                let dx = a.0.abs_diff(b.0);
                let dl = a.2.abs_diff(b.2);
                assert!(dx + dl <= 1, "x-neighbour ({i},{j}) jumps dx={dx} dl={dl}");
            }
        }
    }

    #[test]
    fn fold_covers_all_cells_injectively() {
        let f = Fold::for_rect(18, 24, 8, 8, 0);
        let mut seen = std::collections::HashSet::new();
        for j in 0..24 {
            for i in 0..18 {
                assert!(seen.insert(f.offset(i, j)), "offset collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn first_fit_places_two_planes() {
        // Two 4×4 partitions on a 4×4×2 torus: first gets plane z=0, second
        // plane z=1 — the partition-mapping layout of Fig. 6(a).
        let mut space = SlotSpace::new(shape_4x4x2());
        let rect = Rect::of_size(4, 4);
        let f = Fold::for_rect(4, 4, 4, 4, 0);
        let offs = placement_offsets(&rect, &f, Orientation::default());
        let a1 = space.find_anchor(&offs).unwrap();
        assert_eq!(a1, (0, 0, 0));
        space.claim(&offs, a1);
        let a2 = space.find_anchor(&offs).unwrap();
        assert_eq!(a2, (0, 0, 1));
        space.claim(&offs, a2);
        assert_eq!(free_count(&space), 0);
    }

    #[test]
    fn serpentine_fallback_claims_adjacent_slots() {
        let mut space = SlotSpace::new(shape_4x4x2());
        let slots = space.claim_serpentine(6);
        assert_eq!(slots.len(), 6);
        let shape = shape_4x4x2();
        for w in slots.windows(2) {
            let a = coord_of(&shape, w[0]);
            let b = coord_of(&shape, w[1]);
            let d = shape.torus.hops(
                crate::torus::NodeCoord::new(a.x, a.y, a.ez),
                crate::torus::NodeCoord::new(b.x, b.y, b.ez),
            );
            assert!(d <= 1, "serpentine neighbours {d} hops apart");
        }
    }

    #[test]
    fn claim_serpentine_exhausts_space() {
        let mut space = SlotSpace::new(shape_4x4x2());
        let slots = space.claim_serpentine(32);
        let unique: std::collections::HashSet<_> = slots.iter().collect();
        assert_eq!(unique.len(), 32);
        assert_eq!(free_count(&space), 0);
    }
}
