//! The 3-D torus network of Blue Gene-class machines.

use serde::{Deserialize, Serialize};

/// Coordinate of a node in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeCoord {
    /// X coordinate.
    pub x: u32,
    /// Y coordinate.
    pub y: u32,
    /// Z coordinate.
    pub z: u32,
}

impl NodeCoord {
    /// Convenience constructor.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        NodeCoord { x, y, z }
    }
}

/// One of the torus axes, or the within-node "T" (core) axis used by Blue
/// Gene mapfile orderings such as `XYZT` and `TXYZ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// Torus X.
    X,
    /// Torus Y.
    Y,
    /// Torus Z.
    Z,
    /// Core within a node.
    T,
}

/// A 3-D torus of `dims[0] × dims[1] × dims[2]` nodes. Every node has six
/// bidirectional links; wrap-around links close each dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus {
    /// Extent in X, Y, Z.
    pub dims: [u32; 3],
}

impl Torus {
    /// Creates a torus. All dimensions must be positive.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "torus dimensions must be positive");
        Torus { dims: [x, y, z] }
    }

    /// Total node count.
    pub const fn nodes(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Linear index of a coordinate (x fastest, then y, then z).
    pub const fn index(&self, c: NodeCoord) -> u32 {
        c.x + self.dims[0] * (c.y + self.dims[1] * c.z)
    }

    /// Coordinate of a linear index.
    pub const fn coord(&self, idx: u32) -> NodeCoord {
        let x = idx % self.dims[0];
        let y = (idx / self.dims[0]) % self.dims[1];
        let z = idx / (self.dims[0] * self.dims[1]);
        NodeCoord { x, y, z }
    }

    /// Shortest signed step along `dim` from `a` to `b` respecting
    /// wrap-around: the returned value is in `[-dims/2, dims/2]` and `0`
    /// means equal. Positive means travel in the `+dim` direction.
    pub fn signed_dist(&self, dim: usize, a: u32, b: u32) -> i32 {
        let n = self.dims[dim] as i32;
        let mut d = (b as i32 - a as i32) % n;
        if d > n / 2 {
            d -= n;
        } else if d < -(n - 1) / 2 {
            d += n;
        }
        d
    }

    /// Hop (Manhattan-with-wraparound) distance between two nodes — the
    /// metric behind Fig. 12(b)'s "average number of hops".
    pub fn hops(&self, a: NodeCoord, b: NodeCoord) -> u32 {
        (0..3)
            .map(|d| {
                let (ac, bc) = match d {
                    0 => (a.x, b.x),
                    1 => (a.y, b.y),
                    _ => (a.z, b.z),
                };
                self.signed_dist(d, ac, bc).unsigned_abs()
            })
            .sum()
    }

    /// A directed link: from node `from` one hop in `+dim` or `-dim`.
    /// Returns the canonical link id for per-link load accounting: links are
    /// numbered `node * 6 + dim * 2 + (dir < 0)`.
    pub fn link_id(&self, from: NodeCoord, dim: usize, positive: bool) -> u32 {
        self.index(from) * 6 + (dim as u32) * 2 + u32::from(!positive)
    }

    /// Total number of directed links.
    pub const fn num_links(&self) -> u32 {
        self.nodes() * 6
    }

    /// The neighbour of `c` one hop along `dim` in direction `positive`.
    pub fn step(&self, c: NodeCoord, dim: usize, positive: bool) -> NodeCoord {
        let n = self.dims[dim];
        let adv = |v: u32| {
            if positive {
                (v + 1) % n
            } else {
                (v + n - 1) % n
            }
        };
        match dim {
            0 => NodeCoord { x: adv(c.x), ..c },
            1 => NodeCoord { y: adv(c.y), ..c },
            _ => NodeCoord { z: adv(c.z), ..c },
        }
    }

    /// Dimension-ordered (X, then Y, then Z) minimal route from `a` to `b`,
    /// as the sequence of directed link ids traversed. Blue Gene's adaptive
    /// routing stays within the minimal quadrant; deterministic
    /// dimension-ordered routing is the standard modelling simplification.
    pub fn route(&self, a: NodeCoord, b: NodeCoord) -> Vec<u32> {
        let mut links = Vec::new();
        self.route_append(a, b, &mut links);
        links
    }

    /// [`Torus::route`] writing into a caller-supplied buffer (cleared
    /// first), so hot paths can route without allocating.
    pub fn route_into(&self, a: NodeCoord, b: NodeCoord, links: &mut Vec<u32>) {
        links.clear();
        self.route_append(a, b, links);
    }

    /// [`Torus::route`] appended to `links`, whose existing contents are
    /// left alone — many routes can share one arena.
    pub fn route_append(&self, a: NodeCoord, b: NodeCoord, links: &mut Vec<u32>) {
        let mut cur = a;
        for dim in 0..3 {
            let (cc, bc) = match dim {
                0 => (cur.x, b.x),
                1 => (cur.y, b.y),
                _ => (cur.z, b.z),
            };
            let d = self.signed_dist(dim, cc, bc);
            let positive = d > 0;
            for _ in 0..d.unsigned_abs() {
                links.push(self.link_id(cur, dim, positive));
                cur = self.step(cur, dim, positive);
            }
        }
        debug_assert_eq!(cur, b);
    }
}

/// A machine's processor layout: the torus of nodes plus how many MPI ranks
/// run per node (Blue Gene execution modes — CO/VN on BG/L; SMP, Dual, VN on
/// BG/P).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineShape {
    /// The node torus.
    pub torus: Torus,
    /// Ranks per node (1, 2 or 4).
    pub cores_per_node: u32,
}

impl MachineShape {
    /// Creates a shape.
    pub fn new(torus: Torus, cores_per_node: u32) -> Self {
        assert!(cores_per_node > 0);
        MachineShape {
            torus,
            cores_per_node,
        }
    }

    /// Total rank slots.
    pub const fn slots(&self) -> u32 {
        self.torus.nodes() * self.cores_per_node
    }

    /// One rack of Blue Gene/L in virtual-node mode: 512 nodes as an
    /// 8 × 8 × 8 torus, 2 ranks per node = 1024 ranks (§4.2.1).
    pub fn bgl_rack_vn() -> Self {
        MachineShape {
            torus: Torus::new(8, 8, 8),
            cores_per_node: 2,
        }
    }

    /// Blue Gene/P in virtual-node mode with `nodes` nodes (power of two,
    /// ≥ 64): 4 ranks per node (§4.2.2). Torus dimensions follow the usual
    /// partition shapes (e.g. 512 nodes = 8×8×8, 2048 nodes = 8×16×16).
    pub fn bgp_vn(nodes: u32) -> Self {
        MachineShape {
            torus: balanced_torus(nodes),
            cores_per_node: 4,
        }
    }
}

/// Picks a near-cubic power-of-two-friendly torus shape for `nodes` nodes.
pub fn balanced_torus(nodes: u32) -> Torus {
    assert!(nodes > 0);
    // Factor into three near-equal factors, preferring x ≤ y ≤ z.
    let mut best = (1u32, 1u32, nodes);
    let mut best_score = u32::MAX;
    let mut a = 1u32;
    while a * a * a <= nodes {
        if nodes.is_multiple_of(a) {
            let rem = nodes / a;
            let mut b = a;
            while b * b <= rem {
                if rem.is_multiple_of(b) {
                    let c = rem / b;
                    let score = c - a; // minimise spread
                    if score < best_score {
                        best_score = score;
                        best = (a, b, c);
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    Torus::new(best.0, best.1, best.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coord_roundtrip() {
        let t = Torus::new(4, 4, 2);
        for idx in 0..t.nodes() {
            assert_eq!(t.index(t.coord(idx)), idx);
        }
    }

    #[test]
    fn signed_dist_wraps() {
        let t = Torus::new(8, 8, 8);
        assert_eq!(t.signed_dist(0, 0, 1), 1);
        assert_eq!(t.signed_dist(0, 0, 7), -1); // wrap is shorter
        assert_eq!(t.signed_dist(0, 0, 4), 4); // half-way: positive by convention
        assert_eq!(t.signed_dist(0, 7, 0), 1);
        assert_eq!(t.signed_dist(0, 3, 3), 0);
    }

    #[test]
    fn hops_is_a_metric() {
        let t = Torus::new(4, 4, 2);
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(3, 2, 1);
        let c = NodeCoord::new(1, 1, 1);
        assert_eq!(t.hops(a, a), 0);
        assert_eq!(t.hops(a, b), t.hops(b, a));
        assert!(t.hops(a, c) + t.hops(c, b) >= t.hops(a, b));
    }

    #[test]
    fn hops_uses_wraparound() {
        let t = Torus::new(8, 8, 8);
        // Paper §3.3.2 footnote: torus wrap links make row ends adjacent.
        assert_eq!(t.hops(NodeCoord::new(0, 0, 0), NodeCoord::new(7, 0, 0)), 1);
        assert_eq!(t.hops(NodeCoord::new(0, 0, 0), NodeCoord::new(3, 0, 0)), 3);
    }

    #[test]
    fn fig5b_example_distances() {
        // Fig. 5(b): 4×4×2 torus; ranks 0 at (0,0,0) and 8 at (0,2,0) under
        // the oblivious mapping are 2 hops apart; 8 at (0,2,0) and 16 at
        // (0,0,1) are 2+1=3 hops apart.
        let t = Torus::new(4, 4, 2);
        assert_eq!(t.hops(NodeCoord::new(0, 0, 0), NodeCoord::new(0, 2, 0)), 2);
        assert_eq!(t.hops(NodeCoord::new(0, 2, 0), NodeCoord::new(0, 0, 1)), 3);
    }

    #[test]
    fn route_length_matches_hops() {
        let t = Torus::new(8, 4, 4);
        let a = NodeCoord::new(1, 3, 0);
        let b = NodeCoord::new(6, 0, 2);
        let route = t.route(a, b);
        assert_eq!(route.len() as u32, t.hops(a, b));
        // All link ids are valid.
        for l in route {
            assert!(l < t.num_links());
        }
    }

    #[test]
    fn route_empty_for_same_node() {
        let t = Torus::new(4, 4, 4);
        assert!(t
            .route(NodeCoord::new(2, 2, 2), NodeCoord::new(2, 2, 2))
            .is_empty());
    }

    #[test]
    fn route_into_matches_route_and_reuses_buffer() {
        let t = Torus::new(8, 4, 4);
        let mut buf = Vec::new();
        let pairs = [
            (NodeCoord::new(1, 3, 0), NodeCoord::new(6, 0, 2)),
            (NodeCoord::new(0, 0, 0), NodeCoord::new(0, 0, 0)),
            (NodeCoord::new(7, 3, 3), NodeCoord::new(0, 0, 0)),
        ];
        for (a, b) in pairs {
            t.route_into(a, b, &mut buf);
            assert_eq!(buf, t.route(a, b));
        }
    }

    #[test]
    fn route_links_are_distinct() {
        let t = Torus::new(8, 8, 8);
        let route = t.route(NodeCoord::new(0, 0, 0), NodeCoord::new(4, 4, 4));
        let mut seen = std::collections::HashSet::new();
        for l in route {
            assert!(seen.insert(l), "route revisits a link");
        }
    }

    #[test]
    fn machine_shapes() {
        let bgl = MachineShape::bgl_rack_vn();
        assert_eq!(bgl.slots(), 1024);
        let bgp = MachineShape::bgp_vn(1024);
        assert_eq!(bgp.slots(), 4096);
        assert_eq!(bgp.torus.nodes(), 1024);
    }

    #[test]
    fn balanced_torus_shapes() {
        assert_eq!(balanced_torus(512).dims, [8, 8, 8]);
        assert_eq!(balanced_torus(2048).dims, [8, 16, 16]);
        assert_eq!(balanced_torus(64).dims, [4, 4, 4]);
        // Non-cube counts still factor fully.
        let t = balanced_torus(96);
        assert_eq!(t.nodes(), 96);
    }

    #[test]
    fn link_ids_unique_per_direction() {
        let t = Torus::new(4, 4, 2);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..t.nodes() {
            let c = t.coord(idx);
            for dim in 0..3 {
                for positive in [true, false] {
                    assert!(seen.insert(t.link_id(c, dim, positive)));
                }
            }
        }
        assert_eq!(seen.len() as u32, t.num_links());
    }
}
