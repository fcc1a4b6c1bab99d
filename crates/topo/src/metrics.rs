//! Communication metrics of a mapping: hops, hop-bytes and link loads.
//!
//! These are the quantities behind the paper's mapping evaluation: the
//! average number of network hops between communicating processes
//! (Fig. 12b), and the per-link traffic whose reduction lowers contention
//! and MPI_Wait times (Fig. 11b, 12a).

use crate::mapping::Mapping;
use nestwx_grid::{ProcGrid, Rect};
use serde::{Deserialize, Serialize};

/// One logical communication edge: `from` sends `bytes` to `to` (per
/// modelled step; scale `bytes` by step counts to weight nests that run `r`
/// times per parent step).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommEdge {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Payload bytes.
    pub bytes: f64,
}

/// Aggregate communication statistics of a communication graph under a
/// mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Mean hop count over edges (unweighted) — the paper's
    /// "average number of hops".
    pub avg_hops: f64,
    /// Maximum hop count over edges.
    pub max_hops: u32,
    /// Σ bytes × hops — the classical hop-bytes mapping objective.
    pub hop_bytes: f64,
    /// Largest per-directed-link traffic (bytes) after dimension-ordered
    /// routing — the contention proxy.
    pub max_link_bytes: f64,
    /// Mean traffic over links that carry any traffic.
    pub(crate) mean_loaded_link_bytes: f64,
}

impl CommStats {
    /// Routes every edge and accumulates the statistics.
    pub fn compute(mapping: &Mapping, edges: &[CommEdge]) -> CommStats {
        let torus = mapping.shape.torus;
        let mut link_load = vec![0.0f64; torus.num_links() as usize];
        let mut total_hops = 0u64;
        let mut max_hops = 0u32;
        let mut hop_bytes = 0.0f64;
        for e in edges {
            let (a, b) = (mapping.node_coord(e.from), mapping.node_coord(e.to));
            let route = torus.route(a, b);
            let hops = route.len() as u32;
            total_hops += hops as u64;
            max_hops = max_hops.max(hops);
            hop_bytes += hops as f64 * e.bytes;
            for l in route {
                link_load[l as usize] += e.bytes;
            }
        }
        let loaded: Vec<f64> = link_load.iter().copied().filter(|&b| b > 0.0).collect();
        CommStats {
            avg_hops: if edges.is_empty() {
                0.0
            } else {
                total_hops as f64 / edges.len() as f64
            },
            max_hops,
            hop_bytes,
            max_link_bytes: link_load.iter().copied().fold(0.0, f64::max),
            mean_loaded_link_bytes: if loaded.is_empty() {
                0.0
            } else {
                loaded.iter().sum::<f64>() / loaded.len() as f64
            },
        }
    }
}

/// Builds the halo-exchange edges of a domain decomposed over the
/// sub-rectangle `region` of `grid`: one directed edge per (rank,
/// existing-neighbour) pair, `bytes` each. Both directions are included
/// since halo exchange is symmetric.
pub fn halo_edges(grid: &ProcGrid, region: &Rect, bytes: f64) -> Vec<CommEdge> {
    let mut edges = Vec::new();
    for rank in grid.ranks_in(region) {
        for nb in grid.neighbors_within(rank, region).into_iter().flatten() {
            edges.push(CommEdge {
                from: rank,
                to: nb,
                bytes,
            });
        }
    }
    edges
}

/// The full communication graph of a multi-nest iteration: parent halo
/// edges over the whole grid, plus per-partition nest halo edges weighted by
/// the refinement ratio `r` (nests step `r` times per parent step).
pub fn nested_iteration_edges(
    grid: &ProcGrid,
    partitions: &[Rect],
    parent_bytes: f64,
    nest_bytes: f64,
    refine_ratio: u32,
) -> Vec<CommEdge> {
    let mut edges = halo_edges(grid, &grid.rect(), parent_bytes);
    for p in partitions {
        edges.extend(halo_edges(grid, p, nest_bytes * refine_ratio as f64));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::{MachineShape, Torus};

    fn shape_4x4x2() -> MachineShape {
        MachineShape::new(Torus::new(4, 4, 2), 1)
    }

    #[test]
    fn halo_edge_count() {
        // 4×4 region: horizontal edges 3*4, vertical 4*3, both directions.
        let grid = ProcGrid::new(8, 4);
        let edges = halo_edges(&grid, &Rect::new(0, 0, 4, 4), 100.0);
        assert_eq!(edges.len(), 2 * (3 * 4 + 4 * 3));
    }

    #[test]
    fn stats_zero_for_no_edges() {
        let m = Mapping::oblivious(shape_4x4x2(), 32).unwrap();
        let s = CommStats::compute(&m, &[]);
        assert_eq!(s.avg_hops, 0.0);
        assert_eq!(s.max_hops, 0);
    }

    #[test]
    fn partition_mapping_halves_avg_hops_vs_oblivious() {
        // The Fig. 12(b) effect at toy scale: topology-aware mapping roughly
        // halves the average hops of the nest communication.
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let mut edges = Vec::new();
        for p in &parts {
            edges.extend(halo_edges(&grid, p, 1.0));
        }
        let ob = Mapping::oblivious(shape_4x4x2(), 32).unwrap();
        let pm = Mapping::partition(shape_4x4x2(), &grid, &parts).unwrap();
        let s_ob = CommStats::compute(&ob, &edges);
        let s_pm = CommStats::compute(&pm, &edges);
        assert!(s_pm.avg_hops <= 1.0 + 1e-9);
        assert!(
            s_pm.avg_hops < 0.7 * s_ob.avg_hops,
            "{} vs {}",
            s_pm.avg_hops,
            s_ob.avg_hops
        );
        assert!(s_pm.hop_bytes < s_ob.hop_bytes);
    }

    #[test]
    fn link_load_conservation() {
        // Total link traffic equals Σ bytes × hops.
        let grid = ProcGrid::new(8, 4);
        let edges = halo_edges(&grid, &grid.rect(), 10.0);
        let m = Mapping::oblivious(shape_4x4x2(), 32).unwrap();
        let torus = m.shape.torus;
        let mut total = 0.0;
        for e in &edges {
            total += torus.hops(m.node_coord(e.from), m.node_coord(e.to)) as f64 * e.bytes;
        }
        let s = CommStats::compute(&m, &edges);
        assert!((s.hop_bytes - total).abs() < 1e-6);
    }

    #[test]
    fn nested_edges_weight_by_refinement() {
        let grid = ProcGrid::new(8, 4);
        let parts = [Rect::new(0, 0, 4, 4), Rect::new(4, 0, 4, 4)];
        let edges = nested_iteration_edges(&grid, &parts, 10.0, 20.0, 3);
        let nest_edge = edges.iter().find(|e| e.bytes > 10.0).unwrap();
        assert_eq!(nest_edge.bytes, 60.0);
    }
}
