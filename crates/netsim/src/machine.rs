//! Machine models: Blue Gene/L and Blue Gene/P presets.
//!
//! Parameter values are calibrated so the *shapes* of the paper's curves
//! hold (saturation of a 415×445 nest near 512 BG/L cores, per-iteration
//! times of a few seconds on 1024 cores, I/O a 20–40 % fraction at high
//! output frequency); they are not a cycle-accurate hardware description.

use crate::io::IoParams;
use nestwx_grid::HaloSpec;
use nestwx_topo::MachineShape;
use serde::{Deserialize, Serialize};

/// Compute-side cost model of one WRF integration step on one rank.
///
/// The decisive feature is the **halo fringe inflation**: WRF computes
/// tendencies on a patch extended laterally by the stencil halo, so a rank
/// owning a `w × h` patch pays for `(w + 2·halo_compute) × (h + 2·halo_compute)`
/// points. As patches shrink, the fringe dominates and scaling saturates —
/// this single mechanism reproduces Fig. 2 and the absolute sibling times of
/// Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeParams {
    /// Seconds of compute per grid point per step (includes memory stalls).
    pub time_per_point: f64,
    /// Lateral fringe depth (grid points) charged as extra compute.
    pub halo_compute: u32,
    /// Fixed per-rank per-step cost (sub-step orchestration, physics
    /// bookkeeping), seconds.
    pub fixed_per_step: f64,
    /// Relative slow-down of per-point cost once a patch's working set
    /// spills the per-core cache (0.3 = up to 30 % slower). Large patches
    /// (few ranks per domain) are memory-bound; small patches are
    /// cache-resident — the counter-force that keeps the concurrent
    /// strategy from winning when nests are large relative to the machine
    /// (Fig. 10's 1.33 % at 1024 cores).
    pub mem_penalty: f64,
    /// Patch size (points) that fits in cache; the penalty ramps linearly
    /// up to `2 × cache_points`.
    pub cache_points: f64,
    /// Relative per-step compute jitter (0.08 = ±8 %), modelling the
    /// physics load imbalance of real WRF (moist columns cost more). Drawn
    /// deterministically per (rank, step).
    pub jitter: f64,
}

impl ComputeParams {
    /// Compute seconds for one step of a `w × h` patch (mean, no jitter).
    pub(crate) fn step_time(&self, w: u32, h: u32) -> f64 {
        let raw = w as f64 * h as f64;
        let hw = (w + 2 * self.halo_compute) as f64;
        let hh = (h + 2 * self.halo_compute) as f64;
        let spill = (raw / self.cache_points - 1.0).clamp(0.0, 1.0);
        let factor = 1.0 + self.mem_penalty * spill;
        self.fixed_per_step + hw * hh * self.time_per_point * factor
    }

    /// [`ComputeParams::step_time`] with the deterministic physics jitter
    /// for (`rank`, `step`).
    pub(crate) fn step_time_jittered(&self, w: u32, h: u32, rank: u32, step: u64) -> f64 {
        self.step_time(w, h) * (1.0 + self.jitter * unit_hash(rank, step))
    }
}

/// Deterministic hash of (rank, step) to a uniform value in `[-1, 1]`
/// (splitmix64 finaliser).
pub(crate) fn unit_hash(rank: u32, step: u64) -> f64 {
    let mut z = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ step.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Network parameters of the torus interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Per-direction link bandwidth, bytes/s.
    pub link_bw: f64,
    /// Per-hop router latency, seconds.
    pub hop_latency: f64,
    /// Software overhead per message at the sender, seconds.
    pub send_overhead: f64,
    /// Software overhead per message at the receiver, seconds.
    pub recv_overhead: f64,
    /// Intra-node copy bandwidth, bytes/s (two ranks on one node).
    pub mem_bw: f64,
}

/// Torus shape of a Blue Gene partition: midplanes are 8×8×8 and racks
/// stack along z, so partitions of ≥ 512 nodes are `8 × 8 × (nodes/64)`;
/// smaller partitions fall back to a near-cubic factorisation.
pub(crate) fn bg_torus(nodes: u32) -> nestwx_topo::Torus {
    if nodes.is_multiple_of(64) && nodes / 64 >= 8 {
        nestwx_topo::Torus::new(8, 8, nodes / 64)
    } else {
        nestwx_topo::torus::balanced_torus(nodes)
    }
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Human-readable name, e.g. `"BG/L(1024)"`.
    pub name: String,
    /// Torus and cores-per-node.
    pub shape: MachineShape,
    /// Compute model.
    pub compute: ComputeParams,
    /// Network model.
    pub net: NetworkParams,
    /// I/O model.
    pub io: IoParams,
    /// Halo-exchange geometry (width, fields, levels, messages/step).
    pub halo: HaloSpec,
    /// 2-D output fields written per history frame.
    pub fields_out: u32,
    /// Vertical levels per output field.
    pub levels_out: u32,
}

impl Machine {
    /// Total MPI ranks.
    pub fn ranks(&self) -> u32 {
        self.shape.slots()
    }

    /// One rack of Blue Gene/L in virtual-node mode (1024 ranks), §4.2.1.
    pub fn bgl_rack() -> Machine {
        Machine::bgl(1024)
    }

    /// Blue Gene/L in coprocessor (CO) mode: one compute rank per node, the
    /// second core driving communication (§4.2.1). Same node count as a VN
    /// partition of `2 × ranks` cores; messaging overheads drop because the
    /// offload core handles the network stack.
    pub fn bgl_co(ranks: u32) -> Machine {
        assert!(
            ranks >= 8 && ranks.is_power_of_two(),
            "BG/L CO partition of {ranks} nodes"
        );
        let mut m = Machine::bgl(ranks * 2);
        m.name = format!("BG/L-CO({ranks})");
        m.shape.cores_per_node = 1;
        m.net.send_overhead *= 0.5;
        m.net.recv_overhead *= 0.5;
        // One rank per node: the full node memory serves one process.
        m.compute.cache_points *= 2.0;
        m
    }

    /// Blue Gene/L with `cores` ranks (power of two, ≥ 16), VN mode.
    pub fn bgl(cores: u32) -> Machine {
        assert!(
            cores >= 16 && cores.is_power_of_two(),
            "BG/L partition of {cores} cores"
        );
        let nodes = cores / 2;
        Machine {
            name: format!("BG/L({cores})"),
            shape: MachineShape {
                torus: bg_torus(nodes),
                cores_per_node: 2,
            },
            compute: ComputeParams {
                // 700 MHz PPC440: WRF sustains ≈ 40 kflop/point/step at
                // ≈ 0.13 Gflop/s effective. Calibrated against Fig. 9's
                // absolute sibling times.
                time_per_point: 300e-6,
                halo_compute: 2,
                fixed_per_step: 1.0e-3,
                mem_penalty: 0.15,
                cache_points: 1500.0,
                jitter: 0.08,
            },
            net: NetworkParams {
                link_bw: 150e6,
                hop_latency: 0.1e-6,
                send_overhead: 3.2e-6,
                recv_overhead: 3.2e-6,
                mem_bw: 2.0e9,
            },
            io: IoParams::bgl_split(),
            halo: HaloSpec::wrf_arw(),
            fields_out: 18,
            levels_out: 28,
        }
    }

    /// Blue Gene/P in SMP mode: one rank per node (§4.2.2's
    /// "one process per node with up to four threads"); the per-rank patch
    /// is large but all node memory and links serve it.
    pub fn bgp_smp(ranks: u32) -> Machine {
        assert!(
            ranks >= 16 && ranks.is_power_of_two(),
            "BG/P SMP partition of {ranks} nodes"
        );
        let mut m = Machine::bgp(ranks * 4);
        m.name = format!("BG/P-SMP({ranks})");
        m.shape.cores_per_node = 1;
        // Four threads cooperate on the patch: ~3.2× one core's throughput.
        m.compute.time_per_point /= 3.2;
        m.compute.cache_points *= 4.0;
        m
    }

    /// Blue Gene/P in Dual mode: two ranks per node, two threads each.
    pub fn bgp_dual(ranks: u32) -> Machine {
        assert!(
            ranks >= 32 && ranks.is_power_of_two(),
            "BG/P Dual partition of {ranks} ranks"
        );
        let mut m = Machine::bgp(ranks * 2);
        m.name = format!("BG/P-Dual({ranks})");
        m.shape.cores_per_node = 2;
        m.compute.time_per_point /= 1.8;
        m.compute.cache_points *= 2.0;
        m
    }

    /// Blue Gene/P in virtual-node mode with `cores` ranks (power of two,
    /// ≥ 64, up to 8192 in the paper), §4.2.2.
    pub fn bgp(cores: u32) -> Machine {
        assert!(
            cores >= 64 && cores.is_power_of_two(),
            "BG/P partition of {cores} cores"
        );
        let nodes = cores / 4;
        Machine {
            name: format!("BG/P({cores})"),
            shape: MachineShape {
                torus: bg_torus(nodes),
                cores_per_node: 4,
            },
            compute: ComputeParams {
                // 850 MHz PPC450, deeper pipelines: ≈ 1.5× BG/L per core.
                time_per_point: 200e-6,
                halo_compute: 2,
                fixed_per_step: 0.8e-3,
                mem_penalty: 0.30,
                cache_points: 1300.0,
                jitter: 0.08,
            },
            net: NetworkParams {
                link_bw: 425e6,
                hop_latency: 0.06e-6,
                send_overhead: 2.2e-6,
                recv_overhead: 2.2e-6,
                mem_bw: 4.0e9,
            },
            io: IoParams::bgp_pnetcdf(),
            halo: HaloSpec::wrf_arw(),
            fields_out: 18,
            levels_out: 28,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgl_rack_has_1024_ranks() {
        let m = Machine::bgl_rack();
        assert_eq!(m.ranks(), 1024);
        assert_eq!(m.shape.torus.dims, [8, 8, 8]);
    }

    #[test]
    fn bgp_shapes() {
        assert_eq!(Machine::bgp(4096).ranks(), 4096);
        assert_eq!(Machine::bgp(8192).ranks(), 8192);
        assert_eq!(Machine::bgp(512).ranks(), 512);
    }

    #[test]
    fn execution_modes() {
        // CO mode: one rank per node, cheaper messaging.
        let co = Machine::bgl_co(512);
        let vn = Machine::bgl(1024);
        assert_eq!(co.ranks(), 512);
        assert_eq!(co.shape.torus.nodes(), vn.shape.torus.nodes());
        assert!(co.net.send_overhead < vn.net.send_overhead);
        // SMP: 1 rank/node with ~3.2× per-rank throughput.
        let smp = Machine::bgp_smp(256);
        let vn4 = Machine::bgp(1024);
        assert_eq!(smp.ranks(), 256);
        assert_eq!(smp.shape.torus.nodes(), vn4.shape.torus.nodes());
        assert!(smp.compute.time_per_point < vn4.compute.time_per_point);
        // Dual sits between SMP and VN in rank count on equal nodes.
        let dual = Machine::bgp_dual(512);
        assert_eq!(dual.ranks(), 512);
        assert_eq!(dual.shape.torus.nodes(), vn4.shape.torus.nodes());
    }

    #[test]
    fn co_mode_same_work_fewer_ranks_tradeoff() {
        // A node's two CO-mode flows: fewer ranks (bigger patches) but
        // cheaper messaging — per-node step time should be in the same
        // ballpark as VN mode, not wildly apart.
        let co = Machine::bgl_co(512);
        let vn = Machine::bgl(1024);
        // 415×445 domain split across ranks of each mode.
        let t_co = co.compute.step_time(415 / 16 + 1, 445 / 32 + 1);
        let t_vn = vn.compute.step_time(415 / 32 + 1, 445 / 32 + 1);
        assert!(t_co > t_vn, "CO patches are twice the size");
        assert!(t_co < 3.0 * t_vn);
    }

    #[test]
    #[should_panic]
    fn bgl_rejects_non_power_of_two() {
        Machine::bgl(1000);
    }

    #[test]
    fn step_time_fringe_inflation() {
        // The saturation mechanism: halving patch width does not halve
        // compute once the fringe dominates.
        let c = ComputeParams {
            time_per_point: 1e-6,
            halo_compute: 4,
            fixed_per_step: 0.0,
            mem_penalty: 0.0,
            cache_points: 1e9,
            jitter: 0.0,
        };
        let t_big = c.step_time(40, 40); // (48)² = 2304
        let t_half = c.step_time(20, 20); // (28)² = 784
        assert!(
            t_half > t_big / 4.0 * 1.3,
            "fringe must make scaling sub-linear"
        );
    }

    #[test]
    fn fig9_sibling_absolute_time_scale() {
        // Fig. 9: sibling 1 (394×418) on its 18×24 = 432-rank partition
        // takes ≈ 0.7 s for its 3 nested sub-steps on BG/L (compute part;
        // communication adds on top). Our compute model should land in the
        // same regime (0.3–1.0 s).
        let m = Machine::bgl_rack();
        let (w, h) = (394 / 18 + 1, 418 / 24 + 1);
        let t3 = 3.0 * m.compute.step_time(w, h);
        assert!(t3 > 0.25 && t3 < 1.1, "3 substeps = {t3:.3} s out of range");
    }

    #[test]
    fn bgl_scaling_is_sublinear() {
        // Fig. 2's shape: for a 415×445 nest, doubling ranks gains clearly
        // less than 2× and efficiency keeps dropping (diminishing returns).
        let m = Machine::bgl_rack();
        let t = |p: u32| {
            let g = nestwx_grid::ProcGrid::near_square(p);
            m.compute.step_time(415 / g.px + 1, 445 / g.py + 1)
        };
        let eff = |p: u32| t(p) / (2.0 * t(2 * p)); // 1.0 = perfect scaling
        assert!(eff(128) < 0.97);
        assert!(eff(512) < 0.92, "512→1024 efficiency {:.2}", eff(512));
        // Efficiency declines monotonically over the sweep.
        assert!(eff(512) < eff(128) + 1e-9);
    }
}
