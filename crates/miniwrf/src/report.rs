//! The deterministic simulation report: field digests plus model-derived
//! halo accounting.
//!
//! Every quantity in a [`SimReport`] is a pure function of the model state
//! and geometry — digests of the prognostic fields, sub-step counts, and
//! *logical* halo traffic (the bytes the parent↔nest coupling moves per
//! iteration, derived from the boundary-ring and footprint sizes). Nothing
//! here reads a clock, so a report assembled by a distributed fleet run
//! must be byte-identical to one computed from an in-process run of the
//! same scenario: that equality is the fleet's core correctness invariant
//! and is asserted by integration tests, among them the real-process
//! fleet runs in `crates/cli/tests/fleet_cli.rs`.
//! Wall-clock timings live in [`crate::runtime::PhaseTimings`] and the obs
//! envelopes instead, deliberately outside this contract.

use crate::model::{NestState, NestedModel};
use crate::solver::ShallowWater;
use nestwx_grid::fnv1a64;
use serde::{Deserialize, Serialize};

/// Schema tag of the serialized report.
pub const REPORT_SCHEMA: &str = "nestwx-miniwrf-sim-report";
/// Schema version. Bump on any field change: reports are compared as
/// serialized bytes, so layout drift must be impossible to miss.
pub const REPORT_VERSION: u64 = 1;

/// Bytes one halo cell occupies on the wire: `(i64, i64, f64, f64, f64)`
/// little-endian — the encoding both the frame codec and the logical
/// accounting use, so reported halo bytes match actual frame payloads.
pub const HALO_CELL_BYTES: u64 = 40;

/// FNV-1a 64 over the little-endian bit patterns of the interior cells of
/// `h`, `hu`, `hv` in that order — the canonical digest of one solver's
/// prognostic state. Bit patterns, not values: `-0.0` and `0.0` digest
/// differently, which is exactly the sensitivity a bitwise-identity
/// invariant needs.
pub fn solver_digest(s: &ShallowWater) -> u64 {
    let mut bytes = Vec::with_capacity(3 * s.nx * s.ny * 8);
    for f in [&s.h, &s.hu, &s.hv] {
        for v in f.interior_values() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Per-nest slice of the report, computable from the [`NestState`] alone —
/// a remote worker builds these for its owned nests and ships them up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NestReport {
    /// Nest index in the model's sibling order.
    pub nest: usize,
    /// Refinement ratio `r`.
    pub ratio: usize,
    /// Nest sub-steps taken (`iterations × r`).
    pub sub_steps: u64,
    /// Boundary-ring cells interpolated per iteration.
    pub boundary_cells: u64,
    /// Logical halo bytes moved for this nest over the whole run: boundary
    /// cells down plus feedback cells up, [`HALO_CELL_BYTES`] each, per
    /// iteration. Identical for every worker count and transport.
    pub halo_bytes: u64,
    /// Halo messages over the run (one boundary down + one feedback up per
    /// iteration).
    pub halo_messages: u64,
    /// Digest of the nest's prognostic fields ([`solver_digest`], hex).
    pub digest: String,
    /// Digests of second-level children, in child order.
    pub children: Vec<String>,
}

impl NestReport {
    /// Builds the report slice for nest `index` after `iterations` parent
    /// iterations.
    pub fn from_nest(index: usize, nest: &NestState, iterations: u64) -> NestReport {
        let geo = &nest.geo;
        let ring = 2 * (geo.nx as u64 + 2) + 2 * geo.ny as u64;
        let (_, _, pw, ph) = geo.parent_footprint();
        let feedback_cells = (pw * ph) as u64;
        NestReport {
            nest: index,
            ratio: geo.ratio,
            sub_steps: iterations * geo.ratio as u64,
            boundary_cells: ring,
            halo_bytes: iterations * (ring + feedback_cells) * HALO_CELL_BYTES,
            halo_messages: 2 * iterations,
            digest: hex(solver_digest(&nest.solver)),
            children: nest
                .children
                .iter()
                .map(|c| hex(solver_digest(&c.solver)))
                .collect(),
        }
    }
}

/// The deterministic report of one coupled run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimReport {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u64,
    /// Parent iterations completed.
    pub iterations: u64,
    /// Ranks of the execution plan the run realized (metadata, not used in
    /// any digest).
    pub ranks: u64,
    /// Digest of the parent's prognostic fields (hex).
    pub parent_digest: String,
    /// Per-nest slices in sibling order.
    pub nests: Vec<NestReport>,
    /// Combined digest over the parent and every nest/child digest, so one
    /// hex string witnesses the whole state (what `fleet_cli.rs` compares
    /// across fleet sizes).
    pub digest: String,
}

impl SimReport {
    /// Assembles a report from a parent digest and per-nest slices (the
    /// distributed path: the coordinator digests the parent, workers ship
    /// [`NestReport`]s, and this stitches them in sibling order).
    pub fn assemble(
        iterations: u64,
        ranks: u64,
        parent_digest: u64,
        nests: Vec<NestReport>,
    ) -> SimReport {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&parent_digest.to_le_bytes());
        for n in &nests {
            bytes.extend_from_slice(n.digest.as_bytes());
            for c in &n.children {
                bytes.extend_from_slice(c.as_bytes());
            }
        }
        SimReport {
            schema: REPORT_SCHEMA.to_string(),
            version: REPORT_VERSION,
            iterations,
            ranks,
            parent_digest: hex(parent_digest),
            digest: hex(fnv1a64(&bytes)),
            nests,
        }
    }

    /// Builds the report from an in-process model (the reference path the
    /// fleet must match byte for byte).
    pub fn from_model(model: &NestedModel, ranks: u64) -> SimReport {
        let nests = model
            .nests
            .iter()
            .enumerate()
            .map(|(i, n)| NestReport::from_nest(i, n, model.iterations))
            .collect();
        SimReport::assemble(model.iterations, ranks, solver_digest(&model.parent), nests)
    }

    /// Compact JSON encoding — field order follows struct declaration, so
    /// equal reports serialize to equal bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::NestGeometry;

    fn model() -> NestedModel {
        let geos = [
            NestGeometry {
                ratio: 3,
                offset: (4, 4),
                nx: 18,
                ny: 18,
            },
            NestGeometry {
                ratio: 2,
                offset: (20, 20),
                nx: 10,
                ny: 10,
            },
        ];
        let mut m = NestedModel::new(32, 32, 3000.0, 100.0, &geos);
        m.add_depression(8.0, 8.0, -4.0, 2.5);
        m
    }

    #[test]
    fn digest_tracks_state() {
        let mut m = model();
        let d0 = solver_digest(&m.parent);
        assert_eq!(d0, solver_digest(&m.parent), "digest is deterministic");
        m.step_coupled();
        assert_ne!(d0, solver_digest(&m.parent), "stepping changes the digest");
    }

    #[test]
    fn report_is_stable_and_assembles_identically() {
        let mut m = model();
        for _ in 0..3 {
            m.step_coupled();
        }
        let a = SimReport::from_model(&m, 64);
        // Assembling from per-nest slices (the distributed path) must give
        // the same bytes as from_model.
        let nests: Vec<NestReport> = m
            .nests
            .iter()
            .enumerate()
            .map(|(i, n)| NestReport::from_nest(i, n, m.iterations))
            .collect();
        let b = SimReport::assemble(m.iterations, 64, solver_digest(&m.parent), nests);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.iterations, 3);
        assert_eq!(a.nests[0].sub_steps, 9);
        assert_eq!(a.nests[1].sub_steps, 6);
        assert_eq!(a.nests[0].halo_messages, 6);
    }

    #[test]
    fn halo_accounting_matches_geometry() {
        let m = model();
        let rep = SimReport::from_model(&m, 1);
        // Nest 0: ring 2·(18+2) + 2·18 = 76 cells; footprint 6×6 = 36
        // feedback cells; zero iterations so far.
        assert_eq!(rep.nests[0].boundary_cells, 76);
        assert_eq!(rep.nests[0].halo_bytes, 0);
        let mut m2 = model();
        m2.step_coupled();
        let rep2 = SimReport::from_model(&m2, 1);
        assert_eq!(rep2.nests[0].halo_bytes, (76 + 36) * HALO_CELL_BYTES);
    }
}
