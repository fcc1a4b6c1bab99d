//! The fleet observability envelope (`nestwx-obs-fleet-summary`).
//!
//! Wall-clock truth lives here and only here: the deterministic
//! [`SimReport`] carries digests and logical
//! halo accounting, while this envelope carries the measured socket
//! traffic, per-worker stall attribution, and end-to-end timing that
//! `nestwx obs report` renders.

use crate::wire::SideObs;
use nestwx_miniwrf::SimReport;
use nestwx_obs::{FLEET_SCHEMA, FLEET_VERSION};
use serde::Serialize;

/// One worker's row in the fleet envelope.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkerRow {
    /// Worker slot (0-based).
    pub slot: u32,
    /// Global level-1 nest indices the worker owned.
    pub nests: Vec<u32>,
    /// The worker's transport and stall observability.
    pub obs: SideObs,
}

/// The fleet summary envelope.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSummary {
    /// Always [`FLEET_SCHEMA`].
    pub schema: String,
    /// Always [`FLEET_VERSION`].
    pub version: u64,
    /// Workers in the fleet.
    pub workers: u32,
    /// Parent iterations run.
    pub iterations: u64,
    /// Combined deterministic digest of the merged [`SimReport`] — equal
    /// across fleet sizes and equal to the in-process run's.
    pub digest: String,
    /// Parent-field digest.
    pub parent_digest: String,
    /// Logical halo bytes from the report (geometry-derived, deterministic).
    pub logical_halo_bytes: u64,
    /// Coordinator-side transport and stall observability.
    pub coordinator: SideObs,
    /// Per-worker rows, ascending by slot.
    pub worker_rows: Vec<WorkerRow>,
    /// End-to-end wall seconds from first Assign to last Done.
    pub elapsed_s: f64,
}

impl FleetSummary {
    /// Builds the envelope from a finished run.
    pub(crate) fn new(
        report: &SimReport,
        workers: u32,
        coordinator: SideObs,
        worker_rows: Vec<WorkerRow>,
        elapsed_s: f64,
    ) -> FleetSummary {
        FleetSummary {
            schema: FLEET_SCHEMA.to_owned(),
            version: FLEET_VERSION,
            workers,
            iterations: report.iterations,
            digest: report.digest.clone(),
            parent_digest: report.parent_digest.clone(),
            logical_halo_bytes: report.nests.iter().map(|n| n.halo_bytes).sum(),
            coordinator,
            worker_rows,
            elapsed_s,
        }
    }

    /// Serializes the envelope.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet summary serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WaitStats;

    fn side() -> SideObs {
        SideObs {
            bytes_in: 1,
            bytes_out: 2,
            frames_in: 3,
            frames_out: 4,
            recv_wait: WaitStats {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            },
            compute_s: 0.5,
            wait_s: 0.1,
        }
    }

    #[test]
    fn envelope_carries_schema_tag_and_digests() {
        let report = SimReport::assemble(4, 8, 0xdead_beef, Vec::new());
        let s = FleetSummary::new(&report, 2, side(), vec![], 1.25);
        let v = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(v["schema"].as_str().unwrap(), FLEET_SCHEMA);
        assert_eq!(v["version"].as_u64().unwrap(), FLEET_VERSION);
        assert_eq!(v["digest"].as_str().unwrap(), report.digest);
        assert_eq!(v["iterations"].as_u64().unwrap(), 4);
        assert_eq!(v["coordinator"]["bytes_out"].as_u64().unwrap(), 2);
    }
}
