//! Multi-process miniwrf execution: worker processes own disjoint subsets
//! of a scenario's nests and exchange halos with a coordinator over TCP.
//!
//! The fleet is the paper's multi-rank execution made literal: instead of
//! simulating ranks inside one process, `nestwx fleet` spawns real worker
//! processes, partitions the level-1 nests across them
//! rank-proportionally (work weights from the compiled plan), and runs the
//! coupled parent↔nest iteration with boundary rings and feedback cells
//! crossing process boundaries as length-prefixed binary frames
//! ([`frame`]). Because every f64 crosses as its exact bit pattern and
//! feedbacks apply in sibling order, a fleet run of any size produces a
//! [`SimReport`](nestwx_miniwrf::SimReport) byte-identical to the
//! in-process run — the invariant the determinism tests and the CLI's
//! real-process tests (`crates/cli/tests/fleet_cli.rs`) enforce.
//!
//! Layering: miniwrf supplies the solver and the coupling steps
//! (`step_parallel`, `interpolate_boundary`, `solve_nest`,
//! `collect_feedback`, `apply_feedback`); this crate runs the two halves of
//! the coupled loop over them — the parent half in [`coordinator`], the
//! nest half in [`worker`] — with the socket transport ([`net`] is the only
//! module allowed to touch sockets — lint rule NW-S007), the wire types
//! ([`wire`]) and the partitioning ([`scenario`]). `nestwx-serve` builds
//! its `execute` endpoint on [`execute_in_process`]; the `nestwx fleet` CLI
//! spawns real worker processes around [`run_coordinator`] and
//! [`run_worker`].

#![warn(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod frame;
pub mod net;
pub mod scenario;
pub mod summary;
pub mod wire;
pub mod worker;

pub use coordinator::{execute_in_process, run_coordinator, FleetConfig, FleetRun};
pub use error::FleetError;
pub use frame::{FrameError, Tag, DEFAULT_MAX_FRAME_BYTES};
pub use net::{accept_n, bind_listener, connect, FrameConn};
pub use scenario::build_model;
pub use wire::{Assign, Done, Hello, FLEET_WIRE_VERSION};
pub use worker::run_worker;
