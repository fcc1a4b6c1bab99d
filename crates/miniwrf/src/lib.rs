//! A real, multi-threaded nested shallow-water mini-app.
//!
//! Where [`nestwx-netsim`](../nestwx_netsim/index.html) *models* a Blue Gene
//! running WRF, this crate actually *computes*: a 2-D shallow-water solver
//! (Lax–Friedrichs) over a coarse parent domain with finer nested regions of
//! interest, exactly WRF's nesting structure — each nest is stepped `r`
//! times per parent step, with boundary conditions interpolated from the
//! parent and two-way feedback of the nest interior.
//!
//! The [`runtime`] module executes the coupled model on real threads under
//! both of the paper's strategies:
//!
//! * **Sequential** (WRF default): every nest solved one after another,
//!   each using all worker threads;
//! * **Concurrent** (the paper): nests solved simultaneously, each on its
//!   own allocated thread group.
//!
//! Because the strategies only reorder independent work, their numerical
//! results are **bitwise identical** — an integration test asserts this —
//! while their wall-clock differs exactly the way the paper describes once
//! per-nest thread counts exceed the solver's scaling saturation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod model;
pub mod nest;
pub mod output;
pub mod report;
pub mod runtime;
pub mod solver;

pub use model::{NestState, NestedModel};
pub use output::HistoryWriter;
pub use report::{solver_digest, NestReport, SimReport};
pub use runtime::{run_iterations, run_iterations_observed, ThreadStrategy};
pub use solver::{Scheme, ShallowWater};
