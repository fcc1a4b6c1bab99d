//! Discrete-event simulator of Blue Gene-class machines running WRF-style
//! nested simulations.
//!
//! This crate stands in for the paper's experimental testbed (WRF-ARW 3.3.2
//! on IBM Blue Gene/L and Blue Gene/P): it executes the *iteration schedule*
//! of a multi-nest weather simulation — parent step, per-nest boundary
//! interpolation, `r` nested steps, feedback, periodic output — over a
//! modelled machine, producing the quantities the paper measures:
//! per-iteration integration time, I/O time, MPI_Wait time, message hops.
//!
//! Model components:
//!
//! * [`machine`] — machine presets (BG/L rack, BG/P partitions) with
//!   compute, network and I/O parameters. The WRF compute model charges
//!   each rank for its patch *including the lateral halo fringe*
//!   (`(w+2hc)(h+2hc)·t_point`), which is what makes small patches
//!   inefficient and reproduces WRF's scalability saturation (Fig. 2);
//! * `network` — the 3-D torus with per-link occupancy: messages reserve
//!   every link on their dimension-ordered route (virtual cut-through
//!   approximation), so contention emerges from the mapping rather than
//!   being an input parameter;
//! * [`io`] — a PnetCDF-style collective-write cost model whose
//!   per-rank metadata overhead grows with writer count (the scalability
//!   issue of Fig. 13), plus BG/L-style split files;
//! * [`sim`] — the schedule simulator for both execution strategies:
//!   the default *sequential* strategy (each nest on all ranks, one after
//!   another) and the paper's *concurrent* strategy (each nest on its own
//!   processor partition).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod machine;
mod network;
mod schedule;
pub mod sim;

pub use io::IoMode;
pub use machine::Machine;
pub use sim::{ExecStrategy, HaloEngine, SimReport, Simulation};

// Observability layer (`nestwx-obs`), re-exported so simulator users can
// attach a recorder without a separate dependency.
pub use nestwx_obs::{
    AnalysisReport, HistSummary, LinkUtil, LogHistogram, NestAnalysis, NetDetail, ObsConfig,
    ObsSummary, RankShare, Recorder, StepMetrics, StepPhase, Timeline, TimelineConfig,
    SUMMARY_SCHEMA, SUMMARY_VERSION,
};
