//! The divide-and-conquer planner: the paper's primary contribution as a
//! library.
//!
//! [`Planner`] combines the three techniques of §3 into an execution plan
//! for a multi-nest weather simulation:
//!
//! 1. **performance prediction** (§3.1) — relative nest execution times via
//!    Delaunay/barycentric interpolation over profiling runs, fitted once
//!    per machine ([`PredictorStore`]);
//! 2. **processor allocation** (§3.2) — Huffman-tree + balanced split-tree
//!    partitioning of the virtual processor grid (Algorithm 1);
//! 3. **topology-aware mapping** (§3.3) — embedding the partitions onto the
//!    machine's 3-D torus (oblivious / TXYZ / partition / multi-level).
//!
//! A plan is executed on the [`nestwx-netsim`](../nestwx_netsim/index.html)
//! machine simulator ([`ExecutionPlan::simulate`]); the same allocation
//! logic drives the real threaded mini-app through
//! [`threads::thread_allocation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod canon;
pub mod compare;
pub mod env;
pub mod parallel;
pub mod planner;
pub mod profile;
pub mod store;
pub mod strategy;
pub mod tempdir;
pub mod threads;
pub mod vocab;

pub use adaptive::{run_adaptive, AdaptiveReport};
pub use canon::Scenario;
pub use compare::{
    compare_strategies, compare_strategies_observed, ObservedComparison, StrategyComparison,
};
pub use env::env_usize;
pub use nestwx_grid::fnv1a64;
pub use parallel::{parallel_jobs, run_parallel, run_parallel_with};
pub use planner::{ExecutionPlan, PlanError, Planner};
pub use profile::{fit_predictor, measure_domain_time, profile_basis, PROFILE_SEED};
pub use store::PredictorStore;
pub use strategy::{AllocPolicy, MappingKind, Strategy};
pub use tempdir::TempDir;
pub use vocab::VocabError;
