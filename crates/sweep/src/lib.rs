//! `nestwx-sweep` — declarative scenario-space sweeps.
//!
//! The paper's central question — which strategy × allocation × mapping
//! combination to run a multi-nest forecast with, on which partition —
//! is answered by *comparing* planned scenarios, not planning one. This
//! crate turns that comparison into a first-class, cacheable operation:
//!
//! 1. [`spec`] — a declarative JSON spec of scenario *spaces* (lists and
//!    ranges over machines, parent domains, nest sets and planner knobs)
//!    expanded deterministically into concrete [`nestwx_core::Scenario`]s,
//!    deduplicated per axis, each carrying its canonical string.
//! 2. [`engine`] — a work-stealing executor (shared with the bench
//!    harness via [`nestwx_core::parallel`]) that plans and simulates
//!    every unique scenario, reusing a disk-persisted plan cache
//!    ([`nestwx_serve::DiskCache`]) keyed by the same versioned keys the
//!    serving daemon uses — so a warm sweep pre-heats `nestwx-serve`,
//!    and a running service's cache accelerates later sweeps.
//! 3. [`summary`] — Pareto fronts and winner-per-region tables exported
//!    through the versioned `nestwx obs` JSON envelope
//!    ([`nestwx_obs::SWEEP_SCHEMA`]).
//!
//! Determinism contract: expansion order, plan bytes, and the
//! whole-sweep `plans_digest` are identical across runs and across
//! `--jobs` values. Nothing in this crate reads ambient filesystem
//! paths — the cache directory always arrives through
//! [`SweepOptions::cache_dir`] (lint NW-D006).

pub mod engine;
pub mod spec;
pub mod summary;

pub use engine::{run_sweep, SweepOptions, SweepReport};
pub use spec::{Expansion, SweepSpec};
pub use summary::{to_json, validate};
