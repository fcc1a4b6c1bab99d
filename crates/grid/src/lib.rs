//! Domain geometry for nested weather simulations.
//!
//! This crate provides the spatial vocabulary shared by every other `nestwx`
//! crate:
//!
//! * [`Rect`] — an axis-aligned integer rectangle, used both for regions of
//!   simulation domains and for sub-grids of the virtual processor grid;
//! * [`Domain`] and [`NestSpec`] — a coarse parent simulation domain and the
//!   finer-resolution nested *regions of interest* spawned inside it, as in
//!   WRF's one-way/two-way nesting;
//! * [`ProcGrid`] — the `Px × Py` virtual processor grid that a domain is
//!   block-decomposed over;
//! * [`Decomposition`] — the per-rank patches of a block decomposition,
//!   including halo-exchange geometry (which neighbours, how many bytes);
//! * [`fnv1a64`] (and its streaming form [`Fnv1a64`]) — the stable byte
//!   digest behind cache keys and report digests (here because
//!   `nestwx-core` and `nestwx-miniwrf` both depend on this crate and not
//!   on each other).
//!
//! The paper's setting (§1, §3): the parent domain is solved on the full
//! processor grid; each nested child domain is solved `r` times per parent
//! step (where `r` is the resolution ratio), with boundary data interpolated
//! from the parent before and feedback after the `r` steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
pub mod domain;
pub mod features;
pub mod hash;
mod procgrid;
pub mod rect;

pub use decomp::{Decomposition, HaloSpec};
pub use domain::{Domain, DomainError, NestSpec, NestedConfig};
pub use features::DomainFeatures;
pub use hash::{fnv1a64, Fnv1a64};
pub use procgrid::ProcGrid;
pub use rect::Rect;
