//! 3-D torus interconnect model and 2-D → 3-D process mappings.
//!
//! Implements §3.3 of the paper:
//!
//! * [`Torus`] — a 3-D torus of nodes (Blue Gene/L and /P primary network),
//!   with wrap-around hop distances and dimension-ordered routing;
//! * [`MachineShape`] — torus plus cores-per-node (CO/VN/SMP/Dual modes);
//! * [`Mapping`] — an injective assignment of MPI ranks to (node, core)
//!   slots, with constructors for the paper's four schemes:
//!   - *topology-oblivious* sequential mapping (Fig. 5b) and the Blue Gene
//!     `TXYZ` mapfile ordering — both via `Mapping::ordered`;
//!   - *partition mapping* (Fig. 6a) — each sibling partition embedded into
//!     a compact folded cuboid of the torus ([`Mapping::partition`]);
//!   - *multi-level mapping* (Fig. 6b) — the same folded embedding, but each
//!     partition's fold is oriented to also keep **parent**-domain
//!     neighbours close ([`Mapping::multilevel`]);
//! * [`metrics`] — average/maximum hops, hop-bytes and per-link load for a
//!   communication graph under a mapping (the quantities behind Table 4–5
//!   and Fig. 11–12);
//! * [`torus5d`] — a Blue Gene/Q-style 5-D torus with serpentine
//!   partition mapping (the paper's §6 future-work topology).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod embed;
pub mod mapping;
pub mod metrics;
pub mod torus;
pub mod torus5d;

pub use mapping::{Mapping, MappingError, Slot};
pub use metrics::CommStats;
pub use torus::{MachineShape, NodeCoord, Torus};
pub use torus5d::{Mapping5, Torus5};
