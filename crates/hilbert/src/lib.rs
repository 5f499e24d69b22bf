//! Pseudo-Hilbert ordering and the multi-level domain decomposition of
//! Petascale XCT (Hidayetoglu et al., SC20, §III-A1).
//!
//! The paper tiles both the tomogram (image) and sinogram (measurement)
//! domains into square patches, orders the patches along a pseudo-Hilbert
//! curve, and splits the ordered list equally among processes (GPUs) and
//! then among GPU thread blocks (Fig 4). Hilbert locality maximizes the
//! chance that all system-matrix elements of an inner product live in the
//! same partition, which both the optimized SpMM (§III-B) and hierarchical
//! communications (§III-D) depend on.
//!
//! * [`hilbert_d2xy`] / [`hilbert_xy2d`] — classic curve on 2ᵏ×2ᵏ grids,
//! * [`gilbert_order`] — generalized pseudo-Hilbert curve on arbitrary
//!   rectangles (the "pseudo-Hilbert ordering" of Fig 4),
//! * [`CurveKind`] — Hilbert vs. row-major vs. Morton, for the ordering
//!   ablation called out in DESIGN.md,
//! * [`TileDecomposition`] — tile → process → thread-block decomposition
//!   with exact-cover guarantees and locality metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod decomp;
mod metrics;

pub use curve::{
    gilbert_order, hilbert_d2xy, hilbert_xy2d, morton_order, row_major_order, CurveKind,
};
pub use decomp::{Domain2D, Subdomain, TileCoord, TileDecomposition};
pub use metrics::{average_adjacency, bounding_box_area, locality_score};
