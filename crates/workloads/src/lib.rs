//! Synthetic models of the GPGPU applications used by the Mosaic paper.
//!
//! The paper evaluates 27 applications from Parboil, SHOC, LULESH,
//! Rodinia, and the CUDA SDK, composed into 135 homogeneous and 100
//! heterogeneous multi-application workloads (235 total, Section 5). The
//! original artifact replays their SASS traces on GPGPU-Sim; this crate
//! substitutes deterministic generators that reproduce the memory-system
//! behaviour those traces exercise — working-set size, page-level access
//! pattern, divergence, reuse, and compute intensity — which is what every
//! figure in the evaluation is sensitive to.
//!
//! * [`profile`] — the 27 application profiles and their access-pattern
//!   taxonomy (streaming, strided, stencil, random-gather, pointer-chase).
//! * [`stream`] — the [`mosaic_gpu::WarpStream`] generator that turns a
//!   profile into per-warp instruction streams.
//! * [`suite`] — workload composition: the homogeneous and heterogeneous
//!   suites, and the scaling knobs that keep simulations tractable.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layout;
pub mod profile;
pub mod stream;
pub mod suite;

pub use layout::AppLayout;
pub use profile::{AccessPattern, AppProfile, Suite, ALL_PROFILES};
pub use stream::AppWarpStream;
pub use suite::{heterogeneous_suite, homogeneous_suite, ScaleConfig, Workload};
