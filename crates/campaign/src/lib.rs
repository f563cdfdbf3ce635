//! Campaign engine for the Mosaic reproduction: a persistent
//! content-addressed run cache plus a scenario-matrix DSL.
//!
//! The simulator is deterministic — one `(workload, RunConfig)` pair
//! always produces the same [`mosaic_gpusim::RunResult`] — so completed
//! runs are pure values that can be stored on disk and replayed for
//! free. This crate provides the three pieces that turn that observation
//! into cheap, resumable multi-point studies (DESIGN.md §13):
//!
//! * [`digest`] — stable 128-bit content digests and the cache-key
//!   derivation over `(workload, RunConfig, code-digest)`. The code
//!   digest is computed by `build.rs` over every workspace source file,
//!   so entries written by an older simulator build can never be served
//!   to a newer one.
//! * [`store`] — the disk-backed store: one atomically-written text
//!   entry per run under `objects/<key>.entry`, and corruption-tolerant
//!   loads (any mismatch is a miss, never an error).
//! * [`matrix`] — the scenario DSL: a TOML-subset file describing cross
//!   products over workloads, managers, TLB geometries, fragmentation,
//!   oversubscription, paging modes, and seeds, expanded
//!   deterministically into flat job lists. Each axis is one row of one
//!   table (key, absent value, apply-and-label function), whose order is
//!   the nesting order.
//! * [`runner`] — deterministic report renderings (`expand` / `run` /
//!   `status`) whose output is byte-identical with the cache hot, cold,
//!   or absent.
//!
//! Execution itself stays in the experiments crate (the sweep executor
//! owns the thread pool); this crate deliberately depends only on the
//! simulator and telemetry so both the drivers and external tools can
//! link it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod digest;
pub mod matrix;
pub mod runner;
pub mod store;

pub use digest::{run_key, Digest, KeyBuilder};
pub use matrix::{axis_keys, Campaign, CampaignScope, ParseError, Point, SkippedPoint, Spec};
pub use runner::{render_expand, render_results, render_status, status, CampaignStatus};
pub use store::{built_code_digest, CachedRun, Store, StoreStats};
