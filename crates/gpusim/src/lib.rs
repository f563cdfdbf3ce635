//! Full-system GPU simulator for the Mosaic reproduction.
//!
//! Wires every substrate together into the system of Table 1 and Figure 2:
//!
//! ```text
//!  SM ─ L1 TLB ─ L1$ ─┐                       ┌─ DRAM channel 0
//!  SM ─ L1 TLB ─ L1$ ─┤                       ├─ DRAM channel 1
//!   ⋮        (30 SMs) ├─ crossbar ─ L2$/L2TLB ┤      ⋮
//!  SM ─ L1 TLB ─ L1$ ─┘        highly-threaded├─ DRAM channel 5
//!                              page-table walker
//!                                      │
//!                         memory manager (GPU-MMU / Mosaic)
//!                                      │
//!                            system I/O bus (PCIe)
//! ```
//!
//! * [`config`] — [`SystemConfig`]: the paper's simulated system
//!   (Table 1) plus the experiment knobs (ideal TLB, preload, manager
//!   selection, fragmentation injection).
//! * [`system`] — [`GpuSystem`]: the [`mosaic_gpu::MemoryInterface`]
//!   implementation that charges address translation (L1/L2 TLB, page
//!   walks), data access (L1/L2 caches, DRAM), demand paging
//!   (far-faults over the I/O bus), and management events (splinters →
//!   TLB shootdowns, compaction → DRAM copies and conservative whole-GPU
//!   stalls).
//! * [`runner`] — workload execution: SM partitioning, the
//!   smallest-clock-first scheduling loop, per-application IPC, and the
//!   weighted-speedup metric of Section 5.
//!
//! `RunConfig::multi_gpu(n, topology)` scales the machine out to an
//! indexed fleet: each device replicates the full stack above, a warp
//! access resolving to a remote device's 2MB region crosses the
//! inter-GPU interconnect, and page-placement policies (first-touch,
//! replicate-read-only, migrate-on-threshold) decide residency
//! (DESIGN.md §14).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod runner;
pub mod system;

pub use config::{
    manager_tokens, DemandPagingMode, FleetConfig, ManagerKind, RunConfig, SystemConfig,
};
pub use mosaic_core::placement::{PlacementPolicy, MAX_GPUS};
pub use mosaic_mem::{InterconnectConfig, Topology};
pub use runner::{
    alone_config, run_alone_baselines, run_workload, sm_share, weighted_speedup, AppResult,
    RunResult,
};
pub use system::{GpuSystem, SystemStats, TLB_FLUSH_STALL};

/// Does nothing. The speculative intra-run engine this used to select
/// is gone (DESIGN.md §12); every run uses the serial engine. It stays
/// because the frozen benchmark harness (`simbench/src/main.rs`) still
/// calls it; `mosaic-audit` loads that harness as a caller, which is
/// what keeps its `test-only` rule from flagging this function.
pub fn set_sim_threads(_: Option<usize>) {}
