//! Differential conformance testing for the Mosaic stack.
//!
//! The real page table, TLB, and memory managers are optimized structures
//! full of cached counters, timestamp LRU, and policy coupling. This crate
//! diffs them against *obviously-correct* reference models:
//!
//! * [`OraclePageTable`] / [`OracleTlb`] — flat `BTreeMap` mappings and
//!   explicit recency lists ([`oracle`] module);
//! * a frame ledger inside [`run_mgr_case`] that re-derives every number a
//!   manager promises (fault counts, transferred bytes, event/counter
//!   agreement, the CoCoA soft guarantee) from the op stream alone;
//! * the runtime invariant auditor over whole simulated runs —
//!   [`run_system_case`] runs each generated full-system configuration
//!   audited and demands a clean audit ([`system`] module);
//! * a frame-residency oracle for multi-GPU placement — [`run_multigpu_case`]
//!   replays randomized fleet access schedules through
//!   [`mosaic_core::PlacementMap`] and a naive set-based residency model
//!   in lockstep,
//!   pinning the no-region-resident-on-two-devices invariant ([`multigpu`]
//!   module).
//!
//! A deterministic generator ([`gen_vm_case`] / [`gen_mgr_case`], seeded
//! via [`mosaic_sim_core::SimRng::fork`]) drives both sides through
//! randomized schedules; [`run_fuzz`] loops that, and on divergence a
//! greedy delta-debugging [`shrink()`] pass minimizes the schedule and
//! renders it as a copy-pasteable Rust test body.
//!
//! Use it two ways:
//!
//! * as a library from integration tests (`crates/conformance/tests/`);
//! * as a CLI: `cargo run -p mosaic-conformance -- fuzz --cases 256 --seed
//!   0xC0FFEE`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fuzz;
pub mod harness;
pub mod multigpu;
pub mod ops;
pub mod oracle;
pub mod shrink;
pub mod system;

pub use fuzz::{run_fuzz, FuzzConfig, FuzzFailure, FuzzStats, Suite};
pub use harness::{run_mgr_case, run_vm_case, Divergence, MgrKind, Mutation, VmConfigKind};
pub use multigpu::{
    gen_multigpu_case, render_multigpu_repro, run_multigpu_case, run_multigpu_system_case,
    MultiGpuCase, MultiGpuOp,
};
pub use ops::{
    gen_mgr_case, gen_vm_case, render_mgr_repro, render_vm_repro, MgrCase, MgrOp, VmCase, VmOp,
};
pub use oracle::{OraclePageTable, OracleTlb};
pub use shrink::shrink;
pub use system::{gen_system_case, render_system_repro, run_system_case, SystemCase};
