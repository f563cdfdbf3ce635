//! Experiment drivers that regenerate every table and figure of the
//! Mosaic paper's evaluation.
//!
//! Each module reproduces one figure or table (see `DESIGN.md` at the
//! workspace root for the full index):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig03`] | Figure 3 — 4 KB vs 2 MB pages, no paging overhead, vs ideal TLB |
//! | [`fig04`] | Figure 4 — demand-paging impact of page size, 1–5 apps |
//! | [`bloat`] | Section 3.2 — memory bloat of 2 MB-only management |
//! | [`fig06`] | Figure 6 — coalescing cost: baseline vs Mosaic |
//! | [`fig08`] | Figure 8 — homogeneous weighted speedup |
//! | [`fig09`] | Figure 9 — heterogeneous weighted speedup |
//! | [`fig10`] | Figure 10 — selected 2-app workloads |
//! | [`fig11`] | Figure 11 — sorted per-application normalized IPC |
//! | [`fig12`] | Figure 12 — with vs without demand paging |
//! | [`fig13`] | Figure 13 — L1/L2 TLB hit rates |
//! | [`fig14`] | Figure 14 — base-page TLB entry sensitivity |
//! | [`fig15`] | Figure 15 — large-page TLB entry sensitivity |
//! | [`fig16`] | Figure 16 — CAC under fragmentation |
//! | [`table2`] | Table 2 — memory bloat vs frame occupancy |
//! | [`ablations`] | §3.1 page-walk-cache ablation + walker/threshold sweeps |
//! | [`stall`] | stall-cycle attribution by cause (`--stall-report`) |
//! | [`oversub`] | memory oversubscription — Mosaic vs GPU-MMU at 1.5–4× pressure |
//! | [`multigpu`] | multi-GPU scale-out — fleet weak scaling + placement policies |
//!
//! [`REPORTS`] is the one table of every report the drivers render and
//! the name it goes by; `reproduce`, the golden tests and `mosaic-bench`
//! all resolve names through it. [`goldens`] pins the smoke-scope digests
//! of ten reports and of one trace.
//!
//! Every driver takes one [`Sweep`] as its only argument (`fig08::run(&sweep)`)
//! and returns a serializable result whose `Display` impl prints the same
//! rows/series the paper reports. The sweep carries the [`Scope`] that
//! bounds how much of the paper's 235-workload evaluation it sweeps
//! (`Smoke` for CI, `Default` for benches, `Full` for the complete
//! suites), the worker count, and the optional run cache and trace
//! collector. Its ordered-collection contract makes multi-threaded output
//! byte-identical to serial output; see the [`sweep`] module docs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod bloat;
pub mod common;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod goldens;
pub mod multigpu;
pub mod oversub;
pub mod stall;
pub mod sweep;
pub mod table2;

pub use common::{mean, AloneBaselines, Scope};
pub use sweep::Sweep;

/// A report renderer: runs its driver on the given sweep and returns the
/// report text that `reproduce` prints and `--digest` hashes.
pub type Render = fn(&Sweep) -> String;

/// `(report name, renderer)` for every report, in the order
/// `reproduce all` prints them (`stall` is not part of `all`).
pub const REPORTS: &[(&str, Render)] = &[
    ("fig03", |s| fig03::run(s).to_string()),
    ("fig04", |s| fig04::run(s).to_string()),
    ("bloat", |s| bloat::run(s).to_string()),
    ("fig06", |s| fig06::run(s).to_string()),
    ("fig08", |s| fig08::run(s).to_string()),
    ("fig09", |s| fig09::run(s).to_string()),
    ("fig10", |s| fig10::run(s).to_string()),
    ("fig11", |s| fig11::run(s).to_string()),
    ("fig12", |s| fig12::run(s).to_string()),
    ("fig13", |s| fig13::run(s).to_string()),
    ("fig14", |s| fig14::run(s).to_string()),
    ("fig15", |s| fig15::run(s).to_string()),
    ("fig16", |s| fig16::run(s).to_string()),
    ("table2", |s| table2::run(s).to_string()),
    ("ablation_pwc", |s| ablations::pwc_vs_l2tlb(s).to_string()),
    ("ablation_walker", |s| ablations::walker_threads(s).to_string()),
    ("ablation_cac_threshold", |s| ablations::cac_threshold(s).to_string()),
    ("ablation_coalescers", |s| ablations::migrating_coalescer(s).to_string()),
    ("ablation_multikernel", |s| ablations::multi_kernel(s).to_string()),
    ("oversub", |s| oversub::run(s).to_string()),
    ("multigpu", |s| multigpu::run(s).to_string()),
    ("stall", |s| stall::run(s).to_string()),
];

/// The renderer of report `name`, if [`REPORTS`] has one.
pub fn report(name: &str) -> Option<Render> {
    REPORTS.iter().find(|(n, _)| *n == name).map(|&(_, render)| render)
}
