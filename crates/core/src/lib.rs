//! # Mosaic: application-transparent multi-page-size GPU memory management
//!
//! This crate is the Rust reproduction of the mechanisms contributed by
//! *"Mosaic: A GPU Memory Manager with Application-Transparent Support for
//! Multiple Page Sizes"* (MICRO-50, 2017), together with the baseline it is
//! evaluated against:
//!
//! * [`cocoa`] — **C**ontiguity-**Co**nserving **A**llocation: the memory
//!   allocator that keeps virtually-contiguous base pages physically
//!   contiguous inside one large page frame and *soft-guarantees* that a
//!   large frame holds pages of only one address space (Section 4.2).
//! * [`coalescer`] — the **In-Place Coalescer**: coalesces a large page
//!   frame the moment it becomes fully populated, by flipping page-table
//!   bits only — no data migration, no TLB flush, no SM stalls
//!   (Section 4.3).
//! * [`cac`] — **C**ontiguity-**A**ware **C**ompaction: splinters
//!   internally-fragmented coalesced pages and compacts their survivors
//!   into fewer frames, optionally using in-DRAM bulk copy (Section 4.4).
//! * [`gpu_mmu`] — the **GPU-MMU** baseline after Power et al. (modified
//!   per Section 3.1 to use a shared L2 TLB), in both 4 KB-only and
//!   2 MB-only configurations.
//! * [`migrating`] — a CPU-style utilization-based coalescer
//!   (Ingens/Navarro-like, Section 7.1) that must migrate and flush to
//!   promote: the design whose costs Figure 6a depicts.
//! * [`MosaicManager`] — the composition of the three Mosaic components
//!   behind the common [`MemoryManager`] interface consumed by the
//!   full-system simulator.
//! * [`resident`] — the state and mechanism all three managers share:
//!   page tables, frame pool, reservations, the 4 KB far-fault tail,
//!   the deallocation front half and whole-frame LRU eviction.
//!
//! The manager interface is *runtime-level*: the GPU simulator calls
//! [`MemoryManager::reserve`] when an application performs its en-masse
//! `cudaMalloc`-style allocation, [`MemoryManager::touch`] on each first
//! access to a page (the demand-paging path), and
//! [`MemoryManager::deallocate`] when kernels finish. Each call returns
//! the hardware side effects — bytes to move over the system I/O bus, TLB
//! shootdowns, page migrations, SM stalls — as data, which the simulator
//! then charges to the timing model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cac;
pub mod coalescer;
pub mod cocoa;
pub mod frames;
pub mod gpu_mmu;
pub mod migrating;
pub mod mosaic_mgr;
pub mod placement;
pub mod resident;

pub use cac::{Cac, CacConfig};
pub use coalescer::InPlaceCoalescer;
pub use cocoa::CoCoA;
pub use frames::{FragmentReport, FramePool, FrameState, FRAG_OWNER};
pub use gpu_mmu::GpuMmuManager;
pub use migrating::{MigratingConfig, MigratingManager};
pub use mosaic_mgr::{MosaicConfig, MosaicManager};
pub use placement::{PlacementMap, PlacementOutcome, PlacementPolicy, PlacementStats, MAX_GPUS};
pub use resident::ResidentMemory;

use mosaic_vm::{AppId, LargePageNum, PageTableSet, PhysFrameNum, VirtPageNum};

/// A hardware side effect of a memory-management operation, to be charged
/// to the timing model by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtEvent {
    /// Base pages were coalesced into a large page. In-place coalescing
    /// costs only the PTE updates; no TLB flush is needed (Figure 6b).
    Coalesced {
        /// Address space whose page was coalesced.
        asid: AppId,
        /// The coalesced large page.
        lpn: LargePageNum,
    },
    /// A coalesced page was splintered; the simulator must flush the
    /// corresponding TLB large-page entry on every SM (Section 4.4).
    Splintered {
        /// Address space whose page was splintered.
        asid: AppId,
        /// The splintered large page.
        lpn: LargePageNum,
    },
    /// One base page was migrated between large frames in `channel`.
    /// The simulator charges a narrow or bulk in-DRAM copy on that
    /// channel; if `blocking`, whoever triggered the migration (a
    /// compaction freeing the frame it needs) waits for the copy,
    /// whereas background promotion copies (copy-then-switch) do not
    /// gate execution.
    PageMigrated {
        /// DRAM channel the copy occupies.
        channel: usize,
        /// Whether the copy may use the in-DRAM bulk path (CAC-BC).
        bulk: bool,
        /// Whether the triggering operation must wait for the copy.
        blocking: bool,
    },
    /// Targeted shootdown of one 2 MB region's translations on every SM
    /// (IPI-style), stalling the GPU briefly. Emitted by the migrating
    /// coalescer on promotion; Mosaic never needs it.
    TlbShootdown {
        /// Address space whose region is invalidated.
        asid: AppId,
        /// The region whose base translations became stale.
        lpn: LargePageNum,
    },
}

impl MgmtEvent {
    /// The address space a coalesce/splinter event concerns, if any.
    pub fn asid(&self) -> Option<AppId> {
        match self {
            MgmtEvent::Coalesced { asid, .. } | MgmtEvent::Splintered { asid, .. } => Some(*asid),
            _ => None,
        }
    }

    /// The large page a coalesce/splinter event concerns, if any.
    pub fn large_page(&self) -> Option<LargePageNum> {
        match self {
            MgmtEvent::Coalesced { lpn, .. } | MgmtEvent::Splintered { lpn, .. } => Some(*lpn),
            _ => None,
        }
    }
}

/// Result of a [`MemoryManager::touch`] call: what must happen before the
/// faulting access can proceed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Bytes to transfer over the system I/O bus (0 if the page was
    /// already resident: no far-fault).
    pub transfer_bytes: u64,
    /// Side effects to charge.
    pub events: Vec<MgmtEvent>,
}

/// Result of a [`MemoryManager::evict_for`] call: which pages left GPU
/// memory and what the hardware must do about it. Like [`TouchOutcome`],
/// this is pure data — the simulator charges the write-back transfer to
/// the I/O bus and the shootdowns to the TLBs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvictOutcome {
    /// Pages evicted, in eviction order. They are no longer mapped; a
    /// future access far-faults them back in.
    pub evicted: Vec<(AppId, VirtPageNum)>,
    /// Bytes of dirty data that must be written back over the I/O bus
    /// before the freed frames are reused.
    pub writeback_bytes: u64,
    /// Side effects to charge (TLB shootdowns for the evicted regions).
    pub events: Vec<MgmtEvent>,
}

impl EvictOutcome {
    /// Whether the call freed nothing (no evictable frames).
    pub fn is_empty(&self) -> bool {
        self.evicted.is_empty()
    }
}

/// Memory-management failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Physical memory is exhausted (even after any failsafe compaction).
    OutOfMemory,
    /// The touched page was never reserved by the application.
    NotReserved,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of GPU physical memory"),
            MemError::NotReserved => write!(f, "page accessed outside any reservation"),
        }
    }
}

impl std::error::Error for MemError {}

/// Aggregate counters every manager reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Far-faults serviced (pages transferred over the I/O bus).
    pub far_faults: u64,
    /// Bytes moved over the I/O bus.
    pub transferred_bytes: u64,
    /// Large pages coalesced.
    pub coalesces: u64,
    /// Large pages splintered.
    pub splinters: u64,
    /// Base pages migrated during compaction.
    pub migrations: u64,
    /// Times the emergency-frame-list failsafe was exercised.
    pub emergency_allocations: u64,
    /// Base pages evicted under memory pressure.
    pub evictions: u64,
    /// Bytes of dirty evicted data written back over the I/O bus.
    pub writeback_bytes: u64,
}

/// The runtime interface between the GPU and a memory manager.
///
/// Implemented by [`MosaicManager`], [`GpuMmuManager`] and
/// [`MigratingManager`] over one [`ResidentMemory`]; the full-system
/// simulator drives whichever it is configured with and charges the
/// returned [`MgmtEvent`]s to its timing model.
pub trait MemoryManager: std::fmt::Debug {
    /// Short human-readable name ("Mosaic", "GPU-MMU", ...).
    fn name(&self) -> &str;

    /// Registers a new address space (application launch).
    fn register_app(&mut self, asid: AppId);

    /// Records an en-masse virtual allocation of `pages` base pages
    /// starting at `start` (the `cudaMalloc` bulk allocation of
    /// Section 4.2). No physical memory is committed yet.
    fn reserve(&mut self, asid: AppId, start: VirtPageNum, pages: u64);

    /// Demand-paging path: ensures the page holding `vpn` is resident,
    /// allocating physical memory and scheduling an I/O-bus transfer on
    /// first touch.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if physical memory is exhausted,
    /// [`MemError::NotReserved`] if the page was never reserved.
    fn touch(&mut self, asid: AppId, vpn: VirtPageNum) -> Result<TouchOutcome, MemError>;

    /// Deallocates `pages` base pages starting at `start` (kernel
    /// completion), triggering splinter/compaction policies.
    fn deallocate(&mut self, asid: AppId, start: VirtPageNum, pages: u64) -> Vec<MgmtEvent>;

    /// Marks a resident base frame as recently used — and dirty, when
    /// the access is a store. This is the eviction policy's recency and
    /// write-back signal; O(1), called on the warp-access hot path.
    fn note_use(&mut self, pfn: PhysFrameNum, store: bool);

    /// Evicts resident pages to free at least `bytes` of physical
    /// memory (rounded up to whole large frames), least-recently-used
    /// first. Dirty pages contribute to
    /// [`EvictOutcome::writeback_bytes`]; the simulator charges their
    /// write-back over the I/O bus before reusing the freed frames.
    /// Returns an empty outcome when nothing is evictable.
    fn evict_for(&mut self, bytes: u64) -> EvictOutcome;

    /// The shared resident-memory state, read-only. Every bookkeeping
    /// query below is answered from it.
    fn memory(&self) -> &ResidentMemory;

    /// The page tables, for translation and walk-path computation.
    fn tables(&self) -> &PageTableSet {
        &self.memory().tables
    }

    /// Physical bytes reserved (peak tracked large frames × 2 MB) — the
    /// footprint used for memory-bloat measurements.
    fn footprint_bytes(&self) -> u64 {
        self.memory().pool.peak_reserved_bytes()
    }

    /// Physical bytes reserved by frames holding real application data
    /// (excludes frames used only by injected pre-fragmentation data).
    fn app_footprint_bytes(&self) -> u64 {
        self.memory().pool.peak_app_reserved_bytes()
    }

    /// Bytes actually requested by applications (touched base pages × 4 KB).
    fn touched_bytes(&self) -> u64 {
        self.memory().touched_bytes()
    }

    /// Aggregate statistics.
    fn stats(&self) -> ManagerStats {
        self.memory().stats
    }

    /// Memory bloat relative to what the touched working set strictly
    /// needs: `footprint / touched − 1`, as used by Section 3.2 and
    /// Table 2. Zero when nothing has been touched.
    fn memory_bloat(&self) -> f64 {
        let touched = self.touched_bytes();
        if touched == 0 {
            0.0
        } else {
            self.footprint_bytes() as f64 / touched as f64 - 1.0
        }
    }

    /// Sweeps the manager's invariants (frame conservation, large-frame
    /// exclusivity, allocator/page-table agreement) into `report`.
    ///
    /// Must be side-effect free: audited and unaudited runs of the same
    /// seed produce bit-identical results. The full-system runner calls
    /// this every N cycles (always in debug builds, on demand via
    /// `--audit` in release).
    fn audit(&self, report: &mut mosaic_sim_core::AuditReport);
}
