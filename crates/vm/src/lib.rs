//! Virtual-memory substrate for the Mosaic reproduction.
//!
//! This crate implements the address-translation hardware the paper builds
//! on (Section 2.2) and extends (Section 4.3):
//!
//! * [`addr`] — typed virtual/physical addresses, base (4 KB) and large
//!   (2 MB) page geometry, and address-space identifiers.
//! * [`page_table`] — per-application four-level page tables with Mosaic's
//!   PTE extensions: the *large-page bit* on L3 entries and the *disabled
//!   bit* on L4 entries, plus the atomic coalesce/splinter transitions of
//!   Sections 4.3 and 4.4.
//! * [`page_set`] — a flat set of `(address space, base page)` pairs, one
//!   512-bit bitmap per 2 MB region, for the fault path's page ledgers.
//! * [`tlb`] — set-associative, ASID-tagged TLBs with the split base/large
//!   entry organization the paper assumes at every level, including
//!   MSHR-style coalescing of concurrent misses to the same page.
//! * [`walker`] — the shared, highly-threaded page-table walker (64
//!   concurrent walks in the paper's configuration) that turns a TLB miss
//!   into a serialized sequence of page-table memory accesses.
//! * [`walk_cache`] — an optional page-walk cache for upper page-table
//!   levels, used by the Section 3.1 ablation (the paper replaces it with
//!   a shared L2 TLB for +14% performance).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod page_set;
pub mod page_table;
pub mod tlb;
pub mod walk_cache;
pub mod walker;

pub use addr::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PhysAddr, PhysFrameNum, VirtAddr, VirtPageNum,
    BASE_PAGES_PER_LARGE_PAGE, BASE_PAGE_SIZE, LARGE_PAGE_SIZE,
};
pub use page_set::PageSet;
pub use page_table::{PageTable, PageTableSet, Translation, TranslationError};
pub use tlb::{Tlb, TlbConfig, TlbLookup};
pub use walk_cache::WalkCache;
pub use walker::PageTableWalker;
