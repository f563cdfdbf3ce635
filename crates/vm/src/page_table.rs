//! Four-level page tables with Mosaic's PTE extensions.
//!
//! The paper (Section 4.3, Figure 7) keeps the conventional x86-64
//! four-level radix table and adds two bits:
//!
//! * a **large-page bit** on each L3 PTE (the entry covering one 2 MB
//!   region): when set, the region is *coalesced* and translations use the
//!   large-page mapping read from the first L4 PTE of the child table;
//! * a **disabled bit** on each L4 PTE (one base page): set while the
//!   parent is coalesced, to discourage filling base-page TLB entries for
//!   pages already covered by a large-page entry. The base mappings stay
//!   correct because the In-Place Coalescer never migrates data.
//!
//! Because the In-Place Coalescer's key property is that coalescing is a
//! *metadata-only* operation, [`PageTable::coalesce`] and
//! [`PageTable::splinter`] touch only these bits — no frame numbers change.
//!
//! Page-table nodes live in simulated physical memory: every node has a
//! physical address, and [`PageTable::walk_path`] returns the four PTE
//! addresses a hardware walk dereferences, so the memory hierarchy can
//! charge realistic latencies (and cache page-table data in the L2, as the
//! GPU-MMU baseline does).
//!
//! # Representation
//!
//! `translate` sits on the per-access hot path (`GpuSystem` consults it on
//! every TLB hit), so the table is stored flat rather than as nested
//! `BTreeMap`s: regions and L3 node addresses live in [`SortedMap`]s (a
//! key-sorted vector behind a hint that only map/unmap move), each
//! region's L4 table is a dense 512-slot array of packed PTEs, and L2
//! node addresses are a direct-indexed array. All iteration orders
//! (region order, index order) match what the `BTreeMap`s produced, so
//! the change is invisible to the conformance oracle and the audit.

use crate::addr::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PhysAddr, PhysFrameNum, VirtAddr, VirtPageNum,
    BASE_PAGES_PER_LARGE_PAGE,
};
use mosaic_sim_core::{AuditInvariants, AuditReport, SortedMap};
use std::collections::BTreeMap;

/// Outcome of a successful address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical base frame holding the page.
    pub frame: PhysFrameNum,
    /// Which page-size class served the translation (what a TLB entry for
    /// it would cover).
    pub size: PageSize,
}

impl Translation {
    /// The large frame containing the translated page.
    pub fn large_frame(&self) -> LargeFrameNum {
        self.frame.large_frame()
    }
}

/// Why a translation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationError {
    /// No mapping exists for the page: the access must page-fault and the
    /// runtime must allocate + transfer the page (a *far-fault* if the data
    /// crosses the system I/O bus).
    NotMapped,
}

impl std::fmt::Display for TranslationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslationError::NotMapped => write!(f, "page not mapped"),
        }
    }
}

impl std::error::Error for TranslationError {}

/// Why a coalesce request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceError {
    /// Not every base page of the large page is mapped (the paper coalesces
    /// only fully-populated large page frames).
    NotFullyPopulated,
    /// The mapped base pages are not contiguous/aligned within one large
    /// frame, so an in-place (migration-free) coalesce is impossible.
    NotContiguous,
    /// The region is already coalesced.
    AlreadyCoalesced,
}

impl std::fmt::Display for CoalesceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoalesceError::NotFullyPopulated => write!(f, "large page frame not fully populated"),
            CoalesceError::NotContiguous => write!(f, "base pages not contiguous and aligned"),
            CoalesceError::AlreadyCoalesced => write!(f, "region already coalesced"),
        }
    }
}

impl std::error::Error for CoalesceError {}

/// One L4 (leaf) page-table entry: a base-page mapping plus Mosaic's
/// disabled bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L4Pte {
    frame: PhysFrameNum,
    disabled: bool,
}

/// Dense L4 table: one slot per base page of the region, each packed as
/// `frame << 1 | disabled` with [`L4Table::EMPTY`] marking absent entries
/// (frame numbers stay far below 2^63, so the packing is lossless).
#[derive(Debug, Clone)]
struct L4Table {
    slots: Box<[u64; BASE_PAGES_PER_LARGE_PAGE as usize]>,
    len: u16,
}

impl L4Table {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        L4Table { slots: Box::new([Self::EMPTY; BASE_PAGES_PER_LARGE_PAGE as usize]), len: 0 }
    }

    #[inline]
    fn get(&self, i: u64) -> Option<L4Pte> {
        match self.slots[i as usize] {
            Self::EMPTY => None,
            packed => Some(L4Pte { frame: PhysFrameNum(packed >> 1), disabled: packed & 1 != 0 }),
        }
    }

    /// Inserts unless occupied; returns the existing frame on collision.
    fn try_insert(&mut self, i: u64, pte: L4Pte) -> Result<(), PhysFrameNum> {
        match self.get(i) {
            Some(existing) => Err(existing.frame),
            None => {
                self.slots[i as usize] = pte.frame.raw() << 1 | u64::from(pte.disabled);
                self.len += 1;
                Ok(())
            }
        }
    }

    fn remove(&mut self, i: u64) -> Option<PhysFrameNum> {
        let old = self.get(i)?;
        self.slots[i as usize] = Self::EMPTY;
        self.len -= 1;
        Some(old.frame)
    }

    fn set_frame(&mut self, i: u64, frame: PhysFrameNum) -> Option<PhysFrameNum> {
        let old = self.get(i)?;
        self.slots[i as usize] = frame.raw() << 1 | u64::from(old.disabled);
        Some(old.frame)
    }

    fn set_all_disabled(&mut self, disabled: bool) {
        for slot in self.slots.iter_mut() {
            if *slot != Self::EMPTY {
                *slot = *slot >> 1 << 1 | u64::from(disabled);
            }
        }
    }

    fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// Occupied `(index, pte)` pairs in ascending index order — the same
    /// order the old `BTreeMap<u64, L4Pte>` iterated in.
    fn iter(&self) -> impl Iterator<Item = (u64, L4Pte)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, &packed)| match packed {
            Self::EMPTY => None,
            packed => Some((
                i as u64,
                L4Pte { frame: PhysFrameNum(packed >> 1), disabled: packed & 1 != 0 },
            )),
        })
    }
}

/// The L3 PTE state and child L4 table covering one 2 MB virtual region.
#[derive(Debug, Clone)]
struct L3Region {
    /// Mosaic's large-page bit.
    large: bool,
    /// The coalesced mapping's large frame. In hardware this is read out
    /// of the first L4 PTE (Figure 7b), whose high bits survive even if
    /// that base page is later deallocated while the region stays
    /// coalesced; we keep it explicitly for exactly that case.
    large_frame: Option<LargeFrameNum>,
    /// Physical address of the child L4 table node (for walk modelling).
    l4_node: PhysAddr,
    /// Dense L4 table: index within the large page -> PTE.
    entries: L4Table,
}

/// A single application's four-level page table.
///
/// # Examples
///
/// ```
/// use mosaic_vm::{PageTable, AppId, VirtPageNum, PhysFrameNum, PageSize};
///
/// let mut pt = PageTable::new(AppId(0));
/// pt.map_base(VirtPageNum(0), PhysFrameNum(512)).unwrap();
/// let t = pt.translate(VirtPageNum(0).addr()).unwrap();
/// assert_eq!(t.frame, PhysFrameNum(512));
/// assert_eq!(t.size, PageSize::Base);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    asid: AppId,
    /// Physical address of the root (L1) node; the per-SM PTBR points here.
    root: PhysAddr,
    /// L2 node addresses, direct-indexed by the 9-bit L1 index
    /// (`PhysAddr(0)` = no node: real nodes live at `NODE_REGION_BASE+`).
    l2_nodes: Box<[PhysAddr; 512]>,
    /// L3 node addresses, keyed by (L1 index, L2 index).
    l3_nodes: SortedMap<(u64, u64), PhysAddr>,
    /// Leaf regions, keyed by large page number.
    regions: SortedMap<LargePageNum, L3Region>,
    /// Bump allocator for page-table node addresses ([`alloc_node`]).
    next_node: u64,
    mapped_base_pages: u64,
}

/// Takes the next page-table node address from the bump allocator `next`.
fn alloc_node(next: &mut u64) -> PhysAddr {
    let a = PhysAddr(*next);
    *next += PageTable::NODE_SIZE;
    a
}

/// Mask yielding the 9-bit radix index for each level.
fn level_indices(addr: VirtAddr) -> [u64; 4] {
    let v = addr.raw();
    [(v >> 39) & 0x1ff, (v >> 30) & 0x1ff, (v >> 21) & 0x1ff, (v >> 12) & 0x1ff]
}

impl PageTable {
    /// Page-table nodes are modelled in a reserved physical region so their
    /// addresses never collide with data frames: 1 TiB + 4 GiB per ASID.
    const NODE_REGION_BASE: u64 = 1 << 40;
    const NODE_REGION_STRIDE: u64 = 1 << 32;
    const NODE_SIZE: u64 = 4096;

    /// One past the last physical address `asid`'s page-table nodes can
    /// occupy: a cache that tags page-table reads must reach this far.
    pub fn node_region_end(asid: AppId) -> u64 {
        Self::NODE_REGION_BASE + (u64::from(asid.0) + 1) * Self::NODE_REGION_STRIDE
    }

    /// Creates an empty table for `asid`.
    pub fn new(asid: AppId) -> Self {
        let mut next_node = Self::NODE_REGION_BASE + u64::from(asid.0) * Self::NODE_REGION_STRIDE;
        PageTable {
            asid,
            root: alloc_node(&mut next_node),
            l2_nodes: Box::new([PhysAddr(0); 512]),
            l3_nodes: SortedMap::default(),
            regions: SortedMap::default(),
            next_node,
            mapped_base_pages: 0,
        }
    }

    /// The address space this table translates.
    pub fn asid(&self) -> AppId {
        self.asid
    }

    /// Physical address of the root node (the PTBR value).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// Number of base pages currently mapped.
    pub fn mapped_base_pages(&self) -> u64 {
        self.mapped_base_pages
    }

    /// Maps a virtual base page to a physical base frame.
    ///
    /// # Errors
    ///
    /// Returns `Err(frame)` with the existing mapping if the page is
    /// already mapped.
    pub fn map_base(&mut self, vpn: VirtPageNum, frame: PhysFrameNum) -> Result<(), PhysFrameNum> {
        // A region's L2 and L3 nodes exist once it does. A new region's
        // missing nodes are allocated top-down: L2, then L3, then L4.
        let region = self.regions.get_or_insert_with(vpn.large_page(), || {
            let [i1, i2, _, _] = level_indices(vpn.addr());
            let next = &mut self.next_node;
            if self.l2_nodes[i1 as usize] == PhysAddr(0) {
                self.l2_nodes[i1 as usize] = alloc_node(next);
            }
            self.l3_nodes.get_or_insert_with((i1, i2), || alloc_node(next));
            let l4_node = alloc_node(next);
            L3Region { large: false, large_frame: None, l4_node, entries: L4Table::new() }
        });
        region.entries.try_insert(vpn.index_in_large(), L4Pte { frame, disabled: region.large })?;
        self.mapped_base_pages += 1;
        Ok(())
    }

    /// Removes the mapping for a base page, returning the frame it pointed
    /// to, or `None` if the page was not mapped.
    ///
    /// Deallocating inside a coalesced region is allowed (the paper's
    /// Section 4.4): the large mapping keeps covering the region, and the
    /// freed base frame stays unusable until CAC splinters the page.
    pub fn unmap_base(&mut self, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let index = vpn.index_in_large();
        let region = self.regions.get_mut(vpn.large_page())?;
        let removed = region.entries.remove(index);
        if removed.is_some() {
            self.mapped_base_pages -= 1;
        }
        removed
    }

    /// Changes the physical frame a mapped base page points to (used by
    /// CAC's compaction migration).
    ///
    /// # Errors
    ///
    /// Returns [`TranslationError::NotMapped`] if the page is not mapped.
    pub fn remap_base(
        &mut self,
        vpn: VirtPageNum,
        new_frame: PhysFrameNum,
    ) -> Result<PhysFrameNum, TranslationError> {
        let index = vpn.index_in_large();
        let region = self.regions.get_mut(vpn.large_page()).ok_or(TranslationError::NotMapped)?;
        region.entries.set_frame(index, new_frame).ok_or(TranslationError::NotMapped)
    }

    /// Translates a virtual address.
    ///
    /// If the containing region is coalesced, the translation is served at
    /// [`PageSize::Large`] (the mapping read, per Figure 7b, from the first
    /// L4 PTE: its high bits *are* the large-frame number because the
    /// coalescer never migrates data). Otherwise the base-page PTE is used.
    ///
    /// # Errors
    ///
    /// [`TranslationError::NotMapped`] if no valid mapping covers the
    /// address.
    #[inline]
    pub fn translate(&self, addr: VirtAddr) -> Result<Translation, TranslationError> {
        let vpn = addr.base_page();
        let region = self.regions.get(vpn.large_page()).ok_or(TranslationError::NotMapped)?;
        if region.large {
            // Large mapping: offset within the large frame is preserved.
            let lf = region.large_frame.ok_or(TranslationError::NotMapped)?;
            Ok(Translation { frame: lf.base_frame(vpn.index_in_large()), size: PageSize::Large })
        } else {
            let pte =
                region.entries.get(vpn.index_in_large()).ok_or(TranslationError::NotMapped)?;
            Ok(Translation { frame: pte.frame, size: PageSize::Base })
        }
    }

    /// Whether the given base page has a mapping (independent of
    /// coalescing state).
    pub fn is_mapped(&self, vpn: VirtPageNum) -> bool {
        self.regions
            .get(vpn.large_page())
            .is_some_and(|r| r.entries.get(vpn.index_in_large()).is_some())
    }

    /// Whether the region containing `lpn` is currently coalesced.
    pub fn is_coalesced(&self, lpn: LargePageNum) -> bool {
        self.regions.get(lpn).is_some_and(|r| r.large)
    }

    /// Number of mapped base pages within a large page (`0..=512`).
    pub fn mapped_in_large(&self, lpn: LargePageNum) -> u64 {
        self.regions.get(lpn).map_or(0, |r| r.entries.len())
    }

    /// Checks the In-Place Coalescer's precondition: all 512 base pages
    /// mapped, physically contiguous, and aligned within one large frame.
    pub fn can_coalesce(&self, lpn: LargePageNum) -> Result<LargeFrameNum, CoalesceError> {
        let region = self.regions.get(lpn).ok_or(CoalesceError::NotFullyPopulated)?;
        if region.large {
            return Err(CoalesceError::AlreadyCoalesced);
        }
        if region.entries.len() != BASE_PAGES_PER_LARGE_PAGE {
            return Err(CoalesceError::NotFullyPopulated);
        }
        let first = region.entries.get(0).ok_or(CoalesceError::NotContiguous)?;
        if first.frame.index_in_large() != 0 {
            return Err(CoalesceError::NotContiguous);
        }
        let lf = first.frame.large_frame();
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            let pte = region.entries.get(i).ok_or(CoalesceError::NotContiguous)?;
            if pte.frame != lf.base_frame(i) {
                return Err(CoalesceError::NotContiguous);
            }
        }
        Ok(lf)
    }

    /// Coalesces a fully-populated, contiguous large page region in place:
    /// sets the L3 large-page bit (one atomic store in hardware) and then
    /// the disabled bits on the 512 L4 PTEs. No frame numbers change and no
    /// TLB flush is required (Section 4.3).
    ///
    /// Returns the large frame now mapped.
    ///
    /// # Errors
    ///
    /// Any [`CoalesceError`] from [`PageTable::can_coalesce`].
    pub fn coalesce(&mut self, lpn: LargePageNum) -> Result<LargeFrameNum, CoalesceError> {
        let lf = self.can_coalesce(lpn)?;
        // A missing region means no base page is mapped; can_coalesce
        // rejects that, so this branch is unreachable — but the rejection
        // it would represent is NotFullyPopulated, not a crash.
        let Some(region) = self.regions.get_mut(lpn) else {
            return Err(CoalesceError::NotFullyPopulated);
        };
        region.large = true;
        region.large_frame = Some(lf);
        region.entries.set_all_disabled(true);
        Ok(lf)
    }

    /// Splinters a coalesced large page back into base pages: clears the
    /// disabled bits, then atomically clears the large-page bit
    /// (Section 4.4). The caller must flush the TLB's large-page entry.
    ///
    /// Returns `true` if the region was coalesced.
    pub fn splinter(&mut self, lpn: LargePageNum) -> bool {
        match self.regions.get_mut(lpn) {
            Some(region) if region.large => {
                region.entries.set_all_disabled(false);
                region.large = false;
                region.large_frame = None;
                true
            }
            _ => false,
        }
    }

    /// The four physical PTE addresses a hardware page-table walk for
    /// `addr` dereferences, in order (L1, L2, L3, L4). Returned even for
    /// unmapped addresses (a walk discovers the fault by reading the
    /// tables).
    ///
    /// For a coalesced region the fourth access reads the *first* L4 PTE of
    /// the child table (Figure 7b) instead of the faulting page's own PTE.
    pub fn walk_path(&self, addr: VirtAddr) -> [PhysAddr; 4] {
        let [i1, i2, i3, i4] = level_indices(addr);
        let l1_entry = PhysAddr(self.root.raw() + i1 * 8);
        let l2_node = match self.l2_nodes[i1 as usize] {
            PhysAddr(0) => self.root,
            node => node,
        };
        let l2_entry = PhysAddr(l2_node.raw() + i2 * 8);
        let l3_node = self.l3_nodes.get((i1, i2)).copied().unwrap_or(l2_node);
        let l3_entry = PhysAddr(l3_node.raw() + i3 * 8);
        let region = self.regions.get(addr.base_page().large_page());
        let (l4_node, l4_index) = match region {
            Some(r) if r.large => (r.l4_node, 0),
            Some(r) => (r.l4_node, i4),
            None => (l3_node, i4),
        };
        let l4_entry = PhysAddr(l4_node.raw() + l4_index * 8);
        [l1_entry, l2_entry, l3_entry, l4_entry]
    }

    /// Iterates over mapped `(virtual page, frame, disabled)` triples of
    /// one large page region, in index order.
    pub fn region_mappings(
        &self,
        lpn: LargePageNum,
    ) -> impl Iterator<Item = (VirtPageNum, PhysFrameNum, bool)> + '_ {
        self.regions
            .get(lpn)
            .into_iter()
            .flat_map(move |r| r.entries.iter())
            .map(move |(i, pte)| (lpn.base_page(i), pte.frame, pte.disabled))
    }

    /// Iterates over all large page numbers with at least one mapping.
    pub fn mapped_regions(&self) -> impl Iterator<Item = LargePageNum> + '_ {
        self.regions.iter().filter(|(_, r)| r.entries.len() > 0).map(|(lpn, _)| *lpn)
    }

    /// Iterates every live base mapping of this address space as
    /// `(virtual page, frame, disabled)`, across all regions in page
    /// order. This is the oracle-visible view of the whole table used by
    /// the conformance harness to diff the real implementation against a
    /// flat reference model.
    pub fn mappings(&self) -> impl Iterator<Item = (VirtPageNum, PhysFrameNum, bool)> + '_ {
        self.regions.iter().flat_map(|(lpn, r)| {
            r.entries.iter().map(move |(i, pte)| (lpn.base_page(i), pte.frame, pte.disabled))
        })
    }

    /// The large frame a coalesced region maps to, or `None` if `lpn` is
    /// not coalesced.
    pub fn large_frame_of(&self, lpn: LargePageNum) -> Option<LargeFrameNum> {
        self.regions.get(lpn).filter(|r| r.large).and_then(|r| r.large_frame)
    }
}

/// The set of page tables for all applications sharing the GPU.
///
/// Provides the PTBR lookup the walker performs (step 3 of Figure 2) and
/// convenience accessors used by the memory managers. Workloads run a
/// handful of applications, so the set is a small vector kept sorted by
/// ASID and scanned linearly — `table` is on the per-access hot path.
#[derive(Debug, Default)]
pub struct PageTableSet {
    tables: Vec<PageTable>,
}

impl PageTableSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the table for `asid`, creating an empty one on first use.
    pub fn table_mut(&mut self, asid: AppId) -> &mut PageTable {
        let pos = match self.tables.binary_search_by_key(&asid, |t| t.asid()) {
            Ok(pos) => pos,
            Err(pos) => {
                self.tables.insert(pos, PageTable::new(asid));
                pos
            }
        };
        &mut self.tables[pos]
    }

    /// Returns the table for `asid` if it exists.
    #[inline]
    pub fn table(&self, asid: AppId) -> Option<&PageTable> {
        self.tables.iter().find(|t| t.asid() == asid)
    }

    /// Iterates over all `(asid, table)` pairs in ASID order.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &PageTable)> {
        self.tables.iter().map(|t| (t.asid(), t))
    }

    /// Total base pages mapped across all address spaces.
    pub fn total_mapped(&self) -> u64 {
        self.tables.iter().map(|t| t.mapped_base_pages()).sum()
    }
}

impl AuditInvariants for PageTable {
    fn audit_component(&self) -> &'static str {
        "page-table"
    }

    /// Structural coherence of one address space's radix table:
    /// cached mapping counts, region geometry, and the coalesced-region
    /// contract (complete, contiguous, aligned, disabled bits set).
    fn audit(&self, report: &mut AuditReport) {
        let c = self.audit_component();
        let asid = self.asid;
        let counted: u64 = self.regions.iter().map(|(_, r)| r.entries.len()).sum();
        report.check(c, counted == self.mapped_base_pages, || {
            format!(
                "{asid}: cached mapped_base_pages {} != {} entries present",
                self.mapped_base_pages, counted
            )
        });
        report.check(c, self.regions.is_sorted() && self.l3_nodes.is_sorted(), || {
            format!("{asid}: region or L3 node map is not sorted/deduplicated")
        });
        for (lpn, region) in self.regions.iter() {
            let lpn = *lpn;
            // Index range is enforced structurally (512 fixed slots), so
            // the old out-of-range check has nothing left to observe.
            if region.large {
                let lf = region.large_frame;
                report.check(c, lf.is_some(), || {
                    format!("{asid}: {lpn} is coalesced but records no large frame")
                });
                // No completeness check: deallocation inside a coalesced
                // region is legal until CAC splinters it (Section 4.4), and
                // with CAC disabled a drained region stays coalesced — so a
                // coalesced region may hold anywhere from 0 to 512 entries.
                if let Some(lf) = lf {
                    report.check(
                        c,
                        region.entries.iter().all(|(i, pte)| pte.frame == lf.base_frame(i)),
                        || {
                            format!(
                                "{asid}: {lpn} is coalesced into {lf} but some PTE is not \
                                 contiguous/aligned within it"
                            )
                        },
                    );
                }
                report.check(c, region.entries.iter().all(|(_, pte)| pte.disabled), || {
                    format!("{asid}: {lpn} is coalesced but has an enabled L4 PTE")
                });
            } else {
                report.check(c, region.large_frame.is_none(), || {
                    format!("{asid}: {lpn} is not coalesced yet records a large frame")
                });
                report.check(c, region.entries.iter().all(|(_, pte)| !pte.disabled), || {
                    format!("{asid}: {lpn} is not coalesced but has a disabled L4 PTE")
                });
            }
        }
    }
}

impl AuditInvariants for PageTableSet {
    fn audit_component(&self) -> &'static str {
        "page-table-set"
    }

    /// Audits every table, then checks the cross-address-space exclusivity
    /// invariant: no physical base frame is mapped twice (by two virtual
    /// pages of any address spaces) — the property that makes in-place
    /// coalescing safe.
    fn audit(&self, report: &mut AuditReport) {
        let c = self.audit_component();
        report.check(c, self.tables.windows(2).all(|w| w[0].asid() < w[1].asid()), || {
            "page-table set is not sorted/deduplicated by ASID".to_string()
        });
        for table in &self.tables {
            table.audit(report);
        }
        let mut seen: BTreeMap<PhysFrameNum, (AppId, VirtPageNum)> = BTreeMap::new();
        for (asid, table) in self.iter() {
            for lpn in table.mapped_regions() {
                for (vpn, pfn, _) in table.region_mappings(lpn) {
                    if let Some(&(other_asid, other_vpn)) = seen.get(&pfn) {
                        report.check(c, false, || {
                            format!(
                                "{pfn} is mapped twice: by {other_asid}/{other_vpn} \
                                 and by {asid}/{vpn}"
                            )
                        });
                    } else {
                        seen.insert(pfn, (asid, vpn));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_contiguous(pt: &mut PageTable, lpn: LargePageNum, lf: LargeFrameNum) {
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
    }

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new(AppId(1));
        let vpn = VirtPageNum(1000);
        pt.map_base(vpn, PhysFrameNum(77)).unwrap();
        assert!(pt.is_mapped(vpn));
        let t = pt.translate(vpn.addr()).unwrap();
        assert_eq!(t.frame, PhysFrameNum(77));
        assert_eq!(t.size, PageSize::Base);
        assert_eq!(pt.unmap_base(vpn), Some(PhysFrameNum(77)));
        assert_eq!(pt.translate(vpn.addr()), Err(TranslationError::NotMapped));
        assert_eq!(pt.mapped_base_pages(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new(AppId(0));
        pt.map_base(VirtPageNum(5), PhysFrameNum(1)).unwrap();
        assert_eq!(pt.map_base(VirtPageNum(5), PhysFrameNum(2)), Err(PhysFrameNum(1)));
        // Original mapping is untouched.
        assert_eq!(pt.translate(VirtPageNum(5).addr()).unwrap().frame, PhysFrameNum(1));
    }

    #[test]
    fn coalesce_requires_full_population() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(4);
        let lf = LargeFrameNum(9);
        pt.map_base(lpn.base_page(0), lf.base_frame(0)).unwrap();
        assert_eq!(pt.can_coalesce(lpn), Err(CoalesceError::NotFullyPopulated));
    }

    #[test]
    fn coalesce_requires_contiguity_and_alignment() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(4);
        let lf = LargeFrameNum(9);
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            // Swap two frames to break contiguity.
            let j = match i {
                3 => 4,
                4 => 3,
                other => other,
            };
            pt.map_base(lpn.base_page(i), lf.base_frame(j)).unwrap();
        }
        assert_eq!(pt.can_coalesce(lpn), Err(CoalesceError::NotContiguous));
    }

    #[test]
    fn coalesce_misaligned_rejected() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(4);
        // Contiguous but starting at index 1 of the large frame: the first
        // base page is not large-frame aligned.
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            pt.map_base(lpn.base_page(i), PhysFrameNum(9 * 512 + 1 + i)).unwrap();
        }
        assert_eq!(pt.can_coalesce(lpn), Err(CoalesceError::NotContiguous));
    }

    #[test]
    fn coalesce_translates_as_large_without_migration() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(4);
        let lf = LargeFrameNum(9);
        full_contiguous(&mut pt, lpn, lf);
        let before = pt.translate(lpn.base_page(17).addr()).unwrap();
        assert_eq!(before.size, PageSize::Base);

        assert_eq!(pt.coalesce(lpn), Ok(lf));
        assert!(pt.is_coalesced(lpn));
        let after = pt.translate(lpn.base_page(17).addr()).unwrap();
        // Same frame as before — the coalesce moved no data.
        assert_eq!(after.frame, before.frame);
        assert_eq!(after.size, PageSize::Large);

        assert_eq!(pt.coalesce(lpn), Err(CoalesceError::AlreadyCoalesced));
    }

    #[test]
    fn splinter_reverses_coalesce() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(2);
        let lf = LargeFrameNum(3);
        full_contiguous(&mut pt, lpn, lf);
        pt.coalesce(lpn).unwrap();
        assert!(pt.splinter(lpn));
        assert!(!pt.is_coalesced(lpn));
        let t = pt.translate(lpn.base_page(100).addr()).unwrap();
        assert_eq!(t.size, PageSize::Base);
        assert_eq!(t.frame, lf.base_frame(100));
        // Splintering an uncoalesced page is a no-op.
        assert!(!pt.splinter(lpn));
    }

    #[test]
    fn dealloc_inside_coalesced_keeps_large_mapping() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(6);
        let lf = LargeFrameNum(8);
        full_contiguous(&mut pt, lpn, lf);
        pt.coalesce(lpn).unwrap();
        pt.unmap_base(lpn.base_page(42));
        assert_eq!(pt.mapped_in_large(lpn), 511);
        // Translation of the deallocated page still resolves through the
        // large mapping (the region is still coalesced).
        let t = pt.translate(lpn.base_page(42).addr()).unwrap();
        assert_eq!(t.size, PageSize::Large);
        // Even deallocating the FIRST base page must not lose the large
        // mapping: hardware reads it from the first L4 PTE's surviving
        // high bits (Figure 7b).
        pt.unmap_base(lpn.base_page(0));
        let t = pt.translate(lpn.base_page(7).addr()).unwrap();
        assert_eq!(t.size, PageSize::Large);
        assert_eq!(t.frame, lf.base_frame(7));
    }

    #[test]
    fn walk_path_is_four_distinct_levels() {
        let mut pt = PageTable::new(AppId(0));
        let vpn = VirtPageNum(123_456);
        pt.map_base(vpn, PhysFrameNum(1)).unwrap();
        let path = pt.walk_path(vpn.addr());
        assert_eq!(path.len(), 4);
        // All four accesses land in the reserved node region.
        for a in path {
            assert!(a.raw() >= PageTable::NODE_REGION_BASE);
        }
    }

    #[test]
    fn walk_path_reads_first_l4_pte_when_coalesced() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(4);
        full_contiguous(&mut pt, lpn, LargeFrameNum(9));
        let addr = lpn.base_page(300).addr();
        let before = pt.walk_path(addr);
        pt.coalesce(lpn).unwrap();
        let after = pt.walk_path(addr);
        assert_eq!(before[..3], after[..3]);
        assert_ne!(before[3], after[3], "coalesced walk reads the first L4 PTE");
        assert_eq!(after[3].raw() % 4096, 0, "first PTE sits at node base");
    }

    #[test]
    fn remap_base_changes_frame() {
        let mut pt = PageTable::new(AppId(0));
        let vpn = VirtPageNum(9);
        pt.map_base(vpn, PhysFrameNum(10)).unwrap();
        assert_eq!(pt.remap_base(vpn, PhysFrameNum(20)), Ok(PhysFrameNum(10)));
        assert_eq!(pt.translate(vpn.addr()).unwrap().frame, PhysFrameNum(20));
        assert_eq!(
            pt.remap_base(VirtPageNum(1000), PhysFrameNum(1)),
            Err(TranslationError::NotMapped)
        );
    }

    #[test]
    fn region_mappings_in_order() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(1);
        pt.map_base(lpn.base_page(10), PhysFrameNum(110)).unwrap();
        pt.map_base(lpn.base_page(2), PhysFrameNum(102)).unwrap();
        let m: Vec<_> = pt.region_mappings(lpn).collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], (lpn.base_page(2), PhysFrameNum(102), false));
        assert_eq!(m[1], (lpn.base_page(10), PhysFrameNum(110), false));
    }

    #[test]
    fn mappings_walks_every_region_in_order() {
        let mut pt = PageTable::new(AppId(0));
        pt.map_base(LargePageNum(3).base_page(7), PhysFrameNum(1)).unwrap();
        pt.map_base(LargePageNum(1).base_page(2), PhysFrameNum(2)).unwrap();
        pt.map_base(LargePageNum(1).base_page(9), PhysFrameNum(3)).unwrap();
        let all: Vec<_> = pt.mappings().collect();
        assert_eq!(
            all,
            vec![
                (LargePageNum(1).base_page(2), PhysFrameNum(2), false),
                (LargePageNum(1).base_page(9), PhysFrameNum(3), false),
                (LargePageNum(3).base_page(7), PhysFrameNum(1), false),
            ]
        );
    }

    #[test]
    fn large_frame_of_tracks_coalesce_state() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(2);
        let lf = LargeFrameNum(5);
        assert_eq!(pt.large_frame_of(lpn), None);
        full_contiguous(&mut pt, lpn, lf);
        assert_eq!(pt.large_frame_of(lpn), None, "not coalesced yet");
        pt.coalesce(lpn).unwrap();
        assert_eq!(pt.large_frame_of(lpn), Some(lf));
        pt.splinter(lpn);
        assert_eq!(pt.large_frame_of(lpn), None);
    }

    #[test]
    fn lookups_resolve_after_inserting_a_region_below_all_others() {
        // Alternate lookups across eight sparse regions; every mapped page
        // resolves and its unmapped neighbour does not.
        let mut pt = PageTable::new(AppId(0));
        for r in 0..8u64 {
            pt.map_base(LargePageNum(r * 5 + 1).base_page(r), PhysFrameNum(1000 + r)).unwrap();
        }
        for _ in 0..3 {
            for r in 0..8u64 {
                let lpn = LargePageNum(r * 5 + 1);
                assert_eq!(
                    pt.translate(lpn.base_page(r).addr()).unwrap().frame,
                    PhysFrameNum(1000 + r)
                );
                assert!(!pt.is_mapped(lpn.base_page(r + 1)));
            }
        }
        // Inserting a region below all others shifts every region's
        // position in the sorted vector; lookups must still resolve.
        pt.map_base(LargePageNum(0).base_page(0), PhysFrameNum(999)).unwrap();
        assert_eq!(
            pt.translate(LargePageNum(0).base_page(0).addr()).unwrap().frame,
            PhysFrameNum(999)
        );
        for r in 0..8u64 {
            let lpn = LargePageNum(r * 5 + 1);
            assert_eq!(
                pt.translate(lpn.base_page(r).addr()).unwrap().frame,
                PhysFrameNum(1000 + r)
            );
        }
    }

    #[test]
    fn page_table_set_isolates_asids() {
        let mut set = PageTableSet::new();
        set.table_mut(AppId(0)).map_base(VirtPageNum(1), PhysFrameNum(100)).unwrap();
        set.table_mut(AppId(1)).map_base(VirtPageNum(1), PhysFrameNum(200)).unwrap();
        assert_eq!(
            set.table(AppId(0)).unwrap().translate(VirtPageNum(1).addr()).unwrap().frame,
            PhysFrameNum(100)
        );
        assert_eq!(
            set.table(AppId(1)).unwrap().translate(VirtPageNum(1).addr()).unwrap().frame,
            PhysFrameNum(200)
        );
        assert_eq!(set.total_mapped(), 2);
        // Distinct roots: protection domains are separate tables.
        assert_ne!(set.table(AppId(0)).unwrap().root(), set.table(AppId(1)).unwrap().root());
    }

    #[test]
    fn page_table_set_iterates_in_asid_order() {
        let mut set = PageTableSet::new();
        // Create out of order; iteration must still be ascending (the
        // audit and conformance oracle depend on it).
        set.table_mut(AppId(3));
        set.table_mut(AppId(0));
        set.table_mut(AppId(2));
        let order: Vec<_> = set.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![AppId(0), AppId(2), AppId(3)]);
    }
}
