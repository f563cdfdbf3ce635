//! Lockstep runners: replay an op schedule against the real
//! implementation and its oracle, comparing observable state after every
//! step.
//!
//! The VM suite drives a real [`PageTable`] + [`Tlb`] against
//! [`OraclePageTable`] + [`OracleTlb`]. The manager suite drives a full
//! [`MemoryManager`] against a `FrameLedger` that re-derives every
//! externally-promised number (fault counts, transfer bytes, touched
//! bytes, event/counter agreement) from the op stream alone.

use crate::ops::{MgrOp, VmOp};
use crate::oracle::{OraclePageTable, OracleTlb};
use mosaic_core::{
    GpuMmuManager, MemError, MemoryManager, MgmtEvent, MigratingConfig, MigratingManager,
    MosaicConfig, MosaicManager,
};
use mosaic_sim_core::AuditReport;
use mosaic_vm::{
    AppId, LargePageNum, PageSize, PageTable, Tlb, TlbConfig, VirtPageNum, LARGE_PAGE_SIZE,
};
use std::collections::BTreeSet;
use std::fmt;

/// TLB geometry flavors the VM suite rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmConfigKind {
    /// 4-entry 2-way base array + 2-entry fully-associative large array:
    /// small enough that random schedules exercise eviction constantly.
    Tiny,
    /// The paper's per-SM L1 TLB geometry.
    PaperL1,
    /// The paper's shared L2 TLB geometry.
    PaperL2,
}

impl VmConfigKind {
    /// The real TLB geometry for this flavor.
    pub fn tlb_config(self) -> TlbConfig {
        match self {
            VmConfigKind::Tiny => TlbConfig {
                base_entries: 4,
                base_assoc: 2,
                large_entries: 2,
                large_assoc: 0,
                latency: 1,
            },
            VmConfigKind::PaperL1 => TlbConfig::paper_l1(),
            VmConfigKind::PaperL2 => TlbConfig::paper_l2(),
        }
    }
}

/// Fault injected into the *driver* of the real TLB, proving the harness
/// detects the class of bug it exists for (none of these touch the
/// implementations themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Honest driving.
    #[default]
    None,
    /// Skip every `flush_large` call on the real TLB — the stale-entry
    /// bug a missed splinter shootdown would cause.
    SkipFlushLarge,
    /// Fill the real TLB's base array regardless of the translation's
    /// page size.
    FillIgnoresSize,
    /// Probe the real TLB with the side-effect-free `peek` instead of
    /// `lookup`, so hits never refresh recency.
    LookupSkipsRecency,
}

/// A detected real-vs-oracle disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the op that exposed the disagreement.
    pub step: usize,
    /// The op, rendered.
    pub op: String,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} ({}): {}", self.step, self.op, self.detail)
    }
}

/// Manager flavors the manager suite rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgrKind {
    /// Mosaic with default CAC.
    MosaicDefault,
    /// Mosaic with CAC-BC (bulk-copy migrations).
    MosaicBulk,
    /// Mosaic with the Ideal CAC reference.
    MosaicIdeal,
    /// Mosaic with CAC disabled.
    MosaicNoCac,
    /// The GPU-MMU baseline, 4 KB pages.
    GpuMmuBase,
    /// The GPU-MMU baseline, 2 MB-only pages.
    GpuMmuLarge,
    /// The CPU-style migrating coalescer.
    Migrating,
}

/// The VM-suite asid used for page-table-coupled ops.
const PT_ASID: AppId = AppId(0);

fn vm_state_digest(
    tlb: &Tlb,
    oracle: &OracleTlb,
    table: &PageTable,
    otable: &OraclePageTable,
) -> Option<String> {
    if tlb.occupancy() != oracle.occupancy() {
        return Some(format!(
            "tlb occupancy: real {} oracle {}",
            tlb.occupancy(),
            oracle.occupancy()
        ));
    }
    let real: BTreeSet<(u16, u64, bool)> =
        tlb.entries().map(|(a, p, s)| (a.0, p, s == PageSize::Large)).collect();
    let want: BTreeSet<(u16, u64, bool)> =
        oracle.entries().map(|(a, p, s)| (a.0, p, s == PageSize::Large)).collect();
    if real != want {
        let missing: Vec<_> = want.difference(&real).collect();
        let extra: Vec<_> = real.difference(&want).collect();
        return Some(format!("tlb entries: missing {missing:?}, unexpected {extra:?}"));
    }
    if table.mapped_base_pages() != otable.mapped_base_pages() {
        return Some(format!(
            "mapped_base_pages: real {} oracle {}",
            table.mapped_base_pages(),
            otable.mapped_base_pages()
        ));
    }
    let real_maps: Vec<_> = table.mappings().collect();
    let want_maps = otable.mappings();
    if real_maps != want_maps {
        return Some(format!("mappings: real {real_maps:?} oracle {want_maps:?}"));
    }
    let mut report = AuditReport::new();
    mosaic_sim_core::AuditInvariants::audit(table, &mut report);
    if !report.is_clean() {
        return Some(format!("page-table audit: {:?}", report.violations()));
    }
    None
}

/// Replays `ops` against a real page table + TLB and the oracles in
/// lockstep, comparing op results and full observable state after every
/// step.
///
/// # Errors
///
/// The first [`Divergence`] found, if any.
pub fn run_vm_case(
    config: VmConfigKind,
    ops: &[VmOp],
    mutation: Mutation,
) -> Result<(), Divergence> {
    let mut table = PageTable::new(PT_ASID);
    let mut otable = OraclePageTable::new();
    let mut tlb = Tlb::new(config.tlb_config());
    let mut oracle = OracleTlb::new(&config.tlb_config());

    for (step, &op) in ops.iter().enumerate() {
        let diverge = |detail: String| Divergence { step, op: format!("VmOp::{op:?}"), detail };
        match op {
            VmOp::Map { vpn, pfn } => {
                let vpn = VirtPageNum(vpn);
                // `map_base` into a coalesced region is only legal for the
                // contiguous slot (the managers' hole-restore contract);
                // the driver must honor it, so redirect — and check both
                // sides agree on the coalesced frame while at it.
                let rc = table.large_frame_of(vpn.large_page());
                let oc = otable.large_frame_of(vpn.large_page());
                if rc != oc {
                    return Err(diverge(format!("large_frame_of: real {rc:?} oracle {oc:?}")));
                }
                let pfn = match rc {
                    Some(lf) => lf.base_frame(vpn.index_in_large()),
                    None => mosaic_vm::PhysFrameNum(pfn),
                };
                let r = table.map_base(vpn, pfn);
                let o = otable.map_base(vpn, pfn);
                if r != o {
                    return Err(diverge(format!("map_base: real {r:?} oracle {o:?}")));
                }
            }
            VmOp::MapRegion { lpn, lf } => {
                let lpn = LargePageNum(lpn);
                let rc = table.large_frame_of(lpn);
                let oc = otable.large_frame_of(lpn);
                if rc != oc {
                    return Err(diverge(format!("large_frame_of: real {rc:?} oracle {oc:?}")));
                }
                // Same hole-restore contract as Map: a coalesced region
                // only ever accepts its own contiguous frame back.
                let lf = rc.unwrap_or(mosaic_vm::LargeFrameNum(lf));
                for i in 0..mosaic_vm::BASE_PAGES_PER_LARGE_PAGE {
                    let r = table.map_base(lpn.base_page(i), lf.base_frame(i));
                    let o = otable.map_base(lpn.base_page(i), lf.base_frame(i));
                    if r != o {
                        return Err(diverge(format!("map_base slot {i}: real {r:?} oracle {o:?}")));
                    }
                }
            }
            VmOp::Unmap { vpn } => {
                let r = table.unmap_base(VirtPageNum(vpn));
                let o = otable.unmap_base(VirtPageNum(vpn));
                if r != o {
                    return Err(diverge(format!("unmap_base: real {r:?} oracle {o:?}")));
                }
            }
            VmOp::Coalesce { lpn } => {
                let r = table.coalesce(LargePageNum(lpn));
                let o = otable.coalesce(LargePageNum(lpn));
                if r != o {
                    return Err(diverge(format!("coalesce: real {r:?} oracle {o:?}")));
                }
            }
            VmOp::Splinter { lpn } => {
                let r = table.splinter(LargePageNum(lpn));
                let o = otable.splinter(LargePageNum(lpn));
                if r != o {
                    return Err(diverge(format!("splinter: real {r} oracle {o}")));
                }
                if r {
                    // Section 4.4: splintering invalidates the large TLB
                    // entry. The mutation models forgetting exactly that.
                    let addr = LargePageNum(lpn).base_page(0).addr();
                    if mutation != Mutation::SkipFlushLarge {
                        tlb.flush_large(PT_ASID, addr);
                    }
                    oracle.flush_large(PT_ASID, addr);
                }
            }
            VmOp::Translate { vpn } => {
                let addr = VirtPageNum(vpn).addr();
                let r = table.translate(addr);
                let o = otable.translate(addr);
                if r != o {
                    return Err(diverge(format!("translate: real {r:?} oracle {o:?}")));
                }
                if let Ok(t) = r {
                    // The walker's fill path: cache what was translated.
                    let size =
                        if mutation == Mutation::FillIgnoresSize { PageSize::Base } else { t.size };
                    let rf = tlb.fill(PT_ASID, addr, size);
                    let of = oracle.fill(PT_ASID, addr, t.size);
                    if rf != of {
                        return Err(diverge(format!(
                            "fill after translate: real evicted {rf:?} oracle {of:?}"
                        )));
                    }
                }
            }
            VmOp::Lookup { asid, page } => {
                let (asid, addr) = (AppId(asid), VirtPageNum(page).addr());
                // peek must agree with the oracle *and* must not disturb
                // replacement state — the lookup after it is the one that
                // refreshes recency.
                let rp = tlb.peek(asid, addr);
                let op_ = oracle.peek(asid, addr);
                if rp != op_ {
                    return Err(diverge(format!("peek: real {rp:?} oracle {op_:?}")));
                }
                let r = if mutation == Mutation::LookupSkipsRecency {
                    tlb.peek(asid, addr)
                } else {
                    tlb.lookup(asid, addr)
                };
                let o = oracle.lookup(asid, addr);
                if r != o {
                    return Err(diverge(format!("lookup: real {r:?} oracle {o:?}")));
                }
            }
            VmOp::Fill { asid, page, large } => {
                let (asid, addr) = (AppId(asid), VirtPageNum(page).addr());
                let size = if large { PageSize::Large } else { PageSize::Base };
                let mutated =
                    if mutation == Mutation::FillIgnoresSize { PageSize::Base } else { size };
                let r = tlb.fill(asid, addr, mutated);
                let o = oracle.fill(asid, addr, size);
                if r != o {
                    return Err(diverge(format!("fill: real evicted {r:?} oracle {o:?}")));
                }
            }
            VmOp::FlushLarge { asid, page } => {
                let (asid, addr) = (AppId(asid), VirtPageNum(page).addr());
                let o = oracle.flush_large(asid, addr);
                if mutation != Mutation::SkipFlushLarge {
                    let r = tlb.flush_large(asid, addr);
                    if r != o {
                        return Err(diverge(format!("flush_large: real {r} oracle {o}")));
                    }
                }
            }
            VmOp::FlushBase { asid, page } => {
                let (asid, addr) = (AppId(asid), VirtPageNum(page).addr());
                let r = tlb.flush_base(asid, addr);
                let o = oracle.flush_base(asid, addr);
                if r != o {
                    return Err(diverge(format!("flush_base: real {r} oracle {o}")));
                }
            }
            VmOp::FlushAsid { asid } => {
                let r = tlb.flush_asid(AppId(asid));
                let o = oracle.flush_asid(AppId(asid));
                if r != o {
                    return Err(diverge(format!("flush_asid: real {r} oracle {o}")));
                }
            }
            VmOp::FlushAll => {
                let r = tlb.flush_all();
                let o = oracle.flush_all();
                if r != o {
                    return Err(diverge(format!("flush_all: real {r} oracle {o}")));
                }
            }
            VmOp::Shootdown { asid, lpn } => {
                // A full shootdown of one 2 MB region, the sequence a
                // splinter-triggered TLB shootdown performs: the large
                // entry first, then all 512 base slots under it in one
                // range flush. Nearly every base slot is empty; the real
                // TLB's one-pass flush must give exactly the oracle's
                // page-by-page answer.
                let (asid, lpn) = (AppId(asid), LargePageNum(lpn));
                let large_addr = lpn.base_page(0).addr();
                let o = oracle.flush_large(asid, large_addr);
                if mutation != Mutation::SkipFlushLarge {
                    let r = tlb.flush_large(asid, large_addr);
                    if r != o {
                        return Err(diverge(format!("shootdown large: real {r} oracle {o}")));
                    }
                }
                let r = tlb.flush_base_range(
                    asid,
                    lpn.base_page(0),
                    mosaic_vm::BASE_PAGES_PER_LARGE_PAGE,
                );
                let o = lpn.base_pages().filter(|vpn| oracle.flush_base(asid, vpn.addr())).count();
                if r != o {
                    return Err(diverge(format!("shootdown base: real {r} oracle {o} flushed")));
                }
            }
        }
        if let Some(detail) = vm_state_digest(&tlb, &oracle, &table, &otable) {
            return Err(diverge(detail));
        }
    }
    Ok(())
}

/// The real manager under test, with the concrete handles the ledger's
/// flavor-specific checks need.
#[derive(Debug)]
enum RealMgr {
    Mosaic(MosaicManager),
    Gpu(GpuMmuManager),
    Migrating(MigratingManager),
}

impl RealMgr {
    fn build(kind: MgrKind, frames: u64) -> RealMgr {
        let bytes = frames * LARGE_PAGE_SIZE;
        let channels = 2;
        match kind {
            MgrKind::MosaicDefault
            | MgrKind::MosaicBulk
            | MgrKind::MosaicIdeal
            | MgrKind::MosaicNoCac => {
                let cac = match kind {
                    MgrKind::MosaicBulk => mosaic_core::CacConfig::with_bulk_copy(),
                    MgrKind::MosaicIdeal => mosaic_core::CacConfig::ideal(),
                    MgrKind::MosaicNoCac => mosaic_core::CacConfig::disabled(),
                    _ => mosaic_core::CacConfig::default(),
                };
                RealMgr::Mosaic(MosaicManager::new(MosaicConfig {
                    memory_bytes: bytes,
                    channels,
                    cac,
                }))
            }
            MgrKind::GpuMmuBase => {
                RealMgr::Gpu(GpuMmuManager::new(bytes, channels, PageSize::Base))
            }
            MgrKind::GpuMmuLarge => {
                RealMgr::Gpu(GpuMmuManager::new(bytes, channels, PageSize::Large))
            }
            MgrKind::Migrating => RealMgr::Migrating(MigratingManager::new(
                bytes,
                channels,
                MigratingConfig::default(),
            )),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn MemoryManager {
        match self {
            RealMgr::Mosaic(m) => m,
            RealMgr::Gpu(m) => m,
            RealMgr::Migrating(m) => m,
        }
    }

    fn as_dyn_ref(&self) -> &dyn MemoryManager {
        match self {
            RealMgr::Mosaic(m) => m,
            RealMgr::Gpu(m) => m,
            RealMgr::Migrating(m) => m,
        }
    }
}

/// Event tallies and derived expectations the ledger accumulates across a
/// schedule.
#[derive(Debug, Default)]
struct FrameLedger {
    reservations: Vec<(u16, u64, u64)>,
    touched: BTreeSet<(u16, u64)>,
    resident: BTreeSet<(u16, u64)>,
    /// Pages a `Store` dirtied since they last became resident. Cleared
    /// by deallocation and eviction — write-back accounting is derived
    /// from this set alone.
    dirty: BTreeSet<(u16, u64)>,
    far_faults: u64,
    transferred: u64,
    evicted_pages: u64,
    writeback: u64,
    coalesced_ev: u64,
    splintered_ev: u64,
    migrated_ev: u64,
    shootdown_ev: u64,
    /// Shootdowns from `evict_for` outcomes, tallied separately: every
    /// manager emits them under pressure, so they must not disturb the
    /// flavor-specific pairings over `shootdown_ev`.
    evict_shootdown_ev: u64,
}

impl FrameLedger {
    fn reserved(&self, asid: u16, vpn: u64) -> bool {
        self.reservations.iter().any(|&(a, start, n)| a == asid && vpn >= start && vpn < start + n)
    }

    fn tally(&mut self, events: &[MgmtEvent]) {
        for e in events {
            match e {
                MgmtEvent::Coalesced { .. } => self.coalesced_ev += 1,
                MgmtEvent::Splintered { .. } => self.splintered_ev += 1,
                MgmtEvent::PageMigrated { .. } => self.migrated_ev += 1,
                MgmtEvent::TlbShootdown { .. } => self.shootdown_ev += 1,
            }
        }
    }
}

/// Whether the manager flavor maps *only* pages the app touched (true
/// for Mosaic and the 4 KB baseline; large-page materialization and
/// promotion zero-fill map more).
fn exact_resident(kind: MgrKind) -> bool {
    !matches!(kind, MgrKind::GpuMmuLarge | MgrKind::Migrating)
}

fn ledger_check(kind: MgrKind, mgr: &RealMgr, ledger: &FrameLedger) -> Option<String> {
    let m = mgr.as_dyn_ref();
    let s = m.stats();
    if s.far_faults != ledger.far_faults {
        return Some(format!("far_faults: real {} ledger {}", s.far_faults, ledger.far_faults));
    }
    if s.transferred_bytes != ledger.transferred {
        return Some(format!(
            "transferred_bytes: real {} ledger {}",
            s.transferred_bytes, ledger.transferred
        ));
    }
    if s.evictions != ledger.evicted_pages {
        return Some(format!("evictions: real {} ledger {}", s.evictions, ledger.evicted_pages));
    }
    if s.writeback_bytes != ledger.writeback {
        return Some(format!(
            "writeback_bytes: real {} ledger {}",
            s.writeback_bytes, ledger.writeback
        ));
    }
    let touched = ledger.touched.len() as u64 * mosaic_vm::BASE_PAGE_SIZE;
    if m.touched_bytes() != touched {
        return Some(format!("touched_bytes: real {} ledger {touched}", m.touched_bytes()));
    }
    // Event/counter agreement: every counter the manager reports must be
    // backed by the events it emitted (flavor-specific pairings).
    let eq = |name: &str, counter: u64, events: u64| {
        (counter != events).then(|| {
            format!("counter/event disagreement: {name} counter {counter} vs {events} events")
        })
    };
    let counter_mismatch = match kind {
        // Mosaic: 1:1 events for coalesces, splinters, and migrations
        // (ideal CAC still counts migrations but suppresses their events).
        MgrKind::MosaicDefault | MgrKind::MosaicBulk | MgrKind::MosaicNoCac => {
            eq("coalesces", s.coalesces, ledger.coalesced_ev)
                .or_else(|| eq("splinters", s.splinters, ledger.splintered_ev))
                .or_else(|| eq("migrations", s.migrations, ledger.migrated_ev))
        }
        MgrKind::MosaicIdeal => eq("coalesces", s.coalesces, ledger.coalesced_ev)
            .or_else(|| eq("splinters", s.splinters, ledger.splintered_ev))
            .or_else(|| eq("ideal-CAC PageMigrated", 0, ledger.migrated_ev)),
        MgrKind::GpuMmuBase | MgrKind::GpuMmuLarge => {
            eq("coalesces", s.coalesces, ledger.coalesced_ev)
                .or_else(|| eq("splinters", s.splinters, ledger.splintered_ev))
                .or_else(|| eq("baseline migrations", s.migrations, 0))
                .or_else(|| eq("baseline PageMigrated", 0, ledger.migrated_ev))
        }
        // Promotion emits one TlbShootdown per coalesce and no Coalesced
        // event (the shootdown is the observable cost).
        MgrKind::Migrating => eq("coalesces/shootdowns", s.coalesces, ledger.shootdown_ev)
            .or_else(|| eq("splinters", s.splinters, ledger.splintered_ev))
            .or_else(|| eq("migrations", s.migrations, ledger.migrated_ev))
            .or_else(|| eq("Coalesced from migrating mgr", 0, ledger.coalesced_ev)),
    };
    if let Some(msg) = counter_mismatch {
        return Some(msg);
    }
    if !matches!(kind, MgrKind::Migrating) && ledger.shootdown_ev != 0 {
        return Some("TlbShootdown from a non-migrating manager".to_string());
    }
    // Residency: everything the ledger believes resident must be mapped;
    // exact managers map nothing else.
    for &(asid, vpn) in &ledger.resident {
        let mapped = m.tables().table(AppId(asid)).is_some_and(|t| t.is_mapped(VirtPageNum(vpn)));
        if !mapped {
            return Some(format!("asid {asid} page {vpn} touched but not mapped"));
        }
    }
    if exact_resident(kind) && m.tables().total_mapped() != ledger.resident.len() as u64 {
        return Some(format!(
            "mapped pages: real {} ledger resident {}",
            m.tables().total_mapped(),
            ledger.resident.len()
        ));
    }
    // The manager's own invariant sweep must stay clean after every op.
    let mut report = AuditReport::new();
    m.audit(&mut report);
    if !report.is_clean() {
        return Some(format!("audit violations: {:?}", report.violations()));
    }
    // Mosaic extras: the soft guarantee holds verbatim until the manager
    // itself reports breaking it, and parked emergency entries stay
    // coalesced, chunk-bound large pages.
    if let RealMgr::Mosaic(m) = mgr {
        if m.cac().soft_guarantee_breaks() == 0 {
            for (lf, state) in m.pool().tracked() {
                let owners: BTreeSet<AppId> = state.allocated().map(|(_, a)| a).collect();
                if owners.len() > 1 {
                    return Some(format!(
                        "soft guarantee: frame {lf} mixes owners {owners:?} with zero reported breaks"
                    ));
                }
            }
        }
        for (asid, lpn) in m.cocoa().emergency_entries() {
            let coalesced = m.tables().table(asid).is_some_and(|t| t.is_coalesced(lpn));
            if !coalesced {
                return Some(format!(
                    "emergency list holds {asid}/{lpn} which is no longer coalesced"
                ));
            }
            if m.cocoa().chunk_frame(asid, lpn).is_none() {
                return Some(format!("emergency list holds unbound chunk {asid}/{lpn}"));
            }
        }
    }
    None
}

/// Replays `ops` against a real manager and the frame ledger in lockstep.
///
/// # Errors
///
/// The first [`Divergence`] found, if any.
pub fn run_mgr_case(kind: MgrKind, frames: u64, ops: &[MgrOp]) -> Result<(), Divergence> {
    let mut mgr = RealMgr::build(kind, frames);
    let mut ledger = FrameLedger::default();
    for a in 0..2u16 {
        mgr.as_dyn().register_app(AppId(a));
    }

    for (step, &op) in ops.iter().enumerate() {
        let mut fail = None;
        match op {
            MgrOp::Reserve { asid, start, pages } => {
                mgr.as_dyn().reserve(AppId(asid), VirtPageNum(start), pages);
                ledger.reservations.push((asid, start, pages));
            }
            MgrOp::Touch { asid, vpn } => {
                fail = step_touch(&mut mgr, &mut ledger, asid, vpn);
            }
            MgrOp::TouchRange { asid, start, pages } => {
                for vpn in start..start + pages {
                    fail = step_touch(&mut mgr, &mut ledger, asid, vpn);
                    if fail.is_some() {
                        break;
                    }
                }
            }
            MgrOp::Dealloc { asid, start, pages } => {
                let events = mgr.as_dyn().deallocate(AppId(asid), VirtPageNum(start), pages);
                ledger.tally(&events);
                for vpn in start..start + pages {
                    ledger.resident.remove(&(asid, vpn));
                    ledger.dirty.remove(&(asid, vpn));
                    let mapped = mgr
                        .as_dyn_ref()
                        .tables()
                        .table(AppId(asid))
                        .is_some_and(|t| t.is_mapped(VirtPageNum(vpn)));
                    if mapped {
                        fail = Some(format!("page {vpn} still mapped after deallocate"));
                        break;
                    }
                }
            }
            MgrOp::Store { asid, vpn } => {
                // Resident stores feed the eviction policy's recency and
                // dirty bits; non-resident stores are the fault path's
                // problem (`Touch`), modeled as a no-op.
                let frame = mgr
                    .as_dyn_ref()
                    .tables()
                    .table(AppId(asid))
                    .and_then(|t| t.translate(VirtPageNum(vpn).addr()).ok())
                    .map(|t| t.frame);
                if let Some(frame) = frame {
                    mgr.as_dyn().note_use(frame, true);
                    ledger.dirty.insert((asid, vpn));
                }
            }
            MgrOp::Evict { bytes } => {
                fail = step_evict(&mut mgr, &mut ledger, kind, bytes);
            }
        }
        let fail = fail.or_else(|| ledger_check(kind, &mgr, &ledger));
        if let Some(detail) = fail {
            return Err(Divergence { step, op: format!("MgrOp::{op:?}"), detail });
        }
    }
    Ok(())
}

/// One touch against the ledger's expectations. Returns a failure detail
/// on divergence.
fn step_touch(mgr: &mut RealMgr, ledger: &mut FrameLedger, asid: u16, vpn: u64) -> Option<String> {
    let reserved = ledger.reserved(asid, vpn);
    let was_mapped =
        mgr.as_dyn_ref().tables().table(AppId(asid)).is_some_and(|t| t.is_mapped(VirtPageNum(vpn)));
    let out = mgr.as_dyn().touch(AppId(asid), VirtPageNum(vpn));
    if !reserved {
        return match out {
            Err(MemError::NotReserved) => None,
            other => Some(format!("unreserved touch returned {other:?}")),
        };
    }
    match out {
        Ok(out) => {
            if was_mapped && (out.transfer_bytes != 0 || !out.events.is_empty()) {
                return Some(format!(
                    "resident re-touch cost {} bytes, {} events",
                    out.transfer_bytes,
                    out.events.len()
                ));
            }
            if !was_mapped {
                if out.transfer_bytes == 0 {
                    return Some("first touch transferred nothing".to_string());
                }
                ledger.far_faults += 1;
            }
            ledger.transferred += out.transfer_bytes;
            ledger.tally(&out.events);
            ledger.touched.insert((asid, vpn));
            ledger.resident.insert((asid, vpn));
            None
        }
        Err(MemError::NotReserved) => Some("reserved touch rejected as NotReserved".to_string()),
        Err(MemError::OutOfMemory) => {
            if was_mapped {
                return Some("resident re-touch reported OutOfMemory".to_string());
            }
            // OOM must mean exhaustion: with no pre-fragmentation, Mosaic's
            // failsafe chain (free frames -> free base list -> emergency
            // list) must be empty before it may fail an allocation.
            if let RealMgr::Mosaic(m) = mgr {
                if m.pool().free_frames() != 0 {
                    return Some(format!(
                        "OutOfMemory with {} free frames",
                        m.pool().free_frames()
                    ));
                }
                if m.cocoa().free_base_len(AppId(asid)) != 0 {
                    return Some(format!(
                        "OutOfMemory with {} spare base frames on the requester's free list",
                        m.cocoa().free_base_len(AppId(asid))
                    ));
                }
                if m.cocoa().emergency_len() != 0 {
                    return Some(format!(
                        "OutOfMemory with {} entries still parked on the emergency list",
                        m.cocoa().emergency_len()
                    ));
                }
            }
            None
        }
    }
}

/// One `evict_for` call against the ledger's expectations: the outcome's
/// pages, shootdowns, and write-back bytes must all be re-derivable from
/// the op stream. Returns a failure detail on divergence.
fn step_evict(
    mgr: &mut RealMgr,
    ledger: &mut FrameLedger,
    kind: MgrKind,
    bytes: u64,
) -> Option<String> {
    let out = mgr.as_dyn().evict_for(bytes);
    // Events: TlbShootdowns covering exactly the evicted 2 MB regions,
    // nothing else — eviction must not masquerade as coalescing policy.
    // A region scattered across several victim frames may be shot down
    // once per frame, so coverage is a set comparison, not a count.
    let want_regions: BTreeSet<(u16, u64)> =
        out.evicted.iter().map(|&(asid, vpn)| (asid.0, vpn.large_page().raw())).collect();
    let mut got_regions: BTreeSet<(u16, u64)> = BTreeSet::new();
    for e in &out.events {
        match e {
            MgmtEvent::TlbShootdown { asid, lpn } => {
                got_regions.insert((asid.0, lpn.raw()));
                ledger.evict_shootdown_ev += 1;
            }
            other => return Some(format!("eviction emitted a non-shootdown event: {other:?}")),
        }
    }
    if got_regions != want_regions {
        return Some(format!(
            "eviction shootdowns {got_regions:?} do not match evicted regions {want_regions:?}"
        ));
    }
    // Pages: evicted at most once, known-resident beforehand (for the
    // managers that map exactly what was touched), and unmapped now.
    let mut seen: BTreeSet<(u16, u64)> = BTreeSet::new();
    let mut dirty_evicted = 0u64;
    for &(asid, vpn) in &out.evicted {
        let key = (asid.0, vpn.0);
        if !seen.insert(key) {
            return Some(format!("page {key:?} evicted twice in one call"));
        }
        if exact_resident(kind) && !ledger.resident.contains(&key) {
            return Some(format!("evicted page {key:?} was never believed resident"));
        }
        let mapped = mgr.as_dyn_ref().tables().table(asid).is_some_and(|t| t.is_mapped(vpn));
        if mapped {
            return Some(format!("evicted page {key:?} is still mapped"));
        }
        if ledger.dirty.remove(&key) {
            dirty_evicted += 1;
        }
        ledger.resident.remove(&key);
    }
    // Write-back: exactly the dirty pages among the evicted, nothing
    // more (clean pages are free to drop) and nothing less (dirty data
    // must not be lost).
    let want_wb = dirty_evicted * mosaic_vm::BASE_PAGE_SIZE;
    if out.writeback_bytes != want_wb {
        return Some(format!(
            "writeback_bytes {}: the ledger holds {dirty_evicted} dirty pages among the \
             evicted ({want_wb} bytes)",
            out.writeback_bytes
        ));
    }
    ledger.evicted_pages += out.evicted.len() as u64;
    ledger.writeback += out.writeback_bytes;
    None
}
