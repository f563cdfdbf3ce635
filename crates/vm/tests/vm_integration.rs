//! Integration tests across the vm crate's modules: page tables feeding
//! TLBs feeding the walker, as the full simulator wires them.

use mosaic_sim_core::Cycle;
use mosaic_vm::page_table::CoalesceError;
use mosaic_vm::{
    AppId, LargeFrameNum, LargePageNum, PageSize, PageTable, PageTableSet, PageTableWalker,
    PhysAddr, PhysFrameNum, Tlb, TlbConfig, TlbLookup, VirtPageNum, WalkCache,
    BASE_PAGES_PER_LARGE_PAGE,
};

fn full_region(pt: &mut PageTable, lpn: LargePageNum, lf: LargeFrameNum) {
    for i in 0..BASE_PAGES_PER_LARGE_PAGE {
        pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
    }
}

#[test]
fn walk_then_fill_then_hit_round_trip() {
    let mut pt = PageTable::new(AppId(0));
    let lpn = LargePageNum(3);
    full_region(&mut pt, lpn, LargeFrameNum(7));
    pt.coalesce(lpn).unwrap();

    let mut tlb = Tlb::new(TlbConfig::paper_l1());
    let mut walker = PageTableWalker::new(64);
    let addr = lpn.base_page(17).addr();

    // Miss -> walk -> fill at the translated size -> hit covering the
    // whole 2MB region.
    assert_eq!(tlb.lookup(AppId(0), addr), TlbLookup::Miss);
    let path = pt.walk_path(addr);
    let out = walker.walk(Cycle::ZERO, AppId(0), addr.base_page(), path, |_, _, t| t + 100);
    assert_eq!(out.done, Cycle::new(400));
    let t = pt.translate(addr).unwrap();
    tlb.fill(AppId(0), addr, t.size);
    assert_eq!(t.size, PageSize::Large);
    assert_eq!(t.large_frame(), LargeFrameNum(7));
    assert_eq!(tlb.lookup(AppId(0), lpn.base_page(400).addr()), TlbLookup::HitLarge);
}

#[test]
fn coalesce_error_messages_are_descriptive() {
    assert!(CoalesceError::NotFullyPopulated.to_string().contains("populated"));
    assert!(CoalesceError::NotContiguous.to_string().contains("contiguous"));
    assert!(CoalesceError::AlreadyCoalesced.to_string().contains("already"));
}

#[test]
fn page_table_set_iterates_all_tables() {
    let mut set = PageTableSet::new();
    for a in 0..5u16 {
        set.table_mut(AppId(a)).map_base(VirtPageNum(1), PhysFrameNum(u64::from(a))).unwrap();
    }
    let mut asids: Vec<u16> = set.iter().map(|(a, _)| a.0).collect();
    asids.sort_unstable();
    assert_eq!(asids, vec![0, 1, 2, 3, 4]);
    assert_eq!(set.total_mapped(), 5);
}

#[test]
fn walk_paths_differ_between_address_spaces() {
    let mut set = PageTableSet::new();
    set.table_mut(AppId(0)).map_base(VirtPageNum(9), PhysFrameNum(1)).unwrap();
    set.table_mut(AppId(1)).map_base(VirtPageNum(9), PhysFrameNum(2)).unwrap();
    let p0 = set.table(AppId(0)).unwrap().walk_path(VirtPageNum(9).addr());
    let p1 = set.table(AppId(1)).unwrap().walk_path(VirtPageNum(9).addr());
    // Same virtual address, different protection domains: different
    // page-table nodes at every level.
    for (a, b) in p0.iter().zip(&p1) {
        assert_ne!(a, b);
    }
}

#[test]
fn walk_path_is_defined_for_unmapped_addresses() {
    let pt = PageTable::new(AppId(0));
    // A hardware walk of an unmapped address still dereferences the
    // table (and discovers the fault at some level).
    let path = pt.walk_path(VirtPageNum(123).addr());
    assert_eq!(path.len(), 4);
}

#[test]
fn walker_concurrency_limits_are_visible() {
    let mut w = PageTableWalker::new(64);
    assert_eq!(w.walks(), 0);
    assert_eq!(w.latency().count(), 0);
    // 64 distinct walks at once each get a thread; the 65th waits for one.
    let access = |_: usize, _: PhysAddr, at: Cycle| at + 100;
    for i in 0..64 {
        let out = w.walk(Cycle::ZERO, AppId(0), VirtPageNum(i), [PhysAddr(0); 4], access);
        assert_eq!(out.done, Cycle::new(400));
    }
    let queued = w.walk(Cycle::ZERO, AppId(0), VirtPageNum(64), [PhysAddr(0); 4], access);
    assert_eq!(queued.done, Cycle::new(800));
}

#[test]
fn walk_cache_accelerates_upper_levels_only_by_policy() {
    // The cache itself is level-agnostic; the simulator feeds it levels
    // 0..3. Verify the LRU behaviour the policy depends on.
    let mut pwc = WalkCache::new(3, 4);
    let mut pt = PageTable::new(AppId(0));
    pt.map_base(VirtPageNum(1), PhysFrameNum(1)).unwrap();
    let path = pt.walk_path(VirtPageNum(1).addr());
    for a in &path[..3] {
        assert!(!pwc.access(*a), "cold");
    }
    for a in &path[..3] {
        assert!(pwc.access(*a), "warm upper levels");
    }
    assert_eq!(pwc.occupancy(), 3);
}

#[test]
fn splinter_after_partial_dealloc_keeps_survivors() {
    let mut pt = PageTable::new(AppId(0));
    let lpn = LargePageNum(2);
    let lf = LargeFrameNum(4);
    full_region(&mut pt, lpn, lf);
    pt.coalesce(lpn).unwrap();
    for i in 0..500 {
        pt.unmap_base(lpn.base_page(i));
    }
    assert!(pt.splinter(lpn));
    // The 12 survivors translate at base size to their original frames.
    for i in 500..BASE_PAGES_PER_LARGE_PAGE {
        let t = pt.translate(lpn.base_page(i).addr()).unwrap();
        assert_eq!(t.size, PageSize::Base);
        assert_eq!(t.frame, lf.base_frame(i));
    }
    // The deallocated ones fault.
    assert!(pt.translate(lpn.base_page(0).addr()).is_err());
}
