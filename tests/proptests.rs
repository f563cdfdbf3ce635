//! Hand-rolled property-based tests on the core data structures'
//! invariants: page tables, TLBs, the frame pool, and the Mosaic
//! manager's allocation discipline.
//!
//! Each property runs many randomized cases drawn from a seeded
//! [`SimRng`], so failures reproduce exactly: the case index is the
//! fork index, and every case can be replayed in isolation.

use mosaic::prelude::*;
use mosaic::vm::{LargeFrameNum, LargePageNum, BASE_PAGES_PER_LARGE_PAGE, LARGE_PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 64;

/// Runs `body` once per case with an independent, reproducible RNG.
fn for_each_case(label: &str, body: impl Fn(&mut SimRng)) {
    let root = SimRng::from_seed(0x04d0_5a1c_5eed);
    for case in 0..CASES {
        let mut rng = root.fork(label, case);
        body(&mut rng);
    }
}

/// Address decomposition round-trips for any address.
#[test]
fn address_geometry_roundtrips() {
    for_each_case("addr-geometry", |rng| {
        let raw = rng.below(1 << 48);
        let a = VirtAddr(raw);
        let vpn = a.base_page();
        let lpn = a.large_page();
        assert_eq!(vpn.addr().raw() + a.base_offset(), raw);
        assert_eq!(lpn.addr().raw() + raw % LARGE_PAGE_SIZE, raw);
        assert_eq!(vpn.large_page(), lpn);
        assert_eq!(lpn.base_page(vpn.index_in_large()), vpn);
    });
}

/// Mapping then translating returns exactly what was mapped; unmapping
/// removes exactly that mapping.
#[test]
fn page_table_map_translate_unmap() {
    for_each_case("map-translate-unmap", |rng| {
        let n = 1 + rng.below(63);
        let pages: BTreeSet<u64> = (0..n).map(|_| rng.below(100_000)).collect();
        let mut pt = PageTable::new(AppId(0));
        // Frames must be distinct: derive them from the (distinct) keys.
        for &v in &pages {
            pt.map_base(VirtPageNum(v), PhysFrameNum(v + 1_000_000)).unwrap();
        }
        for &v in &pages {
            let t = pt.translate(VirtPageNum(v).addr()).unwrap();
            assert_eq!(t.frame, PhysFrameNum(v + 1_000_000));
            assert_eq!(t.size, PageSize::Base);
        }
        for &v in &pages {
            assert_eq!(pt.unmap_base(VirtPageNum(v)), Some(PhysFrameNum(v + 1_000_000)));
        }
        assert_eq!(pt.mapped_base_pages(), 0);
    });
}

/// Coalescing never changes any translation's physical frame — the
/// defining property of in-place coalescing.
#[test]
fn coalesce_preserves_translations() {
    for_each_case("coalesce-preserves", |rng| {
        let lpn = LargePageNum(rng.below(512));
        let lf = LargeFrameNum(rng.below(512));
        let probe = rng.below(512);
        let mut pt = PageTable::new(AppId(0));
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
        let addr = lpn.base_page(probe).addr();
        let before = pt.translate(addr).unwrap();
        pt.coalesce(lpn).unwrap();
        let after = pt.translate(addr).unwrap();
        assert_eq!(before.frame, after.frame);
        assert_eq!(after.size, PageSize::Large);
        // Splintering restores the base view, still at the same frame.
        pt.splinter(lpn);
        let back = pt.translate(addr).unwrap();
        assert_eq!(back.frame, before.frame);
        assert_eq!(back.size, PageSize::Base);
    });
}

/// A TLB never hits for an (asid, page) pair that was not filled, and
/// always hits right after its own fill.
#[test]
fn tlb_soundness() {
    for_each_case("tlb-soundness", |rng| {
        let mut tlb = Tlb::new(TlbConfig::paper_l1());
        let mut filled = BTreeSet::new();
        let fills = 1 + rng.below(199);
        for _ in 0..fills {
            let a = rng.below(4) as u16;
            let p = rng.below(1_000);
            tlb.fill(AppId(a), VirtPageNum(p).addr(), PageSize::Base);
            filled.insert((a, p));
        }
        let probe_asid = rng.below(4) as u16;
        let probe_page = rng.below(1_000);
        let hit = tlb.lookup(AppId(probe_asid), VirtPageNum(probe_page).addr()).is_hit();
        if hit {
            // Hits only on genuinely filled pairs (capacity may have
            // evicted them, so the converse does not hold).
            assert!(filled.contains(&(probe_asid, probe_page)));
        }
    });
}

/// The TLB's occupancy never exceeds its configured capacity.
#[test]
fn tlb_capacity_bound() {
    for_each_case("tlb-capacity", |rng| {
        let cfg = TlbConfig {
            base_entries: 16,
            base_assoc: 4,
            large_entries: 4,
            large_assoc: 0,
            latency: 1,
        };
        let mut tlb = Tlb::new(cfg);
        for _ in 0..rng.below(400) {
            let p = rng.below(10_000);
            tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Base);
            tlb.fill(AppId(0), VirtPageNum(p).addr(), PageSize::Large);
        }
        assert!(tlb.occupancy() <= 20);
    });
}

/// Frame-pool accounting: allocated counts match the set/cleared
/// owners, and released frames can be taken again.
#[test]
fn frame_pool_accounting() {
    for_each_case("frame-pool-accounting", |rng| {
        let mut pool = FramePool::new(64 * LARGE_PAGE_SIZE, 6);
        let mut model = BTreeMap::new();
        let ops = 1 + rng.below(299);
        for _ in 0..ops {
            let pfn = LargeFrameNum(rng.below(64)).base_frame(rng.below(512));
            if rng.chance(0.5) {
                pool.set_owner(pfn, Some(AppId(1)));
                model.insert(pfn, AppId(1));
            } else {
                pool.set_owner(pfn, None);
                model.remove(&pfn);
            }
        }
        assert_eq!(pool.tracked().map(|(_, s)| s.used()).sum::<u64>(), model.len() as u64);
        for (&pfn, &owner) in &model {
            assert_eq!(pool.owner(pfn), Some(owner));
        }
    });
}

/// Mosaic invariant under arbitrary touch sequences: every coalesced
/// region is fully mapped, contiguous, and aligned (the In-Place
/// Coalescer's precondition is also its postcondition).
#[test]
fn mosaic_coalesced_regions_are_contiguous() {
    for_each_case("mosaic-contiguous", |rng| {
        let mut m = MosaicManager::new(MosaicConfig::with_memory(64 * LARGE_PAGE_SIZE));
        for a in 0..2u16 {
            m.register_app(AppId(a));
            m.reserve(AppId(a), VirtPageNum(0), 1024);
        }
        for _ in 0..1 + rng.below(599) {
            let a = rng.below(2) as u16;
            let p = rng.below(1024);
            m.touch(AppId(a), VirtPageNum(p)).unwrap();
        }
        for a in 0..2u16 {
            let table = m.tables().table(AppId(a)).unwrap();
            for lpn in table.mapped_regions() {
                if !table.is_coalesced(lpn) {
                    continue;
                }
                assert_eq!(table.mapped_in_large(lpn), BASE_PAGES_PER_LARGE_PAGE);
                let mappings: Vec<_> = table.region_mappings(lpn).collect();
                let first = mappings[0].1;
                assert_eq!(first.index_in_large(), 0, "aligned");
                for (k, &(_, frame, _)) in mappings.iter().enumerate() {
                    assert_eq!(frame.raw(), first.raw() + k as u64, "contiguous");
                }
            }
        }
    });
}

/// Demand paging transfers each page exactly once regardless of the
/// touch order or repetition.
#[test]
fn far_faults_are_once_per_page() {
    for_each_case("faults-once-per-page", |rng| {
        let mut m = MosaicManager::new(MosaicConfig::with_memory(16 * LARGE_PAGE_SIZE));
        m.register_app(AppId(0));
        m.reserve(AppId(0), VirtPageNum(0), 256);
        let mut unique = BTreeSet::new();
        for _ in 0..1 + rng.below(799) {
            let p = rng.below(256);
            m.touch(AppId(0), VirtPageNum(p)).unwrap();
            unique.insert(p);
        }
        assert_eq!(m.stats().far_faults, unique.len() as u64);
        assert_eq!(m.stats().transferred_bytes, unique.len() as u64 * 4096);
    });
}

/// The deterministic RNG's fork streams never depend on drawing order.
#[test]
fn rng_forks_are_order_independent() {
    for_each_case("rng-fork-order", |rng| {
        let seed = rng.next_u64();
        let a = rng.below(100);
        let b = rng.below(100);
        let root = SimRng::from_seed(seed);
        let mut fa_first = root.fork("x", a);
        let va1 = fa_first.next_u64();
        let mut fb = root.fork("x", b);
        let _ = fb.next_u64();
        let mut fa_again = root.fork("x", a);
        assert_eq!(va1, fa_again.next_u64());
    });
}

/// Builds one instance of every manager design over `frames` large frames.
fn all_managers(frames: u64) -> Vec<Box<dyn MemoryManager>> {
    let bytes = frames * LARGE_PAGE_SIZE;
    vec![
        Box::new(MosaicManager::new(MosaicConfig::with_memory(bytes))),
        Box::new(GpuMmuManager::new(bytes, 6, PageSize::Base)),
        Box::new(GpuMmuManager::new(bytes, 6, PageSize::Large)),
        Box::new(mosaic::core::MigratingManager::new(
            bytes,
            6,
            mosaic::core::MigratingConfig::default(),
        )),
    ]
}

/// Sweeps `m`'s invariants and panics with the full report on a failure.
fn audit_clean(m: &dyn MemoryManager, when: &str) -> u64 {
    let mut report = mosaic::sim_core::AuditReport::new();
    m.audit(&mut report);
    report.assert_clean(format!("{} {when}", m.name()));
    report.checks()
}

/// `AuditInvariants` holds for every manager at every point of a random
/// alloc/free interleaving across two applications — including after
/// deallocations that drill holes into coalesced regions, and after the
/// apps exhaust physical memory.
#[test]
fn audits_hold_under_random_alloc_free_sequences() {
    for_each_case("audit-alloc-free", |rng| {
        // Small enough that OutOfMemory is actually reachable.
        let frames = 4 + rng.below(13);
        for m in &mut all_managers(frames) {
            let m = m.as_mut();
            for a in 0..2u16 {
                m.register_app(AppId(a));
                m.reserve(AppId(a), VirtPageNum(0), 2048);
            }
            assert!(audit_clean(m, "after reserve") > 0, "audit must check something");
            for step in 0..200u64 {
                let a = AppId(rng.below(2) as u16);
                match rng.below(10) {
                    // Mostly touches: grow the footprint, tolerate OOM.
                    0..=7 => match m.touch(a, VirtPageNum(rng.below(2048))) {
                        Ok(_) | Err(MemError::OutOfMemory) => {}
                        Err(e) => panic!("unexpected touch error: {e}"),
                    },
                    // Occasionally free a random subrange (may be unmapped).
                    _ => {
                        let start = rng.below(2048);
                        let pages = 1 + rng.below(512.min(2048 - start));
                        let _ = m.deallocate(a, VirtPageNum(start), pages);
                    }
                }
                if step % 20 == 19 {
                    audit_clean(m, &format!("at step {step}"));
                }
            }
            // Tear one app down completely; the survivor must still verify.
            m.deallocate(AppId(0), VirtPageNum(0), 2048);
            audit_clean(m, "after teardown");
        }
    });
}

/// The audit itself is read-only: sweeping twice yields the identical
/// report, and interleaving sweeps with traffic never changes what the
/// traffic does (footprints and stats match a sweep-free twin run).
#[test]
fn audits_are_side_effect_free_under_random_traffic() {
    for_each_case("audit-side-effect-free", |rng| {
        let seed = rng.next_u64();
        let run = |audited: bool| {
            let mut m = MosaicManager::new(MosaicConfig::with_memory(24 * LARGE_PAGE_SIZE));
            m.register_app(AppId(0));
            m.reserve(AppId(0), VirtPageNum(0), 1024);
            let mut rng = SimRng::from_seed(seed);
            for step in 0..300u64 {
                if rng.below(8) < 7 {
                    let _ = m.touch(AppId(0), VirtPageNum(rng.below(1024)));
                } else {
                    let start = rng.below(1024);
                    m.deallocate(
                        AppId(0),
                        VirtPageNum(start),
                        1 + rng.below(128.min(1024 - start)),
                    );
                }
                if audited && step % 10 == 0 {
                    audit_clean(&m, "interleaved");
                }
            }
            (m.footprint_bytes(), m.touched_bytes(), m.stats())
        };
        assert_eq!(run(true), run(false));
    });
}
