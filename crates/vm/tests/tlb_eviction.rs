//! Eviction-notification round-trips for the two paper TLB geometries.
//!
//! `fill` returns the `(asid, page)` pair it displaced so the MMU can keep
//! shadow state coherent; `flush_large` is the invalidation a splinter
//! must issue (Section 4.4). These tests pin both round-trips, LRU
//! recency, and multi-ASID conflict behavior for `paper_l1` (128-entry
//! fully-associative base / 16-entry fully-associative large) and
//! `paper_l2` (512-entry 16-way base / 256-entry fully-associative
//! large).

use mosaic_vm::{AppId, LargePageNum, PageSize, Tlb, TlbConfig, TlbLookup, VirtPageNum};

const A0: AppId = AppId(0);
const A1: AppId = AppId(1);
const A2: AppId = AppId(2);

/// Address of large page `lpn` (its first base page).
fn laddr(lpn: u64) -> mosaic_vm::VirtAddr {
    LargePageNum(lpn).base_page(0).addr()
}

/// Address of base page `vpn`.
fn baddr(vpn: u64) -> mosaic_vm::VirtAddr {
    VirtPageNum(vpn).addr()
}

/// Filling the large array to capacity evicts nothing; the next fill
/// reports exactly the LRU victim, which then misses while the newcomer
/// hits.
fn large_fill_evicts_lru(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        assert_eq!(tlb.fill(A0, laddr(lpn), PageSize::Large), None, "no eviction while filling");
    }
    let evicted = tlb.fill(A0, laddr(capacity), PageSize::Large);
    assert_eq!(evicted, Some((A0, 0)), "LRU entry (first filled) is the victim");
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::Miss);
    assert_eq!(tlb.peek(A0, laddr(capacity)), TlbLookup::HitLarge);
}

#[test]
fn paper_l1_large_fill_evicts_lru() {
    large_fill_evicts_lru(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_large_fill_evicts_lru() {
    large_fill_evicts_lru(TlbConfig::paper_l2());
}

/// A lookup refreshes recency: after touching the oldest entry, the next
/// fill evicts the second-oldest instead.
fn lookup_refreshes_recency(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    assert_eq!(tlb.lookup(A0, laddr(0)), TlbLookup::HitLarge);
    let evicted = tlb.fill(A0, laddr(capacity), PageSize::Large);
    assert_eq!(evicted, Some((A0, 1)), "entry 0 was refreshed, entry 1 is now LRU");
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::HitLarge);
}

#[test]
fn paper_l1_lookup_refreshes_recency() {
    lookup_refreshes_recency(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_lookup_refreshes_recency() {
    lookup_refreshes_recency(TlbConfig::paper_l2());
}

/// `flush_large` round-trip: present → flushed (true), absent → false;
/// the slot freed by the flush absorbs the next fill without an eviction.
fn flush_large_round_trip(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    assert!(tlb.flush_large(A0, laddr(3)), "entry was present");
    assert!(!tlb.flush_large(A0, laddr(3)), "second flush finds nothing");
    assert_eq!(tlb.peek(A0, laddr(3)), TlbLookup::Miss);
    assert_eq!(tlb.occupancy(), capacity as usize - 1);
    // The freed slot absorbs a new fill with no victim.
    assert_eq!(tlb.fill(A0, laddr(capacity), PageSize::Large), None);
    assert_eq!(tlb.occupancy(), capacity as usize);
}

#[test]
fn paper_l1_flush_large_round_trip() {
    flush_large_round_trip(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_flush_large_round_trip() {
    flush_large_round_trip(TlbConfig::paper_l2());
}

/// The base and large arrays are independent: flushing the large entry
/// covering an address leaves its base entry intact, and vice versa.
fn arrays_are_independent(config: TlbConfig) {
    let mut tlb = Tlb::new(config);
    let addr = laddr(7);
    tlb.fill(A0, addr, PageSize::Base);
    tlb.fill(A0, addr, PageSize::Large);
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitLarge, "large entries probe first");

    assert!(tlb.flush_large(A0, addr));
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitBase, "base entry survives");

    tlb.fill(A0, addr, PageSize::Large);
    assert!(tlb.flush_base(A0, addr));
    assert_eq!(tlb.peek(A0, addr), TlbLookup::HitLarge, "large entry survives");
}

#[test]
fn paper_l1_arrays_are_independent() {
    arrays_are_independent(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_arrays_are_independent() {
    arrays_are_independent(TlbConfig::paper_l2());
}

/// Entries are tagged by ASID: the same page number held by two address
/// spaces occupies two slots, conflicts evict across ASIDs with the
/// correct tag in the notification, and a flush only hits its own ASID.
fn multi_asid_conflicts(config: TlbConfig) {
    let capacity = config.large_entries as u64;
    let mut tlb = Tlb::new(config);
    // Fill to capacity from ASID 0.
    for lpn in 0..capacity {
        tlb.fill(A0, laddr(lpn), PageSize::Large);
    }
    // Same page number, different ASID: a distinct entry, so the fill
    // conflicts and the notification names the *other* address space.
    let evicted = tlb.fill(A1, laddr(0), PageSize::Large);
    assert_eq!(evicted, Some((A0, 0)), "victim tag carries the evicted ASID");
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::HitLarge);
    assert_eq!(tlb.peek(A0, laddr(0)), TlbLookup::Miss);

    // flush_large is ASID-selective: flushing ASID 2 (absent) and ASID 0
    // (absent at page 0 now) must not disturb ASID 1's entry.
    assert!(!tlb.flush_large(A2, laddr(0)));
    assert!(!tlb.flush_large(A0, laddr(0)));
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::HitLarge);
    assert!(tlb.flush_large(A1, laddr(0)));
    assert_eq!(tlb.peek(A1, laddr(0)), TlbLookup::Miss);
}

#[test]
fn paper_l1_multi_asid_conflicts() {
    multi_asid_conflicts(TlbConfig::paper_l1());
}

#[test]
fn paper_l2_multi_asid_conflicts() {
    multi_asid_conflicts(TlbConfig::paper_l2());
}

/// paper_l2's base array is 16-way set-associative (32 sets): pages that
/// share a set conflict after 16 fills while other sets are unaffected,
/// and the victim is the set's LRU entry.
#[test]
fn paper_l2_base_set_conflicts() {
    let config = TlbConfig::paper_l2();
    let sets = (config.base_entries / config.base_assoc) as u64; // 32
    let mut tlb = Tlb::new(config);
    // 16 pages, all hashing to set 0, plus one in another set.
    for i in 0..16 {
        assert_eq!(tlb.fill(A0, baddr(i * sets), PageSize::Base), None);
    }
    tlb.fill(A0, baddr(1), PageSize::Base); // set 1, unaffected below
                                            // The 17th same-set fill evicts that set's LRU (the first fill).
    let evicted = tlb.fill(A0, baddr(16 * sets), PageSize::Base);
    assert_eq!(evicted, Some((A0, 0)));
    assert_eq!(tlb.peek(A0, baddr(0)), TlbLookup::Miss);
    assert_eq!(tlb.peek(A0, baddr(1)), TlbLookup::HitBase, "other sets untouched");
    assert_eq!(tlb.peek(A0, baddr(16 * sets)), TlbLookup::HitBase);
}
