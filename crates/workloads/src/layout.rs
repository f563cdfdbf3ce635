//! Per-application virtual-memory layout.
//!
//! Real GPGPU applications make one (or a few) huge en-masse allocations
//! — the behaviour CoCoA exploits — plus a number of *small* allocations:
//! lookup tables, filter constants, parameter blocks. The small ones are
//! what makes 2 MB-only management bloat memory (each costs a whole large
//! frame, Section 3.2) while Mosaic serves them from its per-application
//! free base page lists without waste.
//!
//! [`AppLayout`] places the main buffer at a 2 MB-aligned base and each
//! small allocation in its own 2 MB-aligned virtual region (so a 2 MB-only
//! manager demonstrably burns one frame per allocation).

use crate::profile::AppProfile;
use crate::suite::ScaleConfig;
use mosaic_vm::{VirtAddr, VirtPageNum, BASE_PAGE_SIZE, LARGE_PAGE_SIZE};

/// Virtual base of the main en-masse buffer.
pub const MAIN_BASE: VirtAddr = VirtAddr(0x1000_0000);
/// Virtual base of the small-allocation area; allocation `i` starts at
/// `SMALL_BASE + i * 2 MB`.
pub const SMALL_BASE: VirtAddr = VirtAddr(0x8000_0000);

/// One application's virtual allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppLayout {
    /// Base of the main buffer.
    pub main_base: VirtAddr,
    /// Size of the main buffer (a multiple of 2 MB).
    pub main_bytes: u64,
    /// Number of small allocations.
    pub small_count: u64,
    /// Size of each small allocation (a multiple of 4 KB, below 2 MB).
    pub small_bytes: u64,
}

impl AppLayout {
    /// Builds the layout for `profile` at `scale`.
    pub fn build(profile: &AppProfile, scale: &ScaleConfig) -> Self {
        let small_bytes = (u64::from(profile.small_alloc_kb) * 1024)
            .clamp(BASE_PAGE_SIZE, LARGE_PAGE_SIZE - BASE_PAGE_SIZE)
            / BASE_PAGE_SIZE
            * BASE_PAGE_SIZE;
        AppLayout {
            main_base: MAIN_BASE,
            main_bytes: scale.ws_bytes(profile),
            small_count: u64::from(profile.small_allocs),
            small_bytes,
        }
    }

    /// Base address of small allocation `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= small_count`.
    pub fn small_base(&self, i: u64) -> VirtAddr {
        debug_assert!(i < self.small_count);
        VirtAddr(SMALL_BASE.raw() + i * LARGE_PAGE_SIZE)
    }

    /// All reservations the application makes at launch, as
    /// `(first page, page count)` pairs — the main buffer first.
    pub fn reservations(&self) -> Vec<(VirtPageNum, u64)> {
        let mut r = vec![(self.main_base.base_page(), self.main_bytes / BASE_PAGE_SIZE)];
        for i in 0..self.small_count {
            r.push((self.small_base(i).base_page(), self.small_bytes / BASE_PAGE_SIZE));
        }
        r
    }

    /// The `k`-th small page (in allocation-major order), for coverage
    /// tours.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no small allocations.
    pub fn small_page(&self, k: u64) -> VirtAddr {
        assert!(self.small_count > 0, "layout has no small allocations");
        let per = self.small_bytes / BASE_PAGE_SIZE;
        let k = k % (self.small_count * per);
        let (alloc, page) = (k / per, k % per);
        VirtAddr(self.small_base(alloc).raw() + page * BASE_PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(name: &str) -> AppLayout {
        AppLayout::build(AppProfile::by_name(name).unwrap(), &ScaleConfig::default())
    }

    #[test]
    fn main_buffer_is_2mb_aligned_and_sized() {
        let l = layout("HS");
        assert_eq!(l.main_base.raw() % LARGE_PAGE_SIZE, 0);
        assert_eq!(l.main_bytes % LARGE_PAGE_SIZE, 0);
    }

    #[test]
    fn small_allocations_each_get_their_own_2mb_region() {
        let l = layout("NN");
        assert_eq!(l.small_count, 8);
        let mut regions: Vec<u64> =
            (0..l.small_count).map(|i| l.small_base(i).large_page().raw()).collect();
        regions.dedup();
        assert_eq!(regions.len(), 8, "one distinct 2MB region per allocation");
        assert!(l.small_bytes < LARGE_PAGE_SIZE);
        assert_eq!(l.small_bytes % BASE_PAGE_SIZE, 0);
    }

    #[test]
    fn reservations_cover_main_plus_smalls() {
        let l = layout("HS");
        let r = l.reservations();
        assert_eq!(r.len(), 1 + l.small_count as usize);
        assert_eq!(r[0].0, l.main_base.base_page());
        let pages: u64 = r.iter().map(|&(_, n)| n).sum();
        assert_eq!(pages, (l.main_bytes + l.small_count * l.small_bytes) / BASE_PAGE_SIZE);
    }

    #[test]
    fn small_page_tour_walks_every_page() {
        let l = layout("HS"); // 2 allocations x 128KB = 64 pages
        let total = l.small_count * l.small_bytes / BASE_PAGE_SIZE;
        let mut seen = std::collections::HashSet::new();
        for k in 0..total {
            seen.insert(l.small_page(k));
        }
        assert_eq!(seen.len() as u64, total);
        // The tour wraps.
        assert_eq!(l.small_page(total), l.small_page(0));
    }

    #[test]
    fn small_and_main_spaces_are_disjoint() {
        let l = layout("TRD");
        assert!(l.main_base.raw() + l.main_bytes <= SMALL_BASE.raw());
    }
}
