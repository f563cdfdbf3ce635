//! Per-warp instruction-stream generation from application profiles.

use crate::layout::AppLayout;
use crate::profile::{AccessPattern, AppProfile};
use mosaic_gpu::{AddrList, WarpOp, WarpStream};
use mosaic_sim_core::SimRng;
use mosaic_vm::{VirtAddr, BASE_PAGE_SIZE};

const LINE: u64 = 128;

/// Sweep step for streaming/strided/stencil patterns. Coarser than one
/// cache line: working sets are scaled down ~8x, so per-page work is
/// scaled down too — a warp touches a page a few times and moves on,
/// keeping the pages-touched-per-instruction ratio (which is what
/// pressures TLB reach) representative of the full-scale applications.
const SWEEP_STEP: u64 = 512;

/// The address-stream generator behind one warp.
///
/// Warps partition the application's working set: streaming/strided/
/// stencil warps sweep their own contiguous slice (as GPU kernels assign
/// consecutive data to consecutive thread blocks), while gather/chase
/// warps sample the whole working set. A `reuse` fraction of accesses is
/// redirected to a small application-global hot region, which the caches
/// and TLBs absorb.
///
/// Streams are deterministic: the same construction parameters produce
/// the same instruction sequence.
///
/// # Examples
///
/// ```
/// use mosaic_workloads::{AppLayout, AppProfile, AppWarpStream, ScaleConfig};
/// use mosaic_gpu::{WarpOp, WarpStream};
/// use mosaic_sim_core::SimRng;
///
/// let profile = AppProfile::by_name("MM").unwrap();
/// let layout = AppLayout::build(profile, &ScaleConfig::smoke());
/// let rng = SimRng::from_seed(1);
/// let mut warp = AppWarpStream::new(profile, &layout, 0, 64, 10, &rng);
/// // First op is memory (kernels load before they compute).
/// assert!(matches!(warp.next_op(), WarpOp::Memory { .. }));
/// ```
#[derive(Debug)]
pub struct AppWarpStream {
    profile: &'static AppProfile,
    layout: AppLayout,
    base: VirtAddr,
    ws_bytes: u64,
    /// Start and length of this warp's slice for sweeping patterns.
    slice_start: u64,
    slice_len: u64,
    cursor: u64,
    /// Position in the tour over the small allocations' pages.
    cold_cursor: u64,
    remaining_mem_ops: u64,
    /// `true` when the next op should be the compute gap.
    pending_compute: bool,
    rng: SimRng,
}

/// Fraction of memory instructions that touch one of the application's
/// small allocations in sequence (initialization reads, parameter
/// refreshes) — enough to page all of them in over a run.
const COLD_TOUR_PROB: f64 = 0.01;

impl AppWarpStream {
    /// Creates the stream for warp `warp_idx` of `total_warps`, over a
    /// working set of `ws_bytes` starting at `base`, issuing
    /// `mem_ops` memory instructions before exiting.
    ///
    /// # Panics
    ///
    /// Panics if `total_warps` is zero or `ws_bytes < 4096`.
    pub fn new(
        profile: &'static AppProfile,
        layout: &AppLayout,
        warp_idx: u64,
        total_warps: u64,
        mem_ops: u64,
        rng: &SimRng,
    ) -> Self {
        assert!(total_warps > 0, "need at least one warp");
        let base = layout.main_base;
        let ws_bytes = layout.main_bytes;
        assert!(ws_bytes >= BASE_PAGE_SIZE, "working set smaller than one page");
        let slice_len = (ws_bytes / total_warps).max(LINE);
        let slice_start = (warp_idx * slice_len) % ws_bytes;
        AppWarpStream {
            profile,
            layout: layout.clone(),
            base,
            ws_bytes,
            slice_start,
            slice_len,
            cursor: 0,
            // Stagger the tours so warps collectively cover the small
            // allocations quickly.
            cold_cursor: warp_idx * 7,
            remaining_mem_ops: mem_ops,
            pending_compute: false,
            rng: rng.fork(profile.name, warp_idx),
        }
    }

    fn addr(&self, offset: u64) -> VirtAddr {
        VirtAddr(self.base.raw() + (offset % self.ws_bytes))
    }

    /// The hot region: the application's first small allocation (lookup
    /// tables, constants — shared by all warps, so it stays cache- and
    /// TLB-resident), or the first 32 pages of the main buffer for the
    /// rare application without small allocations.
    fn hot_addr(&mut self) -> VirtAddr {
        if self.layout.small_count > 0 {
            // Only the head of the buffer is hot (the actively-read
            // constants); the rest is paged in by the cold tour.
            let hot_span = self.layout.small_bytes.min(16 * BASE_PAGE_SIZE);
            let base = self.layout.small_base(0);
            let off = self.rng.below(hot_span / LINE) * LINE;
            VirtAddr(base.raw() + off)
        } else {
            let hot_bytes = (32 * BASE_PAGE_SIZE).min(self.ws_bytes);
            let off = self.rng.below(hot_bytes / LINE) * LINE;
            self.addr(off)
        }
    }

    /// The next stop of the cold tour over all small allocations.
    fn cold_addr(&mut self) -> VirtAddr {
        let page = self.layout.small_page(self.cold_cursor);
        self.cold_cursor += 1;
        VirtAddr(page.raw() + self.rng.below(BASE_PAGE_SIZE / LINE) * LINE)
    }

    /// Advances the sweep cursor; when a slice has been fully swept the
    /// warp moves on to a fresh slice elsewhere in the working set — the
    /// way successive thread blocks process successive data tiles. This
    /// keeps the per-SM page footprint *growing* over the run, which is
    /// what pressures TLB reach in real GPGPU kernels (a static per-warp
    /// slice would wrongly stay TLB-resident forever).
    fn advance(&mut self, step: u64) -> u64 {
        let pos = self.slice_start + self.cursor % self.slice_len;
        self.cursor += step;
        if self.cursor >= self.slice_len {
            self.cursor %= self.slice_len;
            // Jump far enough that consecutive slices of one warp do not
            // overlap slices of its neighbours for a long time.
            self.slice_start =
                (self.slice_start + self.slice_len * 61 + BASE_PAGE_SIZE) % self.ws_bytes;
        }
        pos
    }

    fn gen_addresses(&mut self) -> AddrList {
        if self.layout.small_count > 0 && self.rng.chance(COLD_TOUR_PROB) {
            return AddrList::one(self.cold_addr());
        }
        if self.rng.chance(self.profile.reuse) {
            return AddrList::one(self.hot_addr());
        }
        match self.profile.pattern {
            AccessPattern::Streaming => {
                let pos = self.advance(SWEEP_STEP);
                AddrList::one(self.addr(pos))
            }
            AccessPattern::Strided { stride_pages } => {
                let pos = self.advance(u64::from(stride_pages) * BASE_PAGE_SIZE + SWEEP_STEP);
                AddrList::one(self.addr(pos))
            }
            AccessPattern::Stencil { touches, row_pages } => {
                let center = self.advance(SWEEP_STEP);
                let pitch = u64::from(row_pages) * BASE_PAGE_SIZE;
                (0..u64::from(touches))
                    .map(|t| {
                        // Rows ..., -1, 0, +1, ... around the centre.
                        let signed = t as i64 - i64::from(touches) / 2;
                        let off = center as i64 + signed * pitch as i64;
                        self.addr(off.rem_euclid(self.ws_bytes as i64) as u64)
                    })
                    .collect()
            }
            AccessPattern::RandomGather { fanout } => (0..fanout)
                .map(|_| {
                    let off = self.rng.below(self.ws_bytes / LINE) * LINE;
                    self.addr(off)
                })
                .collect(),
            AccessPattern::Chase => {
                let off = self.rng.below(self.ws_bytes / LINE) * LINE;
                AddrList::one(self.addr(off))
            }
        }
    }
}

impl WarpStream for AppWarpStream {
    fn next_op(&mut self) -> WarpOp {
        // The compute that trails the final memory op still issues before
        // the warp exits.
        if self.pending_compute {
            self.pending_compute = false;
            // Sweeping patterns consume SWEEP_STEP bytes per memory
            // instruction, so the profile's per-128B compute intensity is
            // charged for the whole step; sampling patterns touch one
            // line per transaction.
            let lines = match self.profile.pattern {
                AccessPattern::Streaming
                | AccessPattern::Strided { .. }
                | AccessPattern::Stencil { .. } => (SWEEP_STEP / LINE) as u32,
                AccessPattern::RandomGather { .. } | AccessPattern::Chase => 1,
            };
            return WarpOp::Compute { cycles: (self.profile.compute_per_mem * lines).max(1) };
        }
        if self.remaining_mem_ops == 0 {
            return WarpOp::Exit;
        }
        self.remaining_mem_ops -= 1;
        self.pending_compute = self.profile.compute_per_mem > 0;
        WarpOp::Memory { addresses: self.gen_addresses() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn stream(name: &str, ws: u64, warp: u64, ops: u64) -> AppWarpStream {
        let profile = AppProfile::by_name(name).unwrap();
        let layout = AppLayout {
            main_base: VirtAddr(0x1000_0000),
            main_bytes: ws,
            small_count: u64::from(profile.small_allocs),
            small_bytes: u64::from(profile.small_alloc_kb) * 1024,
        };
        AppWarpStream::new(profile, &layout, warp, 64, ops, &SimRng::from_seed(42))
    }

    fn collect_pages(s: &mut AppWarpStream, max_ops: usize) -> HashSet<u64> {
        let mut pages = HashSet::new();
        for _ in 0..max_ops {
            match s.next_op() {
                WarpOp::Memory { addresses } => {
                    pages.extend(addresses.iter().map(|a| a.base_page().raw()));
                }
                WarpOp::Compute { .. } => {}
                WarpOp::Exit => break,
            }
        }
        pages
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = stream("GUPS", 8 << 20, 3, 50);
        let mut b = stream("GUPS", 8 << 20, 3, 50);
        for _ in 0..150 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_warps_differ() {
        let mut a = stream("GUPS", 8 << 20, 0, 50);
        let mut b = stream("GUPS", 8 << 20, 1, 50);
        let pa = collect_pages(&mut a, 200);
        let pb = collect_pages(&mut b, 200);
        assert_ne!(pa, pb);
    }

    #[test]
    fn exits_after_budget() {
        let mut s = stream("MM", 4 << 20, 0, 5);
        let mut mem_ops = 0;
        for _ in 0..100 {
            match s.next_op() {
                WarpOp::Memory { .. } => mem_ops += 1,
                WarpOp::Exit => break,
                _ => {}
            }
        }
        assert_eq!(mem_ops, 5);
        assert_eq!(s.next_op(), WarpOp::Exit);
    }

    #[test]
    fn streaming_touches_few_pages_gather_touches_many() {
        let ws = 16 << 20;
        let mut streaming = stream("MM", ws, 0, 300);
        let mut gather = stream("GUPS", ws, 0, 300);
        let sp = collect_pages(&mut streaming, 1000).len();
        let gp = collect_pages(&mut gather, 1000).len();
        assert!(
            gp > sp * 4,
            "gather should spread over far more pages: streaming={sp}, gather={gp}"
        );
    }

    #[test]
    fn addresses_stay_inside_the_layout() {
        let ws = 4 << 20;
        for name in ["MM", "GUPS", "HS", "FFT", "MUM"] {
            let mut s = stream(name, ws, 7, 100);
            let layout = s.layout.clone();
            for _ in 0..300 {
                if let WarpOp::Memory { addresses } = s.next_op() {
                    for a in addresses.iter() {
                        let in_main = a.raw() >= 0x1000_0000 && a.raw() < 0x1000_0000 + ws;
                        let in_small = (0..layout.small_count).any(|i| {
                            let b = layout.small_base(i).raw();
                            a.raw() >= b && a.raw() < b + layout.small_bytes
                        });
                        assert!(in_main || in_small, "{name}: {a} outside the layout");
                    }
                }
            }
        }
    }

    #[test]
    fn cold_tour_pages_in_all_small_allocations() {
        // Plenty of ops: a single warp's 1% tour must still cover every
        // small page (in real runs hundreds of warps share the tour).
        let mut s = stream("HS", 4 << 20, 0, 20_000);
        let layout = s.layout.clone();
        let pages = collect_pages(&mut s, 60_000);
        for k in 0..layout.small_count * layout.small_bytes / BASE_PAGE_SIZE {
            let p = layout.small_page(k).base_page().raw();
            assert!(pages.contains(&p), "small page {k} never touched");
        }
    }

    #[test]
    fn compute_gaps_follow_memory_ops() {
        let mut s = stream("MM", 4 << 20, 0, 3);
        assert!(matches!(s.next_op(), WarpOp::Memory { .. }));
        assert!(matches!(s.next_op(), WarpOp::Compute { .. }));
        assert!(matches!(s.next_op(), WarpOp::Memory { .. }));
    }

    #[test]
    fn stencil_produces_multiple_transactions() {
        let mut s = stream("HS", 8 << 20, 0, 50);
        let mut found = false;
        for _ in 0..200 {
            if let WarpOp::Memory { addresses } = s.next_op() {
                if addresses.len() == 3 {
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "HS (3-point stencil) should emit 3-transaction instructions");
    }
}
