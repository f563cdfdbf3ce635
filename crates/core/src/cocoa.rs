//! Contiguity-Conserving Allocation (CoCoA), Section 4.2.
//!
//! GPGPU applications allocate memory *en masse*: a kernel launch reserves
//! large contiguous stretches of virtual memory at once. CoCoA exploits
//! this to allocate physical memory so that
//!
//! 1. base pages that are contiguous in virtual memory land contiguous
//!    and aligned inside one large page frame, making them coalescible
//!    with zero data movement, and
//! 2. a large page frame only ever holds base pages of a single address
//!    space — the **soft guarantee** that keeps coalescing from violating
//!    memory protection.
//!
//! CoCoA maintains (a) the *free frame list* of wholly-unallocated large
//! frames and (b) per-application *free base page lists* of spare base
//! frames inside partially-used large frames. Aligned 2 MB chunks of a
//! reservation get a dedicated large frame; stragglers (unaligned edges,
//! sub-2 MB allocations) draw from the app's free base page list, which is
//! refilled one large frame at a time to preserve the soft guarantee.

use crate::frames::FramePool;
use crate::MemError;
use mosaic_sim_core::{AuditInvariants, AuditReport};
use mosaic_vm::{AppId, LargeFrameNum, LargePageNum, PhysFrameNum, VirtPageNum};
use std::collections::{BTreeMap, BTreeSet};

/// The CoCoA allocator state.
///
/// # Examples
///
/// ```
/// use mosaic_core::{CoCoA, FramePool};
/// use mosaic_vm::{AppId, LargePageNum};
///
/// let mut pool = FramePool::new(16 * 2 * 1024 * 1024, 6);
/// let mut cocoa = CoCoA::new();
/// // An aligned 2 MB chunk of app 1's reservation gets its own frame...
/// let lf = cocoa.frame_for_chunk(&mut pool, AppId(1), LargePageNum(10)).unwrap();
/// // ...and asking again returns the same frame.
/// assert_eq!(cocoa.frame_for_chunk(&mut pool, AppId(1), LargePageNum(10)), Ok(lf));
/// ```
#[derive(Debug, Default)]
pub struct CoCoA {
    /// Large frame assigned to each (app, virtual large page) chunk,
    /// sorted by key. A sorted vector rather than a map: chunk lookups
    /// run on every aligned-chunk page fault, and the access pattern is
    /// strongly repetitive, so `chunk_hint` usually skips the search.
    chunk_frames: Vec<((AppId, LargePageNum), LargeFrameNum)>,
    /// Index into `chunk_frames` of the entry `frame_for_chunk` last found
    /// or inserted. Purely an accelerator: always re-validated against the
    /// key before use, so stale hints (after inserts/removals) are harmless.
    chunk_hint: usize,
    /// Per-application free base page lists (Section 4.2), sorted by
    /// application so iteration order matches the old map layout.
    free_base: Vec<(AppId, Vec<PhysFrameNum>)>,
    /// Coalesced-but-fragmented frames parked for the failsafe
    /// (Section 4.4's emergency frame list), with their owner.
    emergency: Vec<(AppId, LargePageNum)>,
}

impl CoCoA {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `key` in the sorted `chunk_frames` vector, trying the
    /// hint before falling back to binary search.
    fn chunk_pos(&self, key: (AppId, LargePageNum)) -> Result<usize, usize> {
        match self.chunk_frames.get(self.chunk_hint) {
            Some(&(k, _)) if k == key => Ok(self.chunk_hint),
            _ => self.chunk_frames.binary_search_by_key(&key, |&(k, _)| k),
        }
    }

    /// The free base page list of `asid`, created empty on first touch.
    fn base_list_mut(&mut self, asid: AppId) -> &mut Vec<PhysFrameNum> {
        let i = match self.free_base.binary_search_by_key(&asid, |&(a, _)| a) {
            Ok(i) => i,
            Err(i) => {
                self.free_base.insert(i, (asid, Vec::new()));
                i
            }
        };
        &mut self.free_base[i].1
    }

    /// Returns (assigning on first call) the large frame backing the
    /// aligned 2 MB virtual chunk `lpn` of `asid`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the free frame list is empty; the
    /// caller (the manager) may then run the CAC failsafe and retry.
    pub fn frame_for_chunk(
        &mut self,
        pool: &mut FramePool,
        asid: AppId,
        lpn: LargePageNum,
    ) -> Result<LargeFrameNum, MemError> {
        match self.chunk_pos((asid, lpn)) {
            Ok(i) => {
                self.chunk_hint = i;
                Ok(self.chunk_frames[i].1)
            }
            Err(i) => {
                let lf = pool.take_free_frame().ok_or(MemError::OutOfMemory)?;
                self.chunk_frames.insert(i, ((asid, lpn), lf));
                self.chunk_hint = i;
                Ok(lf)
            }
        }
    }

    /// Whether a chunk already has a frame bound.
    pub fn chunk_frame(&self, asid: AppId, lpn: LargePageNum) -> Option<LargeFrameNum> {
        self.chunk_pos((asid, lpn)).ok().map(|i| self.chunk_frames[i].1)
    }

    /// Releases the chunk binding (on full deallocation of the chunk).
    pub fn unbind_chunk(&mut self, asid: AppId, lpn: LargePageNum) -> Option<LargeFrameNum> {
        let i = self.chunk_pos((asid, lpn)).ok()?;
        Some(self.chunk_frames.remove(i).1)
    }

    /// Allocates one base frame for `asid` outside any aligned chunk,
    /// drawing from the app's free base page list and refilling the list
    /// with a fresh large frame when empty — never sharing a frame between
    /// applications (the soft guarantee).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when both the app's free base list and
    /// the free frame list are empty.
    pub fn alloc_base(
        &mut self,
        pool: &mut FramePool,
        asid: AppId,
    ) -> Result<PhysFrameNum, MemError> {
        let i = match self.free_base.binary_search_by_key(&asid, |&(a, _)| a) {
            Ok(i) => i,
            Err(i) => {
                self.free_base.insert(i, (asid, Vec::new()));
                i
            }
        };
        if self.free_base[i].1.is_empty() {
            let lf = pool.take_free_frame().ok_or(MemError::OutOfMemory)?;
            // Push in reverse so allocation proceeds from index 0 upward.
            self.free_base[i].1.extend(lf.base_frames().rev());
        }
        // The list was refilled above when empty; an empty pop can only
        // mean a frame with zero base pages, which reads as exhaustion.
        self.free_base[i].1.pop().ok_or(MemError::OutOfMemory)
    }

    /// Adds spare base frames (e.g., the holes of a splintered emergency
    /// frame) to `asid`'s free base page list.
    pub fn donate_base(&mut self, asid: AppId, frames: impl IntoIterator<Item = PhysFrameNum>) {
        let mut added: Vec<_> = frames.into_iter().collect();
        added.reverse();
        self.base_list_mut(asid).extend(added);
    }

    /// Number of free base frames currently parked for `asid`.
    pub fn free_base_len(&self, asid: AppId) -> usize {
        self.free_base
            .binary_search_by_key(&asid, |&(a, _)| a)
            .map_or(0, |i| self.free_base[i].1.len())
    }

    /// Pops one spare base frame from `asid`'s free base page list
    /// *without* refilling from the free frame list (unlike
    /// [`CoCoA::alloc_base`]). Used by CAC to find migration destinations
    /// among frames the app already owns.
    pub fn pop_free_base(&mut self, asid: AppId) -> Option<PhysFrameNum> {
        let i = self.free_base.binary_search_by_key(&asid, |&(a, _)| a).ok()?;
        self.free_base[i].1.pop()
    }

    /// Removes every free base frame of `asid` living in large frame `lf`
    /// (used before releasing a drained frame back to the pool). Returns
    /// how many were removed.
    pub fn reclaim_base(&mut self, asid: AppId, lf: LargeFrameNum) -> usize {
        let list = match self.free_base.binary_search_by_key(&asid, |&(a, _)| a) {
            Ok(i) => &mut self.free_base[i].1,
            Err(_) => return 0,
        };
        let before = list.len();
        list.retain(|pfn| pfn.large_frame() != lf);
        before - list.len()
    }

    /// Removes every free base frame living in `lf` from *all* free base
    /// page lists. The eviction path needs this stronger form of
    /// [`CoCoA::reclaim_base`]: the holes of a splintered emergency frame
    /// may have been donated to a different address space than the one
    /// owning the frame's resident pages. Returns how many were removed.
    pub fn reclaim_frame(&mut self, lf: LargeFrameNum) -> usize {
        let mut removed = 0;
        for (_, list) in &mut self.free_base {
            let before = list.len();
            list.retain(|pfn| pfn.large_frame() != lf);
            removed += before - list.len();
        }
        removed
    }

    /// Parks a coalesced-but-fragmented page on the emergency frame list
    /// (Section 4.4): a failsafe source of base pages when memory runs
    /// out.
    pub fn park_emergency(&mut self, asid: AppId, lpn: LargePageNum) {
        if !self.emergency.contains(&(asid, lpn)) {
            self.emergency.push((asid, lpn));
        }
    }

    /// Pops one emergency entry (the failsafe path), if any.
    pub fn pop_emergency(&mut self) -> Option<(AppId, LargePageNum)> {
        self.emergency.pop()
    }

    /// Removes a specific page from the emergency list (it was splintered
    /// or fully deallocated through the normal path).
    pub fn unpark_emergency(&mut self, asid: AppId, lpn: LargePageNum) {
        self.emergency.retain(|&e| e != (asid, lpn));
    }

    /// Number of pages parked on the emergency list.
    pub fn emergency_len(&self) -> usize {
        self.emergency.len()
    }

    /// Iterates the parked emergency entries in park order (oldest first).
    /// Read-only introspection for the conformance harness's frame ledger.
    pub fn emergency_entries(&self) -> impl Iterator<Item = (AppId, LargePageNum)> + '_ {
        self.emergency.iter().copied()
    }

    /// Virtual page → physical frame for a page inside an aligned chunk:
    /// the defining CoCoA property, placing the page at the *same index*
    /// within the large frame as it has within its virtual large page.
    pub fn chunk_slot(lf: LargeFrameNum, vpn: VirtPageNum) -> PhysFrameNum {
        lf.base_frame(vpn.index_in_large())
    }
}

impl AuditInvariants for CoCoA {
    fn audit_component(&self) -> &'static str {
        "cocoa"
    }

    /// Large-frame exclusivity at the allocator level: a large frame
    /// backs at most one chunk, a spare base frame sits on at most one
    /// free base page list, and spare frames never live inside a frame
    /// that is bound to a chunk (that frame's slots are reserved for the
    /// chunk's own pages).
    fn audit(&self, report: &mut AuditReport) {
        let c = self.audit_component();
        report.check(c, self.chunk_frames.windows(2).all(|w| w[0].0 < w[1].0), || {
            "the chunk table is not strictly sorted by (app, large page)".to_string()
        });
        report.check(c, self.free_base.windows(2).all(|w| w[0].0 < w[1].0), || {
            "the free base page lists are not strictly sorted by application".to_string()
        });
        let mut chunk_of: BTreeMap<LargeFrameNum, (AppId, LargePageNum)> = BTreeMap::new();
        for &((asid, lpn), lf) in &self.chunk_frames {
            if let Some(&(other_asid, other_lpn)) = chunk_of.get(&lf) {
                report.check(c, false, || {
                    format!("{lf} backs two chunks: {other_asid}/{other_lpn} and {asid}/{lpn}")
                });
            } else {
                chunk_of.insert(lf, (asid, lpn));
            }
        }
        let mut seen_base: BTreeMap<PhysFrameNum, AppId> = BTreeMap::new();
        for &(asid, ref list) in &self.free_base {
            for &pfn in list {
                if let Some(&other) = seen_base.get(&pfn) {
                    report.check(c, false, || {
                        format!("{pfn} sits on two free base page lists ({other} and {asid})")
                    });
                } else {
                    seen_base.insert(pfn, asid);
                }
                report.check(c, !chunk_of.contains_key(&pfn.large_frame()), || {
                    format!(
                        "{pfn} is on {asid}'s free base page list but its large frame is \
                         bound to chunk {:?}",
                        chunk_of.get(&pfn.large_frame())
                    )
                });
            }
        }
        let distinct: BTreeSet<&(AppId, LargePageNum)> = self.emergency.iter().collect();
        report.check(c, distinct.len() == self.emergency.len(), || {
            "the emergency frame list holds a duplicate entry".to_string()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_vm::{BASE_PAGES_PER_LARGE_PAGE, LARGE_PAGE_SIZE};

    fn pool(frames: u64) -> FramePool {
        FramePool::new(frames * LARGE_PAGE_SIZE, 6)
    }

    #[test]
    fn chunk_frames_are_stable_and_distinct() {
        let mut pool = pool(8);
        let mut c = CoCoA::new();
        let a = c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(1)).unwrap();
        let b = c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(2)).unwrap();
        let a2 = c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(1)).unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.free_frames(), 6);
    }

    #[test]
    fn chunk_slot_preserves_index() {
        let lf = LargeFrameNum(5);
        let vpn = LargePageNum(9).base_page(17);
        let pfn = CoCoA::chunk_slot(lf, vpn);
        assert_eq!(pfn.large_frame(), lf);
        assert_eq!(pfn.index_in_large(), 17);
    }

    #[test]
    fn base_allocation_respects_soft_guarantee() {
        let mut pool = pool(4);
        let mut c = CoCoA::new();
        let a = c.alloc_base(&mut pool, AppId(0)).unwrap();
        let b = c.alloc_base(&mut pool, AppId(1)).unwrap();
        // Different applications draw from different large frames.
        assert_ne!(a.large_frame(), b.large_frame());
        // Same app keeps filling its own frame contiguously.
        let a2 = c.alloc_base(&mut pool, AppId(0)).unwrap();
        assert_eq!(a2.large_frame(), a.large_frame());
        assert_eq!(a2.raw(), a.raw() + 1);
    }

    #[test]
    fn base_list_refills_and_exhausts() {
        let mut pool = pool(1);
        let mut c = CoCoA::new();
        for _ in 0..BASE_PAGES_PER_LARGE_PAGE {
            c.alloc_base(&mut pool, AppId(0)).unwrap();
        }
        assert_eq!(c.free_base_len(AppId(0)), 0);
        assert_eq!(c.alloc_base(&mut pool, AppId(0)), Err(MemError::OutOfMemory));
    }

    #[test]
    fn out_of_frames_for_chunk() {
        let mut pool = pool(1);
        let mut c = CoCoA::new();
        c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(0)).unwrap();
        assert_eq!(
            c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(1)),
            Err(MemError::OutOfMemory)
        );
    }

    #[test]
    fn donate_and_reclaim_base() {
        let mut pool = pool(2);
        let mut c = CoCoA::new();
        let lf = pool.take_free_frame().unwrap();
        c.donate_base(AppId(0), vec![lf.base_frame(1), lf.base_frame(2)]);
        assert_eq!(c.free_base_len(AppId(0)), 2);
        let first = c.alloc_base(&mut pool, AppId(0)).unwrap();
        assert_eq!(first, lf.base_frame(1), "donated frames are used first, in order");
        assert_eq!(c.reclaim_base(AppId(0), lf), 1);
        assert_eq!(c.free_base_len(AppId(0)), 0);
    }

    #[test]
    fn emergency_list_round_trip() {
        let mut c = CoCoA::new();
        c.park_emergency(AppId(0), LargePageNum(3));
        c.park_emergency(AppId(0), LargePageNum(3)); // duplicate ignored
        c.park_emergency(AppId(1), LargePageNum(4));
        assert_eq!(c.emergency_len(), 2);
        c.unpark_emergency(AppId(0), LargePageNum(3));
        assert_eq!(c.pop_emergency(), Some((AppId(1), LargePageNum(4))));
        assert_eq!(c.pop_emergency(), None);
    }

    #[test]
    fn chunk_hint_survives_interleaved_lookups_and_unbinds() {
        let mut pool = pool(16);
        let mut c = CoCoA::new();
        let mut frames = Vec::new();
        for lpn in 0..8 {
            frames.push(
                c.frame_for_chunk(&mut pool, AppId(lpn as u16 % 2), LargePageNum(lpn)).unwrap(),
            );
        }
        // The last insert left the hint on chunk 7: a repeat hits it, while
        // lookups of other keys and removals (hint goes stale) search.
        assert_eq!(c.frame_for_chunk(&mut pool, AppId(1), LargePageNum(7)), Ok(frames[7]));
        for _ in 0..3 {
            assert_eq!(c.chunk_frame(AppId(1), LargePageNum(5)), Some(frames[5]));
            assert_eq!(c.chunk_frame(AppId(0), LargePageNum(2)), Some(frames[2]));
        }
        assert_eq!(c.unbind_chunk(AppId(0), LargePageNum(2)), Some(frames[2]));
        assert_eq!(c.chunk_frame(AppId(0), LargePageNum(2)), None);
        assert_eq!(c.chunk_frame(AppId(1), LargePageNum(5)), Some(frames[5]));
        let again = c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(2)).unwrap();
        assert_eq!(c.chunk_frame(AppId(0), LargePageNum(2)), Some(again));
    }

    #[test]
    fn unbind_chunk_forgets_mapping() {
        let mut pool = pool(2);
        let mut c = CoCoA::new();
        let lf = c.frame_for_chunk(&mut pool, AppId(0), LargePageNum(7)).unwrap();
        assert_eq!(c.unbind_chunk(AppId(0), LargePageNum(7)), Some(lf));
        assert_eq!(c.chunk_frame(AppId(0), LargePageNum(7)), None);
    }
}
