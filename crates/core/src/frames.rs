//! Physical-memory frame bookkeeping.
//!
//! The [`FramePool`] tracks every large page frame (2 MB, page-aligned) of
//! GPU physical memory and the per-base-frame allocation state inside each:
//! which address space owns each 4 KB base frame, which frames are free,
//! and which frames were *pre-fragmented* by the Section 6.4 stress tests.
//!
//! The pool also assigns each large frame a home DRAM channel, which CAC
//! uses to honor the paper's constraint that compaction migrates base pages
//! only between large page frames in the same memory channel.

use mosaic_sim_core::{AuditInvariants, AuditReport};
use mosaic_vm::{
    AppId, LargeFrameNum, PhysFrameNum, VirtPageNum, BASE_PAGES_PER_LARGE_PAGE, LARGE_PAGE_SIZE,
};
use std::collections::BTreeSet;

/// Words of 64 dirty bits covering the 512 base frames of a large frame.
const DIRTY_WORDS: usize = (BASE_PAGES_PER_LARGE_PAGE as usize).div_ceil(64);

/// The special owner recorded for data injected by fragmentation
/// stress tests (Section 6.4): it belongs to no real address space and
/// never satisfies CoCoA's soft guarantee.
pub const FRAG_OWNER: AppId = AppId(u16::MAX);

/// Allocation state of one large page frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameState {
    /// Owner of each of the 512 base frames (`None` = unallocated).
    owners: Vec<Option<AppId>>,
    /// Virtual page each base frame currently backs (`None` when the slot
    /// is unallocated or holds unmapped data such as injected
    /// fragmentation). The eviction path uses this reverse map to find
    /// the translations it must tear down.
    mapped: Vec<Option<VirtPageNum>>,
    /// Per-base-frame dirty bits: set by stores to resident pages,
    /// cleared on deallocation/eviction. A dirty page must be written
    /// back over the I/O bus before its frame is reused.
    dirty: [u64; DIRTY_WORDS],
    /// Number of allocated base frames (cached).
    used: u16,
    /// Number of allocated base frames owned by real applications
    /// (excluding [`FRAG_OWNER`]).
    app_used: u16,
    /// Number of base frames both allocated and mapped (cached): the
    /// pages an eviction of this frame would tear down.
    resident: u16,
    /// Pool-clock stamp of the most recent access (0 = never accessed).
    /// Drives the LRU eviction order.
    last_use: u64,
}

impl Default for FrameState {
    fn default() -> Self {
        FrameState {
            owners: vec![None; BASE_PAGES_PER_LARGE_PAGE as usize],
            mapped: vec![None; BASE_PAGES_PER_LARGE_PAGE as usize],
            dirty: [0; DIRTY_WORDS],
            used: 0,
            app_used: 0,
            resident: 0,
            last_use: 0,
        }
    }
}

impl FrameState {
    /// Number of allocated base frames in this large frame.
    pub fn used(&self) -> u64 {
        u64::from(self.used)
    }

    /// Whether no base frame is allocated.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Whether every base frame is allocated.
    pub fn is_full(&self) -> bool {
        u64::from(self.used) == BASE_PAGES_PER_LARGE_PAGE
    }

    /// Number of base frames holding injected [`FRAG_OWNER`] data.
    pub(crate) fn frag_used(&self) -> u64 {
        u64::from(self.used - self.app_used)
    }

    /// Owner of base frame `i` within this large frame.
    pub fn owner(&self, i: u64) -> Option<AppId> {
        self.owners[i as usize]
    }

    /// Whether all allocated base frames belong to `asid` (vacuously true
    /// when empty) — the paper's *soft guarantee* predicate.
    pub fn single_owner(&self, asid: AppId) -> bool {
        self.owners.iter().flatten().all(|&o| o == asid)
    }

    /// Iterates allocated `(index, owner)` pairs.
    pub fn allocated(&self) -> impl Iterator<Item = (u64, AppId)> + '_ {
        self.owners.iter().enumerate().filter_map(|(i, o)| o.map(|a| (i as u64, a)))
    }

    /// Indices of unallocated base frames.
    pub fn holes(&self) -> impl Iterator<Item = u64> + '_ {
        self.owners.iter().enumerate().filter(|(_, o)| o.is_none()).map(|(i, _)| i as u64)
    }

    /// Virtual page backed by base frame `i`, if any.
    pub fn mapping(&self, i: u64) -> Option<VirtPageNum> {
        self.mapped[i as usize]
    }

    /// Whether base frame `i` holds unwritten-back store data.
    pub fn is_dirty(&self, i: u64) -> bool {
        (self.dirty[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    fn set_dirty_bit(&mut self, i: u64, v: bool) {
        let mask = 1u64 << (i % 64);
        if v {
            self.dirty[(i / 64) as usize] |= mask;
        } else {
            self.dirty[(i / 64) as usize] &= !mask;
        }
    }

    /// Number of dirty base frames.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Pool-clock stamp of the most recent access (0 = never accessed).
    pub fn last_use(&self) -> u64 {
        self.last_use
    }

    /// Iterates `(index, owner, virtual page)` over base frames that are
    /// both allocated and mapped — the pages eviction must tear down.
    pub fn residents(&self) -> impl Iterator<Item = (u64, AppId, VirtPageNum)> + '_ {
        self.owners
            .iter()
            .zip(&self.mapped)
            .enumerate()
            .filter_map(|(i, (o, m))| o.zip(*m).map(|(a, v)| (i as u64, a, v)))
    }
}

/// Outcome of [`FramePool::pre_fragment`]: how much fragmentation was
/// requested vs. actually injected. The free list can be shorter than
/// the request, so drivers must check [`FragmentReport::shortfall`] and
/// fail loudly rather than run an under-fragmented experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentReport {
    /// Frames the fragmentation index asked for.
    pub requested_frames: u64,
    /// Frames actually taken off the free list and fragmented.
    pub fragmented_frames: u64,
    /// Base pages injected with [`FRAG_OWNER`] data.
    pub injected_pages: u64,
}

impl FragmentReport {
    /// Frames requested but not injected (the free list was too short).
    pub fn shortfall(&self) -> u64 {
        self.requested_frames - self.fragmented_frames
    }
}

/// All of GPU physical memory, at large-frame granularity.
///
/// # Examples
///
/// ```
/// use mosaic_core::frames::FramePool;
/// use mosaic_vm::AppId;
///
/// let mut pool = FramePool::new(64 * 2 * 1024 * 1024, 6); // 64 large frames
/// assert_eq!(pool.total_large_frames(), 64);
/// let lf = pool.take_free_frame().unwrap();
/// let pfn = lf.base_frame(0);
/// pool.set_owner(pfn, Some(AppId(3)));
/// assert_eq!(pool.state(lf).unwrap().used(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FramePool {
    total: u64,
    channels: usize,
    /// Per-large-frame allocation state, indexed by `LargeFrameNum::raw`
    /// (`None` = neither allocated nor reserved). A flat table rather
    /// than a map: the pool size is fixed at construction and frame
    /// lookups sit on the allocation/deallocation hot path.
    states: Vec<Option<FrameState>>,
    /// Number of `Some` entries in `states` (tracked/reserved frames).
    tracked: u64,
    /// States of released frames, empty and ready for the next frame
    /// to be tracked: re-tracking a frame reuses one instead of
    /// allocating and filling fresh 512-slot buffers. An empty state's
    /// buffers are already clear (see [`FramePool::release_frame`]).
    spare: Vec<FrameState>,
    /// Free large frames (no base frame allocated, not reserved), in
    /// ascending order for determinism.
    free: Vec<LargeFrameNum>,
    /// Frames currently holding real application data.
    app_frames: u64,
    /// Frames currently holding injected [`FRAG_OWNER`] data. Zero in
    /// every run without pre-fragmentation, which lets CAC's failsafe
    /// skip its fragmented-frame searches outright.
    frag_frames: u64,
    /// High-water mark of `app_frames`.
    peak_app_frames: u64,
    /// High-water mark of tracked (reserved) frames.
    peak_tracked: u64,
    /// Logical access clock: incremented on every [`FramePool::note_use`]
    /// and stamped into the touched frame's `last_use`. A counter rather
    /// than a cycle so recency ordering is total (no ties within a
    /// simulation step) and independent of timing-model changes.
    use_clock: u64,
}

impl FramePool {
    /// Creates a pool covering `bytes` of physical memory striped over
    /// `channels` DRAM channels.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 2 MB or `channels`
    /// is zero.
    pub fn new(bytes: u64, channels: usize) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(LARGE_PAGE_SIZE),
            "memory must be a multiple of 2MB"
        );
        assert!(channels > 0, "need at least one channel");
        let total = bytes / LARGE_PAGE_SIZE;
        FramePool {
            total,
            channels,
            states: vec![None; total as usize],
            tracked: 0,
            spare: Vec::new(),
            // Keep descending so `pop` hands out ascending frame numbers.
            free: (0..total).rev().map(LargeFrameNum).collect(),
            app_frames: 0,
            frag_frames: 0,
            peak_app_frames: 0,
            peak_tracked: 0,
            use_clock: 0,
        }
    }

    /// Number of large frames in the pool.
    pub fn total_large_frames(&self) -> u64 {
        self.total
    }

    /// Number of frames on the free-frame list.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// The home DRAM channel of a large frame (coarse page-to-channel
    /// assignment used for CAC's same-channel migration constraint).
    pub fn channel_of(&self, lf: LargeFrameNum) -> usize {
        (lf.raw() % self.channels as u64) as usize
    }

    /// Takes a frame off the free-frame list (CoCoA's allocation step).
    pub fn take_free_frame(&mut self) -> Option<LargeFrameNum> {
        let lf = self.free.pop()?;
        let slot = &mut self.states[lf.raw() as usize];
        if slot.is_none() {
            *slot = Some(self.spare.pop().unwrap_or_default());
            self.tracked += 1;
        }
        self.peak_tracked = self.peak_tracked.max(self.tracked);
        Some(lf)
    }

    /// Returns a fully-empty frame to the free list (CAC's step 10 in
    /// Figure 5). Its state becomes a spare: with no base frame
    /// allocated, no owner, mapping or dirty bit is set (only allocated
    /// base frames carry them), so only its recency needs clearing.
    ///
    /// # Panics
    ///
    /// Panics if any base frame in it is still allocated.
    pub fn release_frame(&mut self, lf: LargeFrameNum) {
        if let Some(mut state) = self.states[lf.raw() as usize].take() {
            assert!(state.is_empty(), "cannot release a frame with allocated base pages");
            self.tracked -= 1;
            state.last_use = 0;
            self.spare.push(state);
        }
        self.free.push(lf);
    }

    /// Allocation state of a tracked large frame, borrowed (`None` when
    /// the frame is free).
    pub fn state(&self, lf: LargeFrameNum) -> Option<&FrameState> {
        self.states.get(lf.raw() as usize).and_then(Option::as_ref)
    }

    /// Whether no base frame of `lf` is allocated.
    pub(crate) fn is_empty(&self, lf: LargeFrameNum) -> bool {
        self.state(lf).is_none_or(FrameState::is_empty)
    }

    /// The unallocated base frames of `lf`, ascending (all of them when
    /// the frame is free).
    pub(crate) fn holes(&self, lf: LargeFrameNum) -> Vec<PhysFrameNum> {
        match self.state(lf) {
            Some(state) => state.holes().map(|i| lf.base_frame(i)).collect(),
            None => lf.base_frames().collect(),
        }
    }

    /// Number of large frames holding injected [`FRAG_OWNER`] data.
    pub(crate) fn frag_frames(&self) -> u64 {
        self.frag_frames
    }

    /// Sets (or clears) the owner of one base frame.
    pub fn set_owner(&mut self, pfn: PhysFrameNum, owner: Option<AppId>) {
        let lf = pfn.large_frame();
        let slot = &mut self.states[lf.raw() as usize];
        let state = match slot {
            Some(s) => s,
            None => {
                self.tracked += 1;
                slot.insert(self.spare.pop().unwrap_or_default())
            }
        };
        let idx = pfn.index_in_large() as usize;
        let (app_before, frag_before) = (state.app_used, state.frag_used());
        let was_resident = state.owners[idx].is_some() && state.mapped[idx].is_some();
        match (state.owners[idx], owner) {
            (None, Some(_)) => state.used += 1,
            (Some(_), None) => state.used -= 1,
            _ => {}
        }
        let is_app = |o: Option<AppId>| o.is_some_and(|a| a != FRAG_OWNER);
        match (is_app(state.owners[idx]), is_app(owner)) {
            (false, true) => state.app_used += 1,
            (true, false) => state.app_used -= 1,
            _ => {}
        }
        state.owners[idx] = owner;
        if owner.is_none() {
            // A freed base frame carries no translation and no
            // unwritten-back data.
            state.mapped[idx] = None;
            state.set_dirty_bit(idx as u64, false);
        }
        match (was_resident, owner.is_some() && state.mapped[idx].is_some()) {
            (false, true) => state.resident += 1,
            (true, false) => state.resident -= 1,
            _ => {}
        }
        match (app_before, state.app_used) {
            (0, 1..) => self.app_frames += 1,
            (1.., 0) => self.app_frames -= 1,
            _ => {}
        }
        match (frag_before, state.frag_used()) {
            (0, 1..) => self.frag_frames += 1,
            (1.., 0) => self.frag_frames -= 1,
            _ => {}
        }
        self.peak_app_frames = self.peak_app_frames.max(self.app_frames);
        self.peak_tracked = self.peak_tracked.max(self.tracked);
    }

    /// Owner of one base frame.
    pub fn owner(&self, pfn: PhysFrameNum) -> Option<AppId> {
        self.states
            .get(pfn.large_frame().raw() as usize)
            .and_then(Option::as_ref)
            .and_then(|s| s.owner(pfn.index_in_large()))
    }

    /// Records the virtual page an allocated base frame now backs.
    /// Managers call this at every mapping/remapping site, after
    /// [`FramePool::set_owner`]; `set_owner` with `None` clears it again,
    /// and an unallocated base frame records nothing. The reverse map is
    /// what lets the eviction path find the translations behind a victim
    /// frame.
    pub fn set_mapping(&mut self, pfn: PhysFrameNum, vpn: VirtPageNum) {
        let lf = pfn.large_frame();
        if let Some(state) = self.states.get_mut(lf.raw() as usize).and_then(Option::as_mut) {
            let idx = pfn.index_in_large() as usize;
            if state.owners[idx].is_none() {
                return;
            }
            if state.mapped[idx].is_none() {
                state.resident += 1;
            }
            state.mapped[idx] = Some(vpn);
        }
    }

    /// Virtual page a base frame currently backs, if any.
    pub fn mapping(&self, pfn: PhysFrameNum) -> Option<VirtPageNum> {
        self.states
            .get(pfn.large_frame().raw() as usize)
            .and_then(Option::as_ref)
            .and_then(|s| s.mapping(pfn.index_in_large()))
    }

    /// Marks one base frame as recently used, and dirty when the access
    /// is a store to an allocated slot. O(1); sits on the warp-access
    /// hot path.
    pub fn note_use(&mut self, pfn: PhysFrameNum, store: bool) {
        let lf = pfn.large_frame();
        if let Some(state) = self.states.get_mut(lf.raw() as usize).and_then(Option::as_mut) {
            self.use_clock += 1;
            state.last_use = self.use_clock;
            let idx = pfn.index_in_large();
            if store && state.owners[idx as usize].is_some() {
                state.set_dirty_bit(idx, true);
            }
        }
    }

    /// Whether one base frame holds unwritten-back store data.
    pub fn is_dirty(&self, pfn: PhysFrameNum) -> bool {
        self.states
            .get(pfn.large_frame().raw() as usize)
            .and_then(Option::as_ref)
            .is_some_and(|s| s.is_dirty(pfn.index_in_large()))
    }

    /// Marks one base frame dirty without touching recency — used to
    /// carry the dirty bit across a page migration (the data moved, the
    /// pending write-back obligation moves with it).
    pub fn mark_dirty(&mut self, pfn: PhysFrameNum) {
        let lf = pfn.large_frame();
        if let Some(state) = self.states.get_mut(lf.raw() as usize).and_then(Option::as_mut) {
            if state.owners[pfn.index_in_large() as usize].is_some() {
                state.set_dirty_bit(pfn.index_in_large(), true);
            }
        }
    }

    /// Records a page migration: `vpn`'s data moved from base frame
    /// `from` to `to`, which now belongs to `asid` and backs `vpn`, while
    /// `from` is freed. A pending write-back obligation moves with the
    /// data.
    pub fn migrate(&mut self, from: PhysFrameNum, to: PhysFrameNum, asid: AppId, vpn: VirtPageNum) {
        let dirty = self.is_dirty(from);
        self.set_owner(from, None);
        self.set_owner(to, Some(asid));
        self.set_mapping(to, vpn);
        if dirty {
            self.mark_dirty(to);
        }
    }

    /// Large frames eligible for wholesale eviction, least-recently-used
    /// first (ties broken by frame number, so the order is deterministic):
    /// tracked frames whose every allocated base frame belongs to a real
    /// application and carries a live mapping — evicting one therefore
    /// leaves it empty and releasable. Frames holding injected
    /// fragmentation or owner-stamped-but-unmapped pages are excluded.
    pub fn eviction_candidates(&self) -> Vec<LargeFrameNum> {
        let mut cands: Vec<(u64, LargeFrameNum)> = self
            .tracked()
            .filter(|(_, s)| s.used > 0 && s.used == s.app_used && s.resident == s.used)
            .map(|(lf, s)| (s.last_use, lf))
            .collect();
        cands.sort_unstable();
        cands.into_iter().map(|(_, lf)| lf).collect()
    }

    /// The `(base frame, owner, virtual page)` residents of one large
    /// frame — the pages an eviction of that frame must tear down.
    pub fn residents(&self, lf: LargeFrameNum) -> Vec<(PhysFrameNum, AppId, VirtPageNum)> {
        match self.states.get(lf.raw() as usize).and_then(Option::as_ref) {
            Some(state) => state.residents().map(|(i, a, v)| (lf.base_frame(i), a, v)).collect(),
            None => Vec::new(),
        }
    }

    /// Iterates `(frame, state)` over frames with any allocation or
    /// reservation, in ascending frame-number order.
    pub fn tracked(&self) -> impl Iterator<Item = (LargeFrameNum, &FrameState)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (LargeFrameNum(i as u64), s)))
    }

    /// Total allocated base frames across the pool.
    pub fn allocated_base_frames(&self) -> u64 {
        self.states.iter().flatten().map(FrameState::used).sum()
    }

    /// Bytes of physical memory covered by tracked (reserved or partially
    /// used) large frames — the footprint figure used for memory-bloat
    /// accounting.
    pub fn reserved_bytes(&self) -> u64 {
        self.tracked * LARGE_PAGE_SIZE
    }

    /// Bytes of physical memory covered by large frames holding at least
    /// one base frame of a *real* application (excluding frames used only
    /// by injected pre-fragmentation data). This is the footprint the
    /// Table 2 bloat comparison charges to the applications.
    pub fn app_reserved_bytes(&self) -> u64 {
        self.app_frames * LARGE_PAGE_SIZE
    }

    /// High-water mark of [`FramePool::app_reserved_bytes`] over the
    /// pool's lifetime — kernels deallocate on completion, so end-of-run
    /// footprints say nothing; bloat is measured at the peak.
    pub fn peak_app_reserved_bytes(&self) -> u64 {
        self.peak_app_frames * LARGE_PAGE_SIZE
    }

    /// High-water mark of [`FramePool::reserved_bytes`].
    pub fn peak_reserved_bytes(&self) -> u64 {
        self.peak_tracked * LARGE_PAGE_SIZE
    }

    /// Injects pre-fragmented data for the Section 6.4 stress tests:
    /// a `fragmentation_index` fraction of all large frames each receive
    /// `occupancy` of their base frames, owned by [`FRAG_OWNER`], placed
    /// randomly with `rng`.
    ///
    /// Fragmented frames are removed from the free-frame list.
    ///
    /// The free list can hold fewer frames than the index asks for (other
    /// allocations got there first); the returned [`FragmentReport`] says
    /// how many frames were requested vs. injected so callers can fail
    /// loudly instead of running an under-fragmented experiment.
    pub fn pre_fragment(
        &mut self,
        fragmentation_index: f64,
        occupancy: f64,
        rng: &mut mosaic_sim_core::SimRng,
    ) -> FragmentReport {
        let index = fragmentation_index.clamp(0.0, 1.0);
        let occupancy = occupancy.clamp(0.0, 1.0);
        let n_frames = (self.total as f64 * index).round() as u64;
        let per_frame = ((BASE_PAGES_PER_LARGE_PAGE as f64 * occupancy).round() as u64)
            .clamp(if n_frames > 0 && occupancy > 0.0 { 1 } else { 0 }, BASE_PAGES_PER_LARGE_PAGE);
        let mut victims: Vec<LargeFrameNum> = self.free.clone();
        rng.shuffle(&mut victims);
        victims.truncate(n_frames as usize);
        let mut report = FragmentReport {
            requested_frames: n_frames,
            fragmented_frames: victims.len() as u64,
            injected_pages: 0,
        };
        for lf in victims {
            self.free.retain(|&f| f != lf);
            let mut indices: Vec<u64> = (0..BASE_PAGES_PER_LARGE_PAGE).collect();
            rng.shuffle(&mut indices);
            for &i in indices.iter().take(per_frame as usize) {
                self.set_owner(lf.base_frame(i), Some(FRAG_OWNER));
                report.injected_pages += 1;
            }
        }
        report
    }
}

impl AuditInvariants for FramePool {
    fn audit_component(&self) -> &'static str {
        "frame-pool"
    }

    /// Frame-count conservation and per-frame accounting: every large
    /// frame is exactly once either free or tracked, and every cached
    /// counter matches a recount from the ground truth (`owners`).
    fn audit(&self, report: &mut AuditReport) {
        let c = self.audit_component();
        let free: BTreeSet<LargeFrameNum> = self.free.iter().copied().collect();
        report.check(c, free.len() == self.free.len(), || {
            format!(
                "free list holds {} entries but only {} distinct frames",
                self.free.len(),
                free.len()
            )
        });
        report.check(c, self.states.len() as u64 == self.total, || {
            format!(
                "state table covers {} frames but the pool holds {}",
                self.states.len(),
                self.total
            )
        });
        let tracked_recount = self.states.iter().flatten().count() as u64;
        report.check(c, self.tracked == tracked_recount, || {
            format!(
                "pool caches tracked={} but {} state slots are occupied",
                self.tracked, tracked_recount
            )
        });
        report.check(c, free.len() as u64 + tracked_recount == self.total, || {
            format!(
                "frame conservation broken: {} free + {} tracked != {} total",
                free.len(),
                tracked_recount,
                self.total
            )
        });
        report.check(c, !self.tracked().any(|(lf, _)| free.contains(&lf)), || {
            "a large frame is simultaneously free and tracked".to_string()
        });
        report.check(c, free.iter().all(|lf| lf.raw() < self.total), || {
            format!("a frame number exceeds the pool size ({} frames)", self.total)
        });
        let (mut app_frames, mut frag_frames) = (0, 0);
        for (lf, state) in self.tracked() {
            let used = state.owners.iter().filter(|o| o.is_some()).count() as u16;
            let app_used =
                state.owners.iter().filter(|o| o.is_some_and(|a| a != FRAG_OWNER)).count() as u16;
            let resident = state.residents().count() as u16;
            report.check(c, state.owners.len() as u64 == BASE_PAGES_PER_LARGE_PAGE, || {
                format!(
                    "{lf} tracks {} base frames, expected {}",
                    state.owners.len(),
                    BASE_PAGES_PER_LARGE_PAGE
                )
            });
            report.check(c, state.used == used, || {
                format!("{lf} caches used={} but {} owners are set", state.used, used)
            });
            report.check(c, state.app_used == app_used, || {
                format!(
                    "{lf} caches app_used={} but {} app owners are set",
                    state.app_used, app_used
                )
            });
            report.check(c, state.resident == resident, || {
                format!(
                    "{lf} caches resident={} but {} base frames are owned and mapped",
                    state.resident, resident
                )
            });
            if app_used > 0 {
                app_frames += 1;
            }
            if used > app_used {
                frag_frames += 1;
            }
            report.check(c, state.mapped.len() as u64 == BASE_PAGES_PER_LARGE_PAGE, || {
                format!(
                    "{lf} tracks {} mappings, expected {}",
                    state.mapped.len(),
                    BASE_PAGES_PER_LARGE_PAGE
                )
            });
            for i in 0..BASE_PAGES_PER_LARGE_PAGE {
                report.check(c, state.mapping(i).is_none() || state.owner(i).is_some(), || {
                    format!("{lf} base frame {i} is mapped but unallocated")
                });
                report.check(c, !state.is_dirty(i) || state.owner(i).is_some(), || {
                    format!("{lf} base frame {i} is dirty but unallocated")
                });
            }
            report.check(c, state.last_use <= self.use_clock, || {
                format!(
                    "{lf} last_use {} is ahead of the pool clock {}",
                    state.last_use, self.use_clock
                )
            });
        }
        report.check(c, self.app_frames == app_frames, || {
            format!(
                "pool caches app_frames={} but {} frames hold app data",
                self.app_frames, app_frames
            )
        });
        report.check(c, self.frag_frames == frag_frames, || {
            format!(
                "pool caches frag_frames={} but {} frames hold injected fragmentation",
                self.frag_frames, frag_frames
            )
        });
        report.check(c, self.peak_app_frames >= self.app_frames, || {
            format!("peak app frames {} below current {}", self.peak_app_frames, self.app_frames)
        });
        report.check(c, self.peak_tracked >= self.tracked, || {
            format!("peak tracked {} below current {}", self.peak_tracked, self.tracked)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim_core::SimRng;

    fn pool(frames: u64) -> FramePool {
        FramePool::new(frames * LARGE_PAGE_SIZE, 6)
    }

    #[test]
    fn frames_hand_out_in_ascending_order() {
        let mut p = pool(4);
        assert_eq!(p.take_free_frame(), Some(LargeFrameNum(0)));
        assert_eq!(p.take_free_frame(), Some(LargeFrameNum(1)));
        assert_eq!(p.free_frames(), 2);
    }

    #[test]
    fn pool_exhausts() {
        let mut p = pool(2);
        assert!(p.take_free_frame().is_some());
        assert!(p.take_free_frame().is_some());
        assert_eq!(p.take_free_frame(), None);
    }

    #[test]
    fn ownership_tracking() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.set_owner(lf.base_frame(3), Some(AppId(1)));
        p.set_owner(lf.base_frame(4), Some(AppId(1)));
        assert_eq!(p.state(lf).unwrap().used(), 2);
        assert!(p.state(lf).unwrap().single_owner(AppId(1)));
        assert!(!p.state(lf).unwrap().single_owner(AppId(2)));
        assert_eq!(p.owner(lf.base_frame(3)), Some(AppId(1)));

        p.set_owner(lf.base_frame(3), None);
        assert_eq!(p.state(lf).unwrap().used(), 1);
        assert_eq!(p.allocated_base_frames(), 1);
    }

    #[test]
    fn release_requires_empty() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.set_owner(lf.base_frame(0), Some(AppId(0)));
        p.set_owner(lf.base_frame(0), None);
        p.release_frame(lf);
        assert_eq!(p.free_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "allocated base pages")]
    fn release_nonempty_panics() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.set_owner(lf.base_frame(0), Some(AppId(0)));
        p.release_frame(lf);
    }

    #[test]
    fn full_and_empty_predicates() {
        let mut p = pool(1);
        let lf = p.take_free_frame().unwrap();
        assert!(p.state(lf).unwrap().is_empty());
        for i in 0..BASE_PAGES_PER_LARGE_PAGE {
            p.set_owner(lf.base_frame(i), Some(AppId(0)));
        }
        assert!(p.state(lf).unwrap().is_full());
        assert_eq!(p.state(lf).unwrap().holes().count(), 0);
    }

    #[test]
    fn reserved_bytes_counts_tracked_frames() {
        let mut p = pool(8);
        let _a = p.take_free_frame().unwrap();
        let _b = p.take_free_frame().unwrap();
        assert_eq!(p.reserved_bytes(), 2 * LARGE_PAGE_SIZE);
    }

    #[test]
    fn pre_fragment_injects_requested_amounts() {
        let mut p = pool(100);
        let mut rng = SimRng::from_seed(1);
        let report = p.pre_fragment(0.5, 0.25, &mut rng);
        assert_eq!(report.requested_frames, 50);
        assert_eq!(report.fragmented_frames, 50);
        assert_eq!(report.injected_pages, 50 * 128);
        assert_eq!(report.shortfall(), 0);
        // Fragmented frames left the free list.
        assert_eq!(p.free_frames(), 50);
        // All injected pages belong to the pseudo-owner.
        let frag_frames =
            p.tracked().filter(|(_, s)| s.allocated().any(|(_, o)| o == FRAG_OWNER)).count();
        assert_eq!(frag_frames, 50);
    }

    #[test]
    fn pre_fragment_full_index_empties_free_list() {
        let mut p = pool(10);
        let mut rng = SimRng::from_seed(2);
        p.pre_fragment(1.0, 0.5, &mut rng);
        assert_eq!(p.free_frames(), 0);
    }

    #[test]
    fn pre_fragment_reports_shortfall_when_free_list_is_short() {
        let mut p = pool(10);
        // Occupy 6 frames so only 4 remain free; asking for 80% of the
        // pool (8 frames) can only be half satisfied.
        for _ in 0..6 {
            p.take_free_frame().unwrap();
        }
        let mut rng = SimRng::from_seed(3);
        let report = p.pre_fragment(0.8, 0.5, &mut rng);
        assert_eq!(report.requested_frames, 8);
        assert_eq!(report.fragmented_frames, 4);
        assert_eq!(report.shortfall(), 4);
        assert_eq!(report.injected_pages, 4 * 256);
        assert_eq!(p.free_frames(), 0);
    }

    #[test]
    fn note_use_orders_eviction_candidates_by_recency() {
        let mut p = pool(4);
        let a = p.take_free_frame().unwrap();
        let b = p.take_free_frame().unwrap();
        let c = p.take_free_frame().unwrap();
        for (lf, vpn) in [(a, 100), (b, 200), (c, 300)] {
            p.set_owner(lf.base_frame(0), Some(AppId(1)));
            p.set_mapping(lf.base_frame(0), VirtPageNum(vpn));
        }
        // Touch b, then a; c is never touched (last_use 0 = coldest).
        p.note_use(b.base_frame(0), false);
        p.note_use(a.base_frame(0), false);
        assert_eq!(p.eviction_candidates(), vec![c, b, a]);
        // Re-touching c makes it the hottest.
        p.note_use(c.base_frame(0), false);
        assert_eq!(p.eviction_candidates(), vec![b, a, c]);
    }

    #[test]
    fn eviction_candidates_skip_unmapped_and_fragmented_frames() {
        let mut p = pool(4);
        let clean = p.take_free_frame().unwrap();
        p.set_owner(clean.base_frame(0), Some(AppId(1)));
        p.set_mapping(clean.base_frame(0), VirtPageNum(1));
        // Allocated but unmapped: evicting it could not tear down a
        // translation, so it is not a candidate.
        let unmapped = p.take_free_frame().unwrap();
        p.set_owner(unmapped.base_frame(0), Some(AppId(1)));
        // Fragmentation-owned data is never evicted.
        let frag = p.take_free_frame().unwrap();
        p.set_owner(frag.base_frame(0), Some(FRAG_OWNER));
        // Reserved-but-empty frames have nothing to evict.
        let _empty = p.take_free_frame().unwrap();
        assert_eq!(p.eviction_candidates(), vec![clean]);
    }

    #[test]
    fn dirty_bits_set_on_store_and_clear_on_free() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        let pfn = lf.base_frame(77);
        p.set_owner(pfn, Some(AppId(1)));
        p.set_mapping(pfn, VirtPageNum(42));
        p.note_use(pfn, false);
        assert!(!p.is_dirty(pfn));
        p.note_use(pfn, true);
        assert!(p.is_dirty(pfn));
        assert_eq!(p.state(lf).unwrap().dirty_pages(), 1);
        // Freeing the slot clears both the mapping and the dirty bit.
        p.set_owner(pfn, None);
        assert!(!p.is_dirty(pfn));
        assert_eq!(p.mapping(pfn), None);
    }

    #[test]
    fn stores_to_unallocated_slots_do_not_dirty() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.note_use(lf.base_frame(0), true);
        assert!(!p.is_dirty(lf.base_frame(0)));
        assert_eq!(p.state(lf).unwrap().dirty_pages(), 0);
    }

    /// The cached per-frame resident count (owned and mapped slots) that
    /// `eviction_candidates` reads follows every way a slot gains or
    /// loses an owner or a mapping, and the audit's recount agrees.
    #[test]
    fn resident_count_follows_owners_and_mappings() {
        let mut p = pool(4);
        let lf = p.take_free_frame().unwrap();
        let other = p.take_free_frame().unwrap();
        let resident = |p: &FramePool, lf| {
            let mut report = AuditReport::new();
            p.audit(&mut report);
            report.assert_clean("frame pool");
            p.state(lf).map_or(0, |s: &FrameState| s.resident)
        };
        p.set_owner(lf.base_frame(1), Some(AppId(1)));
        assert_eq!(resident(&p, lf), 0, "owned but unmapped");
        assert!(p.eviction_candidates().is_empty());
        p.set_mapping(lf.base_frame(1), VirtPageNum(10));
        assert_eq!(resident(&p, lf), 1);
        assert_eq!(p.eviction_candidates(), vec![lf]);
        p.set_mapping(lf.base_frame(1), VirtPageNum(11));
        assert_eq!(resident(&p, lf), 1, "a remap is not a second resident");
        p.set_owner(lf.base_frame(1), Some(AppId(2)));
        assert_eq!(resident(&p, lf), 1, "an owner change keeps the mapping");
        p.migrate(lf.base_frame(1), other.base_frame(5), AppId(2), VirtPageNum(11));
        assert_eq!((resident(&p, lf), resident(&p, other)), (0, 1));
        p.set_owner(other.base_frame(5), None);
        assert_eq!(resident(&p, other), 0);
        // Injected fragmentation never counts: it is owned, never mapped.
        p.set_owner(lf.base_frame(2), Some(FRAG_OWNER));
        assert_eq!(resident(&p, lf), 0);
    }

    #[test]
    fn residents_report_owner_and_mapping() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.set_owner(lf.base_frame(3), Some(AppId(1)));
        p.set_mapping(lf.base_frame(3), VirtPageNum(9));
        p.set_owner(lf.base_frame(5), Some(AppId(2)));
        assert_eq!(p.residents(lf), vec![(lf.base_frame(3), AppId(1), VirtPageNum(9))]);
        assert_eq!(p.mapping(lf.base_frame(3)), Some(VirtPageNum(9)));
    }

    #[test]
    fn sparse_frame_indices_track_independently() {
        // Touch frames far apart in the index space; the flat table must
        // keep them independent and iterate them in ascending order.
        let mut p = pool(1024);
        p.set_owner(LargeFrameNum(1000).base_frame(7), Some(AppId(2)));
        p.set_owner(LargeFrameNum(3).base_frame(0), Some(AppId(1)));
        p.set_owner(LargeFrameNum(512).base_frame(511), Some(AppId(1)));
        let tracked: Vec<LargeFrameNum> = p.tracked().map(|(lf, _)| lf).collect();
        assert_eq!(tracked, vec![LargeFrameNum(3), LargeFrameNum(512), LargeFrameNum(1000)]);
        assert_eq!(p.owner(LargeFrameNum(1000).base_frame(7)), Some(AppId(2)));
        assert_eq!(p.owner(LargeFrameNum(512).base_frame(7)), None);
        assert_eq!(p.reserved_bytes(), 3 * LARGE_PAGE_SIZE);
        assert_eq!(p.allocated_base_frames(), 3);
    }

    #[test]
    fn dealloc_then_retouch_reuses_slot() {
        let mut p = pool(4);
        let lf = p.take_free_frame().unwrap();
        p.set_owner(lf.base_frame(5), Some(AppId(0)));
        p.set_owner(lf.base_frame(5), None);
        p.release_frame(lf);
        assert_eq!(p.reserved_bytes(), 0);
        assert_eq!(p.free_frames(), 4);
        // Re-taking the same frame must start from a clean state and
        // count it as tracked exactly once.
        let again = p.take_free_frame().unwrap();
        assert_eq!(again, lf);
        assert!(p.state(again).unwrap().is_empty());
        p.set_owner(again.base_frame(9), Some(AppId(1)));
        assert_eq!(p.state(again).unwrap().used(), 1);
        assert_eq!(p.reserved_bytes(), LARGE_PAGE_SIZE);
        // Peak reservation reflects both generations, not a double count.
        assert_eq!(p.peak_reserved_bytes(), LARGE_PAGE_SIZE);
    }

    /// A released frame's state is reused by the next frame tracked,
    /// through either `take_free_frame` or `set_owner`, and comes back
    /// exactly as a fresh one.
    #[test]
    fn released_states_come_back_clear() {
        let mut p = pool(4);
        let lf = p.take_free_frame().unwrap();
        for i in [0, 77, 511] {
            p.set_owner(lf.base_frame(i), Some(AppId(1)));
            p.set_mapping(lf.base_frame(i), VirtPageNum(i + 100));
            p.note_use(lf.base_frame(i), true);
        }
        p.set_owner(lf.base_frame(3), Some(FRAG_OWNER));
        for i in [0, 3, 77, 511] {
            p.set_owner(lf.base_frame(i), None);
        }
        p.release_frame(lf);
        assert_eq!(p.spare.len(), 1);
        let next = p.take_free_frame().unwrap();
        assert!(p.spare.is_empty());
        assert_eq!(p.state(next), Some(&FrameState::default()));
        p.release_frame(next);
        let mut report = AuditReport::new();
        p.audit(&mut report);
        report.assert_clean("frame pool");
        p.set_owner(LargeFrameNum(3).base_frame(9), Some(AppId(2)));
        assert!(p.spare.is_empty(), "set_owner tracks with a spare too");
    }

    #[test]
    fn unallocated_base_frames_record_no_mapping() {
        let mut p = pool(2);
        let lf = p.take_free_frame().unwrap();
        p.set_mapping(lf.base_frame(4), VirtPageNum(8));
        assert_eq!(p.mapping(lf.base_frame(4)), None);
        p.set_owner(lf.base_frame(4), Some(AppId(1)));
        assert_eq!(p.mapping(lf.base_frame(4)), None, "no stale mapping to inherit");
        assert!(p.eviction_candidates().is_empty());
    }

    #[test]
    fn channel_assignment_is_stable() {
        let p = pool(12);
        assert_eq!(p.channel_of(LargeFrameNum(0)), 0);
        assert_eq!(p.channel_of(LargeFrameNum(7)), 1);
    }
}
