//! Set-associative caches with LRU replacement.
//!
//! Used for both the per-SM private L1 data cache (16 KB, 4-way, 1-cycle)
//! and each slice of the shared L2 (2 MB total across six partitions,
//! 16-way, 10-cycle) from Table 1. The cache is physically indexed and
//! tagged: requests arrive after address translation, which is exactly why
//! TLB misses sit on the critical path the paper measures.

use mosaic_sim_core::Ratio;

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Associativity (ways).
    pub assoc: usize,
    /// Hit latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's private L1 data cache: 16 KB, 4-way, 128 B lines,
    /// 1-cycle latency.
    pub fn paper_l1() -> Self {
        CacheConfig { capacity: 16 * 1024, line_size: 128, assoc: 4, latency: 1 }
    }

    /// One slice of the paper's shared L2: 2 MB total over six partitions,
    /// 16-way, 128 B lines, 10-cycle latency. The slice is 349,440 B
    /// (2,730 lines), which is not a whole number of 16-line sets:
    /// [`CacheConfig::sets`] rounds down to 170 sets, so 2,720 lines are
    /// usable and the set index needs a modulo.
    pub fn paper_l2_slice() -> Self {
        CacheConfig {
            capacity: 2 * 1024 * 1024 / 6 / 128 * 128,
            line_size: 128,
            assoc: 16,
            latency: 10,
        }
    }

    /// Number of lines in the cache.
    pub fn lines(&self) -> u64 {
        self.capacity / self.line_size
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.lines() / self.assoc as u64).max(1)
    }
}

/// Bit 63 of a tag word: the line is dirty. Tags are line numbers,
/// addresses shifted right by at least one bit, so they never reach it.
const DIRTY: u64 = 1 << 63;

/// A set-associative, physically-indexed cache with LRU replacement.
///
/// This is a structural model: [`Cache::access`] reports hit/miss and
/// updates contents; the caller charges [`CacheConfig::latency`] on a hit
/// and forwards misses to the next level.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::paper_l1());
/// assert!(!l1.access(0x1000, false)); // cold miss, line is filled
/// assert!(l1.access(0x1040, false));  // same 128 B line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line tags, `assoc` slots per set in one slab, each a line number
    /// with [`DIRTY`] or'd in. `lens[s]` live lines sit at the front of
    /// set `s`, most recently used first, so the LRU victim of a full
    /// set is its last slot.
    tags: Vec<u64>,
    lens: Vec<u16>,
    num_sets: u64,
    /// `log2(line_size)` when the line size is a power of two, so the
    /// per-access address split is a shift instead of a division. Both
    /// shipped geometries qualify; odd test geometries fall back.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two (mask instead of
    /// modulo). The L2 slice has a non-power-of-two set count, so this
    /// stays a genuine fallback, not dead code.
    set_mask: Option<u64>,
    stats: Ratio,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is below 2 bytes or the associativity is
    /// zero. A capacity that is not a multiple of
    /// `line_size * assoc` is accepted: the last partial set is dropped
    /// (see [`CacheConfig::paper_l2_slice`]).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size >= 2, "line size must be at least 2 bytes");
        assert!(config.assoc > 0, "associativity must be non-zero");
        let sets = config.sets();
        let slots = sets as usize * config.assoc;
        Cache {
            config,
            tags: vec![0; slots],
            lens: vec![0; sets as usize],
            num_sets: sets,
            line_shift: config
                .line_size
                .is_power_of_two()
                .then_some(config.line_size.trailing_zeros()),
            set_mask: sets.is_power_of_two().then_some(sets - 1),
            stats: Ratio::default(),
            writebacks: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit latency in core cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_size,
        };
        let set = match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets) as usize,
        };
        (set, line)
    }

    /// Accesses the line containing `addr`; on a miss the line is filled
    /// (allocate-on-miss for both reads and writes). Returns `true` on hit.
    /// Either way the line moves to the front of its set.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let assoc = self.config.assoc;
        let (set_idx, line) = self.split(addr);
        let dirty = if write { DIRTY } else { 0 };
        let base = set_idx * assoc;
        let len = usize::from(self.lens[set_idx]);
        let set = &mut self.tags[base..base + assoc];
        if let Some(i) = set[..len].iter().position(|&t| t & !DIRTY == line) {
            let tag = set[i] | dirty;
            set.copy_within(..i, 1);
            set[0] = tag;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        let shifted = if len < assoc {
            self.lens[set_idx] += 1;
            len
        } else {
            // The last live line is the least recently used.
            self.writebacks += u64::from(set[assoc - 1] & DIRTY != 0);
            assoc - 1
        };
        set.copy_within(..shifted, 1);
        set[0] = line | dirty;
        false
    }

    /// Probes without filling or updating recency.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, line) = self.split(addr);
        let base = set_idx * self.config.assoc;
        self.tags[base..base + usize::from(self.lens[set_idx])].iter().any(|&t| t & !DIRTY == line)
    }

    /// Invalidates every line (e.g., at kernel boundaries). Dirty lines
    /// count as writebacks.
    pub fn flush(&mut self) {
        let assoc = self.config.assoc;
        for (set_idx, len) in self.lens.iter_mut().enumerate() {
            let base = set_idx * assoc;
            let live = &self.tags[base..base + usize::from(*len)];
            self.writebacks += live.iter().filter(|&&t| t & DIRTY != 0).count() as u64;
            *len = 0;
        }
    }

    /// Hit-rate statistics.
    pub fn hit_rate(&self) -> Ratio {
        self.stats
    }

    /// Number of dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B, 2-way: 2 sets.
        Cache::new(CacheConfig { capacity: 256, line_size: 64, assoc: 2, latency: 1 })
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(63, false));
        assert!(!c.access(64, false), "next line misses");
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 (line numbers 0,2,4) all map to set 0.
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // line 0 most recent
        c.access(256, false); // evicts line 2 (addr 128)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        c.access(256, false); // evicts LRU (addr 0, dirty)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn flush_empties_and_writes_back() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.writebacks(), 1);
        assert!(!c.contains(0));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.hit_rate().hits(), 2);
        assert_eq!(c.hit_rate().misses(), 1);
    }

    #[test]
    fn paper_configs_are_sane() {
        let l1 = Cache::new(CacheConfig::paper_l1());
        assert_eq!(l1.config().lines(), 128);
        assert_eq!(l1.config().sets(), 32);
        let l2 = Cache::new(CacheConfig::paper_l2_slice());
        assert!(l2.config().lines() > 2000);
        assert_eq!(l2.config().assoc, 16);
    }

    /// The L2 slice's capacity is not a multiple of a set's bytes; the
    /// partial set is dropped. Every golden depends on this geometry.
    #[test]
    fn paper_l2_slice_geometry_is_pinned() {
        let config = CacheConfig::paper_l2_slice();
        assert_eq!(config.capacity, 349_440);
        assert_eq!(config.lines(), 2_730);
        assert_eq!(config.sets(), 170);
        let mut l2 = Cache::new(config);
        assert_eq!(l2.tags.len(), 2_720, "usable lines");
        for line in 0..4_000u64 {
            l2.access(line * 128, false);
        }
        assert_eq!(l2.occupancy(), 2_720);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn one_byte_lines_rejected() {
        let _ = Cache::new(CacheConfig { capacity: 256, line_size: 1, assoc: 2, latency: 1 });
    }

    /// A copy of the cache before tags and stamps were split: 24-byte
    /// lines with a separate dirty flag, per-set slices in one slab.
    struct RefCache {
        lines: Vec<Vec<(u64, u64, bool)>>,
        assoc: usize,
        line_size: u64,
        tick: u64,
        hits: u64,
        writebacks: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            RefCache {
                lines: vec![Vec::new(); config.sets() as usize],
                assoc: config.assoc,
                line_size: config.line_size,
                tick: 0,
                hits: 0,
                writebacks: 0,
            }
        }

        fn set(&mut self, addr: u64) -> (&mut Vec<(u64, u64, bool)>, u64) {
            let line = addr / self.line_size;
            let n = self.lines.len() as u64;
            (&mut self.lines[(line % n) as usize], line)
        }

        fn access(&mut self, addr: u64, write: bool) -> bool {
            self.tick += 1;
            let (tick, assoc) = (self.tick, self.assoc);
            let (set, tag) = self.set(addr);
            if let Some(line) = set.iter_mut().find(|l| l.0 == tag) {
                line.1 = tick;
                line.2 |= write;
                self.hits += 1;
                return true;
            }
            if set.len() < assoc {
                set.push((tag, tick, write));
            } else {
                let victim = set.iter_mut().min_by_key(|l| l.1).expect("full set");
                let dirty = victim.2;
                *victim = (tag, tick, write);
                self.writebacks += u64::from(dirty);
            }
            false
        }

        fn contains(&mut self, addr: u64) -> bool {
            let (set, tag) = self.set(addr);
            set.iter().any(|l| l.0 == tag)
        }

        fn flush(&mut self) {
            for set in &mut self.lines {
                self.writebacks += set.iter().filter(|l| l.2).count() as u64;
                set.clear();
            }
        }
    }

    /// The split-tag cache against [`RefCache`] on the paper's L1, the L2
    /// slice and a tiny geometry: seeded reads and writes over a few times
    /// the capacity, with occasional flushes; every hit, the writebacks,
    /// the occupancy and `contains` must agree.
    #[test]
    fn split_tag_cache_matches_line_reference() {
        use mosaic_sim_core::SimRng;
        let tiny = CacheConfig { capacity: 256, line_size: 64, assoc: 2, latency: 1 };
        for (seed, config) in
            [CacheConfig::paper_l1(), CacheConfig::paper_l2_slice(), tiny].into_iter().enumerate()
        {
            let mut rng = SimRng::from_seed(0xCAC4E + seed as u64);
            let mut cache = Cache::new(config);
            let mut reference = RefCache::new(config);
            let span = 3 * config.capacity;
            for step in 0..60_000 {
                let addr = rng.below(span);
                let what = format!("config {seed} step {step}");
                if rng.below(20_000) == 0 {
                    cache.flush();
                    reference.flush();
                } else {
                    let write = rng.below(4) == 0;
                    assert_eq!(cache.access(addr, write), reference.access(addr, write), "{what}");
                }
                assert_eq!(cache.writebacks(), reference.writebacks, "{what}: writebacks");
                let probe = rng.below(span);
                assert_eq!(cache.contains(probe), reference.contains(probe), "{what}: contains");
                if step % 1_000 == 0 {
                    let occupancy: usize = reference.lines.iter().map(Vec::len).sum();
                    assert_eq!(cache.occupancy(), occupancy, "{what}: occupancy");
                }
            }
            assert_eq!(cache.hit_rate().hits(), reference.hits, "config {seed}: hits");
            assert!(cache.writebacks() > 100, "config {seed}: dirty evictions exercised");
        }
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn zero_line_size_rejected() {
        let _ = Cache::new(CacheConfig { capacity: 256, line_size: 0, assoc: 2, latency: 1 });
    }

    #[test]
    fn split_fast_paths_match_division() {
        // The L2 slice geometry has a non-power-of-two set count, the L1 a
        // power-of-two one; both must index identically to plain div/mod.
        for config in [CacheConfig::paper_l1(), CacheConfig::paper_l2_slice()] {
            let c = Cache::new(config);
            for addr in (0..4096u64).map(|i| i * 7919) {
                let (set, line) = c.split(addr);
                assert_eq!(line, addr / config.line_size);
                assert_eq!(set as u64, line % c.num_sets);
            }
        }
    }
}
