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

    /// The first physical address whose tag does not fit in 32 bits: a
    /// [`Cache`] of this geometry tags exactly the addresses below it
    /// (`2^32 × sets × line_size`, saturating). A system checks its
    /// address space against this once, when it is built.
    pub fn tag_reach(&self) -> u64 {
        (self.sets() * self.line_size).saturating_mul(1 << 32)
    }
}

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
    /// Line tags, `assoc` slots per set in one slab. A tag is the line
    /// number divided by the set count (the set index is the remainder),
    /// so the pair names the line exactly and the tag fits in 32 bits for
    /// every address below [`CacheConfig::tag_reach`]; a 16-way L2 set is
    /// 64 bytes, the size of a host cache line. `lens[s]` live lines sit at the
    /// front of set `s`, most recently used first, so the LRU victim of a
    /// full set is its last slot.
    tags: Vec<u32>,
    lens: Vec<u16>,
    num_sets: u64,
    /// `log2(line_size)` when the line size is a power of two, so the
    /// per-access address split is a shift instead of a division. Both
    /// shipped geometries qualify; odd test geometries fall back.
    line_shift: Option<u32>,
    /// `log2(sets)` when the set count is a power of two (mask and shift
    /// instead of modulo and division). The L2 slice has a
    /// non-power-of-two set count, so this stays a genuine fallback, not
    /// dead code.
    set_shift: Option<u32>,
    stats: Ratio,
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
            set_shift: sets.is_power_of_two().then_some(sets.trailing_zeros()),
            stats: Ratio::default(),
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

    /// The set index and tag of `addr`'s line. Addresses at or past
    /// [`CacheConfig::tag_reach`] are out of contract (their tags would
    /// alias); the system that builds the cache rules them out.
    fn split(&self, addr: u64) -> (usize, u32) {
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_size,
        };
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & (self.num_sets - 1), line >> shift),
            None => (line % self.num_sets, line / self.num_sets),
        };
        debug_assert!(tag <= u64::from(u32::MAX), "address {addr:#x} past the cache's tag reach");
        (set as usize, tag as u32)
    }

    /// Accesses the line containing `addr`; on a miss the line is filled
    /// (allocate-on-miss for both reads and writes, so `_write` changes
    /// nothing: the model keeps no dirty state). Returns `true` on hit.
    /// Either way the line moves to the front of its set.
    pub fn access(&mut self, addr: u64, _write: bool) -> bool {
        let assoc = self.config.assoc;
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * assoc;
        let len = usize::from(self.lens[set_idx]);
        let set = &mut self.tags[base..base + assoc];
        if let Some(i) = set[..len].iter().position(|&t| t == tag) {
            set.copy_within(..i, 1);
            set[0] = tag;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        // A full set drops its last live line, the least recently used.
        let shifted = if len < assoc {
            self.lens[set_idx] += 1;
            len
        } else {
            assoc - 1
        };
        set.copy_within(..shifted, 1);
        set[0] = tag;
        false
    }

    /// Probes without filling or updating recency.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.config.assoc;
        self.tags[base..base + usize::from(self.lens[set_idx])].contains(&tag)
    }

    /// Hit-rate statistics.
    pub fn hit_rate(&self) -> Ratio {
        self.stats
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
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.hit_rate().hits(), 2);
        assert_eq!(c.hit_rate().total() - c.hit_rate().hits(), 1);
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

    /// A copy of the cache before tags and stamps were split: `(tag,
    /// stamp)` lines, per-set slices in one slab.
    struct RefCache {
        lines: Vec<Vec<(u64, u64)>>,
        assoc: usize,
        line_size: u64,
        tick: u64,
        hits: u64,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            RefCache {
                lines: vec![Vec::new(); config.sets() as usize],
                assoc: config.assoc,
                line_size: config.line_size,
                tick: 0,
                hits: 0,
            }
        }

        fn set(&mut self, addr: u64) -> (&mut Vec<(u64, u64)>, u64) {
            let line = addr / self.line_size;
            let n = self.lines.len() as u64;
            (&mut self.lines[(line % n) as usize], line)
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let (tick, assoc) = (self.tick, self.assoc);
            let (set, tag) = self.set(addr);
            if let Some(line) = set.iter_mut().find(|l| l.0 == tag) {
                line.1 = tick;
                self.hits += 1;
                return true;
            }
            if set.len() < assoc {
                set.push((tag, tick));
            } else {
                *set.iter_mut().min_by_key(|l| l.1).expect("full set") = (tag, tick);
            }
            false
        }

        fn contains(&mut self, addr: u64) -> bool {
            let (set, tag) = self.set(addr);
            set.iter().any(|l| l.0 == tag)
        }
    }

    /// The split-tag cache against [`RefCache`] on the paper's L1, the L2
    /// slice and a tiny geometry: seeded reads and writes over a few times
    /// the capacity; every hit, the occupancy and `contains` must agree.
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
                let write = rng.below(4) == 0;
                assert_eq!(cache.access(addr, write), reference.access(addr), "{what}");
                let probe = rng.below(span);
                assert_eq!(cache.contains(probe), reference.contains(probe), "{what}: contains");
                if step % 1_000 == 0 {
                    let occupancy: usize = reference.lines.iter().map(Vec::len).sum();
                    assert_eq!(cache.occupancy(), occupancy, "{what}: occupancy");
                }
            }
            assert_eq!(cache.hit_rate().hits(), reference.hits, "config {seed}: hits");
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
                let (set, tag) = c.split(addr);
                let line = addr / config.line_size;
                assert_eq!(set as u64, line % c.num_sets);
                assert_eq!(u64::from(tag), line / c.num_sets);
            }
        }
    }

    /// The last address below the tag reach keeps a distinct tag at the
    /// top of the 32-bit range, and lines one reach apart would alias —
    /// which is why the reach is checked when a system is built.
    #[test]
    fn tags_are_exact_up_to_the_tag_reach() {
        for config in [CacheConfig::paper_l1(), CacheConfig::paper_l2_slice()] {
            let reach = config.tag_reach();
            assert_eq!(reach, (1u64 << 32) * config.sets() * config.line_size);
            let c = Cache::new(config);
            let last = reach - 1;
            let (set, tag) = c.split(last);
            assert_eq!(tag, u32::MAX, "the last line below the reach has the largest tag");
            assert_eq!(set as u64, c.num_sets - 1);
            // Same set, tag one lower: a different line, a different tag.
            let below = last - c.num_sets * config.line_size;
            assert_eq!(c.split(below), (set, u32::MAX - 1));
            let mut c = c;
            assert!(!c.access(last, false));
            assert!(c.access(last, false));
            assert!(!c.contains(below), "distinct tags do not alias");
        }
        // The paper's L1 tags 16 TiB; the L2 slice's 170 sets reach past
        // the page-table node region at 1 TiB.
        assert_eq!(CacheConfig::paper_l1().tag_reach(), 1 << 44);
        assert!(CacheConfig::paper_l2_slice().tag_reach() > 1 << 46);
        let huge = CacheConfig { capacity: 1 << 62, line_size: 1 << 20, assoc: 1, latency: 1 };
        assert_eq!(huge.tag_reach(), u64::MAX, "saturates");
    }
}
