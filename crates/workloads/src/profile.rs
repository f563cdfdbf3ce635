//! The 27 application profiles.
//!
//! Application names follow the MAFIA framework's abbreviations for the
//! Parboil, SHOC, LULESH, Rodinia, and CUDA SDK programs the paper
//! evaluates. Each profile captures the properties the memory system
//! reacts to:
//!
//! * **working set** — the paper's applications touch 10–362 MB (average
//!   81.5 MB, Section 3.2); profiles carry the full-scale figure and the
//!   suite builder scales it down;
//! * **access pattern** — whether a warp's address stream is streaming,
//!   strided, stencil-shaped, a random gather, or a dependent pointer
//!   chase; this determines page-level locality, and with it TLB reach
//!   pressure (the difference between the TLB-friendly and TLB-sensitive
//!   workloads of Figure 10);
//! * **divergence** — transactions per warp memory instruction;
//! * **compute intensity** — non-memory cycles between memory
//!   instructions, which sets how much latency TLP can hide.

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Parboil (UIUC).
    Parboil,
    /// SHOC (ORNL).
    Shoc,
    /// LULESH (LLNL proxy app).
    Lulesh,
    /// Rodinia (UVA).
    Rodinia,
    /// NVIDIA CUDA SDK samples.
    CudaSdk,
}

/// Page-level access pattern of an application's dominant kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Warps sweep disjoint contiguous partitions of the working set
    /// line by line (dense linear algebra, image kernels). One
    /// transaction per instruction; excellent page locality.
    Streaming,
    /// Sequential sweep that skips `stride_pages` base pages between
    /// consecutive accesses (column-major walks, transposes). One
    /// transaction; page locality inversely proportional to the stride.
    Strided {
        /// Base pages skipped between consecutive accesses.
        stride_pages: u32,
    },
    /// 2D stencil: each instruction touches the cell's row and the rows
    /// above/below (`touches` transactions spread `row_pages` apart).
    Stencil {
        /// Transactions per instruction (routinely 3).
        touches: u32,
        /// Page distance between adjacent rows.
        row_pages: u32,
    },
    /// Indexed gather/scatter: `fanout` transactions at uniformly random
    /// pages of the working set (GUPS, histograms, graph frontiers).
    /// Maximum TLB pressure.
    RandomGather {
        /// Random transactions per instruction.
        fanout: u32,
    },
    /// Dependent chase through random pages, one transaction per
    /// instruction, no spatial locality (hash joins, tree walks).
    Chase,
}

/// One application model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// MAFIA-style abbreviation (e.g. "HS" for Rodinia hotspot).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Full-scale working set in MB (before suite scaling).
    pub working_set_mb: u32,
    /// Dominant access pattern.
    pub pattern: AccessPattern,
    /// Fraction of accesses that re-touch a recent hot region (absorbed
    /// by caches/TLB): `0.0` = none, `0.9` = highly reusing.
    pub reuse: f64,
    /// Average compute cycles between memory instructions.
    pub compute_per_mem: u32,
    /// Number of *small* (sub-2 MB) allocations the application makes
    /// besides its main en-masse buffer: lookup tables, constants,
    /// parameter blocks. They follow Mosaic's unaligned base-page path,
    /// while a 2 MB-only manager burns a whole large frame on each — the
    /// source of the Section 3.2 memory bloat.
    pub small_allocs: u32,
    /// Size of each small allocation in KB.
    pub small_alloc_kb: u32,
}

impl AppProfile {
    /// Looks a profile up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<&'static AppProfile> {
        ALL_PROFILES.iter().find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Whether this application is TLB-sensitive in the paper's sense
    /// (Figure 10): its pattern defeats page-granularity locality, so its
    /// performance moves sharply with TLB reach.
    pub fn tlb_sensitive(&self) -> bool {
        matches!(
            self.pattern,
            AccessPattern::RandomGather { .. }
                | AccessPattern::Chase
                | AccessPattern::Strided { stride_pages: 4.. }
        )
    }
}

/// The 27 applications (Section 5). Working sets span the paper's
/// 10–362 MB range with an average near its 81.5 MB figure; patterns are
/// assigned from the applications' published kernel structure.
pub const ALL_PROFILES: [AppProfile; 27] = [
    AppProfile {
        name: "3DS",
        suite: Suite::CudaSdk,
        working_set_mb: 64,
        pattern: AccessPattern::Stencil { touches: 3, row_pages: 8 },
        reuse: 0.55,
        compute_per_mem: 6,
        small_allocs: 3,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "BFS2",
        suite: Suite::Rodinia,
        working_set_mb: 96,
        pattern: AccessPattern::RandomGather { fanout: 6 },
        reuse: 0.20,
        compute_per_mem: 3,
        small_allocs: 4,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "BLK",
        suite: Suite::CudaSdk,
        working_set_mb: 48,
        pattern: AccessPattern::Streaming,
        reuse: 0.30,
        compute_per_mem: 18,
        small_allocs: 3,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "CONS",
        suite: Suite::CudaSdk,
        working_set_mb: 112,
        pattern: AccessPattern::Streaming,
        reuse: 0.45,
        compute_per_mem: 4,
        small_allocs: 2,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "FFT",
        suite: Suite::Shoc,
        working_set_mb: 80,
        pattern: AccessPattern::Strided { stride_pages: 8 },
        reuse: 0.35,
        compute_per_mem: 7,
        small_allocs: 4,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "FWT",
        suite: Suite::CudaSdk,
        working_set_mb: 64,
        pattern: AccessPattern::Strided { stride_pages: 4 },
        reuse: 0.35,
        compute_per_mem: 5,
        small_allocs: 3,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "GUPS",
        suite: Suite::Shoc,
        working_set_mb: 256,
        pattern: AccessPattern::RandomGather { fanout: 16 },
        reuse: 0.02,
        compute_per_mem: 2,
        small_allocs: 1,
        small_alloc_kb: 64,
    },
    AppProfile {
        name: "HISTO",
        suite: Suite::Parboil,
        working_set_mb: 72,
        pattern: AccessPattern::RandomGather { fanout: 4 },
        reuse: 0.40,
        compute_per_mem: 4,
        small_allocs: 5,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "HS",
        suite: Suite::Rodinia,
        working_set_mb: 40,
        pattern: AccessPattern::Stencil { touches: 3, row_pages: 4 },
        reuse: 0.60,
        compute_per_mem: 8,
        small_allocs: 2,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "JPEG",
        suite: Suite::CudaSdk,
        working_set_mb: 56,
        pattern: AccessPattern::Streaming,
        reuse: 0.50,
        compute_per_mem: 10,
        small_allocs: 6,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "LPS",
        suite: Suite::CudaSdk,
        working_set_mb: 32,
        pattern: AccessPattern::Stencil { touches: 3, row_pages: 2 },
        reuse: 0.55,
        compute_per_mem: 7,
        small_allocs: 3,
        small_alloc_kb: 96,
    },
    AppProfile {
        name: "LUD",
        suite: Suite::Rodinia,
        working_set_mb: 24,
        pattern: AccessPattern::Strided { stride_pages: 2 },
        reuse: 0.55,
        compute_per_mem: 9,
        small_allocs: 4,
        small_alloc_kb: 64,
    },
    AppProfile {
        name: "LUH",
        suite: Suite::Lulesh,
        working_set_mb: 160,
        pattern: AccessPattern::Stencil { touches: 4, row_pages: 16 },
        reuse: 0.35,
        compute_per_mem: 12,
        small_allocs: 6,
        small_alloc_kb: 512,
    },
    AppProfile {
        name: "MM",
        suite: Suite::CudaSdk,
        working_set_mb: 36,
        pattern: AccessPattern::Streaming,
        reuse: 0.70,
        compute_per_mem: 14,
        small_allocs: 2,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "MUM",
        suite: Suite::Rodinia,
        working_set_mb: 144,
        pattern: AccessPattern::Chase,
        reuse: 0.10,
        compute_per_mem: 3,
        small_allocs: 4,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "NN",
        suite: Suite::Rodinia,
        working_set_mb: 10,
        pattern: AccessPattern::Streaming,
        reuse: 0.65,
        compute_per_mem: 5,
        small_allocs: 8,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "NW",
        suite: Suite::Rodinia,
        working_set_mb: 88,
        pattern: AccessPattern::Strided { stride_pages: 6 },
        reuse: 0.25,
        compute_per_mem: 4,
        small_allocs: 3,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "QTC",
        suite: Suite::Shoc,
        working_set_mb: 120,
        pattern: AccessPattern::RandomGather { fanout: 8 },
        reuse: 0.15,
        compute_per_mem: 5,
        small_allocs: 4,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "RAY",
        suite: Suite::CudaSdk,
        working_set_mb: 52,
        pattern: AccessPattern::Chase,
        reuse: 0.30,
        compute_per_mem: 11,
        small_allocs: 5,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "RED",
        suite: Suite::Shoc,
        working_set_mb: 128,
        pattern: AccessPattern::Streaming,
        reuse: 0.15,
        compute_per_mem: 3,
        small_allocs: 1,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "SAD",
        suite: Suite::Parboil,
        working_set_mb: 76,
        pattern: AccessPattern::Stencil { touches: 2, row_pages: 6 },
        reuse: 0.45,
        compute_per_mem: 6,
        small_allocs: 4,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "SC",
        suite: Suite::Rodinia,
        working_set_mb: 104,
        pattern: AccessPattern::RandomGather { fanout: 5 },
        reuse: 0.25,
        compute_per_mem: 4,
        small_allocs: 3,
        small_alloc_kb: 256,
    },
    AppProfile {
        name: "SCAN",
        suite: Suite::Shoc,
        working_set_mb: 192,
        pattern: AccessPattern::Streaming,
        reuse: 0.10,
        compute_per_mem: 3,
        small_allocs: 2,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "SCP",
        suite: Suite::CudaSdk,
        working_set_mb: 44,
        pattern: AccessPattern::Streaming,
        reuse: 0.35,
        compute_per_mem: 5,
        small_allocs: 2,
        small_alloc_kb: 96,
    },
    AppProfile {
        name: "SPMV",
        suite: Suite::Parboil,
        working_set_mb: 168,
        pattern: AccessPattern::RandomGather { fanout: 7 },
        reuse: 0.20,
        compute_per_mem: 4,
        small_allocs: 5,
        small_alloc_kb: 192,
    },
    AppProfile {
        name: "SRAD",
        suite: Suite::Rodinia,
        working_set_mb: 60,
        pattern: AccessPattern::Stencil { touches: 3, row_pages: 5 },
        reuse: 0.50,
        compute_per_mem: 7,
        small_allocs: 3,
        small_alloc_kb: 128,
    },
    AppProfile {
        name: "TRD",
        suite: Suite::Shoc,
        working_set_mb: 362,
        pattern: AccessPattern::Streaming,
        reuse: 0.05,
        compute_per_mem: 3,
        small_allocs: 1,
        small_alloc_kb: 256,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_27_applications() {
        assert_eq!(ALL_PROFILES.len(), 27);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_PROFILES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn working_sets_match_paper_envelope() {
        let min = ALL_PROFILES.iter().map(|p| p.working_set_mb).min().unwrap();
        let max = ALL_PROFILES.iter().map(|p| p.working_set_mb).max().unwrap();
        let mean = ALL_PROFILES.iter().map(|p| f64::from(p.working_set_mb)).sum::<f64>() / 27.0;
        assert_eq!(min, 10, "paper: working sets start at 10MB");
        assert_eq!(max, 362, "paper: largest working set is 362MB");
        assert!((60.0..120.0).contains(&mean), "mean near the paper's 81.5MB, got {mean}");
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(AppProfile::by_name("hs").unwrap().name, "HS");
        assert_eq!(AppProfile::by_name("GUPS").unwrap().suite, Suite::Shoc);
        assert!(AppProfile::by_name("NOPE").is_none());
    }

    #[test]
    fn sensitivity_classification_is_pattern_driven() {
        assert!(AppProfile::by_name("GUPS").unwrap().tlb_sensitive());
        assert!(AppProfile::by_name("MUM").unwrap().tlb_sensitive());
        assert!(!AppProfile::by_name("MM").unwrap().tlb_sensitive());
        assert!(!AppProfile::by_name("CONS").unwrap().tlb_sensitive());
        // Both classes are represented, as in Figure 10.
        let sensitive = ALL_PROFILES.iter().filter(|p| p.tlb_sensitive()).count();
        assert!((5..20).contains(&sensitive));
    }
}

#[cfg(test)]
mod small_alloc_tests {
    use super::*;

    #[test]
    fn every_profile_declares_small_allocations_sanely() {
        for p in &ALL_PROFILES {
            assert!(p.small_allocs >= 1, "{}: apps always have some small buffers", p.name);
            assert!(p.small_alloc_kb >= 4, "{}", p.name);
            assert!(
                u64::from(p.small_alloc_kb) * 1024 < 2 * 1024 * 1024,
                "{}: small allocations must stay below one large page",
                p.name
            );
        }
    }

    #[test]
    fn small_allocation_bloat_envelope_matches_paper() {
        // The 2MB-only manager commits a whole large frame per small
        // allocation; across the roster this overhead lands in the
        // paper's reported range (+40.2% average, +367% worst case)
        // relative to the scaled main working sets.
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        for p in &ALL_PROFILES {
            let ws = f64::from(p.working_set_mb) / 8.0 * 1024.0 * 1024.0;
            let committed = f64::from(p.small_allocs) * 2.0 * 1024.0 * 1024.0;
            let touched = f64::from(p.small_allocs) * f64::from(p.small_alloc_kb) * 1024.0;
            let inflation = (ws + committed) / (ws + touched) - 1.0;
            worst = worst.max(inflation);
            sum += inflation;
        }
        let avg = sum / ALL_PROFILES.len() as f64;
        assert!((0.1..1.2).contains(&avg), "average structural bloat {avg:.2}");
        assert!(worst > 1.0, "at least one heavy-bloat application, got {worst:.2}");
    }
}
