//! System and run configuration.

use mosaic_core::cac::CacConfig;
use mosaic_core::migrating::MigratingConfig;
use mosaic_core::placement::{PlacementPolicy, MAX_GPUS};
use mosaic_iobus::IoBusConfig;
use mosaic_mem::{CacheConfig, CrossbarConfig, DramConfig, InterconnectConfig, Topology};
use mosaic_vm::TlbConfig;
use mosaic_workloads::ScaleConfig;

/// Which memory manager the system runs (the paper's comparison points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ManagerKind {
    /// The GPU-MMU baseline with 4 KB pages (Section 3.1).
    GpuMmu4K,
    /// GPU-MMU managing only 2 MB pages (the Section 3.2 motivation
    /// configuration).
    GpuMmu2M,
    /// Mosaic with the given CAC policy.
    Mosaic(CacConfig),
    /// A CPU-style utilization-based coalescer that migrates data and
    /// shoots down TLBs to promote (Ingens/Navarro-like, Section 7.1).
    Migrating(MigratingConfig),
}

impl ManagerKind {
    /// Mosaic with default CAC.
    pub fn mosaic() -> Self {
        ManagerKind::Mosaic(CacConfig::default())
    }

    /// The CPU-style migrating coalescer with default policy.
    pub fn migrating() -> Self {
        ManagerKind::Migrating(MigratingConfig::default())
    }

    /// The manager a front-end token names (see [`manager_tokens`]), and
    /// whether it runs with the Ideal TLB; `None` for an unknown token.
    pub fn from_token(token: &str) -> Option<(ManagerKind, bool)> {
        manager_tokens()
            .into_iter()
            .find(|&(t, ..)| t == token)
            .map(|(_, kind, ideal)| (kind, ideal))
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ManagerKind::GpuMmu4K => "GPU-MMU",
            ManagerKind::GpuMmu2M => "GPU-MMU-2MB",
            ManagerKind::Migrating(_) => "Migrating-Coalescer",
            ManagerKind::Mosaic(c) if !c.enabled => "Mosaic (no CAC)",
            ManagerKind::Mosaic(c) if c.ideal => "Mosaic (Ideal CAC)",
            ManagerKind::Mosaic(c) if c.bulk_copy => "Mosaic (CAC-BC)",
            ManagerKind::Mosaic(_) => "Mosaic",
        }
    }
}

/// Every manager token the front ends accept (`mosaic-sim --manager`, a
/// campaign's `managers`), with the manager it names and whether it runs
/// with the Ideal TLB. One table, so the front ends cannot drift apart.
pub fn manager_tokens() -> [(&'static str, ManagerKind, bool); 8] {
    [
        ("gpu-mmu", ManagerKind::GpuMmu4K, false),
        ("gpu-mmu-2m", ManagerKind::GpuMmu2M, false),
        ("mosaic", ManagerKind::mosaic(), false),
        ("mosaic-nocac", ManagerKind::Mosaic(CacConfig::disabled()), false),
        ("mosaic-bc", ManagerKind::Mosaic(CacConfig::with_bulk_copy()), false),
        ("mosaic-ideal", ManagerKind::Mosaic(CacConfig::ideal()), false),
        ("migrating", ManagerKind::migrating(), false),
        ("ideal-tlb", ManagerKind::GpuMmu4K, true),
    ]
}

/// How pages reach GPU memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandPagingMode {
    /// Pages fault in on first touch; far-faults cross the I/O bus at the
    /// manager's transfer granularity.
    OnDemand,
    /// All reserved pages are resident before cycle 0 at no charge — the
    /// "no demand paging overhead" idealization used by Figures 3, 4
    /// and 12.
    PreloadedFree,
}

/// The simulated system (Table 1) plus experiment knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of SMs (Table 1: 30).
    pub sm_count: usize,
    /// Per-SM L1 TLB geometry.
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Per-SM L1 data cache.
    pub l1_cache: CacheConfig,
    /// One shared-L2 slice per memory partition.
    pub l2_cache_slice: CacheConfig,
    /// SM-to-partition crossbar.
    pub xbar: CrossbarConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// Concurrent page-table walks (Table 1 baseline: 64).
    pub walker_threads: usize,
    /// Page-walk cache entries; `0` disables it (the paper's baseline
    /// replaces it with the shared L2 TLB, Section 3.1).
    pub walk_cache_entries: usize,
    /// System I/O bus.
    pub iobus: IoBusConfig,
    /// GPU physical memory in bytes.
    pub memory_bytes: u64,
    /// When `true`, every translation behaves as an L1 TLB hit (the
    /// paper's Ideal TLB reference).
    pub ideal_tlb: bool,
}

impl SystemConfig {
    /// The paper's configuration (Table 1), with 3 GB of memory.
    pub fn paper() -> Self {
        SystemConfig {
            sm_count: 30,
            l1_tlb: TlbConfig::paper_l1(),
            l2_tlb: TlbConfig::paper_l2(),
            l1_cache: CacheConfig::paper_l1(),
            l2_cache_slice: CacheConfig::paper_l2_slice(),
            xbar: CrossbarConfig::paper(),
            dram: DramConfig::paper(),
            walker_threads: 64,
            walk_cache_entries: 0,
            iobus: IoBusConfig::paper(),
            memory_bytes: 3 * 1024 * 1024 * 1024,
            ideal_tlb: false,
        }
    }

    /// The paper configuration with physical memory *and I/O-bus transfer
    /// times* scaled to match a workload scale divisor: working sets,
    /// memory, and far-fault costs shrink together, preserving the
    /// execution-to-transfer ratio the demand-paging experiments measure.
    pub fn paper_scaled(ws_divisor: u32) -> Self {
        Self::paper().scaled(ws_divisor)
    }

    /// This configuration with [`SystemConfig::paper_scaled`]'s memory
    /// size and I/O-bus transfer times.
    fn scaled(self, ws_divisor: u32) -> Self {
        let memory_bytes = (3 * 1024 * 1024 * 1024) / u64::from(ws_divisor.max(1));
        SystemConfig { memory_bytes, iobus: IoBusConfig::scaled(ws_divisor), ..self }
    }
}

/// The multi-GPU fleet: how many devices, how they are wired together,
/// and how pages are placed across them.
///
/// Each GPU in the fleet replicates the full single-GPU stack of
/// [`SystemConfig`] — its SMs, L1/L2 TLBs, walkers, caches, and DRAM —
/// so a fleet of `n` weak-scales the machine to `n × sm_count` SMs and
/// `n × memory_bytes` of physical memory. A warp access resolving to a
/// frame owned by another device crosses the inter-GPU interconnect and
/// is charged to the `remote` (and possibly `migrate`) stall buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of GPUs (1 = the classic single-GPU machine).
    pub gpus: usize,
    /// The inter-GPU link fabric.
    pub interconnect: InterconnectConfig,
    /// How pages are placed across devices.
    pub placement: PlacementPolicy,
}

impl FleetConfig {
    /// The single-GPU machine every experiment ran on before the fleet
    /// existed; output-isomorphic to the pre-fleet simulator.
    pub fn single() -> Self {
        FleetConfig {
            gpus: 1,
            interconnect: InterconnectConfig::paper(),
            placement: PlacementPolicy::FirstTouch,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::single()
    }
}

/// Everything one simulation run needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The simulated system.
    pub system: SystemConfig,
    /// Workload scaling.
    pub scale: ScaleConfig,
    /// Which manager to run.
    pub manager: ManagerKind,
    /// The multi-GPU fleet (defaults to a single GPU).
    pub fleet: FleetConfig,
    /// Demand paging mode.
    pub paging: DemandPagingMode,
    /// Master seed (workload streams, fragmentation).
    pub seed: u64,
    /// Optional pre-fragmentation `(fragmentation_index, occupancy)` for
    /// the Section 6.4 stress tests (Mosaic only).
    pub fragmentation: Option<(f64, f64)>,
    /// Optional memory oversubscription factor (working set ÷ GPU
    /// memory). `Some(2.0)` shrinks GPU memory to half the workload's
    /// total reservation (rounded up to a whole large frame), forcing the
    /// demand-paging engine to evict and write back under pressure.
    /// Requires [`DemandPagingMode::OnDemand`].
    pub oversubscription: Option<f64>,
    /// Runtime invariant auditing: sweep every component's invariants
    /// (frame conservation, ownership agreement, TLB coherence — see
    /// `GpuSystem::audit`) each time the simulation crosses this many
    /// cycles, panicking on the first violation. `None` applies the
    /// default: every [`RunConfig::DEFAULT_AUDIT_EVERY`] cycles in builds
    /// with debug assertions, never in release builds (enable there with
    /// the runner's `--audit` flag). `Some(0)` disables auditing outright.
    pub audit_every: Option<u64>,
}

impl RunConfig {
    /// Default audit cadence (in cycles) for builds with debug assertions.
    pub const DEFAULT_AUDIT_EVERY: u64 = 100_000;

    /// A default on-demand run of `manager` at the default scale.
    pub fn new(manager: ManagerKind) -> Self {
        let scale = ScaleConfig::default();
        RunConfig {
            system: SystemConfig::paper_scaled(scale.ws_divisor),
            scale,
            manager,
            fleet: FleetConfig::single(),
            paging: DemandPagingMode::OnDemand,
            seed: 42,
            fragmentation: None,
            oversubscription: None,
            audit_every: None,
        }
    }

    /// Same run with invariant audits every `cycles` cycles (`0` disables
    /// auditing even in debug builds).
    pub fn audited(mut self, cycles: u64) -> Self {
        self.audit_every = Some(cycles);
        self
    }

    /// The audit cadence in effect for this build: the explicit setting if
    /// present, else the debug-build default.
    pub fn effective_audit_every(&self) -> Option<u64> {
        match self.audit_every {
            Some(0) => None,
            Some(n) => Some(n),
            None if cfg!(debug_assertions) => Some(Self::DEFAULT_AUDIT_EVERY),
            None => None,
        }
    }

    /// Same run scaled out to a fleet of `gpus` devices wired by
    /// `topology`. GPU count and SM count weak-scale together: the fleet
    /// has `gpus × sm_count` SMs and `gpus ×` the physical memory.
    /// Placement defaults to first-touch; override it with
    /// [`RunConfig::with_placement`].
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero or exceeds
    /// [`MAX_GPUS`].
    pub fn multi_gpu(mut self, gpus: usize, topology: Topology) -> Self {
        assert!((1..=MAX_GPUS).contains(&gpus), "fleet size {gpus} out of range 1..={MAX_GPUS}");
        self.fleet.gpus = gpus;
        self.fleet.interconnect.topology = topology;
        self
    }

    /// Same run with a different page-placement policy for the fleet.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.fleet.placement = placement;
        self
    }

    /// Total SMs across the fleet (`gpus × sm_count`): the machine size
    /// the runner partitions across applications.
    pub fn total_sms(&self) -> usize {
        self.fleet.gpus * self.system.sm_count
    }

    /// The run's manager as the reports, progress lines and traces name
    /// it: `Ideal TLB` for an ideal-TLB run, else the manager's
    /// [`ManagerKind::label`].
    pub fn manager_label(&self) -> &'static str {
        if self.system.ideal_tlb {
            "Ideal TLB"
        } else {
            self.manager.label()
        }
    }

    /// Same run with the Ideal TLB reference enabled.
    pub fn ideal_tlb(mut self) -> Self {
        self.system.ideal_tlb = true;
        self
    }

    /// Same run with free preloading ("no demand paging overhead").
    pub fn preloaded(mut self) -> Self {
        self.paging = DemandPagingMode::PreloadedFree;
        self
    }

    /// Same run with GPU memory shrunk so the workload oversubscribes it
    /// by `factor` (e.g. `2.0` = working set twice the GPU memory). The
    /// runner derives the actual memory size from the workload's
    /// reservations at launch.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn oversubscribed(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "oversubscription factor must be >= 1.0, got {factor}");
        self.oversubscription = Some(factor);
        self
    }

    /// Same run at a different scale (system memory follows).
    pub fn with_scale(mut self, scale: ScaleConfig) -> Self {
        self.scale = scale;
        self.system = self.system.scaled(scale.ws_divisor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_1() {
        let c = SystemConfig::paper();
        assert_eq!(c.sm_count, 30);
        assert_eq!(c.dram.core_clock_mhz, 1020.0, "DRAM timing in core cycles");
        assert_eq!(c.iobus.core_clock_mhz, 1020.0, "I/O-bus timing in core cycles");
        assert_eq!(c.l1_tlb.base_entries, 128);
        assert_eq!(c.l1_tlb.large_entries, 16);
        assert_eq!(c.l2_tlb.base_entries, 512);
        assert_eq!(c.l2_tlb.large_entries, 256);
        assert_eq!(c.dram.channels, 6);
        assert_eq!(c.dram.banks_per_channel, 16, "two ranks of eight banks");
        assert_eq!(c.walker_threads, 64);
        assert_eq!(c.walk_cache_entries, 0, "baseline uses a shared L2 TLB instead");
        assert_eq!(c.memory_bytes, 3 * 1024 * 1024 * 1024);
    }

    #[test]
    fn scaled_memory_follows_divisor() {
        let c = SystemConfig::paper_scaled(16);
        assert_eq!(c.memory_bytes, 192 * 1024 * 1024);
    }

    #[test]
    fn manager_labels() {
        assert_eq!(ManagerKind::GpuMmu4K.label(), "GPU-MMU");
        assert_eq!(ManagerKind::mosaic().label(), "Mosaic");
        assert_eq!(ManagerKind::Mosaic(CacConfig::disabled()).label(), "Mosaic (no CAC)");
        assert_eq!(ManagerKind::Mosaic(CacConfig::ideal()).label(), "Mosaic (Ideal CAC)");
        assert_eq!(ManagerKind::Mosaic(CacConfig::with_bulk_copy()).label(), "Mosaic (CAC-BC)");
    }

    #[test]
    fn run_config_builders_compose() {
        let r = RunConfig::new(ManagerKind::GpuMmu4K).ideal_tlb().preloaded();
        assert!(r.system.ideal_tlb);
        assert_eq!(r.paging, DemandPagingMode::PreloadedFree);
    }

    #[test]
    fn oversubscription_builder_sets_the_factor() {
        let r = RunConfig::new(ManagerKind::GpuMmu4K).oversubscribed(2.0);
        assert_eq!(r.oversubscription, Some(2.0));
        assert!(RunConfig::new(ManagerKind::GpuMmu4K).oversubscription.is_none());
    }

    #[test]
    #[should_panic(expected = "oversubscription factor")]
    fn oversubscription_below_one_is_rejected() {
        let _ = RunConfig::new(ManagerKind::GpuMmu4K).oversubscribed(0.5);
    }

    #[test]
    fn fleet_defaults_to_one_gpu_and_builders_compose() {
        let base = RunConfig::new(ManagerKind::GpuMmu4K);
        assert_eq!(base.fleet, FleetConfig::single());
        assert_eq!(base.fleet.gpus, 1);
        let r = base
            .multi_gpu(4, Topology::Ring)
            .with_placement(PlacementPolicy::MigrateOnThreshold { threshold: 8 });
        assert_eq!(r.fleet.gpus, 4);
        assert_eq!(r.fleet.interconnect.topology, Topology::Ring);
        assert_eq!(r.fleet.placement, PlacementPolicy::MigrateOnThreshold { threshold: 8 });
        // The rest of the fleet config keeps the paper link parameters.
        assert_eq!(r.fleet.interconnect.link_latency, InterconnectConfig::paper().link_latency);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_fleet_is_rejected() {
        let _ = RunConfig::new(ManagerKind::GpuMmu4K).multi_gpu(0, Topology::FullyConnected);
    }
}
