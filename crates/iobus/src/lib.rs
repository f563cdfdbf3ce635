//! System I/O (PCIe) bus model for GPU demand paging.
//!
//! When a GPU thread touches a page that is not resident in GPU memory,
//! the resulting *far-fault* transfers the page from CPU memory over the
//! system I/O bus (Section 2.2). The paper calibrates this path against a
//! real GTX 1080: a 4 KB base-page fault has a **55 µs** load-to-use
//! latency and a 2 MB large-page fault **318 µs** (Section 3.2) — the six-
//! fold gap that makes large-page demand paging untenable and motivates
//! Mosaic's "transfer at base-page granularity" design.
//!
//! The model is a serialized latency + bandwidth queue fitted through those
//! two measured points: completion = start + `base_latency` + `bytes`/`bandwidth`,
//! where consecutive transfers pipeline at the bandwidth term but share the
//! single bus. The paper's "no demand paging overhead" runs preload every
//! page (`DemandPagingMode::PreloadedFree`); they are not a bus mode.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mosaic_sim_core::{ClockDomain, Counter, Cycle, Histogram, Nanos, ThroughputPort};

/// I/O bus parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoBusConfig {
    /// Fixed per-fault latency (fault handling, round trip), in ns.
    pub base_latency: Nanos,
    /// Sustained transfer bandwidth in bytes per nanosecond (= GB/s).
    pub bytes_per_ns: f64,
    /// Minimum bus occupancy per transfer (command overhead), in ns.
    pub issue_overhead: Nanos,
    /// Core clock for converting to shader cycles.
    pub core_clock_mhz: f64,
}

impl IoBusConfig {
    /// Calibrated to the paper's GTX 1080 measurements: 55 µs per 4 KB
    /// fault and 318 µs per 2 MB fault.
    ///
    /// Solving `base + 4096/bw = 55 µs` and `base + 2 MiB/bw = 318 µs`
    /// gives `bw ≈ 7.96 GB/s` and `base ≈ 54.49 µs`.
    pub fn paper() -> Self {
        let bw = (2_097_152.0 - 4_096.0) / (318_000.0 - 55_000.0); // bytes per ns
        let base = 55_000.0 - 4_096.0 / bw;
        IoBusConfig {
            base_latency: Nanos(base),
            bytes_per_ns: bw,
            issue_overhead: Nanos(1_000.0),
            core_clock_mhz: 1020.0,
        }
    }

    /// The paper configuration with all transfer times divided by
    /// `divisor`.
    ///
    /// Experiments shrink application working sets by a divisor to keep
    /// simulations tractable; scaling the I/O bus by the same factor
    /// preserves the paper's execution-time-to-transfer-time ratio (a page
    /// is faulted once but executed against many times), which is what
    /// Figures 4 and 12 measure. `scaled(1)` is exactly [`Self::paper`].
    pub fn scaled(divisor: u32) -> Self {
        let d = f64::from(divisor.max(1));
        let p = Self::paper();
        IoBusConfig {
            // The fixed fault-handling latency scales with the run-length
            // compression; wire time scales only half as fast, because
            // the *bytes per fault* are not scaled (a large-page fault
            // still moves a real 2 MB) — only the number of faults is.
            // This keeps the paper's brutal large-page transfer cost
            // visible at reduced scale.
            base_latency: Nanos(p.base_latency.0 / d),
            bytes_per_ns: p.bytes_per_ns * (d / 2.0).max(1.0),
            issue_overhead: Nanos(p.issue_overhead.0 / (2.0 * d)),
            ..p
        }
    }

    /// Load-to-use latency of an uncontended transfer of `bytes`.
    pub fn uncontended_latency(&self, bytes: u64) -> Nanos {
        Nanos(self.base_latency.0 + bytes as f64 / self.bytes_per_ns)
    }
}

/// The system I/O bus: one shared, serialized transfer engine.
///
/// # Examples
///
/// ```
/// use mosaic_iobus::{IoBus, IoBusConfig};
/// use mosaic_sim_core::Cycle;
///
/// let mut bus = IoBus::new(IoBusConfig::paper());
/// let done = bus.transfer(Cycle::new(0), 4096);
/// // 55 us at 1020 MHz ≈ 56,100 core cycles.
/// assert!((done.as_u64() as f64 - 56_100.0).abs() / 56_100.0 < 0.01);
/// ```
#[derive(Debug)]
pub struct IoBus {
    config: IoBusConfig,
    clock: ClockDomain,
    port: ThroughputPort,
    transfers: Counter,
    bytes: Counter,
    queue: Histogram,
    service: Histogram,
}

impl IoBus {
    /// Creates an idle bus.
    pub fn new(config: IoBusConfig) -> Self {
        let clock = ClockDomain::from_mhz(config.core_clock_mhz);
        IoBus {
            config,
            clock,
            port: ThroughputPort::serialized(1),
            transfers: Counter::new(),
            bytes: Counter::new(),
            queue: Histogram::default(),
            service: Histogram::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IoBusConfig {
        &self.config
    }

    /// Transfers `bytes` over the bus for a fault observed at `now`;
    /// returns the load-to-use completion cycle.
    ///
    /// The bus is occupied for the bandwidth portion of the transfer (plus
    /// command overhead); the fixed fault-handling latency pipelines across
    /// transfers.
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.transfers.inc();
        self.bytes.add(bytes);
        let wire_ns = bytes as f64 / self.config.bytes_per_ns;
        let occupy = self.clock.cycles_for(Nanos(wire_ns.max(self.config.issue_overhead.0))).max(1);
        let grant = self.port.acquire_for(now, occupy);
        let done = grant.start
            + self.clock.cycles_for(Nanos(wire_ns))
            + self.clock.cycles_for(self.config.base_latency);
        self.queue.record(grant.start.since(now));
        self.service.record(done.since(grant.start));
        done
    }

    /// Number of transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers.get()
    }

    /// Total bytes moved over the bus.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Distribution of time spent waiting for the bus (fault observed to
    /// transfer granted), in core cycles.
    pub fn queue(&self) -> &Histogram {
        &self.queue
    }

    /// Distribution of pure transfer time (grant to completion: wire plus
    /// the fixed fault-handling latency), in core cycles.
    pub fn service(&self) -> &Histogram {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_vm_geometry::*;

    /// Local copies of the page sizes to avoid a dependency cycle.
    mod mosaic_vm_geometry {
        pub const BASE_PAGE: u64 = 4096;
        pub const LARGE_PAGE: u64 = 2 * 1024 * 1024;
    }

    #[test]
    fn calibration_matches_paper_measurements() {
        let cfg = IoBusConfig::paper();
        let base = cfg.uncontended_latency(BASE_PAGE).as_micros();
        let large = cfg.uncontended_latency(LARGE_PAGE).as_micros();
        assert!((base - 55.0).abs() < 0.5, "4KB fault should be ~55us, got {base}");
        assert!((large - 318.0).abs() < 1.0, "2MB fault should be ~318us, got {large}");
        // The six-fold ratio the paper highlights.
        assert!((large / base - 318.0 / 55.0).abs() < 0.1);
    }

    #[test]
    fn transfers_serialize_on_bandwidth() {
        let mut bus = IoBus::new(IoBusConfig::paper());
        let a = bus.transfer(Cycle::new(0), LARGE_PAGE);
        let b = bus.transfer(Cycle::new(0), LARGE_PAGE);
        // The second 2 MB transfer waits for the first's wire time
        // (~263 us) before starting its own.
        assert!(b.since(a) > 200_000, "second transfer delayed by bus occupancy");
        assert_eq!(bus.transfers(), 2);
        assert_eq!(bus.bytes(), 2 * LARGE_PAGE);
    }

    #[test]
    fn small_transfers_pipeline_fixed_latency() {
        let mut bus = IoBus::new(IoBusConfig::paper());
        let a = bus.transfer(Cycle::new(0), BASE_PAGE);
        let b = bus.transfer(Cycle::new(0), BASE_PAGE);
        // Both complete within ~56us + ~1us spacing: the fixed fault
        // latency overlaps; only wire time serializes.
        assert!(b.since(a) < 2_000, "4KB transfers pipeline, got {}", b.since(a));
    }

    #[test]
    fn queue_and_service_histograms_split_contention_from_wire_time() {
        let mut bus = IoBus::new(IoBusConfig::paper());
        bus.transfer(Cycle::new(0), BASE_PAGE);
        bus.transfer(Cycle::new(0), BASE_PAGE);
        assert_eq!(bus.queue().count(), 2);
        assert_eq!(bus.service().count(), 2);
        // The first transfer finds the bus idle; the second waits its turn.
        assert_eq!(bus.queue().min(), Some(0));
        assert!(bus.queue().max().unwrap() > 0, "contended transfer shows queue time");
        // Service time is pure wire + fixed latency: identical payloads
        // take identical service time regardless of queueing.
        assert_eq!(bus.service().min(), bus.service().max());
    }

    #[test]
    fn idle_bus_resets() {
        let mut bus = IoBus::new(IoBusConfig::paper());
        let a = bus.transfer(Cycle::new(0), BASE_PAGE);
        // A fault long after the first sees no queueing.
        let later = a + 10_000_000;
        let b = bus.transfer(later, BASE_PAGE);
        let expect = IoBusConfig::paper().uncontended_latency(BASE_PAGE);
        let clock = ClockDomain::from_mhz(1020.0);
        // Within rounding (wire and base latency are ceiled separately).
        assert!(b.since(later).abs_diff(clock.cycles_for(expect)) <= 2);
    }
}
