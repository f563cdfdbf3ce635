//! Simulation kernel for the Mosaic reproduction.
//!
//! This crate provides the time base, statistics, deterministic random
//! number generation, and contention-modeling primitives shared by every
//! other crate in the workspace:
//!
//! * [`Cycle`] and [`ClockDomain`] — the cycle-typed time base and
//!   frequency-domain conversions (the simulated GPU runs its cores at
//!   1020 MHz and its GDDR5 interface at 1674 MHz, and the PCIe model is
//!   specified in nanoseconds).
//! * [`stats`] — counters, ratios, and histograms that the memory hierarchy
//!   uses to report hit rates, latencies, and bandwidth.
//! * [`rng`] — seeded, forkable random number generation so that every
//!   experiment in the paper reproduction is bit-deterministic.
//! * [`queue`] — occupancy trackers and throughput ports used to model
//!   contended resources (TLB ports, page-walker slots, DRAM banks, the
//!   system I/O bus) without per-cycle queue simulation.
//! * [`audit`] — the runtime invariant auditor: every structural
//!   component implements [`AuditInvariants`] and the runner sweeps the
//!   whole system every N cycles.
//! * [`fnv1a`] — the one byte-string digest behind every golden report
//!   digest.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod clock;
pub mod queue;
pub mod rng;
pub mod stats;

pub use audit::{AuditInvariants, AuditReport, AuditViolation};
pub use clock::{ClockDomain, Cycle, Nanos};
pub use queue::{OccupancyPool, ThroughputPort};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, Ratio};

/// 64-bit FNV-1a over `bytes`: the digest that pins rendered reports to
/// their golden values. Small and dependency-free; collision resistance
/// is irrelevant here — any change to the input flips the digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
