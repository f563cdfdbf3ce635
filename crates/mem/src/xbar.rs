//! The SM-to-memory-partition crossbar.
//!
//! Each SM reaches the six shared memory partitions (L2 slice + memory
//! controller) through an interconnect, typically a crossbar (Section 2.1).
//! We model a fixed traversal latency plus a per-partition injection port
//! that serializes line-sized flits, which captures the first-order effect:
//! partition camping and many-to-one bursts queue at the destination.

use mosaic_sim_core::{Cycle, ThroughputPort};

/// Crossbar parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossbarConfig {
    /// Number of destination memory partitions.
    pub partitions: usize,
    /// One-way traversal latency in core cycles.
    pub latency: u64,
    /// Cycles between successive flit injections at one partition.
    pub cycles_per_flit: u64,
}

impl CrossbarConfig {
    /// Six partitions, 4-cycle traversal, one 128 B flit per cycle per
    /// partition — a generous contemporary crossbar.
    pub fn paper() -> Self {
        CrossbarConfig { partitions: 6, latency: 4, cycles_per_flit: 1 }
    }
}

/// The crossbar: per-partition injection ports plus fixed latency.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Crossbar, CrossbarConfig};
/// use mosaic_sim_core::Cycle;
///
/// let mut xbar = Crossbar::new(CrossbarConfig::paper());
/// let arrival = xbar.traverse(Cycle::new(0), 0);
/// assert_eq!(arrival, Cycle::new(4));
/// ```
#[derive(Debug)]
pub struct Crossbar {
    config: CrossbarConfig,
    ports: Vec<ThroughputPort>,
}

impl Crossbar {
    /// Creates an idle crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(config: CrossbarConfig) -> Self {
        assert!(config.partitions > 0, "need at least one partition");
        Crossbar {
            config,
            ports: (0..config.partitions)
                .map(|_| {
                    ThroughputPort::pipelined(config.latency.max(1), config.cycles_per_flit.max(1))
                })
                .collect(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Sends one flit to `partition` starting at `now`; returns the cycle
    /// it arrives at the partition.
    pub fn traverse(&mut self, now: Cycle, partition: usize) -> Cycle {
        let port = &mut self.ports[partition % self.config.partitions];
        port.acquire(now).start + self.config.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_flit_takes_latency() {
        let mut x = Crossbar::new(CrossbarConfig::paper());
        assert_eq!(x.traverse(Cycle::new(10), 3), Cycle::new(14));
    }

    #[test]
    fn same_partition_serializes_injection() {
        let mut x = Crossbar::new(CrossbarConfig { partitions: 2, latency: 4, cycles_per_flit: 2 });
        let a = x.traverse(Cycle::new(0), 0);
        let b = x.traverse(Cycle::new(0), 0);
        assert_eq!(a, Cycle::new(4));
        assert_eq!(b, Cycle::new(6), "second flit injects 2 cycles later");
    }

    #[test]
    fn different_partitions_are_parallel() {
        let mut x = Crossbar::new(CrossbarConfig::paper());
        let a = x.traverse(Cycle::new(0), 0);
        let b = x.traverse(Cycle::new(0), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_index_wraps() {
        let mut x = Crossbar::new(CrossbarConfig { partitions: 2, latency: 1, cycles_per_flit: 1 });
        // Partition 5 wraps to index 1; no panic.
        let _ = x.traverse(Cycle::new(0), 5);
    }
}
