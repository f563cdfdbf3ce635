//! The inter-GPU interconnect.
//!
//! In a multi-GPU fleet a warp access can resolve to a frame owned by
//! another device; the request (and any migration or replication traffic)
//! then crosses an inter-GPU link fabric — NVLink-class point-to-point
//! links rather than the on-chip crossbar. We model each directed link as
//! a [`ThroughputPort`]: a fixed per-hop traversal latency plus a flit
//! serialization interval, so many-to-one bursts queue at the congested
//! link exactly like partition camping queues at the crossbar.
//!
//! Two topologies are modeled. `FullyConnected` gives every ordered GPU
//! pair a dedicated link (one hop). `Ring` connects each GPU to its two
//! neighbours; a message takes the shorter direction (ties go clockwise)
//! and occupies every link on its path, store-and-forward.
//!
//! Every message has two prices. The contended methods
//! ([`Interconnect::traverse`], [`Interconnect::transfer`]) book the
//! links' ports. The nominal methods ([`Interconnect::traverse_nominal`],
//! [`Interconnect::transfer_nominal`]) charge the uncontended wire time
//! and leave the ports alone; the simulator uses them for lookahead
//! isolation, when a request starts so far in the simulated future that
//! booking a port would make earlier requests queue behind it. Both
//! count their bytes into [`Interconnect::bytes`].

use mosaic_sim_core::{Counter, Cycle, ThroughputPort};

/// Bytes carried by one interconnect flit (one cache line).
pub const FLIT_BYTES: u64 = 128;

/// How the GPUs of a fleet are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// A dedicated directed link between every ordered pair of GPUs.
    #[default]
    FullyConnected,
    /// Each GPU links to its two neighbours; messages take the shorter
    /// direction around the ring (ties go clockwise).
    Ring,
}

impl Topology {
    /// Number of hops a message from `from` to `to` takes in a fleet of
    /// `gpus` devices (zero when local). Indices wrap modulo `gpus`, as
    /// the interconnect's routes do.
    pub fn hops(self, from: usize, to: usize, gpus: usize) -> u64 {
        let (from, to) = (from % gpus, to % gpus);
        if from == to {
            return 0;
        }
        match self {
            Topology::FullyConnected => 1,
            Topology::Ring => {
                let cw = (to + gpus - from) % gpus;
                let ccw = gpus - cw;
                cw.min(ccw) as u64
            }
        }
    }
}

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// One-way traversal latency of a single link, in core cycles.
    pub link_latency: u64,
    /// Cycles between successive flit injections on one link (the
    /// bandwidth knob: 128 B every `cycles_per_flit` cycles).
    pub cycles_per_flit: u64,
    /// How the fleet is wired.
    pub topology: Topology,
}

impl InterconnectConfig {
    /// NVLink-class defaults: ~120-cycle hop latency and a quarter of
    /// local DRAM-bus bandwidth (one 128 B flit every 4 cycles).
    pub fn paper() -> Self {
        InterconnectConfig {
            link_latency: 120,
            cycles_per_flit: 4,
            topology: Topology::FullyConnected,
        }
    }
}

/// The link fabric of one fleet: per-directed-link injection ports plus
/// fixed per-hop latency, with a contended and a nominal (port-free)
/// price for every message.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Interconnect, InterconnectConfig};
/// use mosaic_sim_core::Cycle;
///
/// let mut icn = Interconnect::new(InterconnectConfig::paper(), 2);
/// let arrival = icn.traverse(Cycle::new(0), 0, 1);
/// assert_eq!(arrival, Cycle::new(120));
/// // Local "traversals" are free: no hop, no flit.
/// assert_eq!(icn.traverse(Cycle::new(7), 1, 1), Cycle::new(7));
/// // The nominal price of the same hop ignores the flit queued above.
/// assert_eq!(icn.traverse_nominal(Cycle::new(0), 0, 1), Cycle::new(120));
/// assert_eq!(icn.bytes(), 256, "both flits are counted");
/// ```
#[derive(Debug)]
pub struct Interconnect {
    config: InterconnectConfig,
    gpus: usize,
    /// Directed-link ports, indexed `src * gpus + dst`. Ring routes only
    /// ever use neighbour entries; the rest stay idle.
    ports: Vec<ThroughputPort>,
    bytes: Counter,
}

impl Interconnect {
    /// Creates an idle interconnect for a fleet of `gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn new(config: InterconnectConfig, gpus: usize) -> Self {
        assert!(gpus > 0, "a fleet needs at least one GPU");
        Interconnect {
            config,
            gpus,
            ports: (0..gpus * gpus)
                .map(|_| {
                    ThroughputPort::pipelined(
                        config.link_latency.max(1),
                        config.cycles_per_flit.max(1),
                    )
                })
                .collect(),
            bytes: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InterconnectConfig {
        &self.config
    }

    /// The directed links of the path from `from` to `to`, as port
    /// indices in traversal order (empty when local). Allocation-free:
    /// the path is [`Topology::hops`] long, and each hop advances a fixed
    /// stride around the index space — straight to `to` when fully
    /// connected, one neighbour clockwise (or counter-clockwise when that
    /// way is strictly shorter) on a ring.
    fn route(&self, from: usize, to: usize) -> impl Iterator<Item = usize> {
        let n = self.gpus;
        let from = from % n;
        let hops = self.config.topology.hops(from, to, n);
        let cw = (to % n + n - from) % n;
        let stride = match self.config.topology {
            Topology::FullyConnected => cw,
            Topology::Ring if hops == cw as u64 => 1,
            Topology::Ring => n - 1,
        };
        (0..hops).scan(from, move |at, _| {
            let next = (*at + stride) % n;
            let link = *at * n + next;
            *at = next;
            Some(link)
        })
    }

    /// Sends one flit (a cache-line request) from GPU `from` to GPU `to`
    /// starting at `now`; returns the cycle it arrives. Local traffic
    /// (`from == to`) never touches a link and arrives immediately.
    pub fn traverse(&mut self, now: Cycle, from: usize, to: usize) -> Cycle {
        let mut at = now;
        for link in self.route(from, to) {
            self.bytes.add(FLIT_BYTES);
            at = self.ports[link].acquire(at).start + self.config.link_latency;
        }
        at
    }

    /// Moves `bytes` of page payload from GPU `from` to GPU `to` starting
    /// at `now` (migration or replication traffic); returns the cycle the
    /// last flit lands. The payload is injected flit by flit, so it
    /// occupies every link on the path for its full wire time,
    /// store-and-forward per hop. Each hop books its flits as one
    /// [`ThroughputPort::acquire_train`], so the cost is per hop, not per
    /// flit.
    pub fn transfer(&mut self, now: Cycle, from: usize, to: usize, bytes: u64) -> Cycle {
        let flits = bytes.div_ceil(FLIT_BYTES).max(1);
        let mut at = now;
        for link in self.route(from, to) {
            let (_, last_start) = self.ports[link].acquire_train(at, flits);
            self.bytes.add(flits * FLIT_BYTES);
            at = last_start + self.config.link_latency;
        }
        at
    }

    /// The nominal price of [`Self::traverse`]: `link_latency.max(1)` per
    /// hop, without booking any link. The flit's bytes still count.
    pub fn traverse_nominal(&mut self, now: Cycle, from: usize, to: usize) -> Cycle {
        let hops = self.config.topology.hops(from, to, self.gpus);
        self.bytes.add(hops * FLIT_BYTES);
        now + hops * self.config.link_latency.max(1)
    }

    /// The nominal price of [`Self::transfer`]: `link_latency.max(1)` per
    /// hop plus one `(flits − 1) × cycles_per_flit.max(1)` serialization
    /// train for the whole path, without booking any link. The contended
    /// path pays the train on every hop (store-and-forward); the nominal
    /// one pays it once. The payload's bytes count on every hop, as they
    /// do on the contended path.
    pub fn transfer_nominal(&mut self, now: Cycle, from: usize, to: usize, bytes: u64) -> Cycle {
        let flits = bytes.div_ceil(FLIT_BYTES).max(1);
        let hops = self.config.topology.hops(from, to, self.gpus);
        self.bytes.add(hops * flits * FLIT_BYTES);
        now + hops * self.config.link_latency.max(1)
            + (flits - 1) * self.config.cycles_per_flit.max(1)
    }

    /// Total bytes carried across all links, on the contended and the
    /// nominal paths.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(topology: Topology) -> InterconnectConfig {
        InterconnectConfig { link_latency: 100, cycles_per_flit: 4, topology }
    }

    #[test]
    fn local_traffic_is_free() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 4);
        assert_eq!(icn.traverse(Cycle::new(42), 2, 2), Cycle::new(42));
        assert_eq!(icn.transfer(Cycle::new(42), 2, 2, 1 << 21), Cycle::new(42));
        assert_eq!(icn.bytes(), 0);
    }

    #[test]
    fn uncontended_hop_takes_link_latency() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        assert_eq!(icn.traverse(Cycle::new(10), 0, 1), Cycle::new(110));
        assert_eq!(icn.bytes(), FLIT_BYTES);
    }

    #[test]
    fn same_link_serializes_injection() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        let a = icn.traverse(Cycle::new(0), 0, 1);
        let b = icn.traverse(Cycle::new(0), 0, 1);
        assert_eq!(a, Cycle::new(100));
        assert_eq!(b, Cycle::new(104), "second flit injects one interval later");
        // The reverse direction is a different link: no contention.
        assert_eq!(icn.traverse(Cycle::new(0), 1, 0), Cycle::new(100));
    }

    #[test]
    fn ring_takes_the_shorter_direction() {
        assert_eq!(Topology::Ring.hops(0, 1, 4), 1);
        assert_eq!(Topology::Ring.hops(0, 3, 4), 1, "wraps backwards");
        assert_eq!(Topology::Ring.hops(0, 2, 4), 2, "opposite corner is two hops");
        assert_eq!(Topology::FullyConnected.hops(0, 2, 4), 1);
        assert_eq!(Topology::Ring.hops(3, 3, 4), 0);
        let mut icn = Interconnect::new(cfg(Topology::Ring), 4);
        assert_eq!(
            icn.traverse(Cycle::new(0), 0, 2),
            Cycle::new(200),
            "two store-and-forward hops"
        );
    }

    #[test]
    fn bulk_transfer_pays_wire_time() {
        let mut icn = Interconnect::new(cfg(Topology::FullyConnected), 2);
        // 1024 B = 8 flits: first lands at 100, each later flit 4 cycles
        // apart, so the last lands at 100 + 7*4.
        assert_eq!(icn.transfer(Cycle::new(0), 0, 1, 1024), Cycle::new(128));
        assert_eq!(icn.bytes(), 1024);
        // And the link stays occupied: a flit right behind it queues.
        let after = icn.traverse(Cycle::new(0), 0, 1);
        assert_eq!(after, Cycle::new(132));
    }

    /// The nominal prices are pinned arithmetic: `link_latency.max(1)`
    /// per hop, one `(flits − 1) × cycles_per_flit.max(1)` train per
    /// payload whatever the hop count, and every hop's bytes counted.
    #[test]
    fn nominal_prices_are_pinned() {
        const PAGE: u64 = 2 << 20;
        let train = (PAGE / FLIT_BYTES - 1) * 4;
        let mut full = Interconnect::new(cfg(Topology::FullyConnected), 4);
        assert_eq!(full.traverse_nominal(Cycle::new(10), 0, 3), Cycle::new(110));
        assert_eq!(full.transfer_nominal(Cycle::new(0), 1, 2, PAGE), Cycle::new(100 + train));
        assert_eq!(full.traverse_nominal(Cycle::new(10), 2, 2), Cycle::new(10), "local");
        assert_eq!(full.bytes(), FLIT_BYTES + PAGE);

        let mut ring = Interconnect::new(cfg(Topology::Ring), 4);
        assert_eq!(ring.traverse_nominal(Cycle::new(0), 0, 2), Cycle::new(200), "two hops");
        assert_eq!(ring.traverse_nominal(Cycle::new(5), 0, 3), Cycle::new(105), "wraps back");
        assert_eq!(
            ring.transfer_nominal(Cycle::new(0), 0, 2, PAGE),
            Cycle::new(200 + train),
            "the train is paid once, not per hop"
        );
        assert_eq!(ring.bytes(), 3 * FLIT_BYTES + 2 * PAGE);

        // Zero-cycle links and flit intervals still cost a cycle each.
        let zero =
            InterconnectConfig { link_latency: 0, cycles_per_flit: 0, ..cfg(Topology::Ring) };
        let mut zero = Interconnect::new(zero, 4);
        assert_eq!(zero.traverse_nominal(Cycle::new(0), 0, 2), Cycle::new(2));
        assert_eq!(
            zero.transfer_nominal(Cycle::new(0), 0, 2, PAGE),
            Cycle::new(2 + PAGE / FLIT_BYTES - 1)
        );
    }

    /// Nominal traffic books no link: a contended flit issued afterwards
    /// at an earlier cycle crosses idle links. Had the payload been
    /// booked, the same flit would queue behind it.
    #[test]
    fn nominal_traffic_leaves_links_idle() {
        let mut icn = Interconnect::new(cfg(Topology::Ring), 4);
        icn.transfer_nominal(Cycle::new(1_000), 0, 2, 2 << 20);
        icn.traverse_nominal(Cycle::new(1_000), 0, 2);
        assert_eq!(icn.traverse(Cycle::new(0), 0, 2), Cycle::new(200));

        let mut booked = Interconnect::new(cfg(Topology::Ring), 4);
        booked.transfer(Cycle::new(1_000), 0, 2, 2 << 20);
        assert!(booked.traverse(Cycle::new(0), 0, 2) > Cycle::new(200));
    }

    #[test]
    fn gpu_index_wraps() {
        let mut icn = Interconnect::new(cfg(Topology::Ring), 2);
        // GPU 5 wraps to index 1; no panic.
        let _ = icn.traverse(Cycle::new(0), 5, 0);
        // `hops` wraps the same way instead of underflowing.
        assert_eq!(Topology::Ring.hops(5, 0, 2), 1);
        assert_eq!(Topology::FullyConnected.hops(5, 1, 4), 0, "5 wraps onto 1");
    }

    /// The Vec-building route the allocation-free iterator replaced:
    /// walk the shorter direction (ties clockwise) link by link.
    fn reference_route(n: usize, topology: Topology, from: usize, to: usize) -> Vec<usize> {
        let (from, to) = (from % n, to % n);
        if from == to {
            return Vec::new();
        }
        match topology {
            Topology::FullyConnected => vec![from * n + to],
            Topology::Ring => {
                let cw = (to + n - from) % n;
                let ccw = n - cw;
                let mut links = Vec::new();
                let mut at = from;
                for _ in 0..cw.min(ccw) {
                    let next = if cw <= ccw { (at + 1) % n } else { (at + n - 1) % n };
                    links.push(at * n + next);
                    at = next;
                }
                links
            }
        }
    }

    /// Every `(from, to)` pair — including indices past the fleet size,
    /// which wrap — on both topologies for fleets of 1..=8: the route is
    /// the reference path and exactly `hops` long, so the contended
    /// (`traverse`) and nominal (`traverse_nominal`) paths agree on a
    /// path's length.
    #[test]
    fn route_and_hops_agree_for_every_pair() {
        for topology in [Topology::FullyConnected, Topology::Ring] {
            for n in 1..=8 {
                let icn = Interconnect::new(cfg(topology), n);
                for from in 0..2 * n {
                    for to in 0..2 * n {
                        let route: Vec<usize> = icn.route(from, to).collect();
                        assert_eq!(route, reference_route(n, topology, from, to));
                        assert_eq!(route.len() as u64, topology.hops(from, to, n));
                        if let Some(&last) = route.last() {
                            assert_eq!(route[0] / n, from % n, "path starts at the source");
                            assert_eq!(last % n, to % n, "path ends at the destination");
                        }
                    }
                }
            }
        }
    }

    /// The per-flit transfer loop the closed-form train replaced.
    fn reference_transfer(
        icn: &mut Interconnect,
        now: Cycle,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Cycle {
        let flits = bytes.div_ceil(FLIT_BYTES).max(1);
        let mut at = now;
        for link in reference_route(icn.gpus, icn.config.topology, from, to) {
            let mut last = Cycle::ZERO;
            for _ in 0..flits {
                let grant = icn.ports[link].acquire(at);
                last = last.max(grant.start + icn.config.link_latency);
            }
            icn.bytes.add(flits * FLIT_BYTES);
            at = last;
        }
        at
    }

    /// `transfer` is isomorphic to the per-flit reference over seeded
    /// random interleavings of request flits and bulk payloads: same
    /// arrival cycles and byte counts. The mix must contend: some request
    /// flit lands later than it would on idle links.
    #[test]
    fn transfer_matches_per_flit_reference() {
        use mosaic_sim_core::SimRng;
        let mut rng = SimRng::from_seed(0x1C0_F117);
        for topology in [Topology::FullyConnected, Topology::Ring] {
            for gpus in [2, 3, 4, 5] {
                let mut fast = Interconnect::new(cfg(topology), gpus);
                let mut slow = Interconnect::new(cfg(topology), gpus);
                let mut now = Cycle::ZERO;
                let mut contended = false;
                for _ in 0..300 {
                    now += rng.below(60);
                    let from = rng.below(gpus as u64) as usize;
                    let to = rng.below(gpus as u64) as usize;
                    let (a, b) = if rng.chance(0.7) {
                        let a = fast.traverse(now, from, to);
                        contended |= a > now + topology.hops(from, to, gpus) * 100;
                        (a, slow.traverse(now, from, to))
                    } else {
                        let bytes = rng.below(64 * FLIT_BYTES);
                        (
                            fast.transfer(now, from, to, bytes),
                            reference_transfer(&mut slow, now, from, to, bytes),
                        )
                    };
                    assert_eq!(a, b, "arrival cycle");
                }
                assert_eq!(fast.bytes(), slow.bytes());
                assert!(contended, "the mix must contend");
            }
        }
    }
}
