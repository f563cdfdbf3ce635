//! Contention-modeling primitives.
//!
//! The simulator models contended resources — TLB ports, page-walker
//! threads, DRAM banks, the system I/O bus — with *occupancy tracking*
//! rather than per-cycle queue simulation: a resource remembers when each
//! of its slots next becomes free, and a request acquires the earliest
//! free slot at or after its arrival time. This yields the same queueing
//! delays as an explicit FIFO under in-order service while being far
//! cheaper to simulate, which is what makes sweeping the paper's 235
//! workloads tractable.

use crate::clock::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of `n` identical slots, each serving one request at a time.
///
/// Models resources with finite concurrency, such as the paper's
/// highly-threaded page-table walker (64 concurrent walks) or the MSHRs of
/// a cache.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::{Cycle, OccupancyPool};
///
/// // A 2-slot resource with 10-cycle service time.
/// let mut pool = OccupancyPool::new(2);
/// let a = pool.acquire(Cycle::new(0), 10); // starts at 0, done at 10
/// let b = pool.acquire(Cycle::new(0), 10); // starts at 0, done at 10
/// let c = pool.acquire(Cycle::new(0), 10); // queues: starts at 10
/// assert_eq!(a.start, Cycle::new(0));
/// assert_eq!(b.start, Cycle::new(0));
/// assert_eq!(c.start, Cycle::new(10));
/// assert_eq!(c.done, Cycle::new(20));
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyPool {
    /// Min-heap of cycles at which each busy slot frees up; idle slots are
    /// represented implicitly by `idle` count.
    busy_until: BinaryHeap<Reverse<Cycle>>,
    slots: usize,
}

/// The scheduling decision returned by [`OccupancyPool::acquire`] and
/// [`ThroughputPort::acquire`]: when service starts and when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Cycle at which the request begins service.
    pub start: Cycle,
    /// Cycle at which the request completes service.
    pub done: Cycle,
}

impl OccupancyPool {
    /// Creates a pool with `slots` concurrent slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "an occupancy pool needs at least one slot");
        OccupancyPool { busy_until: BinaryHeap::new(), slots }
    }

    /// Number of slots in the pool.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Acquires a slot for a request arriving at `now` needing `service`
    /// cycles, returning when it starts and completes.
    pub fn acquire(&mut self, now: Cycle, service: u64) -> Grant {
        self.drain_freed(now);
        let start = if self.busy_until.len() < self.slots {
            now
        } else {
            // All slots busy: wait for the earliest one. A zero-slot pool
            // has nothing in flight to wait on and serves immediately.
            match self.busy_until.pop() {
                Some(Reverse(free_at)) => free_at.max(now),
                None => now,
            }
        };
        let done = start + service;
        self.busy_until.push(Reverse(done));
        start_done(start, done)
    }

    /// Earliest cycle at which a new request arriving at `now` could start.
    pub fn next_free(&mut self, now: Cycle) -> Cycle {
        self.drain_freed(now);
        if self.busy_until.len() < self.slots {
            now
        } else {
            self.busy_until.peek().map(|Reverse(c)| (*c).max(now)).unwrap_or(now)
        }
    }

    fn drain_freed(&mut self, now: Cycle) {
        while let Some(Reverse(free_at)) = self.busy_until.peek() {
            if *free_at <= now {
                self.busy_until.pop();
            } else {
                break;
            }
        }
    }
}

fn start_done(start: Cycle, done: Cycle) -> Grant {
    Grant { start, done }
}

/// A single-server resource that serializes requests, optionally with an
/// initiation interval shorter than the full service latency (pipelining).
///
/// Models the system I/O bus (fully serialized transfers) and cache/TLB
/// ports (new request each cycle, multi-cycle latency).
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::{Cycle, ThroughputPort};
///
/// // A pipelined port: one new request per cycle, 10-cycle latency.
/// let mut port = ThroughputPort::pipelined(10, 1);
/// let a = port.acquire(Cycle::new(0));
/// let b = port.acquire(Cycle::new(0));
/// assert_eq!(a.done, Cycle::new(10));
/// assert_eq!(b.start, Cycle::new(1)); // issues one cycle later
/// assert_eq!(b.done, Cycle::new(11));
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputPort {
    latency: u64,
    interval: u64,
    /// Whether the port holds for the whole (possibly request-specific)
    /// service time rather than the fixed initiation interval. Set by the
    /// constructor — a pipelined port whose interval happens to equal its
    /// latency must not behave as serialized.
    serialized: bool,
    next_issue: Cycle,
}

impl ThroughputPort {
    /// Creates a fully serialized port: the next request cannot start until
    /// the previous one finishes.
    pub fn serialized(latency: u64) -> Self {
        ThroughputPort {
            latency,
            interval: latency.max(1),
            serialized: true,
            next_issue: Cycle::ZERO,
        }
    }

    /// Creates a pipelined port that accepts a new request every
    /// `interval` cycles, each completing after `latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn pipelined(latency: u64, interval: u64) -> Self {
        assert!(interval > 0, "initiation interval must be non-zero");
        ThroughputPort { latency, interval, serialized: false, next_issue: Cycle::ZERO }
    }

    /// The per-request latency of this port.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Acquires the port for a request arriving at `now` using the port's
    /// configured latency.
    pub fn acquire(&mut self, now: Cycle) -> Grant {
        self.acquire_for(now, self.latency)
    }

    /// Acquires the port for a request with a custom service time (used by
    /// the I/O bus, where transfer time depends on size). The occupancy
    /// window equals the service time for serialized ports.
    pub fn acquire_for(&mut self, now: Cycle, service: u64) -> Grant {
        let start = self.next_issue.max(now);
        let occupy = if self.serialized {
            // Serialized port: hold for the whole service.
            service.max(1)
        } else {
            self.interval
        };
        self.next_issue = start + occupy;
        Grant { start, done: start + service }
    }

    /// Acquires the port for a train of `n` back-to-back requests arriving
    /// at `now` (the flits of one bulk copy) in O(1). Returns the first
    /// grant and the start cycle of the `n`-th, and leaves the port exactly
    /// as `n` sequential [`ThroughputPort::acquire`] calls would: each later
    /// request finds the port busy until one occupancy step (`interval`,
    /// or `latency.max(1)` when serialized) after its predecessor started,
    /// so the starts form an arithmetic series. A train of zero requests
    /// is treated as one.
    pub fn acquire_train(&mut self, now: Cycle, n: u64) -> (Grant, Cycle) {
        let first = self.acquire(now);
        let step = if self.serialized { self.latency.max(1) } else { self.interval };
        let last = first.start + n.saturating_sub(1) * step;
        self.next_issue = last + step;
        (first, last)
    }

    /// Earliest cycle a request arriving at `now` could start.
    pub fn next_free(&self, now: Cycle) -> Cycle {
        self.next_issue.max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_parallel_until_full() {
        let mut p = OccupancyPool::new(3);
        for _ in 0..3 {
            let g = p.acquire(Cycle::new(5), 100);
            assert_eq!(g.start, Cycle::new(5));
        }
        let g = p.acquire(Cycle::new(5), 100);
        assert_eq!(g.start, Cycle::new(105));
    }

    #[test]
    fn pool_frees_slots_over_time() {
        let mut p = OccupancyPool::new(1);
        let g1 = p.acquire(Cycle::new(0), 10);
        assert_eq!(g1.done, Cycle::new(10));
        // Arriving after the slot freed: no wait.
        let g2 = p.acquire(Cycle::new(50), 10);
        assert_eq!(g2.start, Cycle::new(50));
    }

    #[test]
    fn pool_next_free_matches_acquire() {
        let mut p = OccupancyPool::new(2);
        p.acquire(Cycle::new(0), 7);
        p.acquire(Cycle::new(0), 9);
        assert_eq!(p.next_free(Cycle::new(0)), Cycle::new(7));
        assert_eq!(p.next_free(Cycle::new(100)), Cycle::new(100));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_pool_panics() {
        let _ = OccupancyPool::new(0);
    }

    #[test]
    fn serialized_port_back_to_back() {
        let mut port = ThroughputPort::serialized(100);
        let a = port.acquire(Cycle::new(0));
        let b = port.acquire(Cycle::new(0));
        assert_eq!(a, Grant { start: Cycle::new(0), done: Cycle::new(100) });
        assert_eq!(b, Grant { start: Cycle::new(100), done: Cycle::new(200) });
    }

    #[test]
    fn serialized_port_variable_service() {
        let mut port = ThroughputPort::serialized(100);
        let a = port.acquire_for(Cycle::new(0), 30);
        let b = port.acquire_for(Cycle::new(0), 40);
        assert_eq!(a.done, Cycle::new(30));
        assert_eq!(b.start, Cycle::new(30));
        assert_eq!(b.done, Cycle::new(70));
    }

    #[test]
    fn pipelined_port_overlaps() {
        let mut port = ThroughputPort::pipelined(10, 2);
        let a = port.acquire(Cycle::new(0));
        let b = port.acquire(Cycle::new(0));
        let c = port.acquire(Cycle::new(0));
        assert_eq!(a.done, Cycle::new(10));
        assert_eq!(b.start, Cycle::new(2));
        assert_eq!(c.start, Cycle::new(4));
    }

    #[test]
    fn pipelined_port_with_interval_equal_to_latency_stays_pipelined() {
        // Regression: "serialized" used to be detected by the coincidence
        // `interval == latency.max(1)`, so a pipelined(8, 8) port given a
        // custom service time silently switched to whole-service
        // occupancy.
        let mut port = ThroughputPort::pipelined(8, 8);
        let a = port.acquire_for(Cycle::new(0), 20);
        let b = port.acquire_for(Cycle::new(0), 20);
        assert_eq!(a, Grant { start: Cycle::new(0), done: Cycle::new(20) });
        // Pipelined: the next request issues after the 8-cycle interval,
        // not after the 20-cycle service completes.
        assert_eq!(b, Grant { start: Cycle::new(8), done: Cycle::new(28) });

        // A truly serialized port with the same latency does occupy for
        // the whole custom service.
        let mut ser = ThroughputPort::serialized(8);
        ser.acquire_for(Cycle::new(0), 20);
        let c = ser.acquire_for(Cycle::new(0), 20);
        assert_eq!(c.start, Cycle::new(20));
    }

    #[test]
    fn port_idle_gap_resets_issue_time() {
        let mut port = ThroughputPort::pipelined(10, 1);
        port.acquire(Cycle::new(0));
        let late = port.acquire(Cycle::new(1000));
        assert_eq!(late.start, Cycle::new(1000));
    }

    /// `acquire_train(now, n)` is isomorphic to `n` sequential `acquire`
    /// calls — first grant, last start, and the port state left behind —
    /// on pipelined and serialized ports driven into seeded random
    /// prior states.
    #[test]
    fn acquire_train_matches_sequential_acquires() {
        use crate::SimRng;
        let mut rng = SimRng::from_seed(0x7EA1_7EA1);
        for case in 0..400 {
            let latency = rng.below(200);
            let mut port = if case % 2 == 0 {
                ThroughputPort::pipelined(latency, rng.below(8) + 1)
            } else {
                ThroughputPort::serialized(latency)
            };
            // Random prior history: single requests and custom services.
            for _ in 0..rng.below(6) {
                let at = Cycle::new(rng.below(2_000));
                if rng.chance(0.5) {
                    port.acquire(at);
                } else {
                    port.acquire_for(at, rng.below(300));
                }
            }
            let now = Cycle::new(rng.below(2_000));
            let n = rng.below(40) + 1;
            let mut reference = port.clone();
            let first = reference.acquire(now);
            let mut last = first.start;
            for _ in 1..n {
                last = reference.acquire(now).start;
            }
            assert_eq!(port.acquire_train(now, n), (first, last), "case {case}");
            assert_eq!(port.next_issue, reference.next_issue, "case {case}: port state");
        }
        // A zero-length train is one request.
        let mut port = ThroughputPort::pipelined(10, 3);
        let (g, last) = port.acquire_train(Cycle::new(5), 0);
        assert_eq!((g.start, last, port.next_issue), (Cycle::new(5), Cycle::new(5), Cycle::new(8)));
    }

    #[test]
    fn grant_wait_is_zero_when_immediate() {
        let mut p = OccupancyPool::new(1);
        let g = p.acquire(Cycle::new(3), 5);
        assert_eq!(g.start, Cycle::new(3));
    }
}
