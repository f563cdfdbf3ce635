//! GDDR5-like DRAM channel model.
//!
//! Table 1: 3 GB GDDR5 at 1674 MHz, six channels, eight banks per rank,
//! FR-FCFS scheduling, burst length 8. We model what drives the paper's
//! results: per-bank row-buffer state (a row hit is much cheaper than a row
//! conflict), per-bank service occupancy, and a per-channel data bus that
//! serializes bursts. The address is interleaved across channels at line
//! granularity and across banks at row granularity, the common GPU layout.
//!
//! Two copy paths for CAC's compaction (Section 4.4):
//! * the **narrow path**, copying a 4 KB page 64 bits at a time over the
//!   channel (512 bus transactions), and
//! * the **bulk path** (RowClone/LISA), an in-DRAM copy of the page in
//!   ~80 ns that never occupies the channel data bus.

use mosaic_sim_core::{ClockDomain, Counter, Cycle, Nanos, OccupancyPool, Ratio, ThroughputPort};

/// DRAM geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels (each with its own data bus).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer (page) size per bank in bytes.
    pub row_size: u64,
    /// Line interleaving granularity across channels, in bytes.
    pub line_size: u64,
    /// Latency of a row-buffer hit, in nanoseconds (CAS).
    pub row_hit: Nanos,
    /// Latency of a row-buffer conflict (precharge + activate + CAS), in
    /// nanoseconds.
    pub row_conflict: Nanos,
    /// Data-bus occupancy of one burst, in nanoseconds.
    pub burst_time: Nanos,
    /// In-DRAM bulk page copy latency (RowClone/LISA), in nanoseconds.
    pub bulk_copy: Nanos,
    /// The core clock used to express completions in shader cycles.
    pub core_clock_mhz: f64,
}

impl DramConfig {
    /// The paper's configuration: 6 channels, two ranks of 8 banks each
    /// (16 bank state machines per channel), 2 KB rows, GDDR5 timing
    /// expressed in nanoseconds, 1020 MHz core clock.
    pub fn paper() -> Self {
        DramConfig {
            channels: 6,
            banks_per_channel: 16,
            row_size: 2048,
            line_size: 128,
            // GDDR5-class timings: ~15 ns CAS, ~45 ns PRE+ACT+CAS.
            row_hit: Nanos(15.0),
            row_conflict: Nanos(45.0),
            // Burst of 8 on a 1674 MHz DDR interface moving 32 B/burst-pair:
            // ~2.4 ns of bus time per 128 B line (4 bursts).
            burst_time: Nanos(2.4),
            bulk_copy: Nanos(80.0),
            core_clock_mhz: 1020.0,
        }
    }
}

/// How many recently-open rows count as row-buffer hits: a first-order
/// stand-in for FR-FCFS, which reorders the bank queue to batch requests
/// to the same row (Table 1's scheduler). Without it, interleaved warp
/// streams would destroy all row locality that the real scheduler
/// recovers.
const FRFCFS_WINDOW: usize = 4;

#[derive(Debug, Clone)]
struct Bank {
    /// Most-recently-open rows, most recent last.
    open_rows: Vec<u64>,
    service: OccupancyPool,
}

impl Bank {
    /// Records an access to `row`; returns whether FR-FCFS would have
    /// serviced it as a row hit.
    fn access_row(&mut self, row: u64) -> bool {
        if let Some(i) = self.open_rows.iter().position(|&r| r == row) {
            self.open_rows.remove(i);
            self.open_rows.push(row);
            true
        } else {
            if self.open_rows.len() >= FRFCFS_WINDOW {
                self.open_rows.remove(0);
            }
            self.open_rows.push(row);
            false
        }
    }
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus: ThroughputPort,
    /// Background copy engine: CAC's narrow page copies serialize here,
    /// in the idle bus slots the memory controller leaves them (demand
    /// traffic is prioritized, so copies do not delay reads — but
    /// anything waiting on the *copied data*, like an allocation that
    /// triggered compaction, waits for the engine).
    copy_engine: ThroughputPort,
}

/// The DRAM subsystem: all channels and banks plus copy engines.
///
/// # Examples
///
/// ```
/// use mosaic_mem::{Dram, DramConfig};
/// use mosaic_sim_core::Cycle;
///
/// let mut dram = Dram::new(DramConfig::paper());
/// let first = dram.access(Cycle::new(0), 0x1_0000);
/// // A second access to the same row is a row-buffer hit: cheaper.
/// let second = dram.access(first, 0x1_0040) - first;
/// assert!(second < first.as_u64());
/// ```
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    clock: ClockDomain,
    /// `clock.cycles_for(config.burst_time).max(1)`, precomputed: the
    /// per-access and per-copy-beat paths need it on every call.
    burst_cycles: u64,
    row_hits: Ratio,
    bulk_copies: Counter,
    narrow_copies: Counter,
}

impl Dram {
    /// Creates an idle DRAM subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the channel or bank count is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "need at least one channel");
        assert!(config.banks_per_channel > 0, "need at least one bank");
        let clock = ClockDomain::from_mhz(config.core_clock_mhz);
        let burst_cycles = clock.cycles_for(config.burst_time).max(1);
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: (0..config.banks_per_channel)
                    .map(|_| Bank { open_rows: Vec::new(), service: OccupancyPool::new(1) })
                    .collect(),
                bus: ThroughputPort::serialized(burst_cycles),
                copy_engine: ThroughputPort::serialized(1),
            })
            .collect();
        Dram {
            config,
            channels,
            clock,
            burst_cycles,
            row_hits: Ratio::default(),
            bulk_copies: Counter::new(),
            narrow_copies: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Channel index serving `addr`.
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.config.line_size) % self.config.channels as u64) as usize
    }

    fn locate(&self, addr: u64) -> (usize, usize, u64) {
        let channel = self.channel_of(addr);
        // Strip channel interleaving, then split into (row, bank).
        let local = addr / (self.config.line_size * self.config.channels as u64);
        let row_global = local / (self.config.row_size / self.config.line_size).max(1);
        let bank = (row_global % self.config.banks_per_channel as u64) as usize;
        let row = row_global / self.config.banks_per_channel as u64;
        (channel, bank, row)
    }

    /// Services one line-sized access beginning no earlier than `now`;
    /// returns the completion cycle. Row-buffer state, bank occupancy, and
    /// channel bus occupancy are all charged.
    pub fn access(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.access_timed(now, addr).0
    }

    /// Like [`Dram::access`], but also returns the pure *service* portion
    /// of the latency — the row access plus bus burst the request would
    /// cost on an idle channel — and whether it hit the open row.
    /// Everything before `done - service` is bank/bus queueing, which is
    /// how the stall attribution splits DRAM time into queue vs. service.
    pub fn access_timed(&mut self, now: Cycle, addr: u64) -> (Cycle, u64, bool) {
        let (ch, bank_idx, row) = self.locate(addr);
        let hit = self.channels[ch].banks[bank_idx].access_row(row);
        self.row_hits.record(hit);
        let service_ns = if hit { self.config.row_hit } else { self.config.row_conflict };
        let service = self.clock.cycles_for(service_ns).max(1);
        let bank_done = {
            let bank = &mut self.channels[ch].banks[bank_idx];
            bank.service.acquire(now, service).done
        };
        // Data returns over the channel bus after the bank produces it.
        let done = self.channels[ch].bus.acquire(bank_done).done;
        let burst = self.burst_cycles;
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::DramAccess {
            cycle: now.as_u64(),
            done: done.as_u64(),
            service: service + burst,
            row_hit: hit,
        });
        (done, service + burst, hit)
    }

    /// Copies one 4 KB page within channel `ch` over the narrow (64-bit)
    /// path: 512 serialized bus transactions (Section 4.4's default
    /// migration cost). Copies run on the channel's background copy
    /// engine in idle bus slots; demand traffic is not delayed, but the
    /// returned completion cycle gates whoever needs the migrated frame.
    pub fn narrow_page_copy(&mut self, now: Cycle, ch: usize) -> Cycle {
        self.narrow_copies.inc();
        let per_beat = self.burst_cycles;
        // 4096 B / 8 B per beat = 512 beats of copy-engine occupancy.
        let beats = 4096 / 8;
        let ch = ch % self.config.channels;
        let done = self.channels[ch].copy_engine.acquire_for(now, per_beat * beats).done;
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::PageCopy {
            cycle: now.as_u64(),
            done: done.as_u64(),
            bulk: false,
        });
        done
    }

    /// Copies one 4 KB page within channel `ch` using the in-DRAM bulk
    /// path (RowClone/LISA): occupies the bank array, not the data bus.
    /// Returns the completion cycle.
    pub fn bulk_page_copy(&mut self, now: Cycle, ch: usize) -> Cycle {
        self.bulk_copies.inc();
        let cycles = self.clock.cycles_for(self.config.bulk_copy).max(1);
        let ch = ch % self.config.channels;
        // Charge an arbitrary bank pair (we model the array occupancy on
        // bank 0 of the channel; the data bus stays free, which is the
        // mechanism's whole point).
        let done = self.channels[ch].banks[0].service.acquire(now, cycles).done;
        mosaic_telemetry::emit(|| mosaic_telemetry::Event::PageCopy {
            cycle: now.as_u64(),
            done: done.as_u64(),
            bulk: true,
        });
        done
    }

    /// Nominal latency of one uncontended line access that misses the row
    /// buffer (used by the simulator's lookahead isolation: accesses far
    /// in the simulated future are charged nominal latency instead of
    /// perturbing port state out of order).
    pub fn uncontended_latency(&self) -> u64 {
        self.clock.cycles_for(self.config.row_conflict).max(1) + self.burst_cycles
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> Ratio {
        self.row_hits
    }

    /// Number of bulk (in-DRAM) page copies performed.
    pub fn bulk_copies(&self) -> u64 {
        self.bulk_copies.get()
    }

    /// Number of narrow (over-the-bus) page copies performed.
    pub fn narrow_copies(&self) -> u64 {
        self.narrow_copies.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::paper())
    }

    #[test]
    fn row_hit_is_cheaper_than_conflict() {
        let mut d = dram();
        let t1 = d.access(Cycle::new(0), 0);
        let cold = t1.as_u64();
        // Same row, arriving after the first completes.
        let t2 = d.access(t1, 64);
        let hit = t2 - t1;
        assert!(hit < cold, "row hit ({hit}) should beat row conflict ({cold})");
        assert_eq!(d.row_hit_rate().hits(), 1);
        assert_eq!(d.row_hit_rate().misses(), 1);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let mut d = dram();
        let cfg = *d.config();
        // Two addresses `banks * row_size * channels` apart share a bank
        // but use different rows.
        let stride = cfg.row_size * cfg.channels as u64 * cfg.banks_per_channel as u64;
        d.access(Cycle::new(0), 0);
        let far = d.access(Cycle::new(100_000), stride);
        let _ = far;
        assert_eq!(d.row_hit_rate().hits(), 0);
    }

    #[test]
    fn channels_interleave_by_line() {
        let d = dram();
        let line = d.config().line_size;
        let chans: Vec<_> = (0..6).map(|i| d.channel_of(i * line)).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.channel_of(6 * line), 0);
    }

    #[test]
    fn bank_contention_serializes() {
        let mut d = dram();
        // Two simultaneous accesses to the same bank and row: second waits.
        let a = d.access(Cycle::new(0), 0);
        let b = d.access(Cycle::new(0), 64);
        assert!(b > a);
    }

    #[test]
    fn parallel_channels_overlap() {
        let mut d = dram();
        let line = d.config().line_size;
        let a = d.access(Cycle::new(0), 0);
        let b = d.access(Cycle::new(0), line); // different channel
                                               // Both are cold conflicts; with independent channels they finish
                                               // at the same time.
        assert_eq!(a, b);
    }

    #[test]
    fn access_timed_splits_queue_from_service() {
        let mut d = dram();
        let (done, service, hit) = d.access_timed(Cycle::new(0), 0);
        assert!(!hit);
        assert_eq!(done.as_u64(), service, "idle DRAM has no queueing");
        assert_eq!(service, d.uncontended_latency(), "cold service matches the nominal latency");
        // A simultaneous same-bank access waits in the bank queue first.
        let (done2, service2, hit2) = d.access_timed(Cycle::new(0), 64);
        assert!(hit2, "same row under FR-FCFS");
        assert!(done2.as_u64() - service2 > 0, "queued behind the first access");
        assert!(done2 > done);
    }

    #[test]
    fn narrow_copy_takes_longer_than_bulk() {
        let mut d = dram();
        let narrow = d.narrow_page_copy(Cycle::new(0), 0);
        let mut d2 = dram();
        let bulk = d2.bulk_page_copy(Cycle::new(0), 0);
        assert!(narrow.as_u64() > bulk.as_u64() * 5, "narrow {narrow} vs bulk {bulk}");
        assert_eq!(d.narrow_copies(), 1);
        assert_eq!(d2.bulk_copies(), 1);
    }

    #[test]
    fn narrow_copies_do_not_delay_demand_traffic() {
        let mut d = dram();
        let copy_done = d.narrow_page_copy(Cycle::new(0), 0);
        // A demand access on the same channel proceeds at normal latency;
        // only consumers of the migrated data wait for `copy_done`.
        let line = d.config().line_size;
        let t = d.access(Cycle::new(0), line * 6 * 100);
        assert!(t.as_u64() * 4 < copy_done.as_u64(), "demand ({t}) vs copy ({copy_done})");
        // Back-to-back copies serialize on the engine.
        let second = d.narrow_page_copy(Cycle::new(0), 0);
        assert!(second > copy_done);
    }

    #[test]
    fn bulk_copy_leaves_bus_free() {
        let mut d = dram();
        let copy_done = d.bulk_page_copy(Cycle::new(0), 0);
        // A line access on the same channel is not delayed by the bus
        // (only possibly by bank 0, but this address maps elsewhere).
        let line = d.config().line_size * d.config().channels as u64;
        let t = d.access(Cycle::new(0), line * 17);
        assert!(t < copy_done || t.as_u64() < 100, "bus stays available during bulk copy");
    }
}
