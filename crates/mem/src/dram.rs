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

use mosaic_sim_core::{ClockDomain, Cycle, Nanos, Ratio, ThroughputPort};

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
    /// The `open` most-recently-open rows, most recent last, inline so a
    /// bank is one flat value with nothing to grow mid-run.
    open_rows: [u64; FRFCFS_WINDOW],
    open: u8,
    /// The bank array, held for each access's row service (or a bulk
    /// copy). Every booking is at least one cycle, so a serialized port
    /// books exactly what a one-slot occupancy pool would.
    service: ThroughputPort,
}

impl Bank {
    fn idle() -> Self {
        Bank { open_rows: [0; FRFCFS_WINDOW], open: 0, service: ThroughputPort::serialized(1) }
    }

    /// Records an access to `row`; returns whether FR-FCFS would have
    /// serviced it as a row hit.
    fn access_row(&mut self, row: u64) -> bool {
        let open = usize::from(self.open);
        let rows = &mut self.open_rows[..open];
        if let Some(i) = rows.iter().position(|&r| r == row) {
            rows[i..].rotate_left(1);
            true
        } else {
            if open < FRFCFS_WINDOW {
                self.open += 1;
            } else {
                self.open_rows.rotate_left(1);
            }
            self.open_rows[usize::from(self.open) - 1] = row;
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
    /// `clock.cycles_for(config.row_hit).max(1)`, precomputed likewise.
    row_hit_cycles: u64,
    /// `clock.cycles_for(config.row_conflict).max(1)`, precomputed likewise.
    row_conflict_cycles: u64,
    /// Shift constants for [`Dram::locate`] when the geometry allows them.
    shifts: Option<Shifts>,
    row_hits: Ratio,
}

/// `log2` of the line size, lines per row and banks per channel, when all
/// three are powers of two: `locate` then decodes with shifts and masks
/// instead of divisions (as `Cache::split` does). The channel count
/// (six in the paper) keeps its one division.
#[derive(Debug, Clone, Copy)]
struct Shifts {
    line: u32,
    row_lines: u32,
    banks: u32,
}

impl Shifts {
    fn new(config: &DramConfig) -> Option<Self> {
        let row_lines = (config.row_size / config.line_size).max(1);
        let banks = config.banks_per_channel as u64;
        (config.line_size.is_power_of_two()
            && row_lines.is_power_of_two()
            && banks.is_power_of_two())
        .then(|| Shifts {
            line: config.line_size.trailing_zeros(),
            row_lines: row_lines.trailing_zeros(),
            banks: banks.trailing_zeros(),
        })
    }
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
                banks: vec![Bank::idle(); config.banks_per_channel],
                bus: ThroughputPort::serialized(burst_cycles),
                copy_engine: ThroughputPort::serialized(1),
            })
            .collect();
        Dram {
            config,
            channels,
            clock,
            burst_cycles,
            row_hit_cycles: clock.cycles_for(config.row_hit).max(1),
            row_conflict_cycles: clock.cycles_for(config.row_conflict).max(1),
            shifts: Shifts::new(&config),
            row_hits: Ratio::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Channel index serving `addr`.
    pub fn channel_of(&self, addr: u64) -> usize {
        self.locate(addr).0
    }

    /// Splits `addr` into `(channel, bank, row)`: lines interleave across
    /// channels, rows across the banks of a channel.
    fn locate(&self, addr: u64) -> (usize, usize, u64) {
        let channels = self.config.channels as u64;
        let Some(s) = self.shifts else {
            let channel = ((addr / self.config.line_size) % channels) as usize;
            // Strip channel interleaving, then split into (row, bank).
            let local = addr / (self.config.line_size * channels);
            let row_global = local / (self.config.row_size / self.config.line_size).max(1);
            let banks = self.config.banks_per_channel as u64;
            return (channel, (row_global % banks) as usize, row_global / banks);
        };
        let line = addr >> s.line;
        // `addr / (line_size × channels)` is `line / channels`.
        let local = line / channels;
        let channel = (line - local * channels) as usize;
        let row_global = local >> s.row_lines;
        let bank = (row_global & ((1 << s.banks) - 1)) as usize;
        (channel, bank, row_global >> s.banks)
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
        let service = if hit { self.row_hit_cycles } else { self.row_conflict_cycles };
        let bank_done = self.channels[ch].banks[bank_idx].service.acquire_for(now, service).done;
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
        let cycles = self.clock.cycles_for(self.config.bulk_copy).max(1);
        let ch = ch % self.config.channels;
        // Charge an arbitrary bank pair (we model the array occupancy on
        // bank 0 of the channel; the data bus stays free, which is the
        // mechanism's whole point).
        let done = self.channels[ch].banks[0].service.acquire_for(now, cycles).done;
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
        self.row_conflict_cycles + self.burst_cycles
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> Ratio {
        self.row_hits
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
        assert_eq!(d.row_hit_rate().total() - d.row_hit_rate().hits(), 1);
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

    /// `locate` as plain division: the formula the shift decode must match.
    fn locate_by_division(cfg: &DramConfig, addr: u64) -> (usize, usize, u64) {
        let channels = cfg.channels as u64;
        let banks = cfg.banks_per_channel as u64;
        let channel = ((addr / cfg.line_size) % channels) as usize;
        let local = addr / (cfg.line_size * channels);
        let row_global = local / (cfg.row_size / cfg.line_size).max(1);
        (channel, (row_global % banks) as usize, row_global / banks)
    }

    /// A geometry the shift decode cannot serve: 12 banks, 12-line rows.
    fn odd_geometry() -> DramConfig {
        DramConfig { channels: 3, banks_per_channel: 12, row_size: 1536, ..DramConfig::paper() }
    }

    #[test]
    fn shift_decode_matches_division() {
        // Paper rows hold 16 lines across 16 banks; this one 32 across 8.
        let long_rows =
            DramConfig { channels: 4, banks_per_channel: 8, row_size: 4096, ..DramConfig::paper() };
        for (cfg, shifted) in
            [(DramConfig::paper(), true), (long_rows, true), (odd_geometry(), false)]
        {
            let d = Dram::new(cfg);
            assert_eq!(d.shifts.is_some(), shifted, "{cfg:?}");
            let mut rng = mosaic_sim_core::SimRng::from_seed(cfg.channels as u64);
            for _ in 0..20_000 {
                let addr = rng.next_u64() >> rng.below(64);
                let want = locate_by_division(&cfg, addr);
                assert_eq!(d.locate(addr), want, "{addr:#x} under {cfg:?}");
                assert_eq!(d.channel_of(addr), want.0, "{addr:#x} under {cfg:?}");
            }
        }
    }

    /// The DRAM as it was before the bank ports became serialized
    /// `ThroughputPort`s: each bank a one-slot `OccupancyPool`, every
    /// service time converted from nanoseconds on each call. Each bank's
    /// FR-FCFS window is the growable vector it was before the window
    /// went inline.
    struct PoolDram {
        cfg: DramConfig,
        clock: ClockDomain,
        banks: Vec<Vec<(VecWindow, mosaic_sim_core::OccupancyPool)>>,
        buses: Vec<ThroughputPort>,
    }

    /// Most-recently-open rows, most recent last.
    struct VecWindow(Vec<u64>);

    impl VecWindow {
        fn access_row(&mut self, row: u64) -> bool {
            if let Some(i) = self.0.iter().position(|&r| r == row) {
                self.0.remove(i);
                self.0.push(row);
                true
            } else {
                if self.0.len() >= FRFCFS_WINDOW {
                    self.0.remove(0);
                }
                self.0.push(row);
                false
            }
        }
    }

    impl PoolDram {
        fn new(cfg: DramConfig) -> Self {
            let clock = ClockDomain::from_mhz(cfg.core_clock_mhz);
            let bank = || (VecWindow(Vec::new()), mosaic_sim_core::OccupancyPool::new(1));
            let burst = clock.cycles_for(cfg.burst_time).max(1);
            PoolDram {
                cfg,
                clock,
                banks: (0..cfg.channels)
                    .map(|_| (0..cfg.banks_per_channel).map(|_| bank()).collect())
                    .collect(),
                buses: (0..cfg.channels).map(|_| ThroughputPort::serialized(burst)).collect(),
            }
        }

        fn access_timed(&mut self, now: Cycle, addr: u64) -> (Cycle, u64, bool) {
            let (ch, b, row) = locate_by_division(&self.cfg, addr);
            let (bank, pool) = &mut self.banks[ch][b];
            let hit = bank.access_row(row);
            let ns = if hit { self.cfg.row_hit } else { self.cfg.row_conflict };
            let service = self.clock.cycles_for(ns).max(1);
            let bank_done = pool.acquire(now, service).done;
            let done = self.buses[ch].acquire(bank_done).done;
            (done, service + self.clock.cycles_for(self.cfg.burst_time).max(1), hit)
        }

        fn bulk_page_copy(&mut self, now: Cycle, ch: usize) -> Cycle {
            let cycles = self.clock.cycles_for(self.cfg.bulk_copy).max(1);
            self.banks[ch % self.cfg.channels][0].1.acquire(now, cycles).done
        }
    }

    #[test]
    fn bank_ports_book_what_one_slot_pools_did() {
        for cfg in [DramConfig::paper(), odd_geometry()] {
            let mut d = Dram::new(cfg);
            let mut reference = PoolDram::new(cfg);
            let mut rng = mosaic_sim_core::SimRng::from_seed(3);
            let mut now = 0u64;
            for _ in 0..20_000 {
                // Bursts at one cycle, gaps past every queue, and a few
                // steps back (lookahead callers are not monotone).
                now = match rng.below(10) {
                    0 => now + 500,
                    1 => now.saturating_sub(200),
                    _ => now + rng.below(4),
                };
                let at = Cycle::new(now);
                if rng.chance(0.05) {
                    let ch = rng.below(cfg.channels as u64 + 2) as usize;
                    assert_eq!(d.bulk_page_copy(at, ch), reference.bulk_page_copy(at, ch));
                } else {
                    // A small row pool: hits, conflicts and bank-0 traffic.
                    let addr = rng.below(1 << 21);
                    assert_eq!(
                        d.access_timed(at, addr),
                        reference.access_timed(at, addr),
                        "{addr:#x} at {now}"
                    );
                }
            }
            assert!(
                d.row_hit_rate().hits() > 500
                    && d.row_hit_rate().total() - d.row_hit_rate().hits() > 500
            );
        }
    }

    #[test]
    fn narrow_copy_takes_longer_than_bulk() {
        let mut d = dram();
        let narrow = d.narrow_page_copy(Cycle::new(0), 0);
        let mut d2 = dram();
        let bulk = d2.bulk_page_copy(Cycle::new(0), 0);
        assert!(narrow.as_u64() > bulk.as_u64() * 5, "narrow {narrow} vs bulk {bulk}");
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
