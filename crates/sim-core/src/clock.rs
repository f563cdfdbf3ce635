//! Cycle-typed time base and clock-domain conversion.
//!
//! The simulator keeps one global time base in *core cycles* (the GPU shader
//! clock). Components whose timing is naturally expressed in another domain
//! — GDDR5 command timing, PCIe transfer latencies in nanoseconds — convert
//! through a [`ClockDomain`].

/// A point in simulated time, measured in cycles of some clock domain.
///
/// `Cycle` is an ordered, copyable newtype over `u64`. Arithmetic saturates
/// on subtraction (time never goes negative) and panics on addition overflow
/// in debug builds, like plain integer arithmetic.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + 55;
/// assert_eq!(end.as_u64(), 155);
/// assert_eq!(end - start, 55);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);
    /// The largest representable cycle; used as an "infinitely far away"
    /// sentinel for events that are not scheduled.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the later of two cycles.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two cycles.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Cycles elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl core::ops::Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl core::ops::AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl core::ops::Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl core::fmt::Display for Cycle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A duration in nanoseconds of simulated wall-clock time.
///
/// Used at the boundary between the cycle-driven GPU model and components
/// specified in real time (the PCIe bus, in-DRAM bulk copy latency).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanos(pub f64);

impl Nanos {
    /// Returns the duration in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl core::ops::Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

/// A clock domain with a fixed frequency, used to convert wall-clock time
/// into cycles.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::{ClockDomain, Nanos};
///
/// // The paper's shader clock (Table 1).
/// let core = ClockDomain::from_mhz(1020.0);
/// // A 55 us PCIe far-fault (Section 3.2) costs ~56k shader cycles.
/// let cycles = core.cycles_for(Nanos(55_000.0));
/// assert!((56_000f64 - cycles as f64).abs() < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    freq_mhz: f64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive and finite.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "clock frequency must be positive, got {mhz}");
        ClockDomain { freq_mhz: mhz }
    }

    /// Number of whole cycles (rounded up) needed to cover `duration`.
    #[inline]
    pub fn cycles_for(&self, duration: Nanos) -> u64 {
        (duration.0 * self.freq_mhz / 1_000.0).ceil().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_round_trips() {
        let c = Cycle::new(10);
        assert_eq!((c + 5).as_u64(), 15);
        assert_eq!((c + 5) - c, 5);
        assert_eq!(c - (c + 5), 0, "subtraction saturates");
        assert_eq!(Cycle::ZERO.as_u64(), 0);
    }

    #[test]
    fn cycle_since_saturates() {
        let early = Cycle::new(5);
        let late = Cycle::new(30);
        assert_eq!(late.since(early), 25);
        assert_eq!(early.since(late), 0);
    }

    #[test]
    fn cycle_min_max() {
        let a = Cycle::new(3);
        let b = Cycle::new(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn clock_domain_conversion_is_consistent() {
        let core = ClockDomain::from_mhz(1020.0);
        let dram = ClockDomain::from_mhz(1674.0);
        // 1020 core cycles == 1 us == 1674 DRAM cycles.
        assert_eq!(core.cycles_for(Nanos(1_000.0)), 1020);
        assert_eq!(dram.cycles_for(Nanos(1_000.0)), 1674);
    }

    #[test]
    fn cycles_for_rounds_up() {
        let clk = ClockDomain::from_mhz(1000.0); // 1 ns per cycle
        assert_eq!(clk.cycles_for(Nanos(0.1)), 1);
        assert_eq!(clk.cycles_for(Nanos(2.0)), 2);
        assert_eq!(clk.cycles_for(Nanos(0.0)), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_mhz(0.0);
    }

    #[test]
    fn nanos_micros_round_trip() {
        let n = Nanos(55_000.0);
        assert!((n.as_micros() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_display() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
    }
}
