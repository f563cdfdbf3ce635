//! Statistics primitives: counters, ratios, and histograms.
//!
//! Every component of the simulated memory hierarchy exposes its behaviour
//! through these types, and the experiment drivers aggregate them into the
//! rows and series the paper reports.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Counter;
///
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/total ratio, used for TLB and cache hit rates.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Ratio;
///
/// let mut hit_rate = Ratio::default();
/// hit_rate.record(true);
/// hit_rate.record(true);
/// hit_rate.record(false);
/// assert!((hit_rate.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Records one event; `hit` selects the numerator.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of hits recorded.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total events recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The hit fraction in `[0, 1]`; `1.0` when no events were recorded
    /// (an empty TLB has not missed).
    #[inline]
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: &Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}% ({}/{})", self.rate() * 100.0, self.hits, self.total)
    }
}

/// A latency/size summary: exact count, sum, min, max, and mean.
///
/// # Examples
///
/// ```
/// use mosaic_sim_core::Histogram;
///
/// let mut h = Histogram::default();
/// h.record(10);
/// h.record(20);
/// assert_eq!(h.count(), 2);
/// assert!((h.mean() - 15.0).abs() < 1e-12);
/// assert_eq!(h.min(), Some(10));
/// assert_eq!(h.max(), Some(20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of all samples; `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any were recorded.
    #[inline]
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any were recorded.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn ratio_empty_is_full_hit_rate() {
        let r = Ratio::default();
        assert_eq!(r.rate(), 1.0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn ratio_counts_hits_and_misses() {
        let mut r = Ratio::default();
        for i in 0..10 {
            r.record(i % 2 == 0);
        }
        assert_eq!(r.hits(), 5);
        assert_eq!(r.total() - r.hits(), 5);
        assert!((r.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_merge_adds() {
        let mut a = Ratio::default();
        a.record(true);
        let mut b = Ratio::default();
        b.record(false);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.hits(), 2);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1024));
        assert!((h.mean() - (1.0 + 2.0 + 4.0 + 8.0 + 1024.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::default();
        a.record(5);
        let mut b = Histogram::default();
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(50));
    }
}
