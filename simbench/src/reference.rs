//! The reference kernel: a fixed piece of host work, timed beside the
//! simulator so that the end-to-end times can be stated relative to the
//! host's speed at that moment.
//!
//! On a shared host, other tenants slow memory-bound code by 40% and more
//! for seconds to minutes at a time, while a register-only loop barely
//! moves. No sampling scheme inside one run survives that: over 30-second
//! windows, even the fastest of dozens of runs of one job moved 15–25%.
//! The time of a hash map built by scattered updates rose and fell with
//! the simulator's through those spells (a B-tree kernel, a cache-sized
//! pointer chase and a register-only loop tracked it far worse): in a
//! 150-second probe, the 10-second medians of a job's time spread 37–39%
//! (quartile distance ÷ median) and those of job ÷ kernel 5–8%.
//!
//! Building that map afresh costs page faults (about 2,000 and a fifth of
//! its time in the kernel of the operating system), which a simulator
//! pass never takes (none measured), so the host's fault cost would move
//! the yardstick alone. The kernel therefore does the same updates twice:
//! once into a fresh map (growth and allocation, as the simulator
//! allocates) and once into a map kept across runs (no faults, no
//! allocation). Each half's quirk carries half the weight.
//!
//! So the benchmark times the kernel before and after every pass and
//! reports each time as a multiple of the kernel's, scaled by
//! [`NOMINAL_S`]: host seconds on a host where one kernel run takes
//! exactly that long. The kernel lives here, outside the simulator crates,
//! so no change to the simulator can move the yardstick.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal host time of one kernel run: roughly its fastest time on the
/// 2-vCPU x86-64 cloud host the benchmark was tuned on.
pub const NOMINAL_S: f64 = 0.02;

/// Updates per kernel run.
const OPS: u64 = 200_000;

/// Size of the key space the updates scatter over.
const KEYS: u64 = 200_000;

/// The reference kernel and the map it keeps across runs.
pub struct Kernel {
    kept: HashMap<u64, u64>,
}

impl Kernel {
    /// A kernel whose kept map has already grown to full size.
    pub fn new() -> Self {
        let mut kept = HashMap::new();
        updates(&mut kept, OPS);
        Kernel { kept }
    }

    /// Runs the kernel once and returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(updates(&mut HashMap::new(), black_box(OPS)));
        self.kept.clear();
        black_box(updates(&mut self.kept, black_box(OPS)));
        t.elapsed().as_secs_f64()
    }
}

/// `ops` read-modify-write updates of scattered keys in `map`, reading a
/// neighbouring key after each: hashing and scattered loads over a few
/// megabytes.
fn updates(map: &mut HashMap<u64, u64>, ops: u64) -> u64 {
    let mut sum = 0u64;
    for i in 0..ops {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS;
        *map.entry(key).or_insert(0) += i;
        sum = sum.wrapping_add(map.get(&(key ^ 1)).copied().unwrap_or(0));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_takes_measurable_time() {
        let (mut fresh, mut kept) = (HashMap::new(), HashMap::new());
        updates(&mut kept, 5000);
        kept.clear();
        assert_eq!(updates(&mut fresh, 1000), updates(&mut kept, 1000));
        assert!(Kernel::new().time() > 0.0);
    }
}
