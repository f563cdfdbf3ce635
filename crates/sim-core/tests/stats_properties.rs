//! Property tests for the statistics primitives' merge algebra.
//!
//! The parallel sweep executor and the per-SM/per-phase accumulation
//! paths fold partial statistics with `merge`, in whatever grouping the
//! driver happens to use — so `merge` must behave like stream
//! concatenation: associative, commutative (for these order-insensitive
//! aggregates), and in agreement with recording the concatenated sample
//! stream into a single accumulator.

use mosaic_sim_core::{Histogram, Ratio, SimRng};

/// Random sample streams for one property-test case.
fn sample_streams(seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = SimRng::from_seed(seed);
    let mut stream = |max_len: u64| {
        let len = rng.below(max_len + 1) as usize;
        (0..len)
            .map(|_| {
                // Mix tiny, mid-range, and huge samples so zero handling,
                // min/max, and the u128 sum all get exercised.
                match rng.below(4) {
                    0 => rng.below(3),
                    1 => rng.below(1 << 12),
                    2 => rng.below(1 << 40),
                    _ => u64::MAX - rng.below(1 << 20),
                }
            })
            .collect::<Vec<u64>>()
    };
    (stream(40), stream(40), stream(40))
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

fn ratio_of(samples: &[u64]) -> Ratio {
    let mut r = Ratio::default();
    for &s in samples {
        r.record(s % 2 == 0);
    }
    r
}

#[test]
fn histogram_merge_is_associative_commutative_and_matches_concatenation() {
    for seed in 0..64u64 {
        let (a, b, c) = sample_streams(seed);
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associativity failed for seed {seed}");

        // a ⊔ b == b ⊔ a
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab, ba, "commutativity failed for seed {seed}");

        // Merged partials agree with one accumulator over the
        // concatenated stream — including the derived mean.
        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = hist_of(&concat);
        assert_eq!(left, whole, "concatenation agreement failed for seed {seed}");
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.sum(), whole.sum());
        assert_eq!(left.mean().to_bits(), whole.mean().to_bits(), "seed {seed}");

        // Merging an empty histogram is the identity.
        let mut with_empty = left.clone();
        with_empty.merge(&Histogram::default());
        assert_eq!(with_empty, left, "empty-merge identity failed for seed {seed}");
    }
}

#[test]
fn ratio_merge_is_associative_commutative_and_matches_concatenation() {
    for seed in 0..64u64 {
        let (a, b, c) = sample_streams(seed);
        let (ra, rb, rc) = (ratio_of(&a), ratio_of(&b), ratio_of(&c));

        let mut left = ra;
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb;
        bc.merge(&rc);
        let mut right = ra;
        right.merge(&bc);
        assert_eq!(left, right, "associativity failed for seed {seed}");

        let mut ab = ra;
        ab.merge(&rb);
        let mut ba = rb;
        ba.merge(&ra);
        assert_eq!(ab, ba, "commutativity failed for seed {seed}");

        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = ratio_of(&concat);
        assert_eq!(left, whole, "concatenation agreement failed for seed {seed}");
        assert_eq!(left.rate().to_bits(), whole.rate().to_bits(), "seed {seed}");

        let mut with_empty = left;
        with_empty.merge(&Ratio::default());
        assert_eq!(with_empty, left, "empty-merge identity failed for seed {seed}");
    }
}

#[test]
fn empty_aggregates_are_well_defined() {
    let h = Histogram::default();
    assert_eq!(h.mean(), 0.0, "empty histogram mean is 0.0, not NaN");
    assert!(h.mean().is_finite());
    assert_eq!(h.count(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);

    let r = Ratio::default();
    assert_eq!(r.rate(), 1.0, "an empty TLB has not missed");
    assert!(r.rate().is_finite());
}
