//! SplitMix64, the one seeded generator of the workspace.
//!
//! [`mix`] is the stateless finalizer that [`crate::fault`] draws every
//! delay, drop and stagger decision from; [`SplitMix64`] is the stream
//! over it that seeded tests draw their cases from. The stream's `k`-th
//! output is `mix(seed + k·γ)`, so `SplitMix64::new(x).next_u64()` equals
//! `mix(x)`, and a failing case replays from its seed alone.

/// The Weyl increment γ = 2⁶⁴/φ.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: the standard 64-bit finalizer; full-period, stateless.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 stream from one seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream whose first output is `mix(seed)`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = mix(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        r
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`, on a 2⁻⁵³ grid.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_from_seed_zero() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn first_output_is_the_finalizer() {
        for x in [0, 1, 7, 0xdead_beef, u64::MAX, GAMMA.wrapping_neg()] {
            assert_eq!(SplitMix64::new(x).next_u64(), mix(x), "x = {x:#x}");
        }
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(42);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
