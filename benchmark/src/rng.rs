//! Seeded input generation. The program under test never sees the seed,
//! only the inputs made from it.

/// SplitMix64 (Steele, Lea & Flood 2014): a full-period 64-bit generator
/// whose whole state is the seed, so equal seeds give equal inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 2π)`.
    pub fn angle(&mut self) -> f64 {
        std::f64::consts::TAU * self.unit()
    }

    /// Uniform on the unit sphere.
    pub fn direction(&mut self) -> [f64; 3] {
        let z = 2.0 * self.unit() - 1.0;
        let (s, c) = self.angle().sin_cos();
        let r = (1.0 - z * z).sqrt();
        [r * c, r * s, z]
    }
}
