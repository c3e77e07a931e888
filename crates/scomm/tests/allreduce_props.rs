//! Property tests for the generic allreduce path: for every world size we
//! run, all ranks must compute the *identical* result — bitwise — because
//! the fold order (ascending rank) is fixed independent of scheduling.

use proptest::prelude::*;
use scomm::spmd;

/// Strategy: a per-rank contribution length and a seed for deterministic
/// per-rank payloads (rank r derives its values from `seed ^ r`).
fn arb_case() -> impl Strategy<Value = (usize, u64)> {
    (1usize..32, any::<u64>())
}

fn rank_values(seed: u64, rank: usize, n: usize) -> Vec<f64> {
    let mut state = seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mixed magnitudes and signs, all finite.
            ((state % 2_000_001) as f64 - 1_000_000.0) / 977.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_identical_on_every_rank((n, seed) in arb_case()) {
        for p in [1usize, 2, 4, 8] {
            let out = spmd::run(p, move |c| {
                let mine = rank_values(seed, c.rank(), n);
                let sum = c.allreduce_sum(&mine);
                let max = c.allreduce_max(&mine);
                let min = c.allreduce_min(&mine);
                (sum, max, min)
            });
            let (sum0, max0, min0) = &out[0];
            for (r, (sum, max, min)) in out.iter().enumerate() {
                // Bitwise comparison: identical fold order must give
                // identical floats, not merely close ones.
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(sum), bits(sum0), "sum differs on rank {} at P={}", r, p);
                prop_assert_eq!(bits(max), bits(max0), "max differs on rank {} at P={}", r, p);
                prop_assert_eq!(bits(min), bits(min0), "min differs on rank {} at P={}", r, p);
            }
            // Cross-check against a serial fold in rank order.
            let mut want = rank_values(seed, 0, n);
            for r in 1..p {
                for (w, v) in want.iter_mut().zip(rank_values(seed, r, n)) {
                    *w += v;
                }
            }
            for (w, s) in want.iter().zip(sum0.iter()) {
                prop_assert!((w - s).abs() <= 1e-9 * w.abs().max(1.0));
            }
        }
    }

}
