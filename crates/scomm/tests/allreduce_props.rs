//! Property tests for the generic allreduce path: for every world size we
//! run, all ranks must compute the *identical* result — bitwise — because
//! the fold order (ascending rank) is fixed independent of scheduling.

use scomm::rng::{mix, SplitMix64};
use scomm::spmd;

/// Cases per property.
const CASES: u64 = 16;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// Rank `rank`'s `n` values: mixed magnitudes and signs, all finite.
fn rank_values(seed: u64, rank: usize, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ mix(rank as u64));
    (0..n)
        .map(|_| (rng.below(2_000_001) as f64 - 1_000_000.0) / 977.0)
        .collect()
}

#[test]
fn allreduce_identical_on_every_rank() {
    for seed in seeds(1) {
        let n = 1 + SplitMix64::new(seed).below(31) as usize;
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
                let at = format!("on rank {r} at P={p}, seed {seed:#x}");
                assert_eq!(bits(sum), bits(sum0), "sum differs {at}");
                assert_eq!(bits(max), bits(max0), "max differs {at}");
                assert_eq!(bits(min), bits(min0), "min differs {at}");
            }
            // Cross-check against a serial fold in rank order.
            let mut want = rank_values(seed, 0, n);
            for r in 1..p {
                for (w, v) in want.iter_mut().zip(rank_values(seed, r, n)) {
                    *w += v;
                }
            }
            for (w, s) in want.iter().zip(sum0.iter()) {
                assert!(
                    (w - s).abs() <= 1e-9 * w.abs().max(1.0),
                    "P={p}, seed {seed:#x}"
                );
            }
        }
    }
}
