//! Property tests for the array reductions: for every world size we run
//! and every array length N ∈ {1, 3, 20}, every rank must compute the
//! identical result — bitwise — and that result must be bitwise the serial
//! fold of the ranks' arrays in ascending rank order, because the fold
//! order is fixed independent of scheduling. `exscan_sum` is the same
//! fold over ranks `0..r`.

use scomm::rng::{mix, SplitMix64};
use scomm::spmd;

/// Cases per property.
const CASES: u64 = 16;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// Rank `rank`'s `N` values: mixed magnitudes and signs, all finite.
fn rank_values<const N: usize>(seed: u64, rank: usize) -> [f64; N] {
    let mut rng = SplitMix64::new(seed ^ mix(rank as u64));
    std::array::from_fn(|_| (rng.below(2_000_001) as f64 - 1_000_000.0) / 977.0)
}

/// Sum, max, min and the exclusive prefix sum of element 0, as bits.
type Folds<const N: usize> = ([u64; N], [u64; N], [u64; N], u64);

fn bits<const N: usize>(sum: [f64; N], max: [f64; N], min: [f64; N], scan: f64) -> Folds<N> {
    let b = |v: [f64; N]| v.map(f64::to_bits);
    (b(sum), b(max), b(min), scan.to_bits())
}

/// Rank `me`'s reductions at `p` ranks, folded serially in rank order.
fn serial<const N: usize>(seed: u64, p: usize, me: usize) -> Folds<N> {
    let first = rank_values::<N>(seed, 0);
    let (mut sum, mut max, mut min) = (first, first, first);
    for r in 1..p {
        let v = rank_values::<N>(seed, r);
        for i in 0..N {
            sum[i] += v[i];
            max[i] = if v[i] > max[i] { v[i] } else { max[i] };
            min[i] = if v[i] < min[i] { v[i] } else { min[i] };
        }
    }
    let scan = (0..me).fold(0.0, |acc, r| acc + rank_values::<N>(seed, r)[0]);
    bits(sum, max, min, scan)
}

fn check<const N: usize>(seed: u64) {
    for p in [1usize, 2, 4, 8] {
        let out = spmd::run(p, move |c| {
            let mine = rank_values::<N>(seed, c.rank());
            let (sum, max, min) = (
                c.allreduce_sum(&mine),
                c.allreduce_max(&mine),
                c.allreduce_min(&mine),
            );
            bits(sum, max, min, c.exscan_sum(mine[0]))
        });
        for (r, got) in out.iter().enumerate() {
            let at = format!("on rank {r} at P={p}, N={N}, seed {seed:#x}");
            let (sum, max, min, _) = &out[0];
            assert_eq!(
                (&got.0, &got.1, &got.2),
                (sum, max, min),
                "ranks differ {at}"
            );
            assert_eq!(*got, serial::<N>(seed, p, r), "not the serial fold {at}");
        }
    }
}

#[test]
fn allreduce_identical_on_every_rank() {
    for seed in seeds(1) {
        check::<1>(seed);
        check::<3>(seed);
        check::<20>(seed);
    }
}
