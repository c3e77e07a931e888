//! Property tests for the cross-rank merge: `Reduce` promises an
//! associative, commutative monoid (the MPI-reduction contract), so a
//! world's summaries can be combined tree-wise, pairwise, or in rank
//! order with identical results. All three laws are checked over
//! randomly generated per-rank summaries, `CASES` seeded cases each;
//! every assertion names the case seed, which replays it.

use obs::{Reduce, Summary};
use scomm::rng::{mix, SplitMix64};

/// One random telemetry event: `sel` picks both the name and the kind
/// (phase / counter / histogram sample); `a`, `b` are the magnitudes.
type Op = (u8, u32, u32);

const NAMES: [&str; 6] = [
    "MINRES",
    "AMGSolve",
    "BalanceTree",
    "TimeIntegration",
    "comm:allreduce",
    "comm.bytes",
];

/// Deterministically fold a list of generated events into a Summary,
/// touching all three registries (phases, counters, histograms).
fn build(ops: &[Op]) -> Summary {
    let mut s = Summary::default();
    for &(sel, a, b) in ops {
        let name = NAMES[(sel % NAMES.len() as u8) as usize].to_string();
        match sel % 3 {
            0 => {
                let ps = s.phases.entry(name).or_default();
                if ps.cat.is_empty() {
                    ps.cat = "t".to_string();
                }
                ps.count += 1;
                let (incl, excl) = (a.max(b) as u64, a.min(b) as u64);
                ps.incl_ns += incl;
                ps.excl_ns += excl;
            }
            1 => *s.counters.entry(name).or_insert(0) += a as u64,
            _ => s.hists.entry(name).or_default().record(a as u64),
        }
    }
    s
}

fn merged(a: &Summary, b: &Summary) -> Summary {
    let mut m = a.clone();
    m.reduce(b);
    m
}

/// Cases per property.
const CASES: u64 = 48;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// Up to 23 random events.
fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    let n = rng.below(24);
    (0..n)
        .map(|_| {
            let sel = rng.below(256) as u8;
            let a = rng.below(1_000_001) as u32;
            (sel, a, rng.below(1_000_001) as u32)
        })
        .collect()
}

/// Summaries of `K` independent random event lists.
fn summaries<const K: usize>(seed: u64) -> [Summary; K] {
    let mut rng = SplitMix64::new(seed);
    std::array::from_fn(|_| build(&ops(&mut rng)))
}

#[test]
fn merge_is_commutative() {
    for seed in seeds(1) {
        let [a, b] = summaries(seed);
        assert_eq!(merged(&a, &b), merged(&b, &a), "seed {seed:#x}");
    }
}

#[test]
fn merge_is_associative() {
    for seed in seeds(2) {
        let [a, b, c] = summaries(seed);
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "seed {seed:#x}"
        );
    }
}

#[test]
fn default_is_the_identity() {
    for seed in seeds(3) {
        let [a] = summaries(seed);
        assert_eq!(merged(&a, &Summary::default()), a.clone(), "seed {seed:#x}");
        assert_eq!(merged(&Summary::default(), &a), a, "seed {seed:#x}");
    }
}

#[test]
fn reduce_all_equals_left_fold() {
    for seed in seeds(4) {
        let parts: [Summary; 3] = summaries(seed);
        let folded = parts
            .iter()
            .fold(Summary::default(), |acc, s| merged(&acc, s));
        assert_eq!(Summary::reduce_all(parts.iter()), folded, "seed {seed:#x}");
    }
}
