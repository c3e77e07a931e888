//! The fuzzed adaptation regression suite.
//!
//! `smoke_*` run on fixed seeds in a few seconds. The `#[ignore]`d `full_200_cycles` test is the acceptance run:
//! 200 seeded cycles spread over P ∈ {1, 2, 4, 8} (4 ranks × 5 seeds ×
//! 10 cycles). Replay a failure by plugging the `(seed, cycle, p)` from
//! the panic message into a one-off `FuzzConfig`.

use check::fuzz_amr::{fuzz_amr, FuzzConfig};

#[test]
fn smoke_fixed_seeds_small_ranks() {
    for p in [1usize, 2] {
        for seed in [1u64, 2] {
            fuzz_amr(
                p,
                &FuzzConfig {
                    seed,
                    cycles: 3,
                    level: 2,
                    max_level: 3,
                    ..Default::default()
                },
            );
        }
    }
}

#[test]
fn smoke_four_ranks_deeper() {
    fuzz_amr(
        4,
        &FuzzConfig {
            seed: 3,
            cycles: 3,
            level: 2,
            max_level: 4,
            ..Default::default()
        },
    );
}

/// The packed-vs-unpacked oracle gate and the serial-kernel-vs-oracle
/// gate fire inside every cycle; exercise them at every acceptance rank
/// count.
#[test]
fn smoke_packed_gates_all_ranks() {
    for p in [1usize, 2, 4, 8] {
        fuzz_amr(
            p,
            &FuzzConfig {
                seed: 9,
                cycles: 1,
                level: 2,
                max_level: 3,
                ..Default::default()
            },
        );
    }
}

/// Acceptance: 200 seeded cycles at P ∈ {1, 2, 4, 8}.
#[test]
#[ignore = "acceptance run (~minutes); invoked explicitly"]
fn full_200_cycles() {
    for p in [1usize, 2, 4, 8] {
        for seed in 0..5u64 {
            fuzz_amr(
                p,
                &FuzzConfig {
                    seed,
                    cycles: 10,
                    level: 2,
                    max_level: 4,
                    ..Default::default()
                },
            );
        }
    }
}
