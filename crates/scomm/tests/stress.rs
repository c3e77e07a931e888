//! Stress and ordering tests for the simulated communicator.

use scomm::{spmd, Exchange, FaultPlan};

/// Many interleaved collectives of different kinds must stay in lockstep
/// (barrier-generation alignment under heavy reuse).
#[test]
fn interleaved_collectives_stay_aligned() {
    let out = spmd::run(6, |c| {
        let mut acc = 0u64;
        for round in 0..50u64 {
            match round % 4 {
                0 => {
                    let g = c.allgather(&[c.rank() as u64 + round]);
                    acc += g.iter().sum::<u64>();
                }
                1 => {
                    let s = c.allreduce_sum(&[round as f64])[0];
                    acc += s as u64;
                }
                2 => {
                    let b = c.bcast(round as usize % c.size(), &[round]);
                    acc += b[0];
                }
                _ => {
                    let x = c.exscan_sum(1u64);
                    acc += x;
                }
            }
        }
        acc
    });
    // All ranks performed the same collective sequence; sums of symmetric
    // collectives must agree except the exscan part, which differs by
    // rank — recompute expectations directly.
    let expect = |rank: u64| -> u64 {
        let p = 6u64;
        let mut acc = 0u64;
        for round in 0..50u64 {
            match round % 4 {
                0 => acc += (0..p).map(|r| r + round).sum::<u64>(),
                1 => acc += p * round, // allreduce-sum of `round` over p ranks
                2 => acc += round,
                _ => acc += rank, // exscan of ones = rank
            }
        }
        acc
    };
    for (r, &v) in out.iter().enumerate() {
        assert_eq!(v, expect(r as u64), "rank {r}");
    }
}

/// The value stream `s` carries from `src` to `dst` at `round`, entry `i`.
fn storm_value(s: usize, src: usize, dst: usize, round: usize, i: usize) -> u64 {
    ((s * 1000 + src * 100 + dst * 10 + round) as u64) << 16 | i as u64
}

/// Three exchange streams in flight at once under an adversarial
/// schedule, completed in reverse order of posting, with payloads that
/// differ per stream, source and destination and grow every round.
#[test]
fn exchange_storm_three_streams_under_delays() {
    let p = 5;
    let delayed = spmd::run(p, move |c| {
        c.set_fault_plan(Some(FaultPlan::delays(0x570c)));
        let me = c.rank();
        let mut streams: Vec<Exchange> = (1..=3).map(Exchange::new).collect();
        let (mut recv, mut counts) = (Vec::<u64>::new(), Vec::new());
        for round in 0..8 {
            // Stream s sends round + s + 1 values to every other rank.
            let n = |s: usize| -> Vec<usize> {
                (0..p)
                    .map(|r| if r == me { 0 } else { round + s + 1 })
                    .collect()
            };
            for (s, ex) in streams.iter_mut().enumerate() {
                let send: Vec<u64> = (0..p)
                    .flat_map(|dst| (0..n(s)[dst]).map(move |i| storm_value(s, me, dst, round, i)))
                    .collect();
                c.exchange_start(&send, &n(s), &n(s), ex);
            }
            for (s, ex) in streams.iter_mut().enumerate().rev() {
                c.exchange_end(ex, &mut recv, &mut counts);
                let want: Vec<u64> = (0..p)
                    .flat_map(|src| (0..n(s)[src]).map(move |i| storm_value(s, src, me, round, i)))
                    .collect();
                assert_eq!(recv, want, "stream {s}, round {round}");
                assert_eq!(counts, n(s));
            }
        }
        let delayed = c.fault_counters().unwrap().delayed;
        c.set_fault_plan(None);
        delayed
    });
    assert!(
        delayed.iter().sum::<u64>() > 0,
        "the plan must delay something"
    );
}

/// Worlds of size 1..8 all work, including empty payloads everywhere.
#[test]
fn all_world_sizes() {
    for p in 1..=8 {
        let out = spmd::run(p, |c| {
            let empty: Vec<f64> = Vec::new();
            let g = c.allgatherv(&empty);
            assert!(g.is_empty());
            c.allreduce_max(&[c.rank() as f64])[0]
        });
        assert!(out.iter().all(|&m| m == (p - 1) as f64));
    }
}
