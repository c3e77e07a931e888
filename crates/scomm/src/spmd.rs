//! SPMD launcher: run the same closure on `P` simulated ranks, one OS
//! thread per rank.
//!
//! The closure is the "main" of the simulated MPI program. Results are
//! collected in rank order. `P` is bounded by what the OS will
//! thread-spawn and schedule sensibly — a few hundred on a laptop; the
//! test suite goes to 64.
//!
//! A rank that panics ends the run, like an MPI abort: its peers stop
//! waiting for it (see [`crate::comm`]) and [`run`] re-raises the dead
//! rank's own panic.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use obs::{RankProfile, Recorder};

use crate::comm::{Comm, World};
use crate::stats::CommStats;

/// A standalone single-rank communicator (the analogue of `MPI_COMM_SELF`),
/// for running SPMD algorithms serially without a launcher.
pub fn self_comm() -> Comm {
    World::new(1).attach(0)
}

/// Run `f` on `nranks` ranks and return the per-rank results in rank order.
///
/// If a rank panics, every peer that is blocked in (or later enters) an
/// `exchange_end` or a collective panics too, naming the
/// dead rank; once all ranks have ended, this re-raises the panic of the
/// first rank that died — its own payload, not a peer's "rank r
/// panicked".
pub fn run<F, R>(nranks: usize, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    run_with_stats(nranks, f).0
}

/// Like [`run`] but additionally returns each rank's accumulated
/// [`CommStats`].
pub fn run_with_stats<F, R>(nranks: usize, f: F) -> (Vec<R>, Vec<CommStats>)
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    let world = World::new(nranks);
    if nranks == 1 {
        // Fast path: run inline, no thread spawn.
        let comm = world.attach(0);
        let r = f(&comm);
        return (vec![r], vec![comm.stats()]);
    }
    let mut ranks: Vec<std::thread::Result<(R, CommStats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let (world, f) = (&world, &f);
                scope.spawn(move || {
                    let comm = world.attach(rank);
                    let r = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    if r.is_err() {
                        world.abort(rank);
                    }
                    r.map(|r| (r, comm.stats()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().and_then(|r| r))
            .collect()
    });
    if let Some(dead) = world.dead_rank() {
        let Err(payload) = ranks.swap_remove(dead) else {
            unreachable!("rank {dead} is recorded dead but returned")
        };
        resume_unwind(payload);
    }
    ranks
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .unzip()
}

/// Like [`run`] but with per-rank telemetry: each rank gets an
/// [`obs::Recorder`] attached to its communicator (so communication ops
/// auto-emit spans), the closure receives the recorder to add its own
/// spans/counters, and the per-rank [`RankProfile`]s come back in rank
/// order, ready for [`obs::ObsSession::write`] or a cross-rank
/// [`obs::Reduce`] merge.
pub fn run_traced<F, R>(nranks: usize, f: F) -> (Vec<R>, Vec<RankProfile>)
where
    F: Fn(&Comm, &Recorder) -> R + Sync,
    R: Send,
{
    let paired = run(nranks, |comm| {
        let rec = Recorder::new(comm.rank());
        comm.set_recorder(rec.clone());
        let r = f(comm, &rec);
        (r, rec.profile())
    });
    paired.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::Exchange;

    #[test]
    fn results_in_rank_order() {
        let out = run(8, |c| c.rank() * c.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn stats_returned_per_rank() {
        let (_, stats) = run_with_stats(3, |c| {
            // Rank 1 sends three bytes to rank 0; nobody else sends.
            let (send, send_counts, recv_counts) = match c.rank() {
                1 => (vec![1u8, 2, 3], [3, 0, 0], [0; 3]),
                0 => (Vec::new(), [0; 3], [0, 3, 0]),
                _ => (Vec::new(), [0; 3], [0; 3]),
            };
            let mut ex = Exchange::new(1);
            let (mut recv, mut counts) = (Vec::<u8>::new(), Vec::new());
            c.exchange_start(&send, &send_counts, &recv_counts, &mut ex);
            c.exchange_end(&mut ex, &mut recv, &mut counts);
            c.barrier();
        });
        assert_eq!(stats[1].p2p_bytes, 3);
        assert_eq!(stats[0].p2p_bytes, 0);
        assert!(stats.iter().all(|s| s.barriers == 1));
    }

    #[test]
    fn traced_run_collects_comm_spans_per_rank() {
        let (out, profiles) = run_traced(3, |c, rec| {
            let _step = rec.span("Step");
            let sum = c.allreduce_sum(&[c.rank() as u64 + 1]);
            c.barrier();
            sum[0]
        });
        assert_eq!(out, vec![6, 6, 6]);
        assert_eq!(profiles.len(), 3);
        for (r, p) in profiles.iter().enumerate() {
            assert_eq!(p.rank, r);
            // The user span plus auto-emitted comm spans are all present.
            assert_eq!(p.summary.phases["Step"].count, 1);
            assert_eq!(p.summary.phases["comm:allreduce"].cat, "comm");
            assert_eq!(p.summary.phases["comm:barrier"].count, 1);
            // allreduce folds through the private body: no nested span.
            assert!(!p.summary.phases.contains_key("comm:allgatherv"));
            // Payload sizes landed in the histogram (8 bytes * 3 ranks).
            assert_eq!(p.summary.hists["comm.bytes"].count, 1);
            assert_eq!(p.summary.hists["comm.bytes"].sum, 24);
        }
    }

    /// Every collective records one span under its own name and bumps
    /// one counter of its own, so a trace and `CommStats` agree op for op.
    #[test]
    fn comm_span_counts_match_comm_stats() {
        let (stats, profiles) = run_traced(3, |c, _| {
            c.allreduce_sum(&[1.0f64]);
            c.allgatherv(&[c.rank() as u64]);
            c.allreduce_max(&[c.rank() as u64]);
            c.exscan_sum(1u64);
            let mut buf = Vec::new();
            c.allgatherv_into(&[1u32], &mut buf);
            c.allreduce_min(&[2i64]);
            c.stats()
        });
        for (s, p) in stats.iter().zip(&profiles) {
            let count = |name: &str| p.summary.phases.get(name).map_or(0, |st| st.count);
            assert_eq!(count("comm:allgatherv"), s.allgathers, "rank {}", p.rank);
            assert_eq!(count("comm:allreduce"), s.allreduces, "rank {}", p.rank);
            assert_eq!(count("comm:exscan"), s.exscans, "rank {}", p.rank);
            assert_eq!((s.allgathers, s.allreduces, s.exscans), (2, 3, 1));
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        run(2, |c| {
            if c.rank() == 1 {
                panic!("deliberate");
            }
            c.barrier();
        });
    }

    /// The last rank panics while its peers are in `op`. The run must
    /// end, not hang, and re-raise that panic rather than a peer's "rank r
    /// panicked". A peer that blocks after the death must end too, so the
    /// test holds in either order; the sleep makes "already asleep on the
    /// condvar" (the wake-up path) the usual one, and `rank_panic_propagates`
    /// the other.
    fn last_rank_dies_while_peers_block_in(nranks: usize, op: fn(&Comm)) {
        run(nranks, |c| {
            if c.rank() == c.size() - 1 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("deliberate");
            }
            op(c);
        });
    }

    fn barrier(c: &Comm) {
        c.barrier();
    }

    fn allreduce(c: &Comm) {
        c.allreduce_sum(&[1.0f64]);
    }

    /// Every rank sends one value to every other and waits for all of
    /// them: the live peers' payloads arrive, the dead rank's never does.
    fn exchange(c: &Comm) {
        let ones = vec![1usize; c.size()];
        let send = vec![c.rank() as u64; c.size()];
        let mut ex = Exchange::new(1);
        let (mut recv, mut counts) = (Vec::<u64>::new(), Vec::new());
        c.exchange_start(&send, &ones, &ones, &mut ex);
        c.exchange_end(&mut ex, &mut recv, &mut counts);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_barrier_p2() {
        last_rank_dies_while_peers_block_in(2, barrier);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_barrier_p8() {
        last_rank_dies_while_peers_block_in(8, barrier);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_allreduce_p2() {
        last_rank_dies_while_peers_block_in(2, allreduce);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_allreduce_p8() {
        last_rank_dies_while_peers_block_in(8, allreduce);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_exchange_end_p2() {
        last_rank_dies_while_peers_block_in(2, exchange);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn dead_peer_ends_exchange_end_p8() {
        last_rank_dies_while_peers_block_in(8, exchange);
    }

    #[test]
    fn blocked_peer_panics_naming_the_dead_rank() {
        let seen = std::sync::Mutex::new(String::new());
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(3, |c| {
                if c.rank() == 2 {
                    panic!("deliberate");
                }
                let e = catch_unwind(AssertUnwindSafe(|| c.barrier()))
                    .expect_err("a barrier with a dead peer must panic");
                if c.rank() == 0 {
                    *seen.lock().unwrap() = e.downcast_ref::<String>().cloned().unwrap_or_default();
                }
            })
        }))
        .expect_err("the dead rank's panic must be re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"deliberate"));
        assert_eq!(
            *seen.lock().unwrap(),
            "scomm: rank 0 cannot complete a blocking operation: rank 2 panicked"
        );
    }
}
