//! SPMD launcher: run the same closure on `P` simulated ranks.
//!
//! Two executors share one transport and one programming model:
//!
//! * [`run`] / [`run_with_stats`] / [`run_traced`] — one OS thread per
//!   rank. Faithful preemption, but `P` is capped by what the OS will
//!   thread-spawn (≈ a few hundred).
//! * [`run_virtual`] / [`run_virtual_with_stats`] / [`run_virtual_traced`]
//!   — `P` virtual ranks cooperatively scheduled over `W` worker threads
//!   ([`crate::vrank`]). The same closure, the same [`Comm`] semantics
//!   and bitwise-identical results, but `P` can be 1024 or 4096 on a
//!   laptop: a rank that blocks in the split-phase request layer or a
//!   collective parks its coroutine and the worker runs another rank.
//!
//! The closure is the "main" of the simulated MPI program. Results are
//! collected in rank order.

use std::sync::Arc;

use obs::{ProfileCollector, RankProfile, Recorder, WorldProfile};

use crate::comm::{Comm, World};
use crate::stats::CommStats;
use crate::vrank::Scheduler;

/// A standalone single-rank communicator (the analogue of `MPI_COMM_SELF`),
/// for running SPMD algorithms serially without a launcher.
pub fn self_comm() -> Comm {
    World::new(1).attach(0)
}

/// Run `f` on `nranks` ranks and return the per-rank results in rank order.
///
/// Panics in any rank propagate (the launcher re-panics after joining),
/// matching the fail-fast behaviour of an MPI abort.
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
    let mut results: Vec<Option<(R, CommStats)>> = (0..nranks).map(|_| None).collect();
    if nranks == 1 {
        // Fast path: run inline, no thread spawn.
        let comm = world.attach(0);
        let r = f(&comm);
        results[0] = Some((r, comm.stats()));
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nranks);
            for rank in 0..nranks {
                let world = &world;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let comm = world.attach(rank);
                    let r = f(&comm);
                    let stats = comm.stats();
                    (r, stats)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(pair) => results[rank] = Some(pair),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });
    }
    let mut out = Vec::with_capacity(nranks);
    let mut stats = Vec::with_capacity(nranks);
    for slot in results {
        let (r, s) = slot.expect("every rank produces a result");
        out.push(r);
        stats.push(s);
    }
    (out, stats)
}

/// Run `f` on `nranks` *virtual* ranks cooperatively scheduled over
/// `workers` OS threads, and return the per-rank results in rank order.
///
/// Drop-in equivalent of [`run`] for any `f`: the transport, matching,
/// collective fold orders, fault injection and telemetry are shared code
/// (see [`crate::comm`]), so results are bitwise-identical to the
/// threaded executor — the `check` crate's differential suite asserts
/// this for ghost exchange, operator application and full solves. Use
/// this executor when `nranks` exceeds what OS threads tolerate: the
/// fig7/fig8 harnesses run P = 1024 on ≤ 16 workers.
///
/// Each rank is pinned to worker `rank % workers` for its whole life
/// (rank state is not `Send`); ranks only switch at communication
/// blocking points, so pure compute does not interleave. Panics in any
/// rank propagate after all ranks unwind; a communication cycle that can
/// never complete panics with a per-rank deadlock dump instead of
/// hanging (see `vrank`'s watchdog).
pub fn run_virtual<F, R>(nranks: usize, workers: usize, f: F) -> Vec<R>
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    run_virtual_with_stats(nranks, workers, f).0
}

/// Like [`run_virtual`] but additionally returns each rank's accumulated
/// [`CommStats`] (the virtual counterpart of [`run_with_stats`]).
pub fn run_virtual_with_stats<F, R>(nranks: usize, workers: usize, f: F) -> (Vec<R>, Vec<CommStats>)
where
    F: Fn(&Comm) -> R + Sync,
    R: Send,
{
    let sched = Scheduler::new(nranks, workers);
    let world = World::new_virtual(nranks, Arc::clone(&sched));
    let mut results: Vec<Option<(R, CommStats)>> = (0..nranks).map(|_| None).collect();

    /// A raw slot pointer that crosses into a coroutine; disjoint per
    /// rank, written exactly once. (The write goes through a method so
    /// closures capture the whole `Send` wrapper, not the raw field.)
    struct SendPtr<T>(*mut T);
    unsafe impl<T> Send for SendPtr<T> {}
    impl<T> SendPtr<T> {
        /// SAFETY: caller guarantees exclusive access to the slot.
        unsafe fn write(&self, v: T) {
            *self.0 = v;
        }
    }

    let entries: Vec<Box<dyn FnOnce() + Send>> = results
        .iter_mut()
        .enumerate()
        .map(|(rank, slot)| {
            let world = Arc::clone(&world);
            let f = &f;
            let slot = SendPtr(slot as *mut Option<(R, CommStats)>);
            let entry: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let comm = world.attach(rank);
                let r = f(&comm);
                let stats = comm.stats();
                // SAFETY: slots are disjoint per rank and outlive the
                // scheduler run below.
                unsafe { slot.write(Some((r, stats))) };
            });
            // SAFETY: lifetime erasure only. `sched.run` consumes every
            // entry and joins its workers before returning, and both
            // `sched` and `world` drop before this function's borrows
            // (`f`, `results`) go out of scope.
            unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                    entry,
                )
            }
        })
        .collect();
    sched.run(entries);

    let mut out = Vec::with_capacity(nranks);
    let mut stats = Vec::with_capacity(nranks);
    for slot in results {
        let (r, s) = slot.expect("every virtual rank produces a result");
        out.push(r);
        stats.push(s);
    }
    (out, stats)
}

/// Like [`run_traced`] but on the virtual executor: per-rank recorders,
/// profiles returned in rank order. At large `nranks` prefer
/// [`run_virtual_traced_bounded`], which aggregates instead of retaining
/// one full profile per rank.
pub fn run_virtual_traced<F, R>(nranks: usize, workers: usize, f: F) -> (Vec<R>, Vec<RankProfile>)
where
    F: Fn(&Comm, &Recorder) -> R + Sync,
    R: Send,
{
    let paired = run_virtual(nranks, workers, |comm| {
        let rec = Recorder::new(comm.rank());
        comm.set_recorder(rec.clone());
        let r = f(comm, &rec);
        (r, rec.profile())
    });
    paired.into_iter().unzip()
}

/// Like [`run_virtual_traced`] but with memory bounded by `sample_cap`
/// instead of `nranks`: each rank's profile is folded into one merged
/// [`obs::Summary`] as soon as the rank finishes, and only ranks
/// `< sample_cap` keep their full span-level [`RankProfile`] (for the
/// Chrome trace). At P = 4096 this is the difference between thousands
/// of retained trace tracks and a fixed handful — the
/// [`WorldProfile::elided`] count records exactly what was dropped.
pub fn run_virtual_traced_bounded<F, R>(
    nranks: usize,
    workers: usize,
    sample_cap: usize,
    f: F,
) -> (Vec<R>, WorldProfile)
where
    F: Fn(&Comm, &Recorder) -> R + Sync,
    R: Send,
{
    let collector = ProfileCollector::new(sample_cap);
    let out = run_virtual(nranks, workers, |comm| {
        let rec = Recorder::new(comm.rank());
        comm.set_recorder(rec.clone());
        let r = f(comm, &rec);
        collector.absorb(rec.profile());
        r
    });
    (out, collector.finish())
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

    #[test]
    fn results_in_rank_order() {
        let out = run(8, |c| c.rank() * c.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn stats_returned_per_rank() {
        let (_, stats) = run_with_stats(3, |c| {
            if c.rank() == 1 {
                c.send(0, 0, &[1u8, 2, 3]);
            }
            if c.rank() == 0 {
                let _ = c.recv::<u8>(1, 0);
            }
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
            // allreduce nests allgatherv under it on the same rank.
            assert_eq!(p.summary.phases["comm:allgatherv"].count, 1);
            // Payload sizes landed in the histogram (8 bytes * 3 ranks).
            assert_eq!(p.summary.hists["comm.bytes"].count, 1);
            assert_eq!(p.summary.hists["comm.bytes"].sum, 24);
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        run(2, |c| {
            if c.rank() == 1 {
                panic!("deliberate");
            }
            // Rank 0 must not block forever on a collective with a dead
            // peer in this test; it just returns.
        });
    }
}
