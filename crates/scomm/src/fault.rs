//! Seeded fault injection for the simulated machine.
//!
//! Parallel AMR codes are full of latent ordering assumptions: a rank
//! that silently assumes its neighbours' messages arrive in rank order,
//! a collective whose result depends on which rank reaches the
//! staging area first, an exchange pattern that only works because the
//! simulated network happens to be FIFO across *sources*. On a real
//! machine (the paper's Ranger runs at 62,464 cores) none of these hold.
//!
//! This module provides a deterministic adversarial scheduler that can be
//! attached to a [`crate::Comm`]:
//!
//! * **Delay / reorder** — point-to-point messages are admitted into a
//!   per-rank jitter buffer on the receive side; a seeded draw per message
//!   decides how many "virtual ticks" it is held before it becomes
//!   deliverable. Messages of *different* `(source, tag)` channels get
//!   reordered against each other; messages of the *same* channel are
//!   always released in order, preserving the MPI FIFO-per-channel
//!   guarantee that correct code is allowed to rely on.
//! * **Drop-with-panic** — a seeded draw marks a message as lost; instead
//!   of hanging the receiver forever the scheduler panics with the full
//!   message identity, so tests can assert that a run *would have* relied
//!   on that message.
//! * **Collective stagger** — before entering a collective rendezvous the
//!   rank spins through a seeded number of `yield_now` calls, perturbing
//!   the thread interleavings that reach the shared staging slots.
//!
//! Every decision is drawn from [`mix`]`(seed ⊕ message identity)`
//! where the identity is `(src, dst, tag, per-channel sequence number)` —
//! no wall-clock, no OS entropy — so a run with a fixed seed makes the
//! same delay/drop decisions every time. The *interleaving* of racing
//! ranks stays as nondeterministic as the underlying threads, which is
//! exactly the point: results must not depend on it.
//!
//! **Completion time.** The scheduler sits on the receive side, in the
//! message-pull loop of [`crate::Comm::exchange_end`], so delays and
//! reordering take effect when a split-phase round is *completed* (the
//! `exchange_end` stalls, never the post), a planned drop panics inside
//! `exchange_end`, and per-`(source, tag)` FIFO order is preserved.

use std::collections::HashMap;

use crate::rng::mix;

/// Knobs of the adversarial scheduler. All probabilities are in permille
/// (0–1000) so the plan stays `Copy` and hashable-by-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every draw; two runs with the same seed make the same
    /// decisions.
    pub seed: u64,
    /// Probability (‰) that a point-to-point message is held in the
    /// jitter buffer.
    pub delay_permille: u32,
    /// Maximum hold, in virtual ticks (one tick per admitted message or
    /// drained-buffer step). Draws are uniform in `1..=max_hold_ticks`.
    pub max_hold_ticks: u32,
    /// Probability (‰) that a message is dropped; a drop panics with the
    /// message identity ("drop-with-panic").
    pub drop_permille: u32,
    /// Probability (‰) that a rank staggers (yields) before entering a
    /// collective rendezvous.
    pub stagger_permille: u32,
    /// Maximum number of `yield_now` calls per stagger.
    pub max_stagger_yields: u32,
}

impl FaultPlan {
    /// Aggressive delay/reordering, no drops: the standard smoke
    /// configuration for shaking out ordering assumptions.
    pub fn delays(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_permille: 400,
            max_hold_ticks: 8,
            drop_permille: 0,
            stagger_permille: 250,
            max_stagger_yields: 16,
        }
    }

    /// Certain drop of the first eligible message: the exchange round
    /// that depends on it panics deterministically.
    pub fn drops(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_permille: 0,
            max_hold_ticks: 1,
            drop_permille: 1000,
            stagger_permille: 0,
            max_stagger_yields: 0,
        }
    }
}

/// Counters of what the scheduler actually did (per rank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages admitted through the scheduler.
    pub admitted: u64,
    /// Messages held at least one tick.
    pub delayed: u64,
    /// Collective entries staggered.
    pub staggered: u64,
}

/// A message held in the jitter buffer.
struct Held<M> {
    /// Virtual tick at which the message becomes deliverable.
    release_at: u64,
    /// Global admission sequence (total order tie-break; preserves
    /// per-channel FIFO because later admissions of a channel get
    /// `release_at` clamped to at least the previous one's).
    admit_seq: u64,
    msg: M,
}

/// Per-rank scheduler state. `M` is the in-flight message type; the
/// scheduler only needs its channel identity `(src, tag)`.
pub(crate) struct FaultState<M> {
    plan: FaultPlan,
    /// Receiving rank (part of the draw identity).
    me: usize,
    /// Virtual clock: advances one tick per admission and when the
    /// receiver drains the buffer with nothing new arriving.
    now: u64,
    admit_seq: u64,
    /// Per-(src, tag) channel: (messages admitted, last release_at).
    channels: HashMap<(usize, u64), (u64, u64)>,
    held: Vec<Held<M>>,
    /// Sequence number of collective entries (stagger identity).
    collective_seq: u64,
    pub(crate) counters: FaultCounters,
}

impl<M> FaultState<M> {
    pub(crate) fn new(plan: FaultPlan, me: usize) -> FaultState<M> {
        FaultState {
            plan,
            me,
            now: 0,
            admit_seq: 0,
            channels: HashMap::new(),
            held: Vec::new(),
            collective_seq: 0,
            counters: FaultCounters::default(),
        }
    }

    fn draw(&self, src: usize, tag: u64, chan_seq: u64) -> u64 {
        let id = mix(src as u64 ^ (self.me as u64).rotate_left(16))
            ^ mix(tag).rotate_left(24)
            ^ mix(chan_seq).rotate_left(40);
        mix(self.plan.seed ^ id)
    }

    /// Admit one arriving message: decide drop (panics) or hold ticks,
    /// then buffer it. Advances the virtual clock by one tick.
    pub(crate) fn admit(&mut self, src: usize, tag: u64, msg: M) {
        let chan = self.channels.entry((src, tag)).or_insert((0, 0));
        let chan_seq = chan.0;
        chan.0 += 1;
        let r = self.draw(src, tag, chan_seq);
        self.counters.admitted += 1;
        self.now += 1;
        if (r % 1000) < self.plan.drop_permille as u64 {
            panic!(
                "scomm fault injection: dropped message src={} dst={} tag={:#x} seq={} (seed {:#x})",
                src, self.me, tag, chan_seq, self.plan.seed
            );
        }
        let hold = if ((r >> 10) % 1000) < self.plan.delay_permille as u64 {
            self.counters.delayed += 1;
            1 + (r >> 32) % self.plan.max_hold_ticks.max(1) as u64
        } else {
            0
        };
        // Per-channel FIFO: never release before the previous message of
        // the same channel.
        let release_at = (self.now + hold).max(self.channels[&(src, tag)].1);
        self.channels.get_mut(&(src, tag)).unwrap().1 = release_at;
        let admit_seq = self.admit_seq;
        self.admit_seq += 1;
        self.held.push(Held {
            release_at,
            admit_seq,
            msg,
        });
    }

    /// Pop the next deliverable message, if any: smallest
    /// `(release_at, admit_seq)` among those with `release_at <= now`.
    pub(crate) fn pop_ready(&mut self) -> Option<M> {
        let now = self.now;
        let best = self
            .held
            .iter()
            .enumerate()
            .filter(|(_, h)| h.release_at <= now)
            .min_by_key(|(_, h)| (h.release_at, h.admit_seq))
            .map(|(i, _)| i)?;
        Some(self.held.swap_remove(best).msg)
    }

    /// Whether the jitter buffer is empty.
    pub(crate) fn is_drained(&self) -> bool {
        self.held.is_empty()
    }

    /// Nothing new is arriving: advance the virtual clock to the earliest
    /// pending release so `pop_ready` makes progress. No-op when empty.
    pub(crate) fn tick_to_next_release(&mut self) {
        if let Some(next) = self.held.iter().map(|h| h.release_at).min() {
            self.now = self.now.max(next);
        }
    }

    /// Seeded stagger before a collective: returns the number of yields
    /// the caller should spin through (0 = none).
    pub(crate) fn collective_stagger(&mut self) -> u32 {
        let seq = self.collective_seq;
        self.collective_seq += 1;
        let r = self.draw(usize::MAX, u64::MAX, seq);
        if (r % 1000) < self.plan.stagger_permille as u64 {
            self.counters.staggered += 1;
            1 + ((r >> 16) % self.plan.max_stagger_yields.max(1) as u64) as u32
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        let a: FaultState<u8> = FaultState::new(FaultPlan::delays(7), 3);
        let b: FaultState<u8> = FaultState::new(FaultPlan::delays(7), 3);
        for (src, tag, seq) in [(0usize, 1u64, 0u64), (5, 9, 2), (1, 1, 1)] {
            assert_eq!(a.draw(src, tag, seq), b.draw(src, tag, seq));
        }
        let c: FaultState<u8> = FaultState::new(FaultPlan::delays(8), 3);
        assert_ne!(a.draw(0, 1, 0), c.draw(0, 1, 0), "seed must matter");
    }

    #[test]
    fn per_channel_fifo_is_preserved() {
        // Admit 50 messages of one channel under heavy delay; they must
        // come back in admission order.
        let mut fs: FaultState<u64> = FaultState::new(
            FaultPlan {
                seed: 42,
                delay_permille: 900,
                max_hold_ticks: 12,
                drop_permille: 0,
                stagger_permille: 0,
                max_stagger_yields: 0,
            },
            0,
        );
        for i in 0..50u64 {
            fs.admit(1, 7, i);
        }
        let mut out = Vec::new();
        while !fs.is_drained() {
            while let Some(m) = fs.pop_ready() {
                out.push(m);
            }
            fs.tick_to_next_release();
        }
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cross_channel_reordering_happens() {
        // Two channels interleaved: under delay some inversion between
        // channels must occur for this seed (the point of the jitter).
        let mut fs: FaultState<(usize, u64)> = FaultState::new(FaultPlan::delays(1), 0);
        for i in 0..40u64 {
            fs.admit(1, 0, (1, i));
            fs.admit(2, 0, (2, i));
        }
        let mut out = Vec::new();
        while !fs.is_drained() {
            while let Some(m) = fs.pop_ready() {
                out.push(m);
            }
            fs.tick_to_next_release();
        }
        assert_eq!(out.len(), 80);
        // Per-channel subsequences stay ordered...
        for ch in [1usize, 2] {
            let sub: Vec<u64> = out
                .iter()
                .filter(|(c, _)| *c == ch)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(sub, (0..40).collect::<Vec<_>>(), "channel {ch} FIFO");
        }
        // ...but the merged order differs from strict admission alternation.
        let alternating: Vec<(usize, u64)> = (0..40u64)
            .flat_map(|i| [(1usize, i), (2usize, i)])
            .collect();
        assert_ne!(out, alternating, "jitter must reorder across channels");
        assert!(fs.counters.delayed > 0);
    }

    #[test]
    #[should_panic(expected = "fault injection: dropped message")]
    fn drop_mode_panics_with_identity() {
        let mut fs: FaultState<u8> = FaultState::new(FaultPlan::drops(3), 2);
        fs.admit(0, 5, 1);
    }

    #[test]
    fn stagger_draws_bounded_and_deterministic() {
        let mk = || -> Vec<u32> {
            let mut fs: FaultState<u8> = FaultState::new(FaultPlan::delays(11), 1);
            (0..64).map(|_| fs.collective_stagger()).collect()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(a.iter().any(|&y| y > 0), "some collectives must stagger");
        assert!(a.iter().all(|&y| y <= 16));
    }
}
