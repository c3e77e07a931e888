//! Nonblocking request handles and split-phase neighbor exchange state.
//!
//! This module holds the *handle* types of the request-based communication
//! contract; the operations themselves live on [`crate::Comm`]
//! (`isend` / `irecv` / `wait` / `waitall` / `test`,
//! `exchange_start` / `exchange_end`).
//!
//! Semantics mirror MPI's nonblocking point-to-point layer, restricted to
//! what the simulated machine needs:
//!
//! * **Sends are buffered**, so [`Comm::isend`](crate::Comm::isend)
//!   completes at post time and the returned [`SendRequest`] exists for
//!   API symmetry — its `wait` is a no-op and its `test` is always true.
//! * **Receives complete at `wait`**. [`Comm::irecv`](crate::Comm::irecv)
//!   records the `(source, tag)` pair and a post timestamp; matching,
//!   fault-plan jitter (delays, reordering, drop-with-panic) and telemetry
//!   all happen when the request is completed, never at post time. This is
//!   what makes an attached [`crate::FaultPlan`] exercise the split-phase
//!   code paths: a delayed message stalls `wait`, not the post.
//! * **Per-`(source, tag)` FIFO order is preserved** across blocking and
//!   nonblocking receives, with or without a fault plan attached.
//!
//! [`Exchange`] is the reusable state for one *stream* of split-phase
//! neighbor exchanges (`exchange_start` / `exchange_end`) — the
//! request-based counterpart of
//! [`Comm::alltoallv_flat`](crate::Comm::alltoallv_flat). Unlike the
//! blocking collective it is pure point-to-point: no barrier, no shared
//! staging matrix, so a rank only synchronizes with the neighbors it
//! actually exchanges payloads with, and the messages are in flight while
//! the caller computes between `start` and `end`.

use std::marker::PhantomData;

use crate::pod::Pod;

/// Handle for a posted nonblocking send.
///
/// The simulated machine buffers sends (the payload is copied into the
/// destination mailbox at post time), so a send request is complete the
/// moment [`Comm::isend`](crate::Comm::isend) returns. The handle exists
/// so call sites read like their MPI counterparts and so the type system
/// reminds callers that a posted send conceptually has a completion point.
#[derive(Debug)]
#[must_use = "complete the posted send with wait() (a no-op for buffered sends)"]
pub struct SendRequest {
    pub(crate) dst: usize,
    pub(crate) tag: u64,
}

impl SendRequest {
    /// Complete the send. Buffered sends complete at post time, so this is
    /// a no-op that consumes the handle.
    pub fn wait(self) {}

    /// Whether the send has completed. Always true for buffered sends.
    pub fn test(&self) -> bool {
        true
    }

    /// Destination rank the send was posted to.
    pub fn dst(&self) -> usize {
        self.dst
    }

    /// Tag the send was posted with.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Handle for a posted nonblocking receive of `T` elements.
///
/// Created by [`Comm::irecv`](crate::Comm::irecv); completed by
/// [`Comm::wait`](crate::Comm::wait) /
/// [`Comm::wait_into`](crate::Comm::wait_into) /
/// [`Comm::waitall`](crate::Comm::waitall); probed (non-blocking, never
/// advancing the fault clock) by [`Comm::test`](crate::Comm::test).
///
/// Dropping a request without waiting leaves any matching message in the
/// rank's pending queue for a later `recv`/`wait` with the same
/// `(source, tag)` — exactly as if the request had never been posted.
#[derive(Debug)]
#[must_use = "a posted receive must be completed with wait()/wait_into()/waitall()"]
pub struct RecvRequest<T: Pod> {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Recorder timestamp at post time; completion emits a `comm`-span
    /// covering post→complete plus the `comm.overlap_ns` counter.
    pub(crate) posted_ns: Option<u64>,
    pub(crate) _elem: PhantomData<T>,
}

impl<T: Pod> RecvRequest<T> {
    /// Source rank the receive was posted for.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Tag the receive was posted for.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Number of low bits of the exchange tag carrying the round sequence.
const EXCHANGE_SEQ_BITS: u32 = 32;

/// High-bit namespace for split-phase exchange tags, so exchange traffic
/// can never collide with user point-to-point tags (which are small in
/// practice: mesh extraction, AMR transfer and the tests all use tags well
/// below 2^32).
const EXCHANGE_TAG_BASE: u64 = 0xE5C0 << 48;

/// Reusable state for one stream of split-phase neighbor exchanges.
///
/// One `Exchange` value represents one logical communication *stream*: a
/// sequence of `exchange_start` / `exchange_end` rounds that are posted
/// and completed in order. Two exchanges may be in flight at the same time
/// (e.g. the velocity and pressure ghost layers of a Stokes operator
/// application) **iff** they use distinct stream ids — the stream id is
/// folded into the message tag, which is what keeps concurrently in-flight
/// rounds from matching each other's messages. Within one stream, rounds
/// are disambiguated by a sequence number in the tag's low bits, and the
/// per-`(source, tag)` FIFO of the transport does the rest.
///
/// The state is deliberately small and grow-only (the expected-count table
/// and the staged self-payload), so it can live inside a solver workspace
/// without violating warm-path zero-allocation guarantees;
/// [`Exchange::capacity_bytes`] reports its footprint for allocation
/// accounting.
#[derive(Debug)]
pub struct Exchange {
    pub(crate) stream: u64,
    /// Round counter; incremented by `exchange_end`.
    pub(crate) seq: u64,
    /// Expected element counts per source rank for the in-flight round.
    pub(crate) expect: Vec<usize>,
    /// Bytes this rank "sent to itself" at start, spliced back in at end
    /// without a mailbox round-trip.
    pub(crate) self_buf: Vec<u8>,
    pub(crate) in_flight: bool,
    /// Recorder timestamp at post time of the in-flight round.
    pub(crate) posted_ns: Option<u64>,
}

impl Exchange {
    /// Create the state for a new exchange stream. `stream` must be unique
    /// among all `Exchange` values that can be in flight simultaneously on
    /// the same communicator; it must fit in 16 bits.
    pub fn new(stream: u64) -> Exchange {
        assert!(stream < (1 << 16), "exchange stream id must fit in 16 bits");
        Exchange {
            stream,
            seq: 0,
            expect: Vec::new(),
            self_buf: Vec::new(),
            in_flight: false,
            posted_ns: None,
        }
    }

    /// The stream id this exchange posts under.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Whether a round is currently posted but not yet completed.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// The message tag for the current round.
    pub(crate) fn tag(&self) -> u64 {
        EXCHANGE_TAG_BASE
            | (self.stream << EXCHANGE_SEQ_BITS)
            | (self.seq & ((1u64 << EXCHANGE_SEQ_BITS) - 1))
    }

    /// Heap footprint of the exchange state, for workspace allocation
    /// accounting (grow-only, like the buffers it lives next to).
    pub fn capacity_bytes(&self) -> u64 {
        (self.expect.capacity() * std::mem::size_of::<usize>() + self.self_buf.capacity()) as u64
    }
}

impl Default for Exchange {
    /// Stream 0 — fine for any exchange that is never concurrently in
    /// flight with another one on the same communicator.
    fn default() -> Exchange {
        Exchange::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_tags_separate_streams_and_rounds() {
        let mut a = Exchange::new(1);
        let b = Exchange::new(2);
        assert_ne!(a.tag(), b.tag());
        let t0 = a.tag();
        a.seq += 1;
        assert_ne!(a.tag(), t0);
        // All exchange tags live in the reserved high-bit namespace.
        assert_eq!(a.tag() & EXCHANGE_TAG_BASE, EXCHANGE_TAG_BASE);
        assert_eq!(b.tag() & EXCHANGE_TAG_BASE, EXCHANGE_TAG_BASE);
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn oversized_stream_rejected() {
        let _ = Exchange::new(1 << 16);
    }

    #[test]
    fn capacity_accounting_tracks_growth() {
        let mut ex = Exchange::new(3);
        assert_eq!(ex.capacity_bytes(), 0);
        ex.expect.reserve(8);
        ex.self_buf.reserve(64);
        assert!(ex.capacity_bytes() >= 8 * std::mem::size_of::<usize>() as u64 + 64);
    }
}
