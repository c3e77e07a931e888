//! Split-phase neighbor exchange state: the one point-to-point primitive.
//!
//! [`Exchange`] is the reusable state for one *stream* of split-phase
//! neighbor exchanges; the operations live on [`crate::Comm`]
//! (`exchange_start` / `exchange_end`). A round is pure point-to-point —
//! no barrier, no shared staging matrix — so a rank only synchronizes
//! with the neighbors it actually exchanges payloads with, and only when
//! it completes the round.
//!
//! * **Sends are buffered**: `exchange_start` copies every payload into
//!   its destination's mailbox before it returns, in a buffer recycled
//!   from a message this rank matched earlier.
//! * **Everything observable happens at completion**: message matching,
//!   fault-plan jitter (delays, reordering, drop-with-panic) and the
//!   `comm:exchange` span all happen in `exchange_end`, never at post
//!   time. A delayed message stalls `exchange_end`, not the post.
//! * **Per-`(source, tag)` FIFO order is preserved**, with or without a
//!   fault plan attached.
//!
//! Every ghost-value exchange of the mesh, FEM, AMG and DG layers is one
//! such round, posted by a [`crate::HaloBuffers`]; a blocking one is an
//! `exchange_start` followed at once by its `exchange_end`.

/// Number of low bits of the exchange tag carrying the round sequence.
const EXCHANGE_SEQ_BITS: u32 = 32;

/// High-bit namespace of the exchange tags.
const EXCHANGE_TAG_BASE: u64 = 0xE5C0 << 48;

/// Reusable state for one stream of split-phase neighbor exchanges.
///
/// One `Exchange` value represents one logical communication *stream*: a
/// sequence of `exchange_start` / `exchange_end` rounds that are posted
/// and completed in order. Two exchanges may be in flight at the same time
/// (e.g. the ghost layers of two fields exchanged together) **iff** they
/// use distinct stream ids — the stream id is
/// folded into the message tag, which is what keeps concurrently in-flight
/// rounds from matching each other's messages. Within one stream, rounds
/// are disambiguated by a sequence number in the tag's low bits, and the
/// per-`(source, tag)` FIFO of the transport does the rest.
///
/// The state is deliberately small and grow-only (the expected-count table
/// and the staged self-payload), so it can live inside a solver workspace:
/// a warm round reuses both, and its payloads reuse the buffers of
/// messages received (`tests/allocations.rs` counts what it allocates).
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
}
