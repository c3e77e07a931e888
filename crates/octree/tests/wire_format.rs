//! Wire-format regression for the packed octant (PR 7 satellite).
//!
//! The pre-PR-7 `Octant` was a `repr(C)` struct of three `u32`
//! coordinates plus a `u8` level: 16 bytes on the wire, of which 3 were
//! uninitialized padding — so `scomm::as_bytes` shipped nondeterministic
//! garbage and byte-level message comparison (deduplication, replay,
//! checksums) was impossible. The packed representation is a single
//! `u64`, so the wire image is exactly the little-endian raw key: 8
//! bytes, no padding, fully deterministic.

use octree::{ops, Octant};
use scomm::{pod, spmd};

/// A little deterministic octant soup touching every byte of the key:
/// domain corners at `MAX_LEVEL`, the root, and a refined patch.
fn sample_octants() -> Vec<Octant> {
    let mut v = vec![Octant::root()];
    let far = octree::ROOT_LEN - 1;
    for &(x, y, z) in &[(0, 0, 0), (far, far, far), (far, 0, far)] {
        v.push(Octant::new(x, y, z, octree::MAX_LEVEL));
    }
    let mut t = ops::new_tree(2);
    ops::refine(&mut t, |o| o.x() == 0);
    v.extend(t);
    v
}

#[test]
fn octant_is_eight_packed_bytes() {
    assert_eq!(std::mem::size_of::<Octant>(), 8);
    assert_eq!(std::mem::align_of::<Octant>(), 8);
    let octs = sample_octants();
    let bytes = pod::as_bytes(&octs);
    assert_eq!(bytes.len(), 8 * octs.len());
    // The wire image IS the little-endian raw key stream: no padding
    // bytes exist to leak, and re-encoding an independently rebuilt
    // (bitwise-equal) vector yields identical bytes.
    for (i, o) in octs.iter().enumerate() {
        assert_eq!(&bytes[8 * i..8 * i + 8], &o.raw().to_le_bytes());
    }
    let rebuilt: Vec<Octant> = octs
        .iter()
        .map(|o| {
            if *o == Octant::root() {
                Octant::root()
            } else {
                Octant::new(o.x(), o.y(), o.z(), o.level())
            }
        })
        .collect();
    assert_eq!(pod::as_bytes(&rebuilt), bytes);
    // Decode round-trips bitwise.
    assert_eq!(pod::from_bytes::<Octant>(bytes), octs);
}

#[test]
fn scomm_round_trip_is_deterministic() {
    // Two-rank ping-pong over two exchange rounds: rank 0 sends the soup,
    // rank 1 echoes it back. Both the received octants and their byte
    // image must match the sender's exactly — this is what the padded
    // struct could not guarantee.
    spmd::run(2, |c| {
        let octs = sample_octants();
        let n = octs.len();
        let mut ex = scomm::Exchange::new(1);
        let (mut got, mut counts) = (Vec::<Octant>::new(), Vec::new());
        // Round 1: 0 → 1. Round 2: 1 → 0, echoing what arrived.
        let (ping, pong) = if c.rank() == 0 {
            ([0, n], [0, 0])
        } else {
            ([0, 0], [n, 0])
        };
        let mine = if c.rank() == 0 { &octs[..] } else { &[] };
        c.exchange_start(mine, &ping, &pong, &mut ex);
        c.exchange_end(&mut ex, &mut got, &mut counts);
        if c.rank() == 1 {
            assert_eq!(got, octs);
            assert_eq!(pod::as_bytes(&got), pod::as_bytes(&octs));
        }
        let echo = got.clone();
        c.exchange_start(&echo, &pong, &ping, &mut ex);
        c.exchange_end(&mut ex, &mut got, &mut counts);
        if c.rank() == 0 {
            assert_eq!(got, octs);
            assert_eq!(pod::as_bytes(&got), pod::as_bytes(&octs));
        }
    });
}
