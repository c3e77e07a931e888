//! Ghost exchange against a closed form, at P ∈ {1, 2, 4, 8} and
//! ncomp ∈ {1, 3, 4} (4 is the Stokes field every MINRES apply
//! exchanges): the split-phase `*_begin/*_end` round — the one transport
//! every ghost exchange uses — is checked against what the answer must
//! be, not against other code.
//!
//! * Forward: owned entries hold a pure function of (lattice node key,
//!   component); after the exchange every ghost entry must hold that
//!   same function of *its* key, bit for bit.
//! * Reverse: every local entry holds a small integer (exact in f64);
//!   after the accumulation every owned entry must equal the sum, over
//!   all ranks, of the local entries carrying its lattice key, ghost
//!   blocks must be zero, and the global sum is conserved exactly.

use std::collections::HashMap;

use fem::op::DofMap;
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::{spmd, HaloBuffers};

const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Adapted fixture: hanging constraints, ghosts on all but the owner of
/// the shared nodes.
fn fixture(c: &scomm::Comm) -> DistOctree<'_> {
    let mut t = DistOctree::new_uniform(c, 2);
    t.refine(|o| o.center_unit()[2] > 0.6);
    t.balance(BalanceKind::Full);
    t.partition();
    t
}

/// The value a dof with lattice key `key` carries in component `k`.
fn value(key: u64, k: usize) -> f64 {
    (key % 100_003) as f64 * 0.37 + k as f64 * 1e-3 - 11.0
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn forward_exchange_delivers_the_owners_values() {
    for p in RANK_COUNTS {
        for ncomp in [1usize, 3, 4] {
            spmd::run(p, move |c| {
                let t = fixture(c);
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let map = DofMap::new(&m, c, ncomp);
                let mut owned = vec![0.0; map.n_owned()];
                for d in 0..m.n_owned {
                    for k in 0..ncomp {
                        owned[d * ncomp + k] = value(m.dof_keys[d], k);
                    }
                }
                let want: Vec<f64> = (0..m.n_local())
                    .flat_map(|d| (0..ncomp).map(move |k| (d, k)))
                    .map(|(d, k)| value(m.dof_keys[d], k))
                    .collect();

                let mut split = Vec::new();
                let mut buf = HaloBuffers::with_stream(1);
                map.fill_local(&owned, &mut split);
                map.exchange_begin(&split, &mut buf);
                map.exchange_end(&mut split, &mut buf);
                assert_eq!(bits(&split), bits(&want), "P={p} ncomp={ncomp}");
                let ghosts = c.allreduce_sum(&[m.n_ghost as u64])[0];
                assert_eq!(ghosts > 0, p > 1, "fixture must exchange at P={p}");
            });
        }
    }
}

#[test]
fn reverse_accumulate_conserves_the_global_sum() {
    for p in RANK_COUNTS {
        for ncomp in [1usize, 3, 4] {
            spmd::run(p, move |c| {
                let t = fixture(c);
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let map = DofMap::new(&m, c, ncomp);
                let n_owned = map.n_owned();
                let local: Vec<f64> = (0..m.n_local())
                    .flat_map(|d| (0..ncomp).map(move |k| (d, k)))
                    .map(|(d, k)| ((m.dof_keys[d] + 7 * k as u64) % 17) as f64 - 8.0)
                    .collect();
                let before = c.allreduce_sum(&[local.iter().sum::<f64>()])[0];
                // The closed form: every contribution, keyed by (node, component).
                let mine: Vec<(u64, u64, f64)> = local
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (m.dof_keys[i / ncomp], (i % ncomp) as u64, v))
                    .collect();
                let mut want: HashMap<(u64, u64), f64> = HashMap::new();
                for (key, k, v) in c.allgatherv(&mine) {
                    *want.entry((key, k)).or_default() += v;
                }

                let mut split = local;
                let (mut buf, halo) = (HaloBuffers::with_stream(1), &m.exchange);
                buf.accumulate_begin(c, &[halo], &mut [&mut split], ncomp);
                buf.accumulate_end(c, &[halo], &mut [&mut split], ncomp);

                for (i, &got) in split[..n_owned].iter().enumerate() {
                    let key = (m.dof_keys[i / ncomp], (i % ncomp) as u64);
                    assert_eq!(
                        got.to_bits(),
                        want[&key].to_bits(),
                        "owned entry {i}, P={p} ncomp={ncomp}"
                    );
                }
                assert!(
                    split[n_owned..].iter().all(|&g| g == 0.0),
                    "ghosts not zeroed"
                );
                let after = c.allreduce_sum(&[split[..n_owned].iter().sum::<f64>()])[0];
                assert_eq!(after, before, "sum not conserved, P={p} ncomp={ncomp}");
            });
        }
    }
}
