//! Golden contract for the split-phase ghost exchange: the packed
//! interleaved exchange and reverse accumulation are bitwise identical to
//! the allocating per-component collectives. Runs under
//! [`check::run_differential`] at P ∈ {1, 4}, so the contract is
//! exercised serially and with real ghost traffic.

use check::{run_differential, DiffOptions, Fingerprint};
use fem::op::DofMap;
use mesh::extract::{extract_mesh, ExchangeBuffers, Mesh};
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::Comm;

/// Seeded AMR fixture.
fn fixture(c: &Comm) -> (DistOctree<'_>, Mesh) {
    let mut t = DistOctree::new_uniform(c, 2);
    t.refine(|o| {
        let ctr = o.center_unit();
        (ctr[0] - 0.3).powi(2) + (ctr[1] - 0.4).powi(2) + (ctr[2] - 0.5).powi(2) < 0.1
    });
    t.balance(BalanceKind::Full);
    t.partition();
    let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
    (t, m)
}

fn fingerprint_of(t: &DistOctree, m: &Mesh) -> (Vec<(u32, u64, u8)>, Vec<u64>, Vec<(String, u64)>) {
    let leaves = t.local.iter().map(|o| (0u32, o.key(), o.level())).collect();
    let node_keys = m.dof_keys[..m.n_owned].to_vec();
    let counts = vec![
        ("elements".to_string(), t.global_count()),
        ("dofs".to_string(), m.n_global),
    ];
    (leaves, node_keys, counts)
}

#[test]
fn split_phase_exchange_is_bitwise_identical_to_allocating() {
    let result = run_differential(&[1, 4], &DiffOptions::default(), |c| {
        let (t, m) = fixture(c);
        let (leaves, node_keys, counts) = fingerprint_of(&t, &m);
        let map = DofMap::new(&m, c, 3);

        // Owned values keyed off the global dof id, so the expected ghost
        // values are rank-count independent.
        let mut owned = vec![0.0; map.n_owned()];
        for d in 0..m.n_owned {
            let gid = m.global_offset + d as u64;
            for k in 0..3 {
                owned[3 * d + k] = gid as f64 * 1e-3 + k as f64;
            }
        }
        let allocating = map.to_local(&owned);
        let mut split = Vec::new();
        let mut buf = ExchangeBuffers::with_stream(1);
        map.fill_local(&owned, &mut split);
        map.exchange_begin(&split, &mut buf);
        map.exchange_end(&mut split, &mut buf);
        assert_eq!(
            allocating, split,
            "split-phase packed exchange must fill ghosts bitwise identically"
        );

        // Reverse accumulation of a deterministic owned+ghost vector.
        let seed = |i: usize| ((i.wrapping_mul(2654435761)) % 1000) as f64 / 7.0 - 60.0;
        let mut w_allocating: Vec<f64> = (0..map.n_local()).map(seed).collect();
        let mut w_split = w_allocating.clone();
        map.reverse_accumulate(&mut w_allocating);
        map.reverse_accumulate_begin(&mut w_split, &mut buf);
        map.reverse_accumulate_end(&mut w_split, &mut buf);
        assert_eq!(
            w_allocating, w_split,
            "split-phase reverse accumulation must match the allocating path bitwise"
        );

        Fingerprint {
            leaves,
            node_keys,
            counts,
            series: Vec::new(),
        }
    });
    result.unwrap_or_else(|errs| panic!("differential mismatches:\n{}", errs.join("\n")));
}
