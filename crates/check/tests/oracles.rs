//! Every production path against its one oracle in [`check::oracles`]
//! (the DESIGN.md §9 table): 2:1 balance vs the naive restart loop,
//! packed octant arithmetic vs coordinate structs, recursive forest
//! ghosts vs the flat scan, the parent-midpoint hanging-node rule vs
//! the eight-probe incidence walk, MINRES vs a dense LU solve, and the
//! split-phase `DistOp` vs the allocating-collective rebuild of the same
//! product.

use std::sync::Arc;

use check::fuzz_amr::{mark_coarsen_refine, FuzzConfig};
use check::oracles::unpacked::Unpacked;
use check::oracles::{
    balance_local_naive_kind, dist_apply_reference, forest_flat_adjacent, forest_ghosts_flat,
    hanging_disagreements,
};
use fem::element::stiffness_matrix;
use fem::op::{DistOp, DofMap};
use forest::{Connectivity, Forest, ForestLeaf, GhostKind};
use la::dense::Lu;
use la::krylov::euclidean_dot;
use la::{minres, Csr};
use mesh::extract::{extract_mesh, node_coords, NodeResolution};
use octree::balance::{balance_local_kind, is_balanced_kind, BalanceKind};
use octree::ops::{new_tree, refine};
use octree::parallel::DistOctree;
use octree::{is_complete, is_valid_linear, Octant, MAX_LEVEL, ROOT_LEN};
use proptest::prelude::*;
use scomm::spmd;

const KINDS: [BalanceKind; 3] = [BalanceKind::Face, BalanceKind::FaceEdge, BalanceKind::Full];

// ----------------------------------------------------------- 2:1 balance

/// Refine toward the domain center `depth` levels deep: the leaves
/// hugging the center planes end up adjacent to level-1 leaves across
/// them, violating 2:1 for depth ≥ 3.
fn center_spike(depth: u8) -> Vec<Octant> {
    let mid = ROOT_LEN / 2 - 1;
    let target = Octant::new(mid, mid, mid, MAX_LEVEL);
    let mut t = new_tree(1);
    for _ in 1..depth {
        refine(&mut t, |o| o.contains(&target));
    }
    t
}

#[test]
fn balance_matches_naive_all_kinds() {
    for depth in [3u8, 5, 6] {
        for kind in KINDS {
            let mut fast = center_spike(depth);
            let mut naive = fast.clone();
            let n_fast = balance_local_kind(&mut fast, kind);
            let n_naive = balance_local_naive_kind(&mut naive, kind);
            assert_eq!(fast, naive, "depth {depth}, {kind:?}");
            assert_eq!(n_fast, n_naive);
            assert!(is_balanced_kind(&fast, kind));
            assert!(is_complete(&fast));
            assert!(is_valid_linear(&fast));
        }
    }
}

/// Strategy: an arbitrary valid octant at level ≤ `max_level`.
fn arb_octant(max_level: u8) -> impl Strategy<Value = Octant> {
    (0..=max_level, any::<u64>()).prop_map(|(level, seed)| {
        let n = 1u64 << (3 * level as u64);
        Octant::from_uniform_index(level, seed % n)
    })
}

/// Strategy: a complete linear octree built by a random refinement walk.
fn arb_tree(rounds: usize) -> impl Strategy<Value = Vec<Octant>> {
    proptest::collection::vec(any::<u64>(), rounds).prop_map(|seeds| {
        let mut t = new_tree(1);
        for seed in seeds {
            let mut h = seed;
            refine(&mut t, |o| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(o.key());
                o.level() < 5 && h % 11 == 0
            });
        }
        t
    })
}

proptest! {
    #[test]
    fn balance_matches_naive_on_random_trees(t in arb_tree(4), which in 0usize..3) {
        // The minimal balanced refinement is unique, so seed propagation
        // and the one-violator-at-a-time oracle must agree bitwise for
        // every neighbor-set kind.
        let kind = KINDS[which];
        let mut fast = t.clone();
        let mut naive = t;
        let n_fast = balance_local_kind(&mut fast, kind);
        let n_naive = balance_local_naive_kind(&mut naive, kind);
        prop_assert_eq!(&fast, &naive, "{:?}", kind);
        prop_assert_eq!(n_fast, n_naive);
        prop_assert!(is_balanced_kind(&fast, kind));
        prop_assert!(is_complete(&fast));
        prop_assert!(is_valid_linear(&fast));
    }

    #[test]
    fn packed_ops_agree_with_unpacked_reference(
        a in arb_octant(MAX_LEVEL),
        b in arb_octant(MAX_LEVEL),
    ) {
        let (ua, ub) = (Unpacked::from(a), Unpacked::from(b));
        prop_assert_eq!(Octant::from(ua), a);
        prop_assert_eq!(a.cmp(&b), ua.cmp(&ub));
        prop_assert_eq!(a.contains(&b), ua.contains(&ub));
        prop_assert_eq!(a.len(), ua.len());
        prop_assert_eq!(a.key(), ua.key());
        prop_assert_eq!(a.last_descendant(), Octant::from(ua.last_descendant()));
        if a.level() > 0 {
            prop_assert_eq!(a.parent(), Octant::from(ua.parent()));
            prop_assert_eq!(a.child_id(), ua.child_id());
        }
        for (dx, dy, dz) in Octant::neighbor_directions() {
            prop_assert_eq!(
                a.neighbor(dx, dy, dz),
                ua.neighbor(dx, dy, dz).map(Octant::from)
            );
        }
    }
}

// --------------------------------------------------------- forest ghosts

/// A 2×1×1 brick: nonconforming faces inside trees and across the
/// inter-tree face.
fn adapted_brick(c: &scomm::Comm) -> Forest<'_> {
    let mut f = Forest::new_uniform(c, Arc::new(Connectivity::brick(2, 1, 1)), 1);
    f.refine(|l| l.tree == 1 || l.oct.center_unit()[0] > 0.5);
    f.refine(|l| l.tree == 1 && l.oct.center_unit()[1] > 0.5);
    f.balance(BalanceKind::Full);
    f.partition();
    f
}

/// The 24-tree cubed sphere, where composed face transforms reach
/// inter-tree edge/corner neighbors the flat scan cannot.
fn adapted_sphere(c: &scomm::Comm) -> Forest<'_> {
    let mut f = Forest::new_uniform(c, Arc::new(Connectivity::cubed_sphere(0.55, 1.0)), 1);
    f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
    f.refine(|l| l.oct.level() == 2 && l.oct.key() % 5 == 0);
    f.balance(BalanceKind::Full);
    f.partition();
    f
}

#[test]
fn recursive_ghosts_match_flat_scan() {
    for build in [adapted_brick, adapted_sphere] {
        for p in [1usize, 2, 4, 8] {
            spmd::run(p, |c| {
                let f = build(c);
                let layer = f.ghosts();
                let flat = forest_ghosts_flat(&f);
                // Restricted to the flat scan's receiver predicate:
                // bitwise identical.
                let subset: Vec<(usize, ForestLeaf)> = layer
                    .entries
                    .iter()
                    .filter(|e| forest_flat_adjacent(&f, &e.leaf))
                    .map(|e| (e.owner as usize, e.leaf))
                    .collect();
                assert_eq!(subset, flat, "flat-adjacent subset diverged at P={p}");
                // Beyond it: edge/corner provenance only.
                for e in &layer.entries {
                    if e.kind == GhostKind::Face {
                        assert!(
                            forest_flat_adjacent(&f, &e.leaf),
                            "P={p}: face-classified ghost {:?} is not flat-adjacent",
                            e.leaf
                        );
                    }
                }
                if p > 1 {
                    assert!(!layer.entries.is_empty(), "P={p} must produce ghosts");
                }
                let v = check::forest_checks::ghost_symmetry(
                    f.curve(),
                    &f.local,
                    f.connectivity().as_ref(),
                    &layer.entries,
                );
                assert!(v.is_empty(), "ghost symmetry violations at P={p}: {v:?}");
            });
        }
    }
}

// ------------------------------------------------ hanging classification

/// Refined three levels deep around the sphere `|x − c| = 0.3`.
fn sphere_tree(c: &scomm::Comm) -> DistOctree<'_> {
    let mut t = DistOctree::new_uniform(c, 2);
    for _ in 0..3 {
        t.refine(|o| {
            let q = o.center_unit();
            let r = ((q[0] - 0.45).powi(2) + (q[1] - 0.55).powi(2) + (q[2] - 0.5).powi(2)).sqrt();
            (r - 0.3).abs() < o.len_unit()
        });
    }
    t
}

/// Three cycles of `fuzz_amr`'s seeded marks.
fn fuzz_marked_tree(c: &scomm::Comm) -> DistOctree<'_> {
    let cfg = FuzzConfig {
        seed: 4,
        ..Default::default()
    };
    let mut t = DistOctree::new_uniform(c, cfg.level);
    for cycle in 0..3 {
        mark_coarsen_refine(&mut t, &cfg, cycle);
        t.balance(BalanceKind::Full);
    }
    t
}

#[test]
fn hanging_nodes_match_probe_oracle() {
    // The parent-midpoint rule against the eight-probe incidence oracle:
    // every local node is `Constrained` iff the oracle says it hangs.
    for build in [sphere_tree, fuzz_marked_tree] {
        for p in [1usize, 2, 4, 8] {
            spmd::run(p, |c| {
                let mut t = build(c);
                t.balance(BalanceKind::Full);
                t.partition();
                let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
                let wrong = hanging_disagreements(&t, &m);
                assert!(
                    wrong.is_empty(),
                    "P={p}, rank {}: {} node(s) disagree, first at {:?}",
                    c.rank(),
                    wrong.len(),
                    node_coords(wrong[0])
                );
                let hanging = m
                    .node_table
                    .iter()
                    .filter(|r| matches!(r, NodeResolution::Constrained(_)))
                    .count();
                assert!(c.allreduce_sum(&[hanging as u64])[0] > 0, "P={p}");
            });
        }
    }
}

// ---------------------------------------------------------------- MINRES

/// A symmetric *indefinite* saddle-point-like tridiagonal matrix.
fn indefinite(n: usize) -> Csr {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, if i < n / 2 { 2.0 } else { -1.5 }));
        if i > 0 {
            t.push((i, i - 1, 0.3));
            t.push((i - 1, i, 0.3));
        }
    }
    Csr::from_triplets(n, n, &t)
}

#[test]
fn minres_matches_dense_lu() {
    // A different algorithm on the same system: Krylov iterates against
    // a pivoted direct factorization, with and without a preconditioner.
    let n = 60;
    let a = indefinite(n);
    let mut dense = vec![0.0; n * n];
    let mut col = vec![0.0; n];
    for j in 0..n {
        let mut unit = vec![0.0; n];
        unit[j] = 1.0;
        a.matvec(&unit, &mut col);
        for i in 0..n {
            dense[i * n + j] = col[i];
        }
    }
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.2).cos()).collect();
    let x_lu = Lu::factor(&dense, n)
        .expect("indefinite(60) is nonsingular")
        .solve(&b);
    let scale = x_lu.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let d = a.diagonal();
    let jacobi = (n, move |x: &[f64], y: &mut [f64]| {
        for i in 0..x.len() {
            y[i] = x[i] / d[i].abs();
        }
    });
    for pre in [None, Some(&jacobi)] {
        let mut x = vec![0.0; n];
        let info = minres(&a, pre, &b, &mut x, 1e-12, 500, euclidean_dot, |_, _| {});
        assert!(info.converged, "{info:?}");
        for (i, (u, v)) in x.iter().zip(&x_lu).enumerate() {
            assert!(
                (u - v).abs() <= 1e-8 * scale,
                "preconditioned {}, entry {i}: {u} vs {v}",
                pre.is_some()
            );
        }
    }
}

// ------------------------------------------------------- operator apply

#[test]
fn dist_op_apply_matches_reference_bitwise() {
    // Workspace sweep vs an allocating sweep; same transport (pinned by
    // exchange_analytic.rs) and element-order accumulation. Adapted mesh,
    // so hanging-node constraints are in play on every rank.
    for p in [1usize, 2, 4, 8] {
        spmd::run(p, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[2] > 0.6);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let map = DofMap::new(&m, c, 1);
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let elem_matrix = |e: usize, out: &mut [f64]| {
                let k = stiffness_matrix(m.element_size(e), 1.0);
                for i in 0..8 {
                    out[i * 8..i * 8 + 8].copy_from_slice(&k[i]);
                }
            };
            let x: Vec<f64> = (0..m.n_owned)
                .map(|d| {
                    let g = m.global_offset + d as u64;
                    ((g.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 9973) as f64 / 9973.0 - 0.5
                })
                .collect();
            for mask in [Some(&bc[..]), None] {
                let op = DistOp::new(&map, Box::new(elem_matrix), mask);
                let mut y = vec![0.0; m.n_owned];
                op.apply_owned(&x, &mut y);
                let y_ref = dist_apply_reference(&map, &elem_matrix, mask, &x);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&y),
                    bits(&y_ref),
                    "rank {} at P={p}, bc {}",
                    c.rank(),
                    mask.is_some()
                );
            }
        });
    }
}
