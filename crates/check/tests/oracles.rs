//! Every production path against its one oracle in [`check::oracles`]
//! (the DESIGN.md §10 table): 2:1 balance vs the naive restart loop,
//! packed octant arithmetic vs coordinate structs, recursive forest
//! ghosts vs the flat scan, the merged local+ghost view vs a sorted
//! concatenation, the parent-midpoint hanging-node rule vs
//! the eight-probe incidence walk, MINRES vs a dense LU solve, the
//! split-phase `DistOp` vs the allocating-collective rebuild of the same
//! product, and the element-block table (and the Stokes operator built
//! from it) vs direct per-element quadrature.

use std::sync::Arc;

use check::fuzz_amr::{mark_coarsen_refine, FuzzConfig};
use check::oracles::amg::GatheredAmg;
use check::oracles::element as direct;
use check::oracles::unpacked::Unpacked;
use check::oracles::{
    balance_local_naive_kind, dist_apply_reference, forest_flat_adjacent, forest_ghosts_flat,
    hanging_disagreements, sorted_local_ghost_view,
};
use fem::element::{stiffness_matrix, stiffness_source, supg_tau, ElementBlocks, LevelBlocks};
use fem::op::{DistOp, DofMap};
use forest::{Connectivity, Forest, ForestLeaf, GhostKind};
use la::dense::Lu;
use la::krylov::euclidean_dot;
use la::{minres, Csr};
use mesh::extract::{extract_mesh, node_coords};
use octree::balance::{balance_local_kind, is_balanced_kind, BalanceKind};
use octree::curve::{CurveLeaf, LeafCurve, TreeSeam};
use octree::ghost::{LeafOrigin, LocalGhostView};
use octree::ops::{new_tree, refine};
use octree::parallel::DistOctree;
use octree::{is_complete, is_valid_linear, Octant, MAX_LEVEL, ROOT_LEN};
use scomm::rng::{mix, SplitMix64};
use scomm::spmd;
use stokes::{StokesOptions, StokesSolver};

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

/// Cases per property.
const CASES: u64 = 48;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// An arbitrary valid octant at level ≤ `max_level`.
fn arb_octant(rng: &mut SplitMix64, max_level: u8) -> Octant {
    let level = rng.below(max_level as u64 + 1) as u8;
    Octant::from_uniform_index(level, rng.below(1 << (3 * level as u64)))
}

/// A complete linear octree built by `rounds` random refinement sweeps.
fn arb_tree(rng: &mut SplitMix64, rounds: usize) -> Vec<Octant> {
    let mut t = new_tree(1);
    for _ in 0..rounds {
        refine(&mut t, |o| o.level() < 5 && rng.below(11) == 0);
    }
    t
}

#[test]
fn balance_matches_naive_on_random_trees() {
    for seed in seeds(1) {
        // The minimal balanced refinement is unique, so seed propagation
        // and the one-violator-at-a-time oracle must agree bitwise for
        // every neighbor-set kind.
        let mut rng = SplitMix64::new(seed);
        let t = arb_tree(&mut rng, 4);
        let kind = KINDS[rng.below(3) as usize];
        let mut fast = t.clone();
        let mut naive = t;
        let n_fast = balance_local_kind(&mut fast, kind);
        let n_naive = balance_local_naive_kind(&mut naive, kind);
        assert_eq!(&fast, &naive, "{kind:?}, seed {seed:#x}");
        assert_eq!(n_fast, n_naive, "seed {seed:#x}");
        assert!(is_balanced_kind(&fast, kind), "seed {seed:#x}");
        assert!(is_complete(&fast), "seed {seed:#x}");
        assert!(is_valid_linear(&fast), "seed {seed:#x}");
    }
}

/// A rank-0 peninsula that a remote sibling refines deeply. Rank 0 owns
/// only B = [0, ¼)³ (level 2) and A = the first child of C = [¼, ½) ×
/// [0, ¼)² (level 3); C's second child, across the partition boundary, is
/// refined from level 3 to level 7 toward its corner on A. Each round's
/// requests refine the part of A next to it by one level. Only the next
/// round's local pass, seeded with the children they created, refines B
/// to keep 2:1 with them: no remote leaf near B is fine enough to request
/// it. So the balance takes four rounds, and one whose later rounds skip
/// the pass leaves B too coarse. Bitwise the naive balance of the gathered
/// leaves, at P ∈ {2, 4, 8}.
#[test]
fn many_round_balance_matches_naive() {
    let mut all = new_tree(2);
    let c_cell = Octant::new(ROOT_LEN / 4, 0, 0, 2);
    refine(&mut all, |o| *o == c_cell);
    let target = Octant::new(3 * ROOT_LEN / 8, 0, 0, MAX_LEVEL);
    for p in [2, 4, 8] {
        spmd::run(p, |c| {
            // Rank 0: B and A; ranks 1.. share the rest evenly.
            let (r, rest) = (c.rank(), all.len() - 2);
            let (lo, hi) = match r {
                0 => (0, 2),
                _ => (2 + rest * (r - 1) / (p - 1), 2 + rest * r / (p - 1)),
            };
            let mut t = DistOctree::from_local(c, all[lo..hi].to_vec());
            for _ in 3..7 {
                t.refine(|o| o.contains(&target));
            }
            let mut expected: Vec<Octant> = c.allgatherv(&t.local);
            let added = balance_local_naive_kind(&mut expected, BalanceKind::Full);
            assert_eq!(t.balance(BalanceKind::Full), added as u64, "P={p}");
            assert!(
                t.last_balance_rounds() >= 3,
                "P={p}: {}",
                t.last_balance_rounds()
            );
            assert_eq!(c.allgatherv(&t.local), expected, "P={p}");
        });
    }
}

#[test]
fn packed_ops_agree_with_unpacked_reference() {
    for seed in seeds(2) {
        let mut rng = SplitMix64::new(seed);
        let (a, b) = (
            arb_octant(&mut rng, MAX_LEVEL),
            arb_octant(&mut rng, MAX_LEVEL),
        );
        let (ua, ub) = (Unpacked::from(a), Unpacked::from(b));
        assert_eq!(Octant::from(ua), a, "seed {seed:#x}");
        assert_eq!(a.cmp(&b), ua.cmp(&ub), "seed {seed:#x}");
        assert_eq!(a.contains(&b), ua.contains(&ub), "seed {seed:#x}");
        assert_eq!(a.len(), ua.len(), "seed {seed:#x}");
        assert_eq!(a.key(), ua.key(), "seed {seed:#x}");
        let last = Octant::from(ua.last_descendant());
        assert_eq!(a.last_descendant(), last, "seed {seed:#x}");
        if a.level() > 0 {
            assert_eq!(a.parent(), Octant::from(ua.parent()), "seed {seed:#x}");
            assert_eq!(a.child_id(), ua.child_id(), "seed {seed:#x}");
        }
        for (dx, dy, dz) in Octant::neighbor_directions() {
            assert_eq!(
                a.neighbor(dx, dy, dz),
                ua.neighbor(dx, dy, dz).map(Octant::from),
                "seed {seed:#x}"
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
                let v = check::curve_checks::ghost_symmetry(&f, &layer.entries);
                assert!(v.is_empty(), "ghost symmetry violations at P={p}: {v:?}");
            });
        }
    }
}

/// The one-pass local+ghost merge against the concatenate-and-sort
/// oracle, entry for entry: leaf and owner, and each provenance index
/// points back at its leaf.
fn assert_view_matches_sort<L, S>(tree: &LeafCurve<L, S>, what: &str)
where
    L: CurveLeaf + std::fmt::Debug,
    S: TreeSeam<L>,
{
    let me = tree.comm().rank();
    let ghosts = tree.ghosts().entries;
    let view = LocalGhostView::new(&tree.local, &ghosts);
    let merged: Vec<(L, usize)> = (view.leaves.iter().zip(&view.origins))
        .map(|(&l, o)| (l, o.owner(me, &ghosts)))
        .collect();
    let want = sorted_local_ghost_view(&tree.local, &ghosts, me);
    assert_eq!(merged, want, "{what}: rank {me}");
    for (&l, &o) in view.leaves.iter().zip(&view.origins) {
        let from = match o {
            LeafOrigin::Local(i) => tree.local[i as usize],
            LeafOrigin::Ghost(j) => ghosts[j as usize].leaf,
        };
        assert_eq!(from, l, "{what}: rank {me}, {o:?}");
    }
}

#[test]
fn local_ghost_view_matches_sorted_concatenation() {
    let cfg = FuzzConfig {
        seed: 9,
        ..Default::default()
    };
    for p in [1usize, 2, 4] {
        spmd::run(p, |c| {
            let mut t = DistOctree::new_uniform(c, cfg.level);
            for cycle in 0..4 {
                mark_coarsen_refine(&mut t, &cfg, cycle);
                t.balance(BalanceKind::Full);
                t.partition();
                assert_view_matches_sort(&t, &format!("octree P={p} cycle {cycle}"));
            }
        });
        spmd::run(p, |c| {
            assert_view_matches_sort(&adapted_brick(c), &format!("brick P={p}"));
            assert_view_matches_sort(&adapted_sphere(c), &format!("sphere P={p}"));
        });
    }
    // Rank 1 owns no leaves; its neighbours on the curve do.
    spmd::run(4, |c| {
        let leaves = new_tree(1);
        let range = [0..4, 4..4, 4..6, 6..8][c.rank()].clone();
        let t = DistOctree::from_local(c, leaves[range].to_vec());
        assert_eq!(t.local.is_empty(), c.rank() == 1);
        assert_view_matches_sort(&t, "empty rank");
    });
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
    // every local node is hanging iff the oracle says it hangs.
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
                assert!(c.allreduce_sum(&[m.n_hanging() as u64])[0] > 0, "P={p}");
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
    let mut x_lu = b.clone();
    Lu::factor(&dense, n)
        .expect("indefinite(60) is nonsingular")
        .solve_in_place(&mut x_lu);
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
    // so hanging-node constraints are in play on every rank; one
    // component, and four coupled ones (the Stokes field's count).
    for p in [1usize, 2, 4, 8] {
        spmd::run(p, |c| {
            let mut t = DistOctree::new_uniform(c, 2);
            t.refine(|o| o.center_unit()[2] > 0.6);
            t.balance(BalanceKind::Full);
            t.partition();
            let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
            let blocks = LevelBlocks::new(&m);
            let scalar = stiffness_source(&m, &blocks, |_| 1.0);
            let coupled = |e: usize, out: &mut [f64]| {
                let mut k = [0.0; 64];
                scalar(e, &mut k);
                for (r, row) in out.chunks_exact_mut(32).enumerate() {
                    for (col, v) in row.iter_mut().enumerate() {
                        let weight = 1.0 + ((r % 4) * 4 + col % 4) as f64 / 7.0;
                        *v = weight * k[(r / 4) * 8 + col / 4];
                    }
                }
            };
            let sources: [(usize, &dyn Fn(usize, &mut [f64])); 2] = [(1, &scalar), (4, &coupled)];
            for (nc, elem_matrix) in sources {
                let map = DofMap::new(&m, c, nc);
                let bc: Vec<bool> = (0..map.n_owned())
                    .map(|i| m.dof_on_boundary(i / nc))
                    .collect();
                let x: Vec<f64> = (0..map.n_owned())
                    .map(|i| {
                        let g = m.global_offset * nc as u64 + i as u64;
                        ((g.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 9973) as f64 / 9973.0 - 0.5
                    })
                    .collect();
                for mask in [Some(&bc[..]), None] {
                    let op = DistOp::new(&map, Box::new(elem_matrix), mask);
                    let mut y = vec![0.0; map.n_owned()];
                    op.apply_owned(&x, &mut y);
                    let y_ref = dist_apply_reference(&map, elem_matrix, mask, &x);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&y),
                        bits(&y_ref),
                        "rank {} at P={p}, {nc} components, bc {}",
                        c.rank(),
                        mask.is_some()
                    );
                }
            }
        });
    }
}

// -------------------------------------------------------- element blocks

/// `got` within 1e-13 of the largest entry of `want`, entry by entry.
fn assert_block<const R: usize, const C: usize>(
    what: &str,
    got: &[[f64; C]; R],
    want: &[[f64; C]; R],
) {
    let largest = want.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
    for i in 0..R {
        for j in 0..C {
            let err = (got[i][j] - want[i][j]).abs();
            assert!(err <= 1e-13 * largest, "{what}[{i}][{j}] off by {err}");
        }
    }
}

/// Every block the table forms — and every scaling of it a solver
/// applies — against direct quadrature with the coefficient inside the
/// integrand: anisotropic boxes (the last at level 3 of the 8×4×1 domain),
/// η over decades, no flow (τ = 0), axis-aligned and oblique flow, and κ
/// on both sides of the Péclet switch in `supg_tau`.
#[test]
fn table_blocks_match_direct_quadrature() {
    let sizes = [
        [0.5, 0.25, 1.0],
        [1.0 / 32.0, 1.0 / 16.0, 1.0 / 32.0],
        [0.3, 0.7, 0.11],
        [1.0, 0.5, 0.125],
    ];
    let flows = [[0.0; 3], [0.0, 0.0, -2.5], [1.0, -0.3, 0.6]];
    for h in sizes {
        let t = ElementBlocks::new(h);
        assert_block("M", &t.mass, &direct::mass_matrix(h));
        assert_block("m", &[t.lumped_mass], &[direct::lumped_mass(h)]);
        assert_block("K₁", &t.stiffness, &stiffness_matrix(h, 1.0));
        assert_block("A₁", &t.viscous, &direct::viscous_matrix(h, 1.0));
        assert_block("B", &t.divergence, &direct::divergence_matrix(h));
        let c1 = direct::pressure_stabilization(h, 1.0);
        assert_block("C₁", &t.stabilization, &c1);
        for i in 0..8 {
            assert!(
                (0..24).all(|c| t.divergence_t[c][i] == t.divergence[i][c]),
                "Bᵀ"
            );
        }
        for eta in [1e-3, 0.37, 1.0, 42.0, 1e4] {
            let scale = |m: &[[f64; 24]; 24], s: f64| m.map(|row| row.map(|v| s * v));
            assert_block(
                "ηA₁",
                &scale(&t.viscous, eta),
                &direct::viscous_matrix(h, eta),
            );
            let c = t.stabilization.map(|row| row.map(|v| v / eta));
            assert_block("C₁/η", &c, &direct::pressure_stabilization(h, eta));
        }
        for a in flows {
            assert_block("A(a)", &t.advection(a), &direct::advection_matrix(h, a));
            for kappa in [0.0, 1e-9, 1.0] {
                let k = t.stiffness.map(|row| row.map(|v| kappa * v));
                assert_block("κK₁", &k, &stiffness_matrix(h, kappa));
                let (sm, sa) = t.supg(a, supg_tau(h, a, kappa));
                let (want_sm, want_sa) = direct::supg_matrices(h, a, kappa);
                assert_block("S_m", &sm, &want_sm);
                assert_block("S_a", &sa, &want_sa);
            }
        }
    }
}

/// The Stokes operator `[ηA₁ Bᵀ; B −C₁/η]` rebuilt element by element
/// from direct quadrature with each element's own `h` and η, through the
/// blocking `to_local` / `reverse_accumulate`, with the solver's
/// symmetric Dirichlet elimination when `bc` is given.
fn stokes_reference_apply(s: &StokesSolver, x: &[f64], bc: Option<&[bool]>) -> Vec<f64> {
    let (m, nu) = (s.mesh, 3 * s.mesh.n_owned);
    let (vmap, smap) = (DofMap::new(m, s.comm, 3), DofMap::new(m, s.comm, 1));
    let masked = |i: usize| bc.is_some_and(|b| b[i]);
    let u: Vec<f64> = (0..nu)
        .map(|i| if masked(i) { 0.0 } else { x[i] })
        .collect();
    let ul = vmap.to_local(&u);
    let pl = smap.to_local(&x[nu..]);
    let mut yu = vec![0.0; vmap.n_local()];
    let mut yp = vec![0.0; smap.n_local()];
    let (mut ue, mut pe) = ([0.0; 24], [0.0; 8]);
    for e in 0..m.elements.len() {
        let (h, eta) = (m.element_size(e), s.viscosity[e]);
        let a = direct::viscous_matrix(h, eta);
        let b = direct::divergence_matrix(h);
        let c = direct::pressure_stabilization(h, eta);
        vmap.gather_element(e, &ul, &mut ue);
        smap.gather_element(e, &pl, &mut pe);
        let ru: [f64; 24] = std::array::from_fn(|i| {
            (0..24).map(|j| a[i][j] * ue[j]).sum::<f64>()
                + (0..8).map(|q| b[q][i] * pe[q]).sum::<f64>()
        });
        let rp: [f64; 8] = std::array::from_fn(|q| {
            (0..24).map(|j| b[q][j] * ue[j]).sum::<f64>()
                - (0..8).map(|r| c[q][r] * pe[r]).sum::<f64>()
        });
        vmap.scatter_element(e, &ru, &mut yu);
        smap.scatter_element(e, &rp, &mut yp);
    }
    vmap.reverse_accumulate(&mut yu);
    smap.reverse_accumulate(&mut yp);
    let mut y = yu[..nu].to_vec();
    y.extend_from_slice(&yp[..m.n_owned]);
    for (i, yi) in y.iter_mut().enumerate().take(nu) {
        if masked(i) {
            *yi = x[i];
        }
    }
    y
}

#[test]
fn stokes_apply_matches_per_element_integration() {
    // Hanging nodes, two ranks, an anisotropic box, and η scattered
    // element by element over four decades, under the no-slip mask: the
    // constrained operator, and the unconstrained one the Dirichlet lift
    // applies to nonzero boundary values.
    spmd::run(2, |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| o.center_unit()[0] < 0.4 && o.center_unit()[2] > 0.3);
        t.balance(BalanceKind::Full);
        t.partition();
        let m = extract_mesh(&t, [2.0, 1.0, 1.0]);
        assert!(m.n_hanging() > 0, "rank {} sees no hanging node", c.rank());
        let mut rng = SplitMix64::new(mix(3 << 32 | c.rank() as u64));
        let visc: Vec<f64> = m
            .elements
            .iter()
            .map(|_| 10f64.powf(4.0 * rng.unit() - 2.0))
            .collect();
        let no_slip: Vec<bool> = (0..3 * m.n_owned)
            .map(|i| m.dof_on_boundary(i / 3))
            .collect();
        let solver = StokesSolver::new(&m, c, visc, no_slip.clone(), StokesOptions::default());
        let check = |what: &str, got: &[f64], want: &[f64]| {
            let scale = c.allreduce_max(&[want.iter().fold(0.0f64, |m, v| m.max(v.abs()))])[0];
            assert!(scale > 0.0, "{what}: zero reference");
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-12 * scale,
                    "{what}, entry {i}: {got} vs {want}"
                );
            }
        };

        let x: Vec<f64> = (0..4 * m.n_owned).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let mut y = vec![0.0; solver.n_owned()];
        solver.apply(&x, &mut y);
        check(
            "apply",
            &y,
            &stokes_reference_apply(&solver, &x, Some(&no_slip)),
        );

        // The lift subtracts A·x0, x0 = g on the masked dofs and zero
        // elsewhere, with A not eliminating the mask, then sets the masked
        // rows to g.
        let g = |p: [f64; 3]| [1.0 + p[0] * p[1], p[2] - 0.5 * p[0], (3.0 * p[1]).sin()];
        let rhs0: Vec<f64> = (0..4 * m.n_owned).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let mut rhs = rhs0.clone();
        let x0 = solver.dirichlet_lift(&mut rhs, g);
        for (i, &masked) in no_slip.iter().enumerate() {
            let want = if masked {
                g(m.dof_coords(i / 3))[i % 3]
            } else {
                0.0
            };
            assert_eq!(x0[i], want, "lift value, entry {i}");
            if masked {
                assert_eq!(rhs[i], want, "lifted row {i} is not u = g");
            }
        }
        let mut lifted: Vec<f64> = rhs0.iter().zip(&rhs).map(|(r0, r)| r0 - r).collect();
        let mut want = stokes_reference_apply(&solver, &x0, None);
        for (i, _) in no_slip.iter().enumerate().filter(|(_, &masked)| masked) {
            (lifted[i], want[i]) = (0.0, 0.0);
        }
        check("dirichlet_lift", &lifted, &want);
    });
}

/// MINRES iterations of an Arrhenius-like first flow solve of
/// `conv_cube` at `nranks`: the level-3 cube, the conductive profile with
/// its two modes, η = exp(−6.9 T̄) per element, free slip, Ra = 10⁵, to
/// 1e-6 from zero. The velocity V-cycle is production's (`gathered` =
/// false) or [`GatheredAmg`] on the same matrix and masks.
fn conv_first_solve(nranks: usize, gathered: bool) -> usize {
    spmd::run(nranks, move |c| {
        let m = extract_mesh(&DistOctree::new_uniform(c, 3), [1.0, 1.0, 1.0]);
        let pi = std::f64::consts::PI;
        let temperature: Vec<f64> = (0..m.n_owned)
            .map(|d| {
                let [x, y, z] = m.dof_coords(d);
                let modes =
                    (pi * x).cos() * (pi * y).cos() + 0.4 * (2.0 * pi * x).cos() * (pi * y).cos();
                ((1.0 - z) + 0.05 * modes * (pi * z).sin()).clamp(0.0, 1.0)
            })
            .collect();
        let tl = DofMap::new(&m, c, 1).to_local(&temperature);
        let visc: Vec<f64> = (0..m.elements.len())
            .map(|e| (-6.9 * m.corner_values(e, &tl).iter().sum::<f64>() / 8.0).exp())
            .collect();
        let free_slip: Vec<bool> = (0..3 * m.n_owned)
            .map(|i| m.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
            .collect();
        let options = StokesOptions {
            tol: 1e-6,
            ..StokesOptions::default()
        };
        let blocks = LevelBlocks::new(&m);
        let src = stiffness_source(&m, &blocks, |e| visc[e]);
        let rows = fem::assembly::assemble_owned_sum(&DofMap::new(&m, c, 1), &src);
        let oracle = GatheredAmg::<3>::new(c, &rows, &free_slip, options.amg);
        let solver = StokesSolver::new(&m, c, visc.clone(), free_slip.clone(), options);
        let buoyancy: Vec<f64> = (0..3 * m.n_owned)
            .map(|i| {
                if i % 3 == 2 {
                    1e5 * temperature[i / 3]
                } else {
                    0.0
                }
            })
            .collect();
        let rhs = solver.homogeneous_rhs(&buoyancy);
        let (n, nu) = (solver.n_owned(), 3 * m.n_owned);
        let op = (n, |x: &[f64], y: &mut [f64]| solver.apply(x, y));
        let pre = (n, |r: &[f64], z: &mut [f64]| {
            solver.apply_preconditioner(r, z);
            if gathered {
                oracle.vcycle(&r[..nu], &mut z[..nu]);
            }
        });
        let dot = |a: &[f64], b: &[f64]| solver.dot(a, b);
        let mut x = vec![0.0; n];
        let info = minres(
            &op,
            Some(&pre),
            &rhs,
            &mut x,
            options.tol,
            500,
            dot,
            |_, _| {},
        );
        assert!(info.converged, "P = {nranks}: {info:?}");
        info.iterations
    })[0]
}

#[test]
fn lane_sharing_is_decided_across_ranks() {
    // Rank 0 owns no pinned row, so its three lane masks agree; rank 1's
    // are free slip's and differ. Both ranks must build the three
    // hierarchies rank 1's rows call for (a rank-local decision builds one
    // on rank 0, and the ranks' collectives part ways). With the whole
    // matrix factored, the V-cycle is the gathered hierarchy's exact solve.
    let out = spmd::run(2, |c| {
        let m = extract_mesh(&DistOctree::new_uniform(c, 2), [1.0, 1.0, 1.0]);
        let blocks = LevelBlocks::new(&m);
        let src = stiffness_source(&m, &blocks, |e| 1.0 + (e % 3) as f64);
        let rows = fem::assembly::assemble_owned_sum(&DofMap::new(&m, c, 1), &src);
        let mask: Vec<bool> = (0..3 * m.n_owned)
            .map(|i| c.rank() == 1 && m.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
            .collect();
        let lane = |k: usize| mask.iter().skip(k).step_by(3).copied().collect::<Vec<_>>();
        let distinct = [(0, 1), (0, 2), (1, 2)].map(|(k, l)| lane(k) != lane(l));
        assert_eq!(
            distinct,
            [c.rank() == 1; 3],
            "rank {}: the fixture",
            c.rank()
        );
        let whole = la::AmgOptions {
            max_coarse: rows.offsets[2] as usize,
        };
        let coarsened = la::Amg::<3>::coupled(c, &rows, &mask, la::AmgOptions::default());
        let amg = la::Amg::<3>::coupled(c, &rows, &mask, whole);
        let oracle = GatheredAmg::<3>::new(c, &rows, &mask, whole);
        let b: Vec<f64> = (0..3 * m.n_owned)
            .map(|i| ((i * 7919 + 31 * c.rank()) % 211) as f64 / 50.0 - 2.2)
            .collect();
        let (mut z, mut want) = (vec![0.0; b.len()], vec![0.0; b.len()]);
        amg.vcycle(&b, &mut z);
        oracle.vcycle(&b, &mut want);
        let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        let gap = z
            .iter()
            .zip(&want)
            .fold(0.0f64, |s, (x, y)| s.max((x - y).abs()));
        (coarsened.hierarchies(), amg.hierarchies(), gap / scale)
    });
    for (rank, &(coarsened, whole, gap)) in out.iter().enumerate() {
        assert_eq!((coarsened, whole), (3, 3), "rank {rank}: hierarchies");
        assert!(
            gap <= 1e-12,
            "rank {rank}: V-cycle {gap:e} from the gathered one"
        );
    }
}

#[test]
fn coupled_amg_stays_near_the_gathered_hierarchy() {
    // ROADMAP item 3(a): the gathered hierarchy is the one-rank
    // preconditioner at every P, so its count moves only by the rounding
    // of the distributed dot products. The coupled hierarchy aggregates
    // within ranks; measured 37 / 36 / 38 at P = 1 / 2 / 4 against the
    // gathered 37 / 37 / 37 (one hierarchy per rank, composed
    // block-Jacobi: 37 / 42 / 56).
    let one = conv_first_solve(1, false);
    assert_eq!(
        conv_first_solve(1, true),
        one,
        "one rank: the same hierarchy"
    );
    for p in [2, 4] {
        let (coupled, gathered) = (conv_first_solve(p, false), conv_first_solve(p, true));
        assert!(
            gathered.abs_diff(one) <= 1,
            "P = {p}: gathered {gathered} against {one}"
        );
        assert!(
            100 * coupled <= 115 * gathered,
            "P = {p}: coupled {coupled} against gathered {gathered}"
        );
    }
}
