//! One clean-pass and one violation-detection test per invariant
//! checker. Corruptions are injected by mutating the public fields of
//! the structures after construction — the checkers must catch every
//! one of them, on the rank(s) that can see them, without hanging the
//! other ranks (all checkers keep a data-independent collective
//! schedule, so these tests also prove "diagnose, don't deadlock").

use check::curve_checks::{balance21, ghost_symmetry, morton_order, partition};
use check::oracles::sorted_corners;
use forest::{Connectivity, Forest};
use mesh::extract::{extract_mesh, Corner, Mesh};
use octree::balance::BalanceKind;
use octree::ghost::{GhostEntry, GhostKind};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};
use scomm::{spmd, Comm};
use std::sync::Arc;

/// A deterministic adapted tree: uniform level 2, graded refinement,
/// balanced, repartitioned. The shape is rank-count independent.
fn adapted_tree(c: &Comm) -> DistOctree<'_> {
    let mut t = DistOctree::new_uniform(c, 2);
    t.refine(|o| {
        let ctr = o.center_unit();
        ctr[0] + ctr[1] < 0.8
    });
    t.balance(BalanceKind::Full);
    t.partition();
    t
}

fn total_violations(c: &Comm, v: &[check::Violation]) -> u64 {
    c.allreduce_sum(&[v.len() as u64])[0]
}

// ---------------------------------------------------------------- morton

#[test]
fn morton_order_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let v = morton_order(&t);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn morton_order_detects_local_disorder() {
    spmd::run(2, |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        if c.rank() == 0 {
            t.local.swap(0, 1);
        }
        let v = morton_order(&t);
        assert!(
            total_violations(c, &v) >= 1,
            "swapped leaves must be caught"
        );
        if c.rank() == 0 {
            assert!(v.iter().all(|x| x.checker == "morton_order"));
            assert!(!v.is_empty(), "the disorder is visible from rank 0");
        }
    });
}

#[test]
fn morton_order_detects_cross_rank_overlap() {
    spmd::run(2, |c| {
        // Each rank holds the *other* rank's segment of a uniform
        // level-2 tree: locally sorted, globally inverted.
        let n = 64u64;
        let r = (1 - c.rank()) as u64;
        let local: Vec<Octant> = (n * r / 2..n * (r + 1) / 2)
            .map(|i| Octant::from_uniform_index(2, i))
            .collect();
        let t = DistOctree::from_local(c, local);
        let v = morton_order(&t);
        assert!(
            total_violations(c, &v) >= 1,
            "globally inverted segments must be caught"
        );
    });
}

// --------------------------------------------------------------- balance

#[test]
fn balance21_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let v = balance21(&t, BalanceKind::Full);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn balance21_detects_unbalanced_corner() {
    spmd::run(2, |c| {
        // Complete but unbalanced: refine the origin child of a level-1
        // tree, then its *far-corner* child, with no balancing pass.
        // The level-3 leaves sit on the x = ROOT_LEN/2 plane, directly
        // touching untouched level-1 siblings — a jump of 2.
        let local = if c.rank() == 0 {
            let mut t = octree::ops::new_tree(1);
            octree::ops::refine(&mut t, |o| {
                o.level() == 1 && o.x() == 0 && o.y() == 0 && o.z() == 0
            });
            octree::ops::refine(&mut t, |o| {
                o.level() == 2
                    && o.x() + o.len() == ROOT_LEN / 2
                    && o.y() + o.len() == ROOT_LEN / 2
                    && o.z() + o.len() == ROOT_LEN / 2
            });
            t
        } else {
            Vec::new()
        };
        let t = DistOctree::from_local(c, local);
        let v = balance21(&t, BalanceKind::Full);
        assert!(
            total_violations(c, &v) >= 1,
            "level jump of 2 must be caught"
        );
    });
}

// ------------------------------------------------------------- partition

#[test]
fn partition_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let v = partition(&t);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn partition_detects_missing_leaf() {
    spmd::run(2, |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        if c.rank() == 0 {
            t.local.pop(); // hole in the domain; counts metadata stale
        }
        let v = partition(&t);
        assert!(
            total_violations(c, &v) >= 1,
            "dropped leaf must show up as count mismatch and volume gap"
        );
    });
}

// ------------------------------------------------------- ghost symmetry

#[test]
fn ghost_symmetry_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let g = t.ghosts().entries;
        let v = ghost_symmetry(&t, &g);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn ghost_symmetry_detects_missing_and_bogus_ghosts() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let mut g = t.ghosts().entries;
        if c.rank() == 0 {
            assert!(!g.is_empty(), "rank 0 must have ghosts in this fixture");
            // Missing: drop a real ghost — its owner must notice the
            // absent mirror.
            g.remove(0);
            // Bogus: claim a ghost of rank 1 that is not a leaf there
            // (the adapted tree never reaches MAX_LEVEL).
            g.push(GhostEntry {
                owner: 1,
                kind: GhostKind::Corner,
                leaf: Octant::new(0, 0, 0, MAX_LEVEL),
            });
        }
        let v = ghost_symmetry(&t, &g);
        let total = total_violations(c, &v);
        assert!(
            total >= 2,
            "one missing mirror and one bogus claim expected, got {total}"
        );
    });
}

// -------------------------------------------------------------- forest

#[test]
fn forest_morton_order_and_balance_clean() {
    let conn = Arc::new(Connectivity::brick(2, 1, 1));
    spmd::run(4, |c| {
        let mut f = Forest::new_uniform(c, conn.clone(), 1);
        f.refine(|l| l.tree == 0 && l.oct.center_unit()[0] > 0.5);
        f.balance(BalanceKind::Full);
        f.partition();
        let mut v = morton_order(&f);
        v.extend(balance21(&f, BalanceKind::Full));
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn forest_morton_order_detects_disorder() {
    let conn = Arc::new(Connectivity::brick(2, 1, 1));
    spmd::run(2, |c| {
        let mut f = Forest::new_uniform(c, conn.clone(), 1);
        if c.rank() == 0 && f.local.len() >= 2 {
            f.local.swap(0, 1);
        }
        let v = morton_order(&f);
        assert!(total_violations(c, &v) >= 1, "swapped forest leaves");
    });
}

#[test]
fn forest_balance21_detects_inter_tree_jump() {
    let conn = Arc::new(Connectivity::brick(2, 1, 1));
    spmd::run(2, |c| {
        // Refine tree 0's face touching tree 1 down two levels without
        // balancing: the inter-tree face transform must expose the jump.
        let mut f = Forest::new_uniform(c, conn.clone(), 0);
        for _ in 0..2 {
            f.refine(|l| l.tree == 0 && l.oct.x() + l.oct.len() == ROOT_LEN);
        }
        let v = balance21(&f, BalanceKind::Full);
        assert!(
            total_violations(c, &v) >= 1,
            "level jump across the tree face must be caught"
        );
    });
}

// ----------------------------------------------------------- constraints

#[test]
fn constraints_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let v = check::mesh_checks::constraints(&t, &m);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

/// Extract the adapted mesh, apply `corrupt` on every rank that holds a
/// constraint row, and run the constraints checker: this rank's
/// violations and the number of corrupted ranks.
fn constraints_after(c: &Comm, corrupt: impl Fn(&mut Mesh)) -> (Vec<check::Violation>, u64) {
    let t = adapted_tree(c);
    let mut m = extract_mesh(&t, [1.0, 1.0, 1.0]);
    let hanging = m.n_hanging() > 0;
    if hanging {
        corrupt(&mut m);
    }
    let corrupted = c.allreduce_sum(&[hanging as u64])[0];
    assert!(corrupted >= 1, "fixture must have hanging nodes");
    (check::mesh_checks::constraints(&t, &m), corrupted)
}

#[test]
fn constraints_detects_broken_row_sum() {
    spmd::run(2, |c| {
        // Row 0 now sums to 1.25.
        let (v, _) = constraints_after(c, |m| m.constraints.terms[0].1 += 0.25);
        assert!(
            total_violations(c, &v) >= 1,
            "weights summing to 1.25 must be caught"
        );
    });
}

#[test]
fn constraints_detects_row_index_out_of_range() {
    spmd::run(2, |c| {
        // Drop the last row: the corners tagged with it name a row the
        // arena does not hold.
        let (v, corrupted) = constraints_after(c, |m| {
            m.constraints.offsets.pop();
        });
        let caught = v
            .iter()
            .filter(|x| x.detail.contains("constraint row") && x.detail.contains("out of range"))
            .count();
        assert_eq!(c.allreduce_sum(&[caught as u64])[0], corrupted, "{v:?}");
    });
}

#[test]
fn constraints_detects_row_with_one_term() {
    spmd::run(2, |c| {
        // End row 0 after its first term; row 1, if any, absorbs the rest.
        let (v, corrupted) = constraints_after(c, |m| {
            let offsets = &mut m.constraints.offsets;
            offsets[1] = offsets[0] + 1;
        });
        let caught = v
            .iter()
            .filter(|x| x.detail.contains(": 1 constraint terms"))
            .count();
        assert_eq!(c.allreduce_sum(&[caught as u64])[0], corrupted, "{v:?}");
    });
}

#[test]
fn constraints_detects_cross_rank_disagreement() {
    spmd::run(2, |c| {
        let t = adapted_tree(c);
        let mut m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        // Find the smallest node key present on both ranks, then make
        // the higher rank resolve it differently, at every corner of
        // the node. Each rank's view stays locally well-formed — only
        // the cross-rank comparison can catch this.
        let corners = sorted_corners(&m.elements);
        let mut keys: Vec<u64> = corners.iter().map(|t| t.0).collect();
        keys.dedup();
        let lens = c.allgatherv(&[keys.len() as u64]);
        let all = c.allgatherv(&keys);
        let (r0, r1) = all.split_at(lens[0] as usize);
        let shared = r0.iter().find(|k| r1.contains(k));
        let key = *shared.expect("interface nodes must exist at P=2");
        if c.rank() == 1 {
            for &(_, ec) in corners.iter().filter(|t| t.0 == key) {
                let (e, i) = (ec as usize / 8, ec as usize % 8);
                let repl = match m.corner(e, i) {
                    Corner::Dof(d) => (d + 1) % m.n_owned.max(1),
                    Corner::Hanging(_) => 0,
                };
                m.corner_dofs[ec as usize] = repl as u32;
            }
        }
        let v = check::mesh_checks::constraints(&t, &m);
        assert!(
            total_violations(c, &v) >= 1,
            "ranks resolving one node differently must be caught"
        );
    });
}

// --------------------------------------------------------- dof numbering

#[test]
fn dof_numbering_clean() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let v = check::mesh_checks::dof_numbering(&t, &m);
        assert_eq!(total_violations(c, &v), 0, "{v:?}");
    });
}

#[test]
fn dof_numbering_detects_ghost_gid_in_own_range() {
    spmd::run(2, |c| {
        let t = adapted_tree(c);
        let mut m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let has = c.allgatherv(&[(m.n_ghost > 0) as u64]);
        let corrupt = has
            .iter()
            .rposition(|&h| h == 1)
            .expect("some rank has ghosts");
        if c.rank() == corrupt {
            m.ghost_gids[0] = m.global_offset; // my own dof, claimed as ghost
        }
        let v = check::mesh_checks::dof_numbering(&t, &m);
        assert!(
            total_violations(c, &v) >= 1,
            "ghost gid inside the owner's own range must be caught"
        );
    });
}

#[test]
fn dof_numbering_detects_exchange_asymmetry() {
    spmd::run(2, |c| {
        let t = adapted_tree(c);
        let mut m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let sends = c.allgatherv(&[!m.exchange.send.is_empty() as u64]);
        let corrupt = sends.iter().position(|&s| s == 1).expect("someone sends");
        if c.rank() == corrupt {
            // Drop the last row sent to the first rank sent to; that
            // peer still expects its value.
            let counts = &mut m.exchange.send_counts;
            let idx = counts.iter().position(|&k| k > 0).unwrap();
            let last = counts[..=idx].iter().sum::<usize>() - 1;
            counts[idx] -= 1;
            m.exchange.send.remove(last);
        }
        let v = check::mesh_checks::dof_numbering(&t, &m);
        assert!(
            total_violations(c, &v) >= 1,
            "send/recv plan asymmetry must be caught"
        );
    });
}

// ---------------------------------------------------------- stage guards

#[test]
fn guards_pass_on_clean_pipeline() {
    spmd::run(4, |c| {
        let t = adapted_tree(c);
        check::guard_tree(&t, BalanceKind::Full, None);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        check::guard_mesh(&t, &m, None);
    });
}

#[test]
#[should_panic(expected = "invariant violation")]
fn guard_tree_panics_on_corruption() {
    spmd::run(2, |c| {
        let mut t = DistOctree::new_uniform(c, 2);
        if c.rank() == 0 {
            t.local.swap(0, 1);
        }
        check::guard_tree(&t, BalanceKind::Full, None);
    });
}
