//! Seeded property-based fuzzer for the AMR adaptation pipeline.
//!
//! Each fuzz run drives randomized `mark → refine → coarsen → balance →
//! partition → transfer` cycles on a distributed octree and asserts,
//! every cycle:
//!
//! * all six invariant checkers are clean on the post-partition state
//!   ([`crate::curve_checks`]::{morton_order, partition, balance21}, the
//!   kind-aware [`crate::curve_checks::ghost_symmetry`] and
//!   [`crate::mesh_checks`]::{constraints, dof_numbering});
//! * every local node of the extracted mesh is `Constrained` iff the
//!   eight-probe incidence oracle
//!   ([`crate::oracles::hanging_master_probes`]) says it hangs;
//! * the distributed balance produces a global leaf set **bitwise
//!   equal** to the serial naive oracle
//!   ([`crate::oracles::balance_local_naive_kind`]) applied to the
//!   gathered pre-balance union, and so does the serial local balance
//!   kernel;
//! * the packed-key oracle agrees bitwise with the unpacked
//!   coordinate-struct oracle
//!   ([`crate::oracles::unpacked::balance_naive_unpacked`]);
//! * the ghost layer of the same leaves wrapped as a one-tree forest, and
//!   the tree's own, both equal the flat per-leaf scan
//!   ([`crate::oracles::forest_ghosts_flat`]) bitwise, entry for entry,
//!   and the forest's passes the kind-aware mirror check;
//! * field transfer conserves: the production kernel
//!   ([`mesh::interp::transfer_corner_values_into`], the Morton merge
//!   `rhea::adapt` runs) reproduces a linear function to 1e-12 at every
//!   corner of the adapted leaves through coarsen/refine/balance, the
//!   global corner-data sum is conserved across the repartition to
//!   1e-12, and the unpacked post-partition nodal field is again exact to
//!   1e-12;
//! * the kernel agrees with the point-location path
//!   ([`mesh::interp::interpolate_node_field`] on an intermediate mesh):
//!   a field hashed from the node keys, resampled every cycle so it never
//!   smooths out, is carried by both and must agree to 1e-12 at every
//!   owned dof after the unpack.
//!
//! Randomness is a pure function of `(seed, cycle, octant)` — never of
//! the rank or the partition — so a failure replays exactly from the
//! `(seed, cycle, p)` triple carried in every panic message (the seed
//! replay protocol of DESIGN.md §10).

use mesh::extract::{extract_mesh, Mesh};
use mesh::interp::{interpolate_node_field, transfer_corner_values_into, unpack_corner_values};
use octree::balance::{balance_local_kind_ws, BalanceKind, BalanceWorkspace};
use octree::parallel::{transfer_fields, DistOctree};
use octree::Octant;
use scomm::rng::mix;
use scomm::{spmd, Comm};

use crate::curve_checks::{balance21, ghost_symmetry, morton_order, partition};
use crate::oracles::unpacked::balance_naive_unpacked;
use crate::oracles::{balance_local_naive_kind, forest_ghosts_flat, hanging_disagreements};
use crate::{mesh_checks, Violation};

/// Configuration of one fuzz run (one communicator size, many cycles).
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base seed; all per-cycle randomness derives from it.
    pub seed: u64,
    /// Number of adaptation cycles to drive.
    pub cycles: usize,
    /// Initial uniform refinement level.
    pub level: u8,
    /// Leaves at this level are never refined (bounds the problem size).
    pub max_level: u8,
    /// Balance neighborhood fuzzed against the naive oracle.
    pub kind: BalanceKind,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cycles: 10,
            level: 2,
            max_level: 4,
            kind: BalanceKind::Full,
        }
    }
}

/// Deterministic percentage in `0..100` for an octant's decision, from the
/// SplitMix64 finalizer [`mix`]: a pure function of `(seed, cycle, salt,
/// octant)`, independent of rank and partition so every rank count
/// replays the same tree evolution per locally-complete family.
pub fn roll(seed: u64, cycle: u64, salt: u64, o: &Octant) -> u64 {
    mix(seed ^ mix(cycle ^ mix(salt ^ mix(o.key() ^ ((o.level() as u64) << 56))))) % 100
}

/// One cycle's Mark + CoarsenTree + RefineTree, hash-driven: the seeded
/// marks every fuzz cycle starts from. Leaves the tree unbalanced.
pub fn mark_coarsen_refine(tree: &mut DistOctree, cfg: &FuzzConfig, cycle: u64) {
    tree.coarsen(|o| o.level() > 1 && roll(cfg.seed, cycle, 0xC0A5, o) < 35);
    tree.refine(|o| o.level() < cfg.max_level && roll(cfg.seed, cycle, 0x5EF1, o) < 25);
}

/// The linear field threaded through every transfer; trilinear
/// interpolation and corner transfer must reproduce it exactly.
fn field(q: [f64; 3]) -> f64 {
    0.75 * q[0] - 1.25 * q[1] + 2.0 * q[2] + 0.5
}

fn fail(ctx: &str, what: &str) -> ! {
    panic!("fuzz_amr[{ctx}] {what}");
}

fn assert_clean_with_ctx(comm: &Comm, ctx: &str, violations: &[Violation]) {
    let total = comm.allreduce_sum(&[violations.len() as u64])[0];
    if total > 0 {
        let mut msg = format!(
            "{total} invariant violation(s) globally ({} on this rank)",
            violations.len()
        );
        for v in violations {
            msg.push_str("\n  ");
            msg.push_str(&v.to_string());
        }
        fail(ctx, &msg);
    }
}

/// The rough field of the differential: a pure function of the node key
/// in `[0, 1)`, with no smoothness for an interpolation error to hide in.
fn hashed(mesh: &Mesh, seed: u64) -> Vec<f64> {
    mesh.dof_keys[..mesh.n_owned]
        .iter()
        .map(|&k| (mix(seed ^ k) >> 11) as f64 / (1u64 << 53) as f64)
        .collect()
}

/// `owned` expanded to the local layout of `mesh`, ghost block filled.
fn with_ghosts(comm: &Comm, mesh: &Mesh, owned: &[f64]) -> Vec<f64> {
    let mut v = vec![0.0; mesh.n_local()];
    v[..mesh.n_owned].copy_from_slice(owned);
    mesh.exchange.exchange(comm, &mut v, mesh.n_owned);
    v
}

/// Drive `cfg.cycles` adaptation cycles on `comm`, asserting the full
/// property set each cycle. Returns the final global element count.
/// Collective over `comm`.
pub fn run_cycles(comm: &Comm, cfg: &FuzzConfig) -> u64 {
    let domain = [1.0, 1.0, 1.0];
    let mut tree = DistOctree::new_uniform(comm, cfg.level);
    let mut ws = BalanceWorkspace::new();
    let mut mesh = extract_mesh(&tree, domain);
    let mut vals: Vec<f64> = (0..mesh.n_owned)
        .map(|d| field(mesh.dof_coords(d)))
        .collect();

    for cycle in 0..cfg.cycles as u64 {
        let ctx = format!("seed={} cycle={cycle} p={}", cfg.seed, comm.size());

        mark_coarsen_refine(&mut tree, cfg, cycle);

        // BalanceTree: the distributed balance must match the serial
        // naive oracle on the gathered union, bitwise.
        let pre: Vec<Octant> = comm.allgatherv(&tree.local);
        let mut expected = pre.clone();
        balance_local_naive_kind(&mut expected, cfg.kind);

        // Same gathered union: (1) the packed-key naive oracle agrees
        // bitwise with the unpacked coordinate-struct oracle, so the
        // packed representation never silently changes the leaf set;
        // (2) the serial local balance kernel (AVX2 or scalar, whichever
        // this build and CPU select) agrees bitwise with the oracle.
        let mut expected_unpacked = pre.clone();
        balance_naive_unpacked(&mut expected_unpacked, cfg.kind);
        if expected_unpacked != expected {
            fail(
                &ctx,
                &format!(
                    "packed naive oracle diverged from unpacked oracle: {} vs {} leaves",
                    expected.len(),
                    expected_unpacked.len()
                ),
            );
        }
        let mut serial = pre;
        balance_local_kind_ws(&mut serial, cfg.kind, &mut ws);
        if serial != expected {
            fail(
                &ctx,
                &format!(
                    "serial balance mismatch vs naive oracle: {} vs {} leaves",
                    serial.len(),
                    expected.len()
                ),
            );
        }

        tree.balance(cfg.kind);
        let post: Vec<Octant> = comm.allgatherv(&tree.local);
        if post != expected {
            fail(
                &ctx,
                &format!(
                    "balance mismatch vs naive oracle: {} leaves vs {} expected",
                    post.len(),
                    expected.len()
                ),
            );
        }

        // InterpolateFields, production path: merge the old elements with
        // the adapted (pre-partition) leaves. The linear field must come
        // through exactly at every corner, hanging ones included.
        let fl = with_ghosts(comm, &mesh, &vals);
        let hl = with_ghosts(comm, &mesh, &hashed(&mesh, cfg.seed ^ cycle));
        let (mut corner, mut rough) = (Vec::new(), Vec::new());
        transfer_corner_values_into(&mesh, &fl, &tree.local, &mut corner);
        transfer_corner_values_into(&mesh, &hl, &tree.local, &mut rough);
        for (j, o) in tree.local.iter().enumerate() {
            let (a, h) = (o.anchor_unit(), o.len_unit());
            for k in 0..8 {
                let q = std::array::from_fn(|d| a[d] + h * ((k >> d) & 1) as f64);
                let expect = field(q);
                if (corner[8 * j + k] - expect).abs() > 1e-12 {
                    fail(
                        &ctx,
                        &format!(
                            "interpolation lost the linear field at corner {k} of {o:?}: \
                             {} vs {expect}",
                            corner[8 * j + k]
                        ),
                    );
                }
            }
        }

        // The differential: the same rough field by point location from
        // the dofs of an intermediate mesh.
        let mid_mesh = extract_mesh(&tree, domain);
        let mut mid_vals = interpolate_node_field(&mesh, &hl, &mid_mesh);
        mid_mesh
            .exchange
            .exchange(comm, &mut mid_vals, mid_mesh.n_owned);
        let rough_ref: Vec<f64> = (0..mid_mesh.elements.len())
            .flat_map(|e| mid_mesh.corner_values(e, &mid_vals))
            .collect();

        // Repartition; the global corner sum is the conservation
        // functional.
        let s0 = comm.allreduce_sum(&[corner.iter().sum::<f64>()])[0];
        let plan = tree.partition();
        let moved = transfer_fields(comm, &plan, &corner, 8);
        let s1 = comm.allreduce_sum(&[moved.iter().sum::<f64>()])[0];
        if (s0 - s1).abs() > 1e-12 * s0.abs().max(1.0) {
            fail(
                &ctx,
                &format!("transfer broke conservation: sum {s0} -> {s1}"),
            );
        }

        // All six invariants on the post-partition state.
        let new_mesh = extract_mesh(&tree, domain);
        let mut v = morton_order(&tree);
        v.extend(partition(&tree));
        v.extend(balance21(&tree, cfg.kind));
        let ghosts = tree.ghosts().entries;
        v.extend(ghost_symmetry(&tree, &ghosts));
        v.extend(mesh_checks::constraints(&tree, &new_mesh));
        v.extend(mesh_checks::dof_numbering(&tree, &new_mesh));
        assert_clean_with_ctx(comm, &ctx, &v);

        // Hanging-node classification: the parent-midpoint rule of the
        // extraction against the eight-probe incidence oracle.
        let wrong = hanging_disagreements(&tree, &new_mesh);
        if comm.allreduce_sum(&[wrong.len() as u64])[0] > 0 {
            fail(
                &ctx,
                &format!(
                    "{} node(s) on this rank resolved against the probe oracle's \
                     hanging classification, first {:?}",
                    wrong.len(),
                    wrong.first().map(|&k| mesh::extract::node_coords(k))
                ),
            );
        }

        // The ghost layer against the flat scan: wrap the same leaves as a
        // one-tree forest and require the production layer, every entry
        // with its owner, to be the oracle's bitwise, and so the tree's
        // own; then the kind-aware mirror check on the forest.
        let forest = forest::Forest::from_local(
            comm,
            std::sync::Arc::new(forest::Connectivity::unit_cube()),
            tree.local
                .iter()
                .map(|&o| forest::ForestLeaf::new(0, o))
                .collect(),
        );
        let layer = forest.ghosts();
        let flat = forest_ghosts_flat(&forest);
        let produced: Vec<_> = layer
            .entries
            .iter()
            .map(|e| (e.owner as usize, e.leaf))
            .collect();
        let tree_layer: Vec<_> = ghosts
            .iter()
            .map(|e| (e.owner as usize, forest::ForestLeaf::new(0, e.leaf)))
            .collect();
        if produced != flat || tree_layer != flat {
            fail(
                &ctx,
                &format!(
                    "ghost layer diverges from the flat scan: forest {} / tree {} vs {} entries",
                    produced.len(),
                    tree_layer.len(),
                    flat.len()
                ),
            );
        }
        let fv = ghost_symmetry(&forest, &layer.entries);
        assert_clean_with_ctx(comm, &ctx, &fv);

        // Carry the field across to the next cycle through the unpacked
        // corner data; end-to-end it must still be the linear field.
        let new_vals = unpack_corner_values(&new_mesh, &moved);
        for d in 0..new_mesh.n_owned {
            let expect = field(new_mesh.dof_coords(d));
            if (new_vals[d] - expect).abs() > 1e-12 {
                fail(
                    &ctx,
                    &format!(
                        "post-transfer field wrong at dof {d}: {} vs {expect}",
                        new_vals[d]
                    ),
                );
            }
        }
        let [got, want] = [&rough, &rough_ref].map(|data| {
            let moved = transfer_fields(comm, &plan, data, 8);
            unpack_corner_values(&new_mesh, &moved)
        });
        for d in 0..new_mesh.n_owned {
            if (got[d] - want[d]).abs() > 1e-12 {
                fail(
                    &ctx,
                    &format!(
                        "merge kernel and point location disagree at dof {d} ({:?}): {} vs {}",
                        new_mesh.dof_coords(d),
                        got[d],
                        want[d]
                    ),
                );
            }
        }
        mesh = new_mesh;
        vals = new_vals;
    }
    tree.global_count()
}

/// Run [`run_cycles`] on a fresh `p`-rank simulated communicator.
pub fn fuzz_amr(p: usize, cfg: &FuzzConfig) {
    let cfg = *cfg;
    spmd::run(p, move |c| run_cycles(c, &cfg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_rank_independent() {
        let o = Octant::root().child(3).child(5);
        let a = roll(7, 2, 0xC0A5, &o);
        let b = roll(7, 2, 0xC0A5, &o);
        assert_eq!(a, b);
        assert!(a < 100);
        // Different salts decorrelate refine and coarsen decisions.
        assert_ne!(roll(7, 2, 0xC0A5, &o), roll(7, 2, 0x5EF1, &o));
    }

    #[test]
    fn one_quick_cycle_at_two_ranks() {
        fuzz_amr(
            2,
            &FuzzConfig {
                seed: 42,
                cycles: 1,
                level: 1,
                max_level: 3,
                ..Default::default()
            },
        );
    }
}
