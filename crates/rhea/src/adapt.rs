//! The dynamic adaptation pipeline of the paper's Fig. 4:
//!
//! ```text
//! MarkElements → CoarsenTree/RefineTree → BalanceTree
//!   → InterpolateFields → PartitionTree → TransferFields → ExtractMesh
//! ```
//!
//! Nodal fields ride across the repartition as element-attached corner
//! data (8 values per element per field), moved by the same
//! `TransferFields` plan as the elements themselves — exactly the
//! paper's arrangement, where field data follows the Morton order of the
//! elements.
//!
//! The paper's Fig. 4 extracts a mesh twice, once before
//! `InterpolateFields` and once after `TransferFields`. Here
//! `InterpolateFields` needs no mesh on the adapted leaves: before the
//! repartition the old mesh's elements and the adapted local leaves tile
//! the same curve segment, so
//! [`mesh::interp::transfer_corner_values_into`] pairs them by one Morton
//! merge and writes the corner data directly. `ExtractMesh` runs once per
//! adaptation, on the final partition.

use mesh::extract::{extract_mesh_with_ghosts, Mesh};
use mesh::interp::{transfer_corner_values_into, unpack_corner_values};
use octree::parallel::{transfer_fields_into, DistOctree, PartitionPlan};
use octree::{balance::BalanceKind, ops::level_histogram, MAX_LEVEL};
use scomm::{Comm, HaloBuffers};

/// Adaptation parameters: the `MarkElements` threshold search's, which
/// is all the pipeline is configured by.
pub use octree::mark::MarkParams as AdaptParams;

/// Grow-only scratch for the adaptation pipeline: every reusable
/// intermediate buffer of the Fig. 4 stages lives here and is recycled
/// by the next cycle. What a warm cycle still allocates — collective
/// results, message payloads and the new `Mesh` — is counted by
/// `tests/allocations.rs` (DESIGN.md §9).
#[derive(Default)]
pub struct AdaptWorkspace {
    /// Repartition plan (send ranges reused across cycles).
    plan: PartitionPlan,
    /// Ghost-expanded old field.
    fl: Vec<f64>,
    /// Pack/unpack buffers of the old field's ghost exchange.
    exch: HaloBuffers<f64>,
    /// Per-field corner values of the adapted, not yet repartitioned
    /// leaves (8 values per element).
    corner_data: Vec<Vec<f64>>,
    /// Per-field corner data after the transfer.
    moved: Vec<Vec<f64>>,
    /// Transfer count scratch.
    counts: Vec<usize>,
    recv_counts: Vec<usize>,
    /// Ghost-layer staging and wire buffers (grow-only), so the
    /// `ExtractMesh` stage of a warm cycle rebuilds its ghost layer
    /// without heap allocation.
    ghost: octree::parallel::GhostScratch,
}

impl AdaptWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one adaptation step did (feeds the paper's Fig. 5).
#[derive(Debug, Clone, Default)]
pub struct AdaptReport {
    pub refined: u64,
    pub coarsened_families: u64,
    pub balance_added: u64,
    pub unchanged: u64,
    pub elements_after: u64,
    /// Elements per octree level after adaptation (Fig. 5 right).
    pub level_histogram: [u64; MAX_LEVEL as usize + 1],
}

/// Per-element gradient error indicator `η_e = h ‖∇T‖` at the element
/// center — the quantity `MarkElements` thresholds. (The paper
/// also supports adjoint-based indicators; the gradient indicator is the
/// standard feature-tracking choice for the transport-driven runs.)
pub fn gradient_indicator(mesh: &Mesh, comm: &Comm, t_owned: &[f64]) -> Vec<f64> {
    let map = fem::op::DofMap::new(mesh, comm, 1);
    let tl = map.to_local(t_owned);
    let mut te = [0.0; 8];
    let mut out = Vec::with_capacity(mesh.elements.len());
    for e in 0..mesh.elements.len() {
        let h = mesh.element_size(e);
        map.gather_element(e, &tl, &mut te);
        let mut grad = [0.0f64; 3];
        for c in 0..8 {
            let g = fem::element::shape_grad(c, 0.5, 0.5, 0.5);
            grad[0] += te[c] * g[0] / h[0];
            grad[1] += te[c] * g[1] / h[1];
            grad[2] += te[c] * g[2] / h[2];
        }
        let gn = (grad[0] * grad[0] + grad[1] * grad[1] + grad[2] * grad[2]).sqrt();
        let hmax = h[0].max(h[1]).max(h[2]);
        out.push(hmax * gn);
    }
    out
}

/// Record one `ExtractMesh` in the counters `mesh.extract_calls` and
/// `mesh.nodes_classified` (the nodes of its node table).
pub fn count_extraction(rec: &obs::Recorder, mesh: &Mesh) {
    rec.add_count("mesh.extract_calls", 1);
    rec.add_count("mesh.nodes_classified", mesh.n_nodes as u64);
}

/// Run the full Fig. 4 pipeline: adapt the octree toward the target
/// element count using `indicators`, rebalance, transfer the given nodal
/// `fields`, repartition, and extract the new mesh. Returns the new mesh,
/// the transferred fields, and the adaptation report. Collective.
///
/// Every pipeline stage is recorded as an `amr`-category span named after
/// the paper's phase (`MarkElements`, `BalanceTree`, …) under one `AMR`
/// umbrella span; read per-phase seconds with
/// [`obs::Summary::incl_seconds`] by span name. Warm cycles reuse every
/// intermediate buffer of the caller-held workspace `ws`, and the
/// recorder gains the per-cycle counters `amr.p2p_msgs` (point-to-point
/// messages in the cycle), `amr.ripple_rounds` (balance communication
/// rounds), `balance.request_leaves` and `balance.seed_leaves` (see
/// `LeafCurve::last_balance_request_leaves`) and those of
/// [`count_extraction`].
pub fn adapt_mesh_ws(
    tree: &mut DistOctree,
    old_mesh: &Mesh,
    fields: &[Vec<f64>],
    indicators: &[f64],
    params: &AdaptParams,
    rec: &obs::Recorder,
    ws: &mut AdaptWorkspace,
) -> (Mesh, Vec<Vec<f64>>, AdaptReport) {
    let _amr = rec.span_cat("AMR", "amr");
    let comm = tree.comm();
    let domain = old_mesh.domain;
    let n_before = tree.global_count();
    let stats0 = comm.stats();

    // MarkElements, then CoarsenTree and RefineTree on its marks.
    rec.with_cat("MarkElements", "amr", || {
        tree.mark_for_target(indicators, params)
    });
    let coarsened = rec.with_cat("CoarsenTree", "amr", || tree.coarsen_marked());
    let refined = rec.with_cat("RefineTree", "amr", || tree.refine_marked());

    // BalanceTree, with the leaves that built size requests and the
    // seeds of its local passes.
    let balance_added = rec.with_cat("BalanceTree", "amr", || tree.balance(BalanceKind::Full));
    rec.add_count("balance.request_leaves", tree.last_balance_request_leaves());
    rec.add_count("balance.seed_leaves", tree.last_balance_seed_leaves());

    // Stage guard: the tree invariants (order, partition, 2:1) must hold
    // before anything downstream consumes the adapted tree.
    #[cfg(debug_assertions)]
    if scomm::checks_enabled() {
        check::guard_tree(tree, BalanceKind::Full, Some(rec));
    }

    let nf = fields.len();
    let AdaptWorkspace {
        plan,
        fl,
        exch,
        corner_data,
        moved,
        counts,
        recv_counts,
        ghost,
    } = ws;
    if corner_data.len() < nf {
        corner_data.resize_with(nf, Vec::new);
        moved.resize_with(nf, Vec::new);
    }

    // InterpolateFields: the adapted leaves still tile the old mesh's
    // curve segment, so the corner data of the transfer (8 values per
    // element) comes straight from the old elements' corner values.
    {
        let _s = rec.span_cat("InterpolateFields", "amr");
        for (i, f) in fields.iter().enumerate() {
            // Expand old field with ghosts for constrained evaluation.
            fl.clear();
            fl.resize(old_mesh.n_local(), 0.0);
            fl[..old_mesh.n_owned].copy_from_slice(f);
            exch.fill(comm, &[&old_mesh.exchange], &mut [fl], 1);
            transfer_corner_values_into(old_mesh, fl, &tree.local, &mut corner_data[i]);
        }
    }

    // PartitionTree.
    rec.with_cat("PartitionTree", "amr", || tree.partition_with(plan));

    // TransferFields: move the corner data with the elements.
    {
        let _s = rec.span_cat("TransferFields", "amr");
        for i in 0..nf {
            transfer_fields_into(
                comm,
                plan,
                &corner_data[i],
                8,
                counts,
                recv_counts,
                &mut moved[i],
            );
        }
    }

    // ExtractMesh on the new partition. The ghost layer is rebuilt
    // through the grow-only workspace, so warm cycles reuse its buffers.
    let new_mesh = rec.with_cat("ExtractMesh", "amr", || {
        tree.ghost_layer_into(ghost);
        extract_mesh_with_ghosts(tree, domain, ghost.ghosts())
    });
    count_extraction(rec, &new_mesh);

    // Stage guard: repartitioned tree + extracted mesh (ghost symmetry,
    // hanging-node constraints, dof numbering) before fields land on it.
    #[cfg(debug_assertions)]
    if scomm::checks_enabled() {
        check::guard_tree(tree, BalanceKind::Full, Some(rec));
        check::guard_mesh(tree, &new_mesh, Some(rec));
    }

    // Unpack the moved corner data onto the owned dofs of the new mesh.
    let new_fields: Vec<Vec<f64>> = {
        let _s = rec.span_cat("TransferFields", "amr");
        moved[..nf]
            .iter()
            .map(|data| unpack_corner_values(&new_mesh, data))
            .collect()
    };

    let elements_after = tree.global_count();
    let [refined, coarsened_families] = comm.allreduce_sum(&[refined as u64, coarsened as u64]);
    let report = AdaptReport {
        refined,
        coarsened_families,
        balance_added,
        unchanged: n_before.saturating_sub(refined + 8 * coarsened_families),
        elements_after,
        level_histogram: comm.allreduce_sum(&level_histogram(&tree.local)),
    };
    rec.instant(
        "adapt",
        obs::Value::object([
            ("refined", obs::Value::from(report.refined)),
            (
                "coarsened_families",
                obs::Value::from(report.coarsened_families),
            ),
            ("balance_added", obs::Value::from(report.balance_added)),
            ("elements_after", obs::Value::from(report.elements_after)),
        ]),
    );

    // Cycle telemetry, mirroring the `minres.*` counter contract:
    // point-to-point traffic and the number of 2:1-balance communication
    // rounds.
    let stats1 = comm.stats();
    rec.add_count("amr.p2p_msgs", stats1.p2p_messages - stats0.p2p_messages);
    rec.add_count("amr.ripple_rounds", tree.last_balance_rounds());

    (new_mesh, new_fields, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::extract::extract_mesh;
    use scomm::spmd;

    #[test]
    fn adapt_preserves_linear_field() {
        spmd::run(3, |c| {
            let mut tree = DistOctree::new_uniform(c, 3);
            let mesh = extract_mesh(&tree, [2.0, 1.0, 1.0]);
            let f = |p: [f64; 3]| 1.5 * p[0] - 0.5 * p[1] + p[2];
            let t: Vec<f64> = (0..mesh.n_owned).map(|d| f(mesh.dof_coords(d))).collect();
            // Indicator peaked near a corner drives real refinement and
            // coarsening while MarkElements holds the total.
            let ind: Vec<f64> = mesh
                .elements
                .iter()
                .map(|o| {
                    let ctr = o.center_unit();
                    (-(ctr[0] * ctr[0] + ctr[1] * ctr[1]) * 30.0).exp()
                })
                .collect();
            let params = AdaptParams {
                target_elements: 700,
                ..Default::default()
            };
            let rec = obs::Recorder::new(c.rank());
            let mut ws = AdaptWorkspace::new();
            let (new_mesh, new_fields, report) =
                adapt_mesh_ws(&mut tree, &mesh, &[t], &ind, &params, &rec, &mut ws);
            assert!(tree.validate());
            assert!(report.refined > 0, "{report:?}");
            assert!(report.elements_after > 0);
            // Linear fields survive interpolation + transfer exactly.
            for d in 0..new_mesh.n_owned {
                let expect = f(new_mesh.dof_coords(d));
                assert!(
                    (new_fields[0][d] - expect).abs() < 1e-10,
                    "dof {d}: {} vs {expect}",
                    new_fields[0][d]
                );
            }
            // The recorder captured every pipeline phase under the
            // paper's span name (the figure harnesses read these by name).
            let summary = rec.summary();
            for phase in [
                "MarkElements",
                "RefineTree",
                "CoarsenTree",
                "BalanceTree",
                "ExtractMesh",
                "InterpolateFields",
                "PartitionTree",
                "TransferFields",
            ] {
                assert!(summary.incl_seconds(phase) > 0.0, "{phase} not recorded");
            }
            assert_eq!(
                summary.phases["ExtractMesh"].count, 1,
                "one extraction per adaptation, on the final partition"
            );
        });
    }

    /// `MarkElements` is a span around the bisection itself, so the
    /// allreduces it issues are its children on the trace and come off
    /// its exclusive time.
    #[test]
    fn mark_elements_span_contains_its_allreduces() {
        let (_, profiles) = spmd::run_traced(3, |c, rec| {
            let mut tree = DistOctree::new_uniform(c, 3);
            let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let t = vec![0.0; mesh.n_owned];
            let ind: Vec<f64> = mesh
                .elements
                .iter()
                .map(|o| (-o.center_unit()[0] * 6.0).exp())
                .collect();
            let params = AdaptParams {
                target_elements: 700,
                ..Default::default()
            };
            let mut ws = AdaptWorkspace::new();
            adapt_mesh_ws(&mut tree, &mesh, &[t], &ind, &params, rec, &mut ws);
        });
        for p in &profiles {
            let st = &p.summary.phases["MarkElements"];
            assert!(st.excl_ns < st.incl_ns, "rank {}: {st:?}", p.rank);
            let inside = |outer: &obs::SpanEvent, t: u64| {
                outer.start_ns <= t && t < outer.start_ns + outer.dur_ns
            };
            let mut nested = 0;
            for mark in p.spans.iter().filter(|e| e.name == "MarkElements") {
                for ar in p.spans.iter().filter(|e| e.name == "comm:allreduce") {
                    if inside(mark, ar.start_ns) {
                        assert!(ar.depth > mark.depth, "{ar:?} beside {mark:?}");
                        nested += 1;
                    }
                }
            }
            assert!(nested > 0, "the bisection reduces at least once");
        }
    }

    /// Warm cycles on a reused workspace record their `amr.*` counters
    /// and carry a linear field exactly; their allocation count is
    /// pinned in `tests/allocations.rs`.
    #[test]
    fn warm_adapt_cycles_count_traffic_and_keep_linear_fields() {
        spmd::run(4, |c| {
            let mut tree = DistOctree::new_uniform(c, 2);
            let mut mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let f = |p: [f64; 3]| 0.5 * p[0] + p[1] - p[2];
            let mut fields = vec![(0..mesh.n_owned)
                .map(|d| f(mesh.dof_coords(d)))
                .collect::<Vec<f64>>()];
            let params = AdaptParams {
                target_elements: 300,
                ..Default::default()
            };
            let mut ws = AdaptWorkspace::new();
            for _ in 0..7 {
                // Geometry-driven indicator: the cycle map is deterministic
                // and reaches a periodic orbit during warm-up.
                let ind: Vec<f64> = mesh
                    .elements
                    .iter()
                    .map(|o| {
                        let ctr = o.center_unit();
                        (-(ctr[0] * ctr[0] + ctr[1] * ctr[1]) * 30.0).exp()
                    })
                    .collect();
                let rec = obs::Recorder::new(c.rank());
                let (nm, nf, _) =
                    adapt_mesh_ws(&mut tree, &mesh, &fields, &ind, &params, &rec, &mut ws);
                mesh = nm;
                fields = nf;
                let counters = &rec.summary().counters;
                assert!(counters["amr.p2p_msgs"] > 0, "no traffic recorded");
                assert!(counters["amr.ripple_rounds"] >= 1);
            }
            // The field is linear, so it must still be exact after 7 cycles.
            for d in 0..mesh.n_owned {
                let expect = f(mesh.dof_coords(d));
                assert!((fields[0][d] - expect).abs() < 1e-10);
            }
        });
    }

    /// At P = 2 most leaves are insulated in their rank's segment, so
    /// fewer than rounds × leaves build balance requests, and a later
    /// round seeds only the children its predecessor's requests created,
    /// not every leaf again. The round counts are pinned at the ones the
    /// full-scan balance took on this input.
    #[test]
    fn balance_counters_show_the_pruning() {
        spmd::run(2, |c| {
            let mut tree = DistOctree::new_uniform(c, 2);
            let mut mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let mut fields = vec![vec![0.0; mesh.n_owned]];
            let params = AdaptParams {
                target_elements: 1000,
                ..Default::default()
            };
            let mut ws = AdaptWorkspace::new();
            let mut rounds = Vec::new();
            for _ in 0..8 {
                // A spike just above the partition boundary z = ½.
                let ind: Vec<f64> = mesh
                    .elements
                    .iter()
                    .map(|o| {
                        let d = o.center_unit().map(|x| x - 0.51);
                        (-200.0 * d.iter().map(|x| x * x).sum::<f64>()).exp()
                    })
                    .collect();
                let rec = obs::Recorder::new(c.rank());
                let (nm, nf, report) =
                    adapt_mesh_ws(&mut tree, &mesh, &fields, &ind, &params, &rec, &mut ws);
                (mesh, fields) = (nm, nf);
                let counters = &rec.summary().counters;
                let r = counters["amr.ripple_rounds"];
                let [requests, seeds] = c.allreduce_sum(&[
                    counters["balance.request_leaves"],
                    counters["balance.seed_leaves"],
                ]);
                let leaves = report.elements_after;
                assert!(requests < r * leaves, "{requests} of {r} × {leaves}");
                assert!(seeds <= leaves, "{seeds} seeds, {leaves} leaves");
                assert_eq!(counters["mesh.extract_calls"], 1);
                assert_eq!(counters["mesh.nodes_classified"], mesh.n_nodes as u64);
                rounds.push(r);
            }
            assert_eq!(rounds, [1, 1, 1, 1, 1, 2, 1, 1]);
        });
    }

    #[test]
    fn histogram_matches_global_count() {
        spmd::run(2, |c| {
            let mut tree = DistOctree::new_uniform(c, 2);
            let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let t = vec![0.0; mesh.n_owned];
            let ind: Vec<f64> = mesh.elements.iter().map(|o| o.center_unit()[0]).collect();
            let params = AdaptParams {
                target_elements: 150,
                ..Default::default()
            };
            let rec = obs::Recorder::new(c.rank());
            let mut ws = AdaptWorkspace::new();
            let (_, _, report) =
                adapt_mesh_ws(&mut tree, &mesh, &[t], &ind, &params, &rec, &mut ws);
            let total: u64 = report.level_histogram.iter().sum();
            assert_eq!(total, report.elements_after);
        });
    }

    #[test]
    fn gradient_indicator_tracks_fronts() {
        spmd::run(1, |c| {
            let tree = DistOctree::new_uniform(c, 3);
            let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            // Sharp front at x = 0.5.
            let t: Vec<f64> = (0..mesh.n_owned)
                .map(|d| {
                    let x = mesh.dof_coords(d)[0];
                    ((x - 0.5) * 40.0).tanh()
                })
                .collect();
            let ind = gradient_indicator(&mesh, c, &t);
            // The max indicator must sit in elements near the front.
            let (mut best_e, mut best) = (0, 0.0);
            for (e, &v) in ind.iter().enumerate() {
                if v > best {
                    best = v;
                    best_e = e;
                }
            }
            let ctr = mesh.elements[best_e].center_unit();
            assert!((ctr[0] - 0.5).abs() < 0.15, "front missed: x = {}", ctr[0]);
            // Far-field indicators are tiny.
            for (e, &v) in ind.iter().enumerate() {
                let x = mesh.elements[e].center_unit()[0];
                if (x - 0.5).abs() > 0.4 {
                    assert!(v < 0.05 * best, "element at x={x} has indicator {v}");
                }
            }
        });
    }
}
