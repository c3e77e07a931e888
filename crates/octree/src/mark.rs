//! `MarkElements`: decide which elements to coarsen or refine from a
//! per-element error indicator, holding the global element count near a
//! target.
//!
//! As in the paper, a global sort of all indicators is avoided: global
//! coarsening and refinement thresholds are adjusted iteratively through
//! collective communication (here: bisection on the refinement threshold
//! with an allreduce per iterate) until the number of elements expected
//! after adaptation lies within a prescribed tolerance around the target.

use crate::curve::CurveLeaf;
use crate::morton::MAX_LEVEL;
use crate::ops::is_family;
use scomm::Comm;

/// Per-element adaptation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    Coarsen,
    None,
    Refine,
}

/// Bisection iterations, one allreduce each. Not an option: no caller varies it.
const MAX_ITERATIONS: usize = 40;

/// Parameters of the threshold search.
#[derive(Debug, Clone, Copy)]
pub struct MarkParams {
    /// Desired global element count after adaptation.
    pub target_elements: u64,
    /// Acceptable relative deviation from the target (e.g. `0.1`).
    pub tolerance: f64,
    /// Elements at this level are never refined.
    pub max_level: u8,
    /// Elements at this level are never coarsened.
    pub min_level: u8,
    /// Coarsening threshold as a fraction of the refinement threshold.
    pub coarsen_ratio: f64,
}

impl Default for MarkParams {
    fn default() -> Self {
        MarkParams {
            target_elements: 0,
            tolerance: 0.1,
            max_level: MAX_LEVEL,
            min_level: 0,
            coarsen_ratio: 0.05,
        }
    }
}

/// Count, for a threshold pair, how many local elements would be marked
/// for refinement and how many complete local sibling families would be
/// marked for coarsening.
fn count_marks<L: CurveLeaf>(
    leaves: &[L],
    indicators: &[f64],
    theta_refine: f64,
    theta_coarsen: f64,
    params: &MarkParams,
) -> (u64, u64) {
    let mut n_ref = 0u64;
    for (l, &eta) in leaves.iter().zip(indicators) {
        if eta > theta_refine && l.oct().level() < params.max_level {
            n_ref += 1;
        }
    }
    let mut n_families = 0u64;
    let mut i = 0;
    while i < leaves.len() {
        if coarsenable(leaves, indicators, i, theta_coarsen, params) {
            n_families += 1;
            i += 8;
        } else {
            i += 1;
        }
    }
    (n_ref, n_families)
}

/// Whether the family starting at `leaves[i]` is marked for coarsening:
/// eight same-parent leaves above the level floor, all below the
/// coarsening threshold.
fn coarsenable<L: CurveLeaf>(
    leaves: &[L],
    indicators: &[f64],
    i: usize,
    theta_coarsen: f64,
    params: &MarkParams,
) -> bool {
    leaves[i].oct().level() > params.min_level
        && is_family(leaves, i)
        && indicators[i..i + 8].iter().all(|&eta| eta < theta_coarsen)
}

/// Compute per-element marks such that the expected global element count
/// after refine (+7 each) and family coarsening (−7 each) lies within
/// `params.tolerance` of `params.target_elements`, writing them into
/// `marks` (cleared first, capacity reused: warm calls do not allocate).
///
/// `leaves` and `indicators` are this rank's portion; every rank must call
/// this collectively.
pub fn mark_elements_into<L: CurveLeaf>(
    comm: &Comm,
    leaves: &[L],
    indicators: &[f64],
    params: &MarkParams,
    marks: &mut Vec<Mark>,
) {
    assert_eq!(leaves.len(), indicators.len());
    let n_global = comm.allreduce_sum(&[leaves.len() as u64])[0];
    let local_max = indicators.iter().cloned().fold(0.0f64, f64::max);
    let eta_max = comm.allreduce_max(&[local_max])[0].max(f64::MIN_POSITIVE);

    // Bisection on the refinement threshold. High threshold ⇒ few refined,
    // many coarsened ⇒ small predicted count; the predicted count is
    // monotone decreasing in theta, so bisection applies.
    let target = params.target_elements.max(1) as f64;
    let mut lo = 0.0f64; // refines everything
    let mut hi = eta_max * (1.0 + 1e-12); // refines nothing
    let mut theta = eta_max * 0.5;
    let mut best = (f64::INFINITY, theta);
    for _ in 0..MAX_ITERATIONS {
        let (lref, lfam) = count_marks(
            leaves,
            indicators,
            theta,
            theta * params.coarsen_ratio,
            params,
        );
        let sums = comm.allreduce_sum(&[lref, lfam]);
        let predicted = n_global as f64 + 7.0 * sums[0] as f64 - 7.0 * sums[1] as f64;
        let rel = (predicted - target).abs() / target;
        if rel < best.0 {
            best = (rel, theta);
        }
        if rel <= params.tolerance {
            break;
        }
        if predicted > target {
            lo = theta; // too many elements: raise the threshold
        } else {
            hi = theta;
        }
        theta = 0.5 * (lo + hi);
    }
    let theta = best.1;
    let theta_c = theta * params.coarsen_ratio;

    // Emit the marks for the chosen thresholds, family-consistent.
    marks.clear();
    marks.resize(leaves.len(), Mark::None);
    for (i, (l, &eta)) in leaves.iter().zip(indicators).enumerate() {
        if eta > theta && l.oct().level() < params.max_level {
            marks[i] = Mark::Refine;
        }
    }
    let mut i = 0;
    while i < leaves.len() {
        if coarsenable(leaves, indicators, i, theta_c, params) {
            marks[i..i + 8].fill(Mark::Coarsen);
            i += 8;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::Octant;
    use crate::ops::new_tree;
    use scomm::spmd;

    fn apply(leaves: &[Octant], marks: &[Mark]) -> Vec<Octant> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < leaves.len() {
            match marks[i] {
                Mark::Refine => out.extend_from_slice(&leaves[i].children()),
                Mark::Coarsen => {
                    out.push(leaves[i].parent());
                    i += 8;
                    continue;
                }
                Mark::None => out.push(leaves[i]),
            }
            i += 1;
        }
        out
    }

    #[test]
    fn holds_count_near_target_serial() {
        let comm = spmd::self_comm();
        let leaves = new_tree(3); // 512
                                  // Smooth indicator peaked at a corner.
        let ind: Vec<f64> = leaves
            .iter()
            .map(|o| {
                let c = o.center_unit();
                (-(c[0] * c[0] + c[1] * c[1] + c[2] * c[2]) * 8.0).exp()
            })
            .collect();
        let params = MarkParams {
            target_elements: 1000,
            tolerance: 0.1,
            ..Default::default()
        };
        let mut marks = Vec::new();
        mark_elements_into(&comm, &leaves, &ind, &params, &mut marks);
        let after = apply(&leaves, &marks);
        let n = after.len() as f64;
        assert!((n - 1000.0).abs() / 1000.0 < 0.25, "got {n} elements");
    }

    #[test]
    fn respects_level_caps() {
        let comm = spmd::self_comm();
        let leaves = new_tree(2);
        let ind = vec![1.0; leaves.len()];
        let params = MarkParams {
            target_elements: 10_000, // wants to refine everything
            max_level: 2,            // but nothing may exceed level 2
            ..Default::default()
        };
        let mut marks = Vec::new();
        mark_elements_into(&comm, &leaves, &ind, &params, &mut marks);
        assert!(marks.iter().all(|m| *m == Mark::None));
    }

    #[test]
    fn coarsen_marks_are_family_complete() {
        let comm = spmd::self_comm();
        let leaves = new_tree(2);
        let ind = vec![0.0; leaves.len()];
        let params = MarkParams {
            target_elements: 8,
            min_level: 1,
            ..Default::default()
        };
        let mut marks = Vec::new();
        mark_elements_into(&comm, &leaves, &ind, &params, &mut marks);
        // Coarsen marks must come in aligned groups of 8.
        let mut i = 0;
        while i < marks.len() {
            if marks[i] == Mark::Coarsen {
                assert_eq!(leaves[i].child_id(), 0);
                for k in 0..8 {
                    assert_eq!(marks[i + k], Mark::Coarsen);
                }
                i += 8;
            } else {
                i += 1;
            }
        }
        let after = apply(&leaves, &marks);
        assert!(after.iter().all(|o| o.level() >= 1), "min_level respected");
    }

    #[test]
    fn collective_marking_across_ranks() {
        let out = spmd::run(4, |c| {
            // Each rank owns a quarter of a level-3 tree.
            let all = new_tree(3);
            let n = all.len() / c.size();
            let mine = all[c.rank() * n..(c.rank() + 1) * n].to_vec();
            let ind: Vec<f64> = mine.iter().map(|o| o.center_unit()[0]).collect();
            let params = MarkParams {
                target_elements: 800,
                ..Default::default()
            };
            let mut marks = Vec::new();
            mark_elements_into(c, &mine, &ind, &params, &mut marks);
            let after = apply(&mine, &marks);
            after.len() as u64
        });
        let total: u64 = out.iter().sum();
        assert!(
            (total as f64 - 800.0).abs() / 800.0 < 0.25,
            "total after adaptation = {total}"
        );
    }
}
