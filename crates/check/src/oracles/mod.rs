//! Reference implementations the production paths are compared against.
//!
//! The rule (DESIGN.md §9): per invariant one production path, in its
//! own crate, plus at most one oracle that is *independent by
//! construction* — a different algorithm or a different transport, not
//! an older draft of the same code — and lives here, outside the public
//! API of the crate it checks. DESIGN.md §9 tabulates invariant →
//! production path → oracle → comparing test.

use fem::op::DofMap;
use forest::{Forest, ForestLeaf};
use la::{DotBatch, LinearOp, SolveInfo};
use octree::balance::BalanceKind;
use octree::ops::find_containing;
use octree::Octant;

pub mod unpacked;

/// Naive 2:1 balance: find the first leaf that is too coarse for some
/// finer leaf's same-size neighbor position, split it, rescan from
/// scratch. The minimal balanced refinement is unique, so the result
/// must equal `octree::balance::balance_local_kind` bitwise. Returns the
/// number of leaves added.
pub fn balance_local_naive_kind(leaves: &mut Vec<Octant>, kind: BalanceKind) -> usize {
    let dirs = kind.direction_slice();
    let before = leaves.len();
    let first_violator = |leaves: &[Octant]| {
        let mut first: Option<usize> = None;
        for o in leaves {
            for &(dx, dy, dz) in dirs {
                let Some(n) = o.neighbor(dx, dy, dz) else {
                    continue;
                };
                if let Some(idx) = find_containing(leaves, &n) {
                    if leaves[idx].level() + 1 < o.level() && first.is_none_or(|f| idx < f) {
                        first = Some(idx);
                    }
                }
            }
        }
        first
    };
    while let Some(i) = first_violator(leaves) {
        let o = leaves[i];
        leaves.splice(i..=i, o.children());
    }
    leaves.len() - before
}

/// Some ≤1-face-transform neighbor region of `leaf` intersects the
/// calling rank's owned range — the receiver predicate of
/// [`forest_ghosts_flat`].
pub fn forest_flat_adjacent(forest: &Forest, leaf: &ForestLeaf) -> bool {
    let me = forest.comm().rank();
    Octant::neighbor_directions().any(|(dx, dy, dz)| {
        forest.neighbor(leaf, dx, dy, dz).is_some_and(|n| {
            let (rlo, rhi) = forest.owner_range(&n);
            rlo <= me && me <= rhi
        })
    })
}

/// Flat per-leaf ghost scan: every local leaf is sent to each rank that
/// owns part of one of its 26 same-size neighbor regions (within the
/// tree or across one tree face); receivers keep what is
/// [`forest_flat_adjacent`]. Returns `(owner, leaf)` sorted by leaf.
/// The recursive `Forest::ghost_layer_into`, restricted to
/// [`forest_flat_adjacent`] entries, must equal this bitwise; what it
/// adds beyond are inter-tree edge/corner ghosts only. Collective.
pub fn forest_ghosts_flat(forest: &Forest) -> Vec<(usize, ForestLeaf)> {
    let comm = forest.comm();
    let (p, me) = (comm.size(), comm.rank());
    let mut outgoing: Vec<Vec<ForestLeaf>> = vec![Vec::new(); p];
    for l in &forest.local {
        let mut sent = Vec::new();
        for (dx, dy, dz) in Octant::neighbor_directions() {
            let Some(n) = forest.neighbor(l, dx, dy, dz) else {
                continue;
            };
            let (rlo, rhi) = forest.owner_range(&n);
            for r in rlo..=rhi.min(p - 1) {
                if r != me && !sent.contains(&r) {
                    sent.push(r);
                    outgoing[r].push(*l);
                }
            }
        }
    }
    let incoming = comm.alltoallv(&outgoing);
    let mut ghosts: Vec<(usize, ForestLeaf)> = Vec::new();
    for (src, leaves) in incoming.iter().enumerate() {
        for l in leaves {
            if forest_flat_adjacent(forest, l) {
                ghosts.push((src, *l));
            }
        }
    }
    ghosts.sort_by_key(|a| a.1);
    ghosts.dedup();
    ghosts
}

/// `y = A x` on owned vectors, rebuilt from the allocating collective
/// tier: `to_local` → gather / mat-vec / scatter over
/// `interior_elems ++ surface_elems` → `reverse_accumulate`, with the
/// same symmetric Dirichlet elimination as `DistOp`. Different transport
/// (one blocking `alltoallv` per component instead of a packed
/// split-phase round), same floating-point accumulation order, so
/// `DistOp::apply_owned` must agree bitwise. Collective.
pub fn dist_apply_reference(
    map: &DofMap,
    elem_matrix: &dyn Fn(usize, &mut [f64]),
    bc_mask: Option<&[bool]>,
    x: &[f64],
) -> Vec<f64> {
    let masked = |i: usize| bc_mask.is_some_and(|m| m[i]);
    let xw: Vec<f64> = (0..x.len())
        .map(|i| if masked(i) { 0.0 } else { x[i] })
        .collect();
    let xl = map.to_local(&xw);
    let mut yl = vec![0.0; map.n_local()];
    let dim = 8 * map.ncomp;
    let (mut mat, mut ue, mut re) = (vec![0.0; dim * dim], vec![0.0; dim], vec![0.0; dim]);
    let mesh = map.mesh;
    for &e in mesh.interior_elems.iter().chain(&mesh.surface_elems) {
        let e = e as usize;
        elem_matrix(e, &mut mat);
        map.gather_element(e, &xl, &mut ue);
        for (r, row) in re.iter_mut().zip(mat.chunks_exact(dim)) {
            *r = row.iter().zip(&ue).fold(0.0, |acc, (a, u)| acc + a * u);
        }
        map.scatter_element(e, &re, &mut yl);
    }
    map.reverse_accumulate(&mut yl);
    (0..x.len())
        .map(|i| if masked(i) { x[i] } else { yl[i] })
        .collect()
}

/// Classic preconditioned MINRES (Paige–Saunders as in
/// Elman–Silvester–Wathen): two sequentially dependent inner products per
/// iteration, `δ = ⟨Az₁, z₁⟩` and then `γ₂² = ⟨z₂, r₂⟩` of the freshly
/// formed residual. Same signature as [`la::minres`], whose
/// single-reduction recurrence must track this one to rounding.
#[allow(clippy::too_many_arguments)]
pub fn minres_classic<A, M, D, O>(
    a: &A,
    m_inv: Option<&M>,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    dot: D,
    mut observe: O,
) -> SolveInfo
where
    A: LinearOp + ?Sized,
    M: LinearOp + ?Sized,
    D: DotBatch,
    O: FnMut(usize, f64),
{
    let n = b.len();
    let apply_m = |r: &[f64], z: &mut [f64]| match m_inv {
        Some(m) => m.apply(r, z),
        None => z.copy_from_slice(r),
    };

    // r1 = b − A x ; z1 = M⁻¹ r1 ; γ1 = sqrt(<z1, r1>).
    let mut r0 = vec![0.0; n]; // previous Lanczos residual
    let mut r1 = vec![0.0; n];
    a.apply(x, &mut r1);
    for i in 0..n {
        r1[i] = b[i] - r1[i];
    }
    let mut z1 = vec![0.0; n];
    apply_m(&r1, &mut z1);
    // One batched reduction covers both startup scalars.
    let mut init = [0.0f64; 2];
    dot.dots(&[(&z1, &r1), (&r1, &r1)], &mut init);
    let g2 = init[0];
    assert!(
        g2 >= -1e-12 * init[1].max(1.0),
        "MINRES preconditioner is not positive definite"
    );
    let mut gamma1 = g2.max(0.0).sqrt();
    let gamma_init = gamma1;
    if gamma1 == 0.0 {
        return SolveInfo {
            iterations: 0,
            converged: true,
            residual: 0.0,
        };
    }
    let mut gamma0 = 1.0f64; // γ0 (unused weight on the vanishing j=1 term)

    let mut eta = gamma1;
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut c0, mut c1) = (1.0f64, 1.0f64);
    let mut w0 = vec![0.0; n];
    let mut w1 = vec![0.0; n];
    let mut az = vec![0.0; n];
    // Rotating buffers: all vectors live for the whole solve, so the
    // iteration performs zero heap allocations.
    let mut r2 = vec![0.0; n];
    let mut z2 = vec![0.0; n];
    let mut w2 = vec![0.0; n];

    for iter in 1..=max_iter {
        // Lanczos step.
        let inv_g = 1.0 / gamma1;
        for zi in z1.iter_mut() {
            *zi *= inv_g;
        }
        a.apply(&z1, &mut az);
        let delta = dot.dot(&az, &z1);
        for i in 0..n {
            r2[i] = az[i] - (delta / gamma1) * r1[i];
        }
        if iter > 1 {
            for i in 0..n {
                r2[i] -= (gamma1 / gamma0) * r0[i];
            }
        }
        apply_m(&r2, &mut z2);
        let gamma2 = dot.dot(&z2, &r2).max(0.0).sqrt();

        // Givens rotations.
        let alpha0 = c1 * delta - c0 * s1 * gamma1;
        let alpha1 = (alpha0 * alpha0 + gamma2 * gamma2).sqrt();
        let alpha2 = s1 * delta + c0 * c1 * gamma1;
        let alpha3 = s0 * gamma1;
        c0 = c1;
        s0 = s1;
        c1 = alpha0 / alpha1;
        s1 = gamma2 / alpha1;

        // Solution update: w2 = (z1 − α3 w0 − α2 w1)/α1 ; x += c1 η w2.
        for i in 0..n {
            w2[i] = (z1[i] - alpha3 * w0[i] - alpha2 * w1[i]) / alpha1;
            x[i] += c1 * eta * w2[i];
        }
        eta *= -s1;

        // Shift state (buffer rotation, no allocation: the vector cycled
        // into each scratch slot is fully overwritten next iteration).
        std::mem::swap(&mut r0, &mut r1);
        std::mem::swap(&mut r1, &mut r2);
        std::mem::swap(&mut z1, &mut z2);
        gamma0 = gamma1;
        gamma1 = gamma2;
        std::mem::swap(&mut w0, &mut w1);
        std::mem::swap(&mut w1, &mut w2);

        observe(iter, eta.abs());
        if eta.abs() <= tol * gamma_init || gamma1 == 0.0 {
            return SolveInfo {
                iterations: iter,
                converged: true,
                residual: eta.abs(),
            };
        }
    }
    SolveInfo {
        iterations: max_iter,
        converged: false,
        residual: eta.abs(),
    }
}
