//! Fault-injection smoke: the AMR pipeline (refine → balance → partition
//! → ghost → mesh extraction, invariant checkers on), then real ghost
//! traffic — a split-phase `DistOp::apply_owned`, a `StokesSolver::apply`
//! on its one four-component field and a blocking `DofMap::to_local` —
//! must produce identical results under an adversarial but seeded message
//! schedule, and produce them twice, identically.

use check::curve_checks;
use fem::element::{stiffness_source, LevelBlocks};
use fem::op::{DistOp, DofMap};
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::{spmd, FaultPlan};
use stokes::{StokesOptions, StokesSolver};

/// What one pipeline run produces, gathered over ranks in rank order.
#[derive(Debug, PartialEq)]
struct Outcome {
    leaf_keys: Vec<u64>,
    n_global: u64,
    ghosts: u64,
    /// Bits of `A x` on the owned dofs.
    apply_bits: Vec<u64>,
    /// Bits of the ghost-expanded `A x`.
    local_bits: Vec<u64>,
    /// Bits of the Stokes operator applied to `[u | p]`.
    stokes_bits: Vec<u64>,
    /// Messages the fault plan delayed, per rank.
    delayed: Vec<u64>,
}

/// One full pipeline run at 4 ranks, optionally under a fault plan.
fn pipeline(plan: Option<FaultPlan>) -> Outcome {
    let per_rank = spmd::run(4, move |c| {
        c.set_fault_plan(plan);
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| {
            let ctr = o.center_unit();
            ctr[0] + ctr[1] < 0.8
        });
        t.balance(BalanceKind::Full);
        t.partition();
        let g = t.ghosts().entries;
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        // The checkers must stay clean under faulty scheduling.
        let mut v = curve_checks::morton_order(&t);
        v.extend(curve_checks::partition(&t));
        v.extend(curve_checks::balance21(&t, BalanceKind::Full));
        v.extend(curve_checks::ghost_symmetry(&t, &g));
        v.extend(check::mesh_checks::constraints(&t, &m));
        v.extend(check::mesh_checks::dof_numbering(&t, &m));
        check::assert_clean(c, &v);

        // Real ghost traffic: every message the plan jitters below is a
        // mesh ghost exchange.
        let map = DofMap::new(&m, c, 1);
        let blocks = LevelBlocks::new(&m);
        let op = DistOp::new(&map, Box::new(stiffness_source(&m, &blocks, |_| 1.0)), None);
        let x: Vec<f64> = (0..m.n_owned)
            .map(|d| ((m.global_offset + d as u64) % 11) as f64 - 5.0)
            .collect();
        let mut y = vec![0.0; m.n_owned];
        op.apply_owned(&x, &mut y);
        let yl = map.to_local(&y);
        let no_slip: Vec<bool> = (0..3 * m.n_owned)
            .map(|i| m.dof_on_boundary(i / 3))
            .collect();
        let visc: Vec<f64> = (0..m.elements.len())
            .map(|e| 1.0 + (e % 3) as f64)
            .collect();
        let solver = StokesSolver::new(&m, c, visc, no_slip, StokesOptions::default());
        let xs: Vec<f64> = (0..4 * m.n_owned)
            .map(|i| ((m.global_offset * 4 + i as u64) % 13) as f64 - 6.0)
            .collect();
        let mut ys = vec![0.0; xs.len()];
        solver.apply(&xs, &mut ys);
        let delayed = c.fault_counters().map_or(0, |f| f.delayed);
        c.set_fault_plan(None);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        (
            t.local.iter().map(|o| o.key()).collect::<Vec<u64>>(),
            m.n_global,
            g.len() as u64,
            bits(&y),
            bits(&yl),
            bits(&ys),
            delayed,
        )
    });
    let n_global = per_rank[0].1;
    let mut out = Outcome {
        leaf_keys: Vec::new(),
        n_global,
        ghosts: 0,
        apply_bits: Vec::new(),
        local_bits: Vec::new(),
        stokes_bits: Vec::new(),
        delayed: Vec::new(),
    };
    for (keys, ng, ghosts, y, yl, ys, delayed) in per_rank {
        assert_eq!(ng, n_global, "n_global must agree across ranks");
        out.leaf_keys.extend(keys);
        out.ghosts += ghosts;
        out.apply_bits.extend(y);
        out.local_bits.extend(yl);
        out.stokes_bits.extend(ys);
        out.delayed.push(delayed);
    }
    out
}

#[test]
fn pipeline_under_adversarial_schedule_is_deterministic() {
    let clean = pipeline(None);
    let faulted1 = pipeline(Some(FaultPlan::delays(0x5eed)));
    let faulted2 = pipeline(Some(FaultPlan::delays(0x5eed)));
    // Faults must not change any result...
    assert_eq!(clean.leaf_keys, faulted1.leaf_keys, "leaf keys");
    assert_eq!(clean.n_global, faulted1.n_global, "dof count");
    assert_eq!(clean.ghosts, faulted1.ghosts, "ghost count");
    assert_eq!(clean.apply_bits, faulted1.apply_bits, "split-phase apply");
    assert_eq!(clean.local_bits, faulted1.local_bits, "blocking to_local");
    assert_eq!(clean.stokes_bits, faulted1.stokes_bits, "Stokes apply");
    // ...and the faulty schedule itself must be reproducible.
    assert_eq!(faulted1, faulted2, "same seed, same run, same counters");
    assert!(
        faulted1.delayed.iter().sum::<u64>() > 0,
        "the delay plan must delay some ghost traffic: {:?}",
        faulted1.delayed
    );
}

#[test]
fn drop_plan_panics_in_exchange_end_with_message_identity() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spmd::run(2, |c| {
            c.set_fault_plan(Some(FaultPlan::drops(7)));
            let counts = if c.rank() == 0 { [0, 1] } else { [1, 0] };
            let mut ex = scomm::Exchange::new(1);
            let (mut recv, mut recv_counts) = (Vec::<u64>::new(), Vec::new());
            c.exchange_start(&[7u64], &counts, &counts, &mut ex);
            c.exchange_end(&mut ex, &mut recv, &mut recv_counts);
        });
    }));
    let err = result.expect_err("drop plan must abort the completion");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("dropped message"),
        "exchange_end must identify the dropped message, got: {msg}"
    );
}
