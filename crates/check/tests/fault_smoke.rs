//! Fault-injection smoke: the full AMR pipeline (refine → balance →
//! partition → ghost → mesh extraction), with invariant checkers on,
//! must produce identical results under an adversarial but seeded
//! message schedule — and produce them twice, identically.

use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::{spmd, FaultPlan};

/// One full pipeline run at 4 ranks, optionally under a fault plan.
/// Returns (global leaf keys by rank order, n_global dofs, total ghost
/// entries, per-rank delayed counts when faults were on).
fn pipeline(plan: Option<FaultPlan>) -> (Vec<u64>, u64, u64, Vec<u64>) {
    let per_rank = spmd::run(4, move |c| {
        c.set_fault_plan(plan);
        // A little p2p traffic with mixed tags so the jitter buffer is
        // actually exercised (the AMR collectives don't go through it).
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        for round in 0u64..8 {
            c.send(next, 0x10, &[c.rank() as u64, round]);
            c.send(next, 0x20, &[round]);
            let a: Vec<u64> = c.recv(prev, 0x10);
            let b: Vec<u64> = c.recv(prev, 0x20);
            assert_eq!(a, vec![prev as u64, round]);
            assert_eq!(b, vec![round]);
        }
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| {
            let ctr = o.center_unit();
            ctr[0] + ctr[1] < 0.8
        });
        t.balance(BalanceKind::Full);
        t.partition();
        let g = t.ghost_layer();
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        // The checkers must stay clean under faulty scheduling.
        let mut v = check::octree_checks::morton_order(&t);
        v.extend(check::octree_checks::partition(&t));
        v.extend(check::octree_checks::balance21(&t, BalanceKind::Full));
        v.extend(check::octree_checks::ghost_symmetry(&t, &g));
        v.extend(check::mesh_checks::constraints(&t, &m));
        v.extend(check::mesh_checks::dof_numbering(&t, &m));
        check::assert_clean(c, &v);
        let delayed = c.fault_counters().map(|f| f.delayed).unwrap_or(0);
        c.set_fault_plan(None);
        (
            t.local.iter().map(|o| o.key()).collect::<Vec<u64>>(),
            m.n_global,
            g.len() as u64,
            delayed,
        )
    });
    let mut keys = Vec::new();
    let mut ghosts = 0;
    let mut delayed = Vec::new();
    let n_global = per_rank[0].1;
    for (k, ng, gh, d) in per_rank {
        assert_eq!(ng, n_global, "n_global must agree across ranks");
        keys.extend(k);
        ghosts += gh;
        delayed.push(d);
    }
    (keys, n_global, ghosts, delayed)
}

#[test]
fn pipeline_under_adversarial_schedule_is_deterministic() {
    let clean = pipeline(None);
    let faulted1 = pipeline(Some(FaultPlan::delays(0x5eed)));
    let faulted2 = pipeline(Some(FaultPlan::delays(0x5eed)));
    // Faults must not change any result...
    assert_eq!(clean.0, faulted1.0, "leaf keys must match the clean run");
    assert_eq!(clean.1, faulted1.1, "dof count must match the clean run");
    assert_eq!(clean.2, faulted1.2, "ghost count must match the clean run");
    // ...and the faulty schedule itself must be reproducible.
    assert_eq!(faulted1, faulted2, "same seed, same run, same counters");
    assert!(
        faulted1.3.iter().sum::<u64>() > 0,
        "the delay plan must actually delay something: {:?}",
        faulted1.3
    );
}

/// Nonblocking mirror of [`pipeline`]: the same p2p traffic is driven
/// through `isend`/`irecv`/`wait` (faults apply at completion time), and
/// the mesh extraction is followed by a split-phase ghost exchange
/// through `DistOp::apply_owned`. Returns (leaf keys, n_global, apply
/// result bits, per-rank delayed counts).
fn pipeline_nonblocking(plan: Option<scomm::FaultPlan>) -> (Vec<u64>, u64, Vec<u64>, Vec<u64>) {
    use fem::element::stiffness_matrix;
    use fem::op::{DistOp, DofMap};
    let per_rank = spmd::run(4, move |c| {
        c.set_fault_plan(plan);
        // The same ring traffic as the blocking smoke, but posted as
        // nonblocking requests completed out of post order — delays and
        // reordering must apply when `wait` pulls the message, while
        // preserving per-pair FIFO.
        let next = (c.rank() + 1) % c.size();
        let prev = (c.rank() + c.size() - 1) % c.size();
        for round in 0u64..8 {
            c.isend(next, 0x10, &[c.rank() as u64, round]).wait();
            c.isend(next, 0x20, &[round]).wait();
            let ra = c.irecv::<u64>(prev, 0x10);
            let rb = c.irecv::<u64>(prev, 0x20);
            let b: Vec<u64> = c.wait(rb);
            let a: Vec<u64> = c.wait(ra);
            assert_eq!(a, vec![prev as u64, round]);
            assert_eq!(b, vec![round]);
        }
        let mut t = DistOctree::new_uniform(c, 2);
        t.refine(|o| {
            let ctr = o.center_unit();
            ctr[0] + ctr[1] < 0.8
        });
        t.balance(BalanceKind::Full);
        t.partition();
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = DofMap::new(&m, c, 1);
        let mesh_ref = &m;
        let op = DistOp::new(
            &map,
            Box::new(move |e, out: &mut [f64]| {
                let k = stiffness_matrix(mesh_ref.element_size(e), 1.0);
                for i in 0..8 {
                    for j in 0..8 {
                        out[i * 8 + j] = k[i][j];
                    }
                }
            }),
            None,
        );
        let x: Vec<f64> = (0..m.n_owned)
            .map(|d| ((m.global_offset + d as u64) % 11) as f64 - 5.0)
            .collect();
        let mut y = vec![0.0; m.n_owned];
        op.apply_owned(&x, &mut y);
        let delayed = c.fault_counters().map(|f| f.delayed).unwrap_or(0);
        c.set_fault_plan(None);
        (
            t.local.iter().map(|o| o.key()).collect::<Vec<u64>>(),
            m.n_global,
            y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            delayed,
        )
    });
    let mut keys = Vec::new();
    let mut ybits = Vec::new();
    let mut delayed = Vec::new();
    let n_global = per_rank[0].1;
    for (k, ng, y, d) in per_rank {
        assert_eq!(ng, n_global, "n_global must agree across ranks");
        keys.extend(k);
        ybits.extend(y);
        delayed.push(d);
    }
    (keys, n_global, ybits, delayed)
}

#[test]
fn nonblocking_pipeline_under_adversarial_schedule_is_deterministic() {
    let clean = pipeline_nonblocking(None);
    let faulted1 = pipeline_nonblocking(Some(FaultPlan::delays(0x5eed)));
    let faulted2 = pipeline_nonblocking(Some(FaultPlan::delays(0x5eed)));
    // Completion-time faults must not change any result...
    assert_eq!(clean.0, faulted1.0, "leaf keys must match the clean run");
    assert_eq!(clean.1, faulted1.1, "dof count must match the clean run");
    assert_eq!(
        clean.2, faulted1.2,
        "split-phase apply must be fault-invariant"
    );
    // ...and the faulty schedule itself must be reproducible.
    assert_eq!(faulted1, faulted2, "same seed, same run, same counters");
    assert!(
        faulted1.3.iter().sum::<u64>() > 0,
        "the delay plan must actually delay something: {:?}",
        faulted1.3
    );
}

#[test]
fn drop_plan_panics_on_wait_with_message_identity() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spmd::run(2, |c| {
            c.set_fault_plan(Some(FaultPlan::drops(7)));
            let peer = 1 - c.rank();
            c.isend(peer, 0x44, &[7u64]).wait();
            let req = c.irecv::<u64>(peer, 0x44);
            let _: Vec<u64> = c.wait(req);
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
        "wait must identify the dropped message, got: {msg}"
    );
}

#[test]
fn drop_plan_panics_with_message_identity() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spmd::run(2, |c| {
            c.set_fault_plan(Some(FaultPlan::drops(7)));
            let peer = 1 - c.rank();
            c.send(peer, 0x33, &[42u64]);
            let _: Vec<u64> = c.recv(peer, 0x33);
        });
    }));
    let err = result.expect_err("drop plan must abort the exchange");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("dropped message"),
        "panic must identify the dropped message, got: {msg}"
    );
}
