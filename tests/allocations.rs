//! Heap allocations of the warm paths, counted by the workspace's one
//! `#[global_allocator]`: a per-thread count in a `const`-initialised
//! thread-local, so counting never allocates and each rank thread of
//! `spmd::run` reads only its own. Each window of warm calls is asserted
//! *zero*, *exact* with the count's source named, or *steady* (the same
//! count every call; DESIGN.md §9 lists the sources). Under
//! `CHECK_INVARIANTS=1` the debug build's stage guards of balance,
//! partition and adapt validate with collectives, which allocate; there
//! only the steady-state assertion applies to the paths they guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fem::element::{stiffness_source, LevelBlocks};
use fem::{op::DistOp, op::DofMap};
use forest::{Connectivity, Forest, GhostWorkspace};
use mangll::{DgAdvection, DgParams};
use mesh::extract::{extract_mesh, Mesh};
use octree::balance::{balance_local_kind_ws, BalanceKind, BalanceWorkspace};
use octree::parallel::{DistOctree, GhostScratch, PartitionPlan};
use octree::{mark::MarkParams, ops, Octant, MAX_LEVEL, ROOT_LEN};
use rhea::adapt::{adapt_mesh_ws, AdaptParams, AdaptWorkspace};
use scomm::{spmd, Comm, Exchange};
use stokes::StokesSolver;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: both calls forward to `System` with the caller's arguments. The
// default `alloc_zeroed` and `realloc` go through `alloc`, so each counts
// once; a thread tearing down its locals may allocate uncounted.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// What one warm call did on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    allocations: u64,
    messages: u64,
    allreduces: u64,
}

fn window(c: &Comm, f: impl FnOnce()) -> Window {
    let (s0, a0) = (c.stats(), ALLOCATIONS.with(Cell::get));
    f();
    let (s1, a1) = (c.stats(), ALLOCATIONS.with(Cell::get));
    Window {
        allocations: a1 - a0,
        messages: s1.p2p_messages - s0.p2p_messages,
        allreduces: s1.allreduces - s0.allreduces,
    }
}

/// `warmup` unwatched calls of `f`, then four windows.
fn windows(c: &Comm, warmup: usize, mut f: impl FnMut()) -> Vec<Window> {
    (0..warmup).for_each(|_| f());
    (0..4).map(|_| window(c, &mut f)).collect()
}

fn allocations(ws: &[Window]) -> Vec<u64> {
    ws.iter().map(|w| w.allocations).collect()
}

fn steady(ws: &[Window]) -> bool {
    ws.iter().all(|w| *w == ws[0])
}

/// Grow this rank's mailbox and its queue of early arrivals to hold eight
/// rounds from every peer. Both are grow-only `VecDeque`s sized by the
/// most messages ever waiting at once, which depends on how the rank
/// threads are scheduled; without this a window at P ≥ 2 sees one growth
/// step on some runs and none on others.
fn fill_mailboxes(c: &Comm) {
    let counts: Vec<usize> = (0..c.size()).map(|r| usize::from(r != c.rank())).collect();
    let payload = vec![0u8; c.size() - 1];
    let mut rounds: Vec<Exchange> = (0..8).map(|s| Exchange::new(1000 + s)).collect();
    for ex in &mut rounds {
        c.exchange_start(&payload, &counts, &counts, ex);
    }
    c.barrier();
    let (mut recv, mut recv_counts) = (Vec::<u8>::new(), Vec::new());
    // The last round first: every earlier one waits in the early queue.
    for ex in rounds.iter_mut().rev() {
        c.exchange_end(ex, &mut recv, &mut recv_counts);
    }
}

fn sphere_forest(c: &Comm) -> Forest<'_> {
    Forest::new_uniform(c, Arc::new(Connectivity::cubed_sphere(0.55, 1.0)), 1)
}

#[test]
fn serial_balance_allocates_nothing_once_warm() {
    let m = ROOT_LEN / 2 - 1;
    let target = Octant::new(m, m, m, MAX_LEVEL);
    let mut t = ops::new_tree(1);
    for _ in 1..6 {
        ops::refine(&mut t, |o| o.contains(&target));
    }
    let mut ws = BalanceWorkspace::new();
    for call in 0..6 {
        let a0 = ALLOCATIONS.with(Cell::get);
        balance_local_kind_ws(&mut t, BalanceKind::Full, &mut ws);
        let warm = call >= 2;
        assert!(!warm || ALLOCATIONS.with(Cell::get) == a0, "call {call}");
    }
}

fn adapted_mesh(c: &Comm, refine: impl Fn([f64; 3]) -> bool) -> Mesh {
    let mut t = DistOctree::new_uniform(c, 2);
    t.refine(|o| refine(o.center_unit()));
    t.balance(BalanceKind::Full);
    t.partition();
    extract_mesh(&t, [2.0, 1.0, 1.0])
}

/// Free slip, η over four decades along x.
fn stokes_solver<'a>(m: &'a Mesh, c: &'a Comm) -> StokesSolver<'a> {
    let eta = |o: &Octant| 10f64.powf(4.0 * o.center_unit()[0] - 2.0);
    let eta = m.elements.iter().map(eta).collect();
    let free_slip = (0..3 * m.n_owned)
        .map(|i| m.dof_boundary_faces(i / 3) & (0b11 << (2 * (i % 3))) != 0)
        .collect();
    StokesSolver::new(m, c, eta, free_slip, Default::default())
}

#[test]
fn tree_cycles_and_ghost_layers() {
    let params = MarkParams {
        target_elements: 1,
        tolerance: f64::INFINITY,
        max_level: 2,
        min_level: 2,
        ..Default::default()
    };
    for p in [1, 2, 4] {
        let runs = spmd::run(p, |c| {
            fill_mailboxes(c);
            let (mut t, mut plan) = (DistOctree::new_uniform(c, 2), PartitionPlan::default());
            let octree = windows(c, 3, || {
                t.refine(|o| {
                    let d = o.center_unit().map(|x| (x - 0.5) * (x - 0.5));
                    o.level() < 4 && d.iter().sum::<f64>() < 0.09
                });
                t.coarsen(|o| o.level() > 2 && o.center_unit()[0] > 0.5);
                t.balance(BalanceKind::Full);
                t.partition_with(&mut plan);
            });
            let mut gs = GhostScratch::new();
            let ghosts = windows(c, 3, || _ = t.ghost_layer_into(&mut gs));
            // The cycle of `forest::dist`'s `warm_forest_cycle_adapts_every_cycle`.
            let (mut f, mut plan, mut ind) = (sphere_forest(c), PartitionPlan::default(), vec![]);
            let forest = windows(c, 3, || {
                f.refine(|l| l.oct.level() < 3 && l.tree < 6 && l.oct.x() < ROOT_LEN / 2);
                f.coarsen(|l| l.oct.level() > 1 && l.tree >= 12);
                ind.clear();
                for l in &f.local {
                    ind.push(if l.tree >= 12 { 1.0 } else { 1e-6 });
                }
                f.adapt_to_target(&ind, &params);
                f.balance(BalanceKind::Full);
                f.partition_with(&mut plan);
            });
            // The forest of `forest::traverse`'s ghost tests.
            let mut f = sphere_forest(c);
            f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
            f.refine(|l| l.oct.level() == 2 && l.oct.key() % 5 == 0);
            f.balance(BalanceKind::Full);
            f.partition();
            let mut gs = GhostWorkspace::new();
            let forest_ghosts = windows(c, 3, || _ = f.ghost_layer_into(&mut gs));
            // The Fig. 4 pipeline toward 300 elements, with a geometric
            // indicator (periodic once warm) and a fresh recorder per cycle.
            let mut tree = DistOctree::new_uniform(c, 2);
            let mut mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let (mut fields, mut ws) = (vec![vec![0.5; mesh.n_owned]], AdaptWorkspace::new());
            let params = AdaptParams {
                target_elements: 300,
                ..Default::default()
            };
            let adapt = windows(c, 3, || {
                let bump = |o: &Octant| {
                    (-30.0 * o.center_unit()[..2].iter().map(|x| x * x).sum::<f64>()).exp()
                };
                let ind: Vec<f64> = mesh.elements.iter().map(bump).collect();
                let rec = obs::Recorder::new(c.rank());
                (mesh, fields, _) =
                    adapt_mesh_ws(&mut tree, &mesh, &fields, &ind, &params, &rec, &mut ws);
            });
            [octree, forest, adapt, ghosts, forest_ghosts]
        });
        for (rank, [octree, forest, adapt, ghosts, forest_ghosts]) in runs.iter().enumerate() {
            let at = format!("P = {p}, rank {rank}");
            assert!(steady(adapt), "{at}: {adapt:?}");
            assert_eq!(allocations(ghosts), [0; 4], "{at}");
            assert_eq!(allocations(forest_ghosts), [0; 4], "{at}");
            if cfg!(debug_assertions) && scomm::checks_enabled() {
                assert!(steady(octree) && steady(forest), "{at}");
            } else {
                assert_eq!(allocations(octree), [0; 4], "{at}");
                assert_eq!(allocations(forest), [0; 4], "{at}");
            }
        }
    }
}

/// A warm octree cycle whose balance takes four rounds at P ≥ 2, each
/// later one with a seeded local pass that adds leaves: the peninsula of
/// `check/tests/oracles.rs::many_round_balance_matches_naive` refined to
/// level 7, balanced, and coarsened back. The seed list is grow-only
/// scratch too.
#[test]
fn many_round_balance_cycle() {
    let mut all = ops::new_tree(2);
    let c_cell = Octant::new(ROOT_LEN / 4, 0, 0, 2);
    ops::refine(&mut all, |o| *o == c_cell);
    let target = Octant::new(3 * ROOT_LEN / 8, 0, 0, MAX_LEVEL);
    for p in [1, 2, 4] {
        let runs = spmd::run(p, |c| {
            fill_mailboxes(c);
            let (r, rest) = (c.rank(), all.len() - 2);
            let (lo, hi) = match (p, r) {
                (1, _) => (0, all.len()),
                (_, 0) => (0, 2),
                _ => (2 + rest * (r - 1) / (p - 1), 2 + rest * r / (p - 1)),
            };
            let mut t = DistOctree::from_local(c, all[lo..hi].to_vec());
            let mut rounds = 0;
            let cycle = windows(c, 3, || {
                for _ in 3..7 {
                    t.refine(|o| o.contains(&target));
                }
                t.balance(BalanceKind::Full);
                rounds = t.last_balance_rounds();
                for _ in 3..7 {
                    t.coarsen(|o| o.level() > if c_cell.contains(o) { 3 } else { 2 });
                }
            });
            (cycle, rounds, t.local.len() == hi - lo)
        });
        for (rank, (cycle, rounds, restored)) in runs.iter().enumerate() {
            let at = format!("P = {p}, rank {rank}");
            assert!(p == 1 || *rounds >= 3, "{at}: {rounds} rounds");
            assert!(restored, "{at}: the cycle does not return to its start");
            if cfg!(debug_assertions) && scomm::checks_enabled() {
                assert!(steady(cycle), "{at}");
            } else {
                assert_eq!(allocations(cycle), [0; 4], "{at}");
            }
        }
    }
}

#[test]
fn operators_and_minres() {
    // Messages per apply on each rank: the scalar `DistOp`, and the
    // Stokes operator's one four-component message per neighbour each way.
    for (p, dist_op, stokes) in [
        (1, &[0][..], &[0][..]),
        (2, &[1, 1], &[2, 2]),
        (4, &[3, 2, 2, 3], &[4, 5, 5, 4]),
    ] {
        let runs = spmd::run(p, |c| {
            fill_mailboxes(c);
            let m = adapted_mesh(c, |x| x[0] < 0.4);
            let map = DofMap::new(&m, c, 1);
            let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
            let blocks = LevelBlocks::new(&m);
            let op = DistOp::new(
                &map,
                Box::new(stiffness_source(&m, &blocks, |_| 1.0)),
                Some(&bc),
            );
            let (x, mut y) = (vec![1.0; m.n_owned], vec![0.0; m.n_owned]);
            // Three warm-ups: payload buffers circulate between ranks, and
            // each grows until it has carried the largest payload its
            // orbit brings it (at P = 4 that takes two applies).
            let dist_op = windows(c, 3, || op.apply_owned(&x, &mut y));
            let m = adapted_mesh(c, |x| x[0] < 0.4 && x[2] > 0.3);
            let mut solver = stokes_solver(&m, c);
            let (rhs, x0) = solver.build_rhs(|p| [0.0, 0.0, (3.0 * p[0]).sin()], |_| [0.0; 3]);
            let mut z = vec![0.0; rhs.len()];
            let stokes = windows(c, 3, || solver.apply(&rhs, &mut z));
            // Three warm-ups, as for `DistOp`: the V-cycle's rounds send
            // payloads of every level's size, and at P = 4 a payload
            // buffer recycled from a smaller message still grows in the
            // second and third applies on one rank.
            let before = solver.amg_exchanges();
            let pre = windows(c, 3, || solver.apply_preconditioner(&rhs, &mut z));
            let after = solver.amg_exchanges();
            let minres = windows(c, 1, || {
                z.copy_from_slice(&x0);
                assert!(solver.solve(&rhs, &mut z).converged);
            });
            // The V-cycle's messages per apply, as its exchange rounds
            // counted them over the seven applies.
            let vcycle = (after.1 - before.1) / 7;
            assert_eq!(vcycle * 7, after.1 - before.1);
            ([dist_op, stokes, pre, minres], vcycle)
        });
        for (rank, ([op, st, pre, minres], vcycle)) in runs.iter().enumerate() {
            let at = format!("P = {p}, rank {rank}");
            // Each message's payload travels in a buffer recycled from
            // one this rank received. The pressure polynomial's two S̃
            // applies each exchange with the Stokes operator's neighbours,
            // and its vectors live in the solver's workspace; the V-cycle
            // sends what its exchange rounds count, none at P = 1.
            let sent = |ws: &[Window], n| ws.iter().all(|w| [w.allocations, w.messages] == [0, n]);
            assert!(sent(op, dist_op[rank]), "{at}: {op:?}");
            assert!(sent(st, stokes[rank]), "{at}: {st:?}");
            assert_eq!(*vcycle == 0, p == 1, "{at}: {vcycle} V-cycle messages");
            assert!(sent(pre, 2 * stokes[rank] + vcycle), "{at}: {pre:?}");
            // A warm solve allocates MINRES's nine work vectors and
            // nothing else. They stay per solve while the Stokes solver is
            // rebuilt every time step (ROADMAP item 7): a workspace it
            // owned would be allocated as often.
            assert!(
                minres.iter().all(|w| w.allocations == 9),
                "{at}: {minres:?}"
            );
        }
    }
}

#[test]
fn reductions() {
    for p in [1, 2, 4] {
        let runs = spmd::run(p, |c| {
            let x = c.rank() as f64;
            windows(c, 1, || {
                c.allreduce_sum(&[x; 20]);
                c.allreduce_max(&[c.rank() as u64, 1]);
                c.allreduce_min(&[x]);
                c.exscan_sum(x);
            })
        });
        for (rank, ws) in runs.iter().enumerate() {
            assert_eq!(allocations(ws), [0; 4], "P = {p}, rank {rank}");
            assert!(ws.iter().all(|w| w.allreduces == 3), "P = {p}, rank {rank}");
        }
    }
}

/// A warm DG step on the refined shell: five stages, each one ghost-trace
/// exchange (one message per neighbour rank) and one element pass.
#[test]
fn dg_steps() {
    for p in [1, 2] {
        let runs = spmd::run(p, |c| {
            fill_mailboxes(c);
            let mut f = sphere_forest(c);
            f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
            f.balance(BalanceKind::Full);
            f.partition();
            let params = DgParams {
                order: 3,
                ..Default::default()
            };
            let rotate = |q: [f64; 3]| [-q[1], q[0], 0.2 * q[0]];
            let mut dg = DgAdvection::new(&f, params, |q| q[0] * q[1], rotate);
            let dt = dg.stable_dt();
            windows(c, 3, || dg.step(dt))
        });
        for (rank, ws) in runs.iter().enumerate() {
            let at = format!("P = {p}, rank {rank}");
            let step = Window {
                allocations: 0,
                messages: 5 * (p as u64 - 1),
                allreduces: 0,
            };
            assert!(ws.iter().all(|w| *w == step), "{at}: {ws:?}");
        }
    }
}

#[test]
fn stokes_setup() {
    // `StokesSolver::new`, a re-`setup` (as Picard runs one) and a
    // right-hand side each allocate the same number of times on a level-3
    // cube, a level-4 cube (6.7× the rows, one more AMG level) and an
    // adapted mesh with two element levels: nothing is allocated per row,
    // per element, per AMG level or per octree level. One solver on a
    // level-2 cube first, for the communicator's one-time growth.
    let counts = spmd::run(1, |c| {
        let cube = |level| extract_mesh(&DistOctree::new_uniform(c, level), [1.0, 1.0, 1.0]);
        drop(stokes_solver(&cube(2), c));
        let adapted = adapted_mesh(c, |x| x[0] < 0.4 && x[2] > 0.3);
        [cube(3), cube(4), adapted].map(|m| {
            let force = vec![1.0; 3 * m.n_owned];
            let a0 = ALLOCATIONS.with(Cell::get);
            let mut solver = stokes_solver(&m, c);
            let a1 = ALLOCATIONS.with(Cell::get);
            solver.setup();
            let a2 = ALLOCATIONS.with(Cell::get);
            let rhs = solver.homogeneous_rhs(&force);
            let a3 = ALLOCATIONS.with(Cell::get);
            drop((solver, rhs));
            [a1 - a0, a2 - a1, a3 - a2]
        })
    });
    // 89: the element blocks and the masks; the assembly's arena, its
    // row sums and its rank offsets (read from the mesh: no collective at
    // P = 1); the lanes' pinned bits, the fused fine level and one setup
    // workspace; per hierarchy (three under free slip) its stacked coarse
    // levels and restrictions, its V-cycle scratch and its dense coarsest
    // factor; the Schur diagonal, whose exchange round grows the solver's
    // workspace (4) for every later round to reuse. 82: a re-setup, which
    // builds no arguments or element blocks and finds the workspace warm.
    // 3: the owned+ghost force, the owned+ghost load and the load.
    assert_eq!(counts[0], [[89, 82, 3]; 3]);
}
