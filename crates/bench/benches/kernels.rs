//! Criterion micro-benchmarks for the kernels underlying the figure
//! harnesses, plus the ablation studies called out in DESIGN.md §4:
//!
//! * `ablation_partition` — Morton-curve partition vs naive block
//!   partition of *unsorted* leaves, measured by inter-part adjacency
//!   (communication surface);
//! * `ablation_precond`   — AMG V-cycle vs Jacobi preconditioning of the
//!   variable-viscosity Poisson block (CG iteration counts);
//! * DG derivative kernels, Morton ops, 2:1 balance, mesh extraction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use la::{cg, Amg, AmgOptions, Csr};
use mangll::kernels::ElementDerivative;
use mesh::extract::extract_mesh;
use octree::balance::balance_local;
use octree::ops::{new_tree, refine};
use octree::parallel::DistOctree;
use octree::{Octant, MAX_LEVEL, ROOT_LEN};
use scomm::spmd;

fn center_spike(depth: u8) -> Vec<Octant> {
    let target = Octant::new(
        ROOT_LEN / 2 - 1,
        ROOT_LEN / 2 - 1,
        ROOT_LEN / 2 - 1,
        MAX_LEVEL,
    );
    let mut t = new_tree(1);
    for _ in 1..depth {
        refine(&mut t, |o| o.contains(&target));
    }
    t
}

fn bench_morton(c: &mut Criterion) {
    c.bench_function("morton_encode_decode", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u32 {
                let k =
                    octree::morton::morton_key(i * 7 % ROOT_LEN, i * 13 % ROOT_LEN, i % ROOT_LEN);
                let (x, _, _) = octree::morton::morton_decode(k);
                acc = acc.wrapping_add(x as u64);
            }
            acc
        })
    });
}

fn bench_balance(c: &mut Criterion) {
    c.bench_function("balance_local_center_spike", |b| {
        b.iter_batched(
            || center_spike(6),
            |mut t| balance_local(&mut t),
            BatchSize::SmallInput,
        )
    });
}

/// Count pairs of face-adjacent leaves placed in different parts — the
/// communication surface a partition induces.
fn adjacency_cut(leaves: &[Octant], part_of: impl Fn(usize) -> usize) -> usize {
    let mut cut = 0;
    for (i, o) in leaves.iter().enumerate() {
        for (dx, dy, dz) in Octant::neighbor_directions() {
            if let Some(n) = o.neighbor(dx, dy, dz) {
                if let Some(j) = octree::ops::find_containing(leaves, &n) {
                    if part_of(i) != part_of(j) {
                        cut += 1;
                    }
                }
            }
        }
    }
    cut / 2
}

fn bench_partition_ablation(c: &mut Criterion) {
    // Not a timing ablation: report the cut sizes once, then bench the
    // partition computation itself.
    let mut t = center_spike(5);
    balance_local(&mut t);
    let n = t.len();
    let parts = 8;
    // Morton partition: contiguous curve segments (leaves are sorted).
    let morton_cut = adjacency_cut(&t, |i| i * parts / n);
    // Naive partition: round-robin by index of the *shuffled* leaf list —
    // equivalent to ignoring locality entirely.
    let mut shuffled: Vec<usize> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let naive_assignment: Vec<usize> = {
        let mut a = vec![0; n];
        for (pos, &leaf) in shuffled.iter().enumerate() {
            a[leaf] = pos * parts / n;
        }
        a
    };
    let naive_cut = adjacency_cut(&t, |i| naive_assignment[i]);
    eprintln!(
        "[ablation_partition] {n} leaves into {parts} parts: \
         Morton-curve cut = {morton_cut} adjacent pairs, random-block cut = {naive_cut} \
         ({:.1}× more communication surface)",
        naive_cut as f64 / morton_cut.max(1) as f64
    );
    c.bench_function("partition_tree_8ranks", |b| {
        b.iter(|| {
            spmd::run(8, |comm| {
                let mut dt = DistOctree::new_uniform(comm, 3);
                dt.refine(|o| o.center_unit()[0] < 0.3);
                dt.partition()
            })
        })
    });
}

fn bench_precond_ablation(c: &mut Criterion) {
    // Variable-viscosity Poisson block (serial) — compare CG iterations
    // and time with AMG vs Jacobi.
    let out = spmd::run(1, |comm| {
        let mut t = DistOctree::new_uniform(comm, 3);
        t.refine(|o| o.center_unit()[0] < 0.4);
        t.balance(octree::balance::BalanceKind::Full);
        let m = extract_mesh(&t, [1.0, 1.0, 1.0]);
        let map = fem::op::DofMap::new(&m, comm, 1);
        let mref = &m;
        let src = move |e: usize, outm: &mut [f64]| {
            let eta = if mref.elements[e].center_unit()[2] > 0.5 {
                1e4
            } else {
                1.0
            };
            let k = fem::element::stiffness_matrix(mref.element_size(e), eta);
            for i in 0..8 {
                for j in 0..8 {
                    outm[i * 8 + j] = k[i][j];
                }
            }
        };
        let bc: Vec<bool> = (0..m.n_owned).map(|d| m.dof_on_boundary(d)).collect();
        fem::assembly::assemble_owned_block(&map, &src, Some(&bc))
    });
    let a: Csr = out.into_iter().next().unwrap();
    let n = a.nrows;
    let amg = Amg::new(a.clone(), AmgOptions::default());
    let d = a.diagonal();
    let jacobi = (n, move |x: &[f64], y: &mut [f64]| {
        for i in 0..x.len() {
            y[i] = x[i] / d[i];
        }
    });
    let b_vec = vec![1.0; n];
    // Report iteration counts once.
    let mut x = vec![0.0; n];
    let amg_info = cg(
        &a,
        Some(&amg),
        &b_vec,
        &mut x,
        1e-8,
        2000,
        la::krylov::euclidean_dot,
    );
    x.fill(0.0);
    let jac_info = cg(
        &a,
        Some(&jacobi),
        &b_vec,
        &mut x,
        1e-8,
        2000,
        la::krylov::euclidean_dot,
    );
    eprintln!(
        "[ablation_precond] n = {n}, viscosity contrast 1e4: \
         CG+AMG = {} iterations, CG+Jacobi = {} iterations",
        amg_info.iterations, jac_info.iterations
    );
    let mut g = c.benchmark_group("ablation_precond");
    g.sample_size(10);
    g.bench_function("cg_amg_vcycle", |b| {
        b.iter(|| {
            let mut x = vec![0.0; n];
            cg(
                &a,
                Some(&amg),
                &b_vec,
                &mut x,
                1e-8,
                2000,
                la::krylov::euclidean_dot,
            )
        })
    });
    g.bench_function("cg_jacobi", |b| {
        b.iter(|| {
            let mut x = vec![0.0; n];
            cg(
                &a,
                Some(&jacobi),
                &b_vec,
                &mut x,
                1e-8,
                2000,
                la::krylov::euclidean_dot,
            )
        })
    });
    g.finish();
}

fn bench_dg_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("dg_derivative");
    for p in [2usize, 4, 6] {
        let ed = ElementDerivative::new(p);
        let n3 = ed.n3();
        let nelem = 64;
        let u: Vec<f64> = (0..n3 * nelem).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut out = vec![0.0; 3 * n3 * nelem];
        g.bench_function(format!("matrix_p{p}"), |b| {
            b.iter(|| ed.apply_matrix_batch(&u, &mut out, nelem))
        });
        g.bench_function(format!("tensor_p{p}"), |b| {
            b.iter(|| ed.apply_tensor_batch(&u, &mut out, nelem))
        });
    }
    g.finish();
}

fn bench_extract_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("amr_functions");
    g.sample_size(10);
    g.bench_function("extract_mesh_level3_adapted", |b| {
        b.iter(|| {
            spmd::run(1, |comm| {
                let mut t = DistOctree::new_uniform(comm, 3);
                t.refine(|o| o.center_unit()[1] > 0.6);
                t.balance(octree::balance::BalanceKind::Full);
                extract_mesh(&t, [1.0, 1.0, 1.0]).n_owned
            })
        })
    });
    g.bench_function("balance_after_spike", |b| {
        b.iter_batched(
            || center_spike(6),
            |mut t| balance_local(&mut t),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_morton,
    bench_balance,
    bench_partition_ablation,
    bench_precond_ablation,
    bench_dg_kernels,
    bench_extract_mesh
);
criterion_main!(benches);
