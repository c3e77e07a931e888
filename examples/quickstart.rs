//! Quickstart: build, adapt, balance, partition, and mesh an octree on
//! simulated parallel ranks, then solve a Poisson problem on it.
//!
//! Run with: `cargo run --release --example quickstart`

use fem::element::{stiffness_source, LevelBlocks};
use fem::op::{DistOp, DofMap};
use la::cg;
use mesh::extract::extract_mesh;
use octree::balance::BalanceKind;
use octree::parallel::DistOctree;
use scomm::spmd;

fn main() {
    const RANKS: usize = 4;
    println!("ALPS quickstart on {RANKS} simulated ranks\n");

    let results = spmd::run(RANKS, |comm| {
        // 1. NewTree: a uniform level-3 octree over the unit cube,
        //    distributed along the Morton curve.
        let mut tree = DistOctree::new_uniform(comm, 3);

        // 2. RefineTree: resolve a spherical feature.
        tree.refine(|o| {
            let c = o.center_unit();
            let r = ((c[0] - 0.5).powi(2) + (c[1] - 0.5).powi(2) + (c[2] - 0.5).powi(2)).sqrt();
            (r - 0.3).abs() < 0.08
        });

        // 3. BalanceTree: restore the 2:1 size condition.
        let added = tree.balance(BalanceKind::Full);

        // 4. PartitionTree: equal elements per rank along the curve.
        tree.partition();
        assert!(tree.validate());

        // 5. ExtractMesh: trilinear FEM mesh with hanging-node
        //    constraints, global dof numbering and ghost exchange.
        let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);

        // 6. Solve −Δu = 1 with homogeneous Dirichlet BCs, matrix-free.
        let map = DofMap::new(&mesh, comm, 1);
        let bc: Vec<bool> = (0..mesh.n_owned).map(|d| mesh.dof_on_boundary(d)).collect();
        let blocks = LevelBlocks::new(&mesh);
        let op = DistOp::new(
            &map,
            Box::new(stiffness_source(&mesh, &blocks, |_| 1.0)),
            Some(&bc),
        );
        // Load vector: lumped ∫ N_i · 1.
        let mut rhs = vec![0.0; map.n_local()];
        let blocks = LevelBlocks::new(&mesh);
        for e in 0..mesh.elements.len() {
            map.scatter_element(e, &blocks.of(&mesh, e).lumped_mass, &mut rhs);
        }
        map.reverse_accumulate(&mut rhs);
        let mut rhs = rhs[..mesh.n_owned].to_vec();
        for (d, &m) in bc.iter().enumerate() {
            if m {
                rhs[d] = 0.0;
            }
        }
        let mut u = vec![0.0; mesh.n_owned];
        let info = cg(&op, None::<&la::Csr>, &rhs, &mut u, 1e-8, 500, |a, b| {
            map.dot(a, b)
        });
        let umax = map.norm_inf(&u);

        (
            tree.global_count(),
            added,
            mesh.n_owned,
            mesh.n_global,
            info.iterations,
            umax,
        )
    });

    let (elems, added, _, dofs, iters, umax) = results[0];
    println!("elements after adaptation : {elems}");
    println!("leaves added by balance   : {added}");
    println!("global dofs               : {dofs}");
    for (r, (_, _, owned, ..)) in results.iter().enumerate() {
        println!("rank {r} owns              : {owned} dofs");
    }
    println!("CG iterations             : {iters}");
    println!("max potential             : {umax:.5}");
    println!("\n(the mesh tracks the spherical shell; hanging nodes are constrained");
    println!(" automatically; all ranks agree on the distributed solve)");
}
