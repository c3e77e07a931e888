//! # alps — Adaptive Large-scale Parallel Simulations
//!
//! The façade crate of the reproduction: ALPS is the paper's library for
//! parallel dynamic octree-based finite element AMR (Section IV). It
//! bundles and re-exports the layers a simulation code builds on:
//!
//! * [`scomm`] — the simulated SPMD communication substrate
//!   (DESIGN.md substitution for MPI/Ranger);
//! * [`octree`] — Morton-ordered linear octrees with the paper's AMR
//!   functions: `NewTree`, `RefineTree`, `CoarsenTree`, `BalanceTree`
//!   (2:1, prioritized ripple), `PartitionTree` (space-filling-curve
//!   segments), `MarkElements` (collective threshold iteration);
//! * [`forest`] — the P4EST layer: forests of arbitrarily connected
//!   octrees (unit cube, bricks, the 24-tree cubed sphere), with
//!   inter-tree face transforms derived from shared corner vertices;
//! * [`mesh`] — `ExtractMesh`: trilinear hexahedral meshes with
//!   hanging-node constraints, distributed dof numbering, ghost
//!   exchange, `InterpolateFields` and `TransferFields`.
//!
//! The PDE layers (`fem`, `la`, `stokes`, `rhea`, `mangll`) sit on top;
//! see the workspace README for the map.
//!
//! ## Quickstart
//!
//! ```
//! use alps::prelude::*;
//!
//! // Four simulated ranks cooperatively build an adapted, balanced,
//! // load-partitioned mesh of the unit cube.
//! let dof_counts = scomm::spmd::run(4, |comm| {
//!     let mut tree = DistOctree::new_uniform(comm, 2);
//!     tree.refine(|o| o.center_unit()[2] < 0.25);
//!     tree.balance(BalanceKind::Full);
//!     tree.partition();
//!     let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
//!     mesh.n_owned
//! });
//! assert!(dof_counts.iter().sum::<usize>() > 125);
//! ```

pub use forest;
pub use mesh;
pub use octree;
pub use scomm;

/// The names a typical ALPS application uses.
pub mod prelude {
    pub use forest::{Connectivity, Forest, ForestLeaf, TreeGeometry};
    pub use mesh::extract::{extract_mesh, Mesh};
    pub use mesh::interp::{transfer_corner_values_into, unpack_corner_values};
    pub use octree::balance::BalanceKind;
    pub use octree::mark::{Mark, MarkParams};
    pub use octree::parallel::{transfer_fields, DistOctree, PartitionPlan};
    pub use octree::{Octant, MAX_LEVEL, ROOT_LEN};
    pub use scomm::{spmd, Comm};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_pipeline_end_to_end() {
        // The Fig. 4 loop through the façade: mark → adapt → balance →
        // interpolate → partition → transfer → extract → unpack.
        scomm::spmd::run(2, |comm| {
            let mut tree = DistOctree::new_uniform(comm, 2);
            let mesh = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let field: Vec<f64> = (0..mesh.n_owned).map(|d| mesh.dof_coords(d)[0]).collect();
            let ind: Vec<f64> = tree
                .local
                .iter()
                .map(|o| (1.0 - o.center_unit()[0]).max(0.0))
                .collect();
            let params = MarkParams {
                target_elements: 200,
                ..Default::default()
            };
            tree.adapt_to_target(&ind, &params);
            tree.balance(BalanceKind::Full);
            let mut old_local = vec![0.0; mesh.n_local()];
            old_local[..mesh.n_owned].copy_from_slice(&field);
            mesh.exchange.exchange(comm, &mut old_local, mesh.n_owned);
            let mut corners = Vec::new();
            transfer_corner_values_into(&mesh, &old_local, &tree.local, &mut corners);
            assert_eq!(corners.len(), 8 * tree.local.len());
            let plan = tree.partition();
            let moved = transfer_fields(comm, &plan, &corners, 8);
            assert!(tree.validate());
            let fin = extract_mesh(&tree, [1.0, 1.0, 1.0]);
            let carried = unpack_corner_values(&fin, &moved);
            for d in 0..fin.n_owned {
                assert!((carried[d] - fin.dof_coords(d)[0]).abs() < 1e-12);
            }
        });
    }
}
