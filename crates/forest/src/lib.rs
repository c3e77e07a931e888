//! # forest — forest-of-octrees adaptivity (the P4EST analogue)
//!
//! Section VII of the paper extends the single-octree algorithms to
//! domains decomposable into non-overlapping hexahedron-mappable
//! subdomains: each subdomain is the root of an adaptive octree, and a
//! *connectivity* structure records the topological relations between
//! neighboring trees, including the coordinate transformations across
//! their shared faces.
//!
//! As in P4EST, trees are defined by their eight corner vertices; face
//! adjacency and the inter-tree coordinate transforms are *derived* from
//! shared vertex ids, so a connectivity is correct by construction.
//! Provided connectivities:
//!
//! * [`Connectivity::unit_cube`] — one tree (reduces to the `octree` crate),
//! * [`Connectivity::brick`] — an `nx × ny × nz` Cartesian arrangement
//!   (the paper's 8×4×1 regional mantle domain is `brick(8, 4, 1)`),
//! * [`Connectivity::cubed_sphere`] — a spherical shell split into 6 caps
//!   of 4 trees each, 24 octrees total, exactly the decomposition used for
//!   the paper's Fig. 12 advection experiment.
//!
//! The distributed forest ([`Forest`]) orders leaves by `(tree, Morton)` —
//! the curve threads the trees one after another — and supports the same
//! AMR operations as the single tree, with the same code: refine,
//! coarsen, 2:1 balance (full 26-neighbor, across tree faces, edges and
//! corners through composed face transforms), SFC partition, and ghost
//! layers.

pub mod connectivity;
pub mod dist;
pub mod traverse;

pub use connectivity::{transverse_axes, Connectivity, FaceTransform, TreeGeometry};
pub use dist::{Forest, ForestLeaf};
pub use traverse::{
    CornerVisit, EdgeVisit, FaceSide, FaceVisit, GhostEntry, GhostKind, GhostLayer, GhostWorkspace,
    Incident, LeafOrigin, DIRS,
};
