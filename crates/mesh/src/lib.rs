//! # mesh — `ExtractMesh`, hanging-node constraints, ghosts, field transfer
//!
//! This crate builds the distributed trilinear finite element mesh from a
//! balanced distributed octree (the paper's `ExtractMesh`), including:
//!
//! * unique global numbering of the independent degrees of freedom
//!   (hanging nodes carry no unknowns, exactly as in Section IV-B);
//! * algebraic hanging-node constraints resolved at the element level,
//!   with recursive (chained) constraints handled through a bounded
//!   number of collective resolution rounds;
//! * the ghost-dof exchange pattern (one layer of remote elements);
//! * `InterpolateFields` — transfer of nodal fields onto the leaves
//!   obtained by coarsening, refinement and balance, as element-corner
//!   data produced by one Morton merge of old elements and new leaves;
//!   communication-free given ghost values, as in the paper.
//!
//! The mesh is Cartesian: a single octree mapped to a box `[0,Lx] ×
//! [0,Ly] × [0,Lz]` (the paper's mantle simulations use 8×4×1). Forest
//! meshes are consumed by the discontinuous-Galerkin `mangll` crate,
//! which needs no continuous numbering.

pub mod extract;
pub mod interp;
mod table;

pub use extract::{Constraints, Corner, Mesh};
pub use interp::{transfer_corner_values_into, unpack_corner_values};
