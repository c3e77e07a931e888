//! # fem — trilinear hexahedral finite elements on octree meshes
//!
//! The discretization layer of the reproduction (paper Section III):
//! trilinear Lagrange elements for all fields on octree-derived hex
//! meshes, with
//!
//! * one table of element matrices on axis-aligned boxes, formed from
//!   three integrals per element size: mass, stiffness, advection with
//!   SUPG stabilization (Brooks–Hughes), the viscous (strain-rate) block,
//!   discrete divergence, and the Dohrmann–Bochev
//!   polynomial-pressure-projection stabilization used to circumvent the
//!   inf-sup condition for equal-order velocity–pressure pairs;
//! * element-level application of the hanging-node constraints `CᵀKC`;
//! * distributed matrix-free operator application (ghost exchange →
//!   element kernels → reverse accumulation), which is how the paper's
//!   MINRES applies the Stokes operator;
//! * assembly of each rank's owned rows with their ghost columns (all
//!   global contributions), feeding the AMG preconditioner.

pub mod assembly;
pub mod element;
pub mod op;

pub use assembly::{assemble_owned_block, assemble_owned_sum, ElementMatrixSource};
pub use element::{stiffness_matrix, supg_tau, ElementBlocks, LevelBlocks, GAUSS_2};
pub use op::{DistOp, DofMap};
