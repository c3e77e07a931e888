//! # mangll — high-order nodal discontinuous Galerkin on forests
//!
//! The reproduction of the paper's MANGLL library (Section VII): an
//! arbitrary-order nodal DG discretization on (forest-of-octree)
//! hexahedral elements with nodes at tensor-product Legendre–Gauss–
//! Lobatto (LGL) points, all integrations by LGL quadrature (diagonal
//! mass matrix), upwind numerical fluxes, nonconforming (2:1) face
//! coupling by interpolation/L²-projection mortars, and a five-stage
//! fourth-order low-storage Runge–Kutta integrator.
//!
//! The Section VII performance experiment — **matrix-based
//! (6(p+1)⁶ flop) vs tensor-product (6(p+1)⁴ flop) element derivative
//! kernels** and their crossover — lives in [`kernels`], with exact
//! analytic flop counts matching the paper's.

pub mod advection;
pub mod kernels;
pub mod lgl;

pub use advection::{DgAdvection, DgParams};
pub use kernels::{
    matrix_derivative_flops, tensor_derivative_flops, ElementDerivative, MatrixDerivative,
};
pub use lgl::Lgl;
