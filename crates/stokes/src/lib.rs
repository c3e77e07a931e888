//! # stokes — the parallel variable-viscosity Stokes solver (paper §III)
//!
//! Discretization: equal-order trilinear velocity–pressure with
//! Dohrmann–Bochev polynomial pressure projection (inf-sup circumvention),
//! producing the stabilized symmetric saddle-point system
//!
//! ```text
//! [ A   Bᵀ ] [u]   [f]
//! [ B  −C  ] [p] = [g]
//! ```
//!
//! solved by preconditioned MINRES with the approximate block
//! factorization preconditioner
//!
//! ```text
//! P = diag( Ã , S̃ ),
//! ```
//!
//! where `Ã` is the variable-viscosity discrete vector Laplacian
//! approximated by **one AMG V-cycle per component** (the BoomerAMG
//! substitution of DESIGN.md, one hierarchy across the ranks), and `S̃`
//! is the inverse-viscosity-weighted pressure mass plus the stabilization,
//! `Σ_e (M_e + C_e)/η_e`, spectrally equivalent to the Schur complement
//! (paper reference [11]). The paper takes the lumped mass alone; here
//! that diagonal scales a fixed Chebyshev polynomial in `S̃` (DESIGN.md §8).
//!
//! The nonlinearity of strain-rate-dependent viscosity is handled by the
//! Picard fixed-point iteration in [`picard`].

pub mod picard;
pub mod solver;

pub use picard::{picard_solve, PicardResult};
pub use solver::{StokesOptions, StokesSolver};
