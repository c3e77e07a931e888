//! # la — sparse linear algebra, Krylov solvers, and algebraic multigrid
//!
//! The solver substrate of the reproduction. The paper's Stokes
//! preconditioner applies one V-cycle of BoomerAMG (hypre) to each
//! variable-viscosity Poisson block and to the Schur-complement mass
//! matrix; here the AMG is a smoothed-aggregation hierarchy
//! ([`amg::Amg`]), the substitution argued in DESIGN.md: both are
//! algebraic multigrids used strictly as black-box V-cycle
//! preconditioners, and the property the paper measures — MINRES
//! iteration counts that are nearly insensitive to problem size under
//! severe viscosity heterogeneity — is reproduced by the aggregation
//! hierarchy.
//!
//! The Krylov solvers and sparse kernels are rank-local; distributed
//! solvers are composed on top by the `fem`/`stokes` crates, which supply
//! globally-reduced inner products and ghost-exchanging operators
//! through the [`LinearOp`] and dot-product hooks. The AMG alone talks to
//! the other ranks itself ([`Amg::coupled`]): one hierarchy across them
//! exchanges ghost values on every level it smooths.

pub mod amg;
pub mod csr;
pub mod dense;
pub mod krylov;

pub use amg::{Amg, AmgOptions};
pub use csr::{Csr, DistCsr, OwnedRows};
pub use dense::Cholesky;
pub use krylov::{cg, minres, LinearOp, SolveInfo};
