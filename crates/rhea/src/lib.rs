//! # rhea — adaptive mantle convection (the paper's application code)
//!
//! RHEA couples the Boussinesq mantle equations (paper eqs. (1)–(3)):
//! an explicitly-integrated SUPG-stabilized advection–diffusion equation
//! for temperature, a variable-viscosity Stokes solve for the flow, and
//! the full dynamic-AMR pipeline of Fig. 4 — coarsen/refine → 2:1
//! balance → extract → interpolate fields → partition → transfer fields —
//! with per-phase timing instrumentation that regenerates the paper's
//! Figs. 5, 7, 8 and 10.
//!
//! Modules:
//!
//! * [`rheology`] — the Section VI three-layer temperature-dependent
//!   viscosity with plastic yielding;
//! * [`transport`] — predictor–corrector SUPG transport (eq. (3));
//! * [`adapt`] — the Fig. 4 adaptation pipeline including nodal field
//!   transfer across repartitioning;
//! * [`convection`] — the full convection simulation loop.

pub mod adapt;
pub mod convection;
pub mod rheology;
pub mod transport;

pub use adapt::{adapt_mesh_ws, AdaptParams, AdaptReport, AdaptWorkspace};
pub use convection::{ConvectionParams, ConvectionSim, StepReport};
pub use rheology::{ViscosityLaw, YieldingLaw};
pub use transport::{TransportParams, TransportSolver};
