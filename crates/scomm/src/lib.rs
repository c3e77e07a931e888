//! # scomm — simulated SPMD communication substrate
//!
//! The paper's algorithms (ALPS/P4EST/RHEA) are SPMD programs over MPI on
//! TACC Ranger. Rust's MPI ecosystem is thin and no Ranger-class machine is
//! available, so this crate provides the substitution described in
//! `DESIGN.md`: a faithful *simulated* message-passing machine in which each
//! rank runs as an OS thread and communicates through an MPI-like
//! [`Comm`] handle.
//!
//! The substrate provides:
//!
//! * **One point-to-point primitive**: the split-phase neighbor exchange
//!   ([`Comm::exchange_start`] / [`Comm::exchange_end`] over a reusable
//!   [`Exchange`] stream) — the barrier-free contract that every ghost
//!   exchange of the mesh, FEM, AMG and DG layers uses, with several
//!   streams in flight at once, each through one [`Halo`] and its
//!   [`HaloBuffers`] ([`halo`]). A blocking exchange is a start followed
//!   at once by its end. Completion-time semantics (matching, fault
//!   jitter, the post→complete telemetry span) are described in
//!   [`exchange`].
//! * **Collectives** — [`Comm::barrier`], [`Comm::allgather`],
//!   [`Comm::allgatherv`], [`Comm::bcast`], [`Comm::alltoallv`] and the
//!   array reductions `allreduce_{sum,max,min}` (`&[T; N]` → `[T; N]`,
//!   folded on the stack in rank order) and [`Comm::exscan_sum`] — all
//!   with MPI semantics (every rank must call them in the same order).
//! * **Statistics** ([`stats::CommStats`]) — per-rank message and byte
//!   counts, printed per rank and step by the figure harnesses.
//! * **Fault injection** ([`fault::FaultPlan`]) — a seeded adversarial
//!   scheduler that delays/reorders point-to-point deliveries, drops
//!   messages with a panic, and staggers collective entries, to shake out
//!   ordering assumptions deterministically ([`Comm::set_fault_plan`]).
//!
//! ## Example
//!
//! ```
//! use scomm::spmd;
//!
//! // Four ranks cooperatively compute a global sum.
//! let results = spmd::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.allreduce_sum(&[mine])[0]
//! });
//! assert!(results.iter().all(|&s| s == 10.0));
//! ```

pub mod comm;
pub mod exchange;
pub mod fault;
pub mod gate;
pub mod halo;
pub mod pod;
pub mod rng;
pub mod spmd;
pub mod stats;

pub use comm::Comm;
pub use exchange::Exchange;
pub use fault::{FaultCounters, FaultPlan};
pub use gate::checks_enabled;
pub use halo::{Halo, HaloBuffers};
pub use pod::Pod;
pub use stats::CommStats;
