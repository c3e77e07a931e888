//! The repo's benchmark: four named workloads driven through the public
//! functions of the production crates, six end-to-end metrics from untraced
//! runs, and per-layer probes plus a span trace from a separate traced run.
//! See `README.md` in this directory.

pub mod amr;
pub mod conv;
pub mod dg;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod once;
pub mod rng;
pub mod suite;
