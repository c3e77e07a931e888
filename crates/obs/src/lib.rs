//! # obs — unified tracing and telemetry
//!
//! The paper's entire evaluation (Figs. 7, 8, 10) is a runtime-breakdown
//! story: per-AMR-function timings, AMG setup vs. V-cycle cost, AMR/solve
//! ratios. This crate is the measurement substrate every layer reports
//! through:
//!
//! * **[`Recorder`]** — a per-rank handle recording hierarchical
//!   [spans](Recorder::span) with *inclusive* (wall-clock) and
//!   *exclusive* (children subtracted) time, counters, log-scale
//!   [histograms](LogHistogram), ordered series (per-iteration
//!   residuals), and instant events.
//! * **[`Summary`]** — the mergeable aggregate; [`Reduce`] merges
//!   per-rank summaries across a `scomm` world (associative +
//!   commutative, like an MPI reduction).
//! * **[`export`]** — Chrome-trace JSON (one track per simulated rank,
//!   loadable in `chrome://tracing`), a JSONL event log, and a run
//!   manifest under `results/obs/` that the figure harnesses consume.
//! * **[`json`]** — a small self-contained JSON value/writer/parser
//!   (the offline build cannot fetch `serde`).
//!
//! ## Example
//!
//! ```
//! use obs::{Recorder, Reduce, Summary};
//!
//! let rec = Recorder::new(0);
//! {
//!     let _solve = rec.span_cat("MINRES", "solve");
//!     rec.push_series("minres.residual", 1e-3);
//!     let _v = rec.span_cat("AMGSolve", "solve"); // nested: V-cycle
//! }
//! rec.add_count("minres.iterations", 1);
//! let merged = Summary::reduce_all([&rec.summary()]);
//! assert!(merged.incl_seconds("MINRES") >= merged.incl_seconds("AMGSolve"));
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod rec;
pub mod summary;

pub use export::{chrome_trace, jsonl_events, run_manifest, ObsSession, WrittenRun};
pub use json::{ToJson, Value};
pub use metrics::LogHistogram;
pub use rec::{thread_cpu_ns, InstantEvent, RankProfile, Recorder, SpanEvent, SpanGuard};
pub use summary::{PhaseStats, Reduce, Summary};
