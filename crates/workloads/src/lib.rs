//! Application workload models.
//!
//! DUFP never inspects application code — it only sees the counter
//! time-series (FLOPS/s, bandwidth, power). A workload is therefore modeled
//! as a *sequence of phases*, each characterized by the roofline demands of
//! one program region ([`dufp_model::PhaseRates`]) plus the core activity it
//! keeps the package at. The phase structure (lengths, alternation,
//! sub-interval bursts) is what exercises every branch of the controllers:
//! phase-change resets, the highly-memory fast path, the highly-compute
//! guard, aliasing of sub-interval phases (LAMMPS), and undetected phase
//! changes under deep caps (UA).
//!
//! * [`spec`] — declarative phase specs and their materialization into
//!   roofline terms for a concrete machine,
//! * [`apps`] — calibrated models of the paper's ten applications,
//! * [`cache`] — process-wide memoization of materialized phase tables,
//!   so a parallel sweep's jobs share one immutable `Arc`'d table per
//!   (application, machine) instead of regenerating it per job,
//! * [`synthetic`] — a seeded random workload generator for property tests
//!   and stress benches,
//! * [`mod@file`] — JSON (de)serialization of phase specs, so downstream users
//!   can describe their own applications without writing Rust,
//! * [`capture`] — the reverse direction: segment a recorded counter trace
//!   into phase specs (characterize a real application by running it once).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod capture;
pub mod file;
pub mod spec;
pub mod synthetic;

pub use cache::shared_by_name;
pub use capture::{segment, CounterSample};
pub use file::{load_workload, WorkloadFile};
pub use spec::{Boundness, MaterializeCtx, Phase, PhaseSpec, Workload};
