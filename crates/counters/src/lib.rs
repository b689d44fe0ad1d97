//! PAPI-like measurement framework.
//!
//! The paper's tool "relies on PAPI for power, FLOPS/s and bandwidth
//! measurements" (§IV-C). This crate reproduces that measurement layer:
//!
//! * [`telemetry`] — the [`telemetry::Telemetry`] trait: monotonic raw
//!   counters (FLOPs retired, bytes moved, package/DRAM energy) per socket.
//!   The simulator implements it; a real-hardware implementation would wrap
//!   PAPI or perf events.
//! * [`sampler`] — the periodic sampler: converts consecutive raw
//!   snapshots into the *interval metrics* (FLOPS/s, bandwidth,
//!   operational intensity, power) that drive every DUF/DUFP decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sampler;
pub mod telemetry;

pub use sampler::{IntervalMetrics, Sampler, OI_SATURATED};
pub use telemetry::{CounterSnapshot, Telemetry};
