//! Discrete-time socket simulator.
//!
//! This crate stands in for the paper's hardware testbed (four Intel Xeon
//! Gold 6130 packages on Grid'5000's YETI cluster). It advances an integer
//! microsecond clock in fixed ticks (default 1 ms) and, per socket and
//! tick:
//!
//! 1. derives achievable memory bandwidth from the pinned uncore frequency
//!    and the current cap pressure ([`dufp_model::BandwidthModel`]),
//! 2. picks the highest DVFS ladder frequency whose predicted package power
//!    fits the RAPL enforcer's current allowance (the performance governor
//!    runs flat-out otherwise, exactly like the paper's Intel Pstate
//!    setup),
//! 3. progresses the current workload phase along the roofline
//!    ([`dufp_model::RooflineModel`]),
//! 4. integrates package and DRAM energy and steps the cap enforcer.
//!
//! The simulator is driven *only* through the same interfaces a real node
//! offers: [`dufp_msr::MsrIo`] for actuation (uncore ratio register, RAPL
//! power-limit register) and [`dufp_counters::Telemetry`] for observation.
//! Controllers cannot tell it apart from hardware, which is the point.
//!
//! Determinism: all noise comes from a `ChaCha8` stream seeded from
//! [`SimConfig::seed`]; equal seeds give bit-equal runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod governor;
pub mod machine;
pub mod shared;
pub mod socket;
pub mod trace;

pub use config::{NoiseConfig, SimConfig};
pub use governor::Governor;
pub use machine::Machine;
pub use shared::{SharedSocketCfg, SharedSocketSim, SharedStep, TenantAccount};
pub use socket::SocketSim;
pub use trace::{Trace, TracePoint};
