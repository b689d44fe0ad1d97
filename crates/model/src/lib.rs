//! Analytic hardware models for the DUFP socket simulator.
//!
//! The paper's controllers observe only three signals — FLOPS/s, memory
//! bandwidth and power — and actuate only two knobs — uncore frequency and
//! the RAPL package power limit. This crate captures the *transfer
//! functions* that connect knobs to signals on a Skylake-SP package:
//!
//! * [`vf`] — the voltage/frequency operating curve,
//! * [`power`] — package power as a function of core/uncore frequency and
//!   activity, plus the DRAM power model,
//! * [`bandwidth`] — achievable memory bandwidth as a function of uncore
//!   frequency and power-cap pressure,
//! * [`perf`] — roofline phase progress (compute-rate vs memory-rate with
//!   partial overlap),
//! * [`cap`] — the RAPL firmware's enforcement loop: windowed power
//!   averaging and DVFS throttling to honor PL1/PL2, including the settle
//!   latency the paper works around in §IV-D.
//!
//! All models are pure value types: given the same inputs they produce the
//! same outputs, which keeps the simulator deterministic and the models
//! unit- and property-testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod cap;
pub mod perf;
pub mod power;
pub mod vf;

pub use bandwidth::BandwidthModel;
pub use cap::{CapEnforcer, CapEnforcerParams, CapGains};
pub use perf::{PhaseKind, PhaseRates, RooflineModel};
pub use power::{
    DramPowerModel, DvfsLadder, LadderPoint, PowerBreakdown, PowerModel, SocketActivity,
};
pub use vf::VfCurve;
