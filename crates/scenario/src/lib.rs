//! Trace-driven datacenter scenario engine.
//!
//! The paper evaluates its controllers one machine and one application at
//! a time. This crate asks the fleet-scale question the roadmap's
//! "datacenter scenarios" item poses: *how much energy do uncore scaling
//! and dynamic power capping save across a heterogeneous, co-tenant fleet
//! under realistic, time-varying load — and at what SLO cost?*
//!
//! Three pieces compose, each a pure function of its seed:
//!
//! * [`arrival`] — request-arrival models (diurnal curves, Poisson
//!   bursts, flash crowds) that modulate every node's offered load over
//!   virtual time,
//! * [`spec`] — typed, validated scenario specifications: machine
//!   classes (including GPU-style nodes whose uncore transfer function is
//!   nearly flat), nodes, co-tenant mixes and a global power budget, all
//!   parsed from a TOML subset with line/field-level errors,
//! * [`engine`] — the virtual-clock fleet run, a [`dufp_net::FleetModel`]
//!   under [`dufp_net::FleetSim`]: per-node [`dufp_sim::SharedSocketSim`]
//!   co-tenant physics, a real [`dufp_net::FleetCore`] allocator
//!   redistributing the global budget each epoch, and a fleet-wide
//!   energy-saved vs. SLO-violation scorecard that is byte-identical for
//!   equal seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod spec;

pub use arrival::{intensity_band, ArrivalKind, ArrivalSpec, LoadProfile, MAX_INTENSITY};
pub use engine::{
    run_one, run_rows, to_jsonl_bytes, NodeScore, PolicyChoice, RunResult, ScorecardRow,
    TenantScore,
};
pub use spec::{MachineClass, MachineKind, NodeSpec, ScenarioSpec, EXAMPLE_TOML};
