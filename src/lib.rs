//! Umbrella crate for the DUFP suite's workspace-level examples and
//! integration tests. Downstream users should depend on [`dufp`] (the
//! facade) or the individual layer crates directly; this crate only
//! re-exports them so `examples/` and `tests/` have one import root.

#![forbid(unsafe_code)]

pub use dufp as core;
pub use dufp_cluster as cluster;
pub use dufp_control as control;
pub use dufp_counters as counters;
pub use dufp_model as model;
pub use dufp_msr as msr;
pub use dufp_rapl as rapl;
pub use dufp_sim as sim;
pub use dufp_types as types;
pub use dufp_workloads as workloads;
