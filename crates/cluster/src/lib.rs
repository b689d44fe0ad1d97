//! Cluster-level power-budget distribution over per-node DUFP.
//!
//! The paper positions DUFP as *node-level* dynamic capping and cites the
//! job/cluster-level budget distributors (GEOPM, DAPS, …) as complementary
//! (§VI): "These studies are complementary to DUFP since they propose
//! power budget allocation strategies across nodes while DUFP provides
//! node-level dynamic power-capping." This crate builds that complementary
//! layer and composes it with DUFP:
//!
//! * [`budget`] — a per-node budget ceiling and a [`dufp_rapl::PowerCapper`]
//!   wrapper that clamps everything a node-local controller does to it, so
//!   DUFP needs no modification to run under an allocator,
//! * [`allocator`] — allocation policies: static even split, a
//!   demand-based policy that moves watts from nodes with headroom to
//!   nodes riding their ceiling, and the CPU+GPU node's share split,
//! * [`node`] — the budgeted DUFP node: one simulated socket running a job
//!   queue under DUFP behind a [`BudgetedCapper`], assembled once for the
//!   in-process cluster, the heterogeneous node and the TCP agent,
//! * [`gpu`] — the §VII future-work question's power-capped GPU model.
//!
//! The experiments that compose them run in `dufp_net` on its in-process
//! fleet loop, under the coordinator's own `FleetCore`: the cluster
//! (`run_cluster`) and the CPU+GPU node (`run_hetero`), where
//! [`CpuGpuShare`] donates the watts DUFP frees on the CPU to the GPU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod budget;
pub mod gpu;
pub mod node;

pub use allocator::{AllocatorPolicy, CpuGpuShare, DemandBased, SharePolicy, StaticSplit};
pub use budget::{BudgetedCapper, NodeBudget};
pub use gpu::{GpuSim, GpuSpec};
pub use node::{DufpNode, NodeCapper};
