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
//! * [`allocator`] — allocation policies: static even split, and a
//!   demand-based policy that moves watts from nodes with headroom to
//!   nodes riding their ceiling,
//! * [`node`] — the budgeted DUFP node: one simulated socket running a job
//!   queue under DUFP behind a [`BudgetedCapper`], assembled once for the
//!   in-process cluster, the heterogeneous node and the TCP agent,
//! * [`cluster`] — a cluster experiment's configuration and outcome; the
//!   run loop over its nodes is `dufp_net::run_cluster`, which drives the
//!   allocator through the coordinator's own `FleetCore`,
//! * [`gpu`] / [`hetero`] — the §VII future-work question: a power-capped
//!   GPU model and a CPU+GPU shared-budget coordinator that donates the
//!   watts DUFP frees on the CPU to the GPU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod budget;
pub mod cluster;
pub mod gpu;
pub mod hetero;
pub mod node;

pub use allocator::{AllocatorPolicy, DemandBased, StaticSplit};
pub use budget::{BudgetedCapper, NodeBudget};
pub use cluster::{ClusterConfig, ClusterOutcome, NodeOutcome, NodeSpec};
pub use gpu::{GpuSim, GpuSpec};
pub use hetero::{run_hetero, HeteroConfig, HeteroOutcome, SharePolicy};
pub use node::{DufpNode, NodeCapper};
