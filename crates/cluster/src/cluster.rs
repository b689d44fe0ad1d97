//! A DUFP cluster experiment: its configuration and its outcome.
//!
//! Each node is a [`crate::node::DufpNode`]; a global allocator epoch
//! splits the budget between them. `dufp_net::run_cluster` runs it on
//! `dufp_net`'s in-process fleet loop, with the same `FleetCore` the TCP
//! coordinator and the scenario engine run.

use crate::node::DufpNode;
use dufp_types::check::{fraction, positive};
use dufp_types::{Duration, Error, Ratio, Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One node's job queue: applications run back to back; the node counts as
/// active until the queue drains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Applications to run in order (see [`dufp_workloads::apps::by_name`]).
    pub queue: Vec<String>,
}

impl NodeSpec {
    /// A single-job node.
    pub fn single(app: impl Into<String>) -> Self {
        NodeSpec {
            queue: vec![app.into()],
        }
    }
}

/// Cluster experiment configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// One entry per node.
    pub nodes: Vec<NodeSpec>,
    /// Total cluster power budget (package domains).
    pub budget: Watts,
    /// Tolerated slowdown for every node's DUFP.
    pub slowdown: Ratio,
    /// Allocator epoch length.
    pub epoch: Duration,
    /// Master seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// Rejects configurations no cluster can run — empty node lists or
    /// queues, zero/negative/NaN budgets, budgets that cannot fund every
    /// node's cap floor, slowdowns outside [0, 1), zero-length epochs —
    /// with a typed [`Error::InvalidValue`] naming the offending field,
    /// the same contract [`dufp_control::ControlConfig::validate`] gives
    /// control settings.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::invalid("nodes", "cluster needs at least one node"));
        }
        for (i, spec) in self.nodes.iter().enumerate() {
            if spec.queue.is_empty() || spec.queue.iter().any(String::is_empty) {
                return Err(Error::invalid(
                    "nodes",
                    format!("node {i} has an empty application queue"),
                ));
            }
        }
        positive("budget", self.budget.value())?;
        let floors = DufpNode::cap_floor() * self.nodes.len() as f64;
        if self.budget < floors {
            return Err(Error::invalid(
                "budget",
                format!(
                    "{} W cannot fund {} nodes at their {} W cap floor",
                    self.budget.value(),
                    self.nodes.len(),
                    DufpNode::cap_floor().value()
                ),
            ));
        }
        fraction("slowdown", self.slowdown.value())?;
        if self.epoch.as_micros() == 0 {
            return Err(Error::invalid("epoch", "zero allocator epoch"));
        }
        Ok(())
    }

    /// The demo mix: a hungry solver, two memory-bound codes and one
    /// compute-bound code, under a budget tighter than 4 × PL1.
    pub fn demo(seed: u64) -> Self {
        ClusterConfig {
            nodes: ["HPL", "CG", "EP", "MG"]
                .iter()
                .map(|a| NodeSpec::single(*a))
                .collect(),
            budget: Watts(420.0),
            slowdown: Ratio::from_percent(10.0),
            epoch: Duration::from_secs(1),
            seed,
        }
    }
}

/// Per-node outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// The node's job queue, joined for display.
    pub app: String,
    /// Job completion time.
    pub exec_time: Seconds,
    /// Average package power while the job ran.
    pub avg_power: Watts,
    /// Final ceiling when the job finished.
    pub final_ceiling: Watts,
}

/// Whole-cluster outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Allocation policy used.
    pub policy: String,
    /// Per-node outcomes in configuration order.
    pub nodes: Vec<NodeOutcome>,
    /// Time until the last job finished.
    pub makespan: Seconds,
    /// Peak epoch-average cluster power (must stay within the budget).
    pub peak_cluster_power: Watts,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_names_the_offending_field() {
        // 100 W and 250 W cannot fund the demo's four 65 W floors.
        for bad in [0.0, -50.0, f64::NAN, f64::INFINITY, 100.0, 250.0] {
            let mut cfg = ClusterConfig::demo(1);
            cfg.budget = Watts(bad);
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, Error::InvalidValue { what: "budget", .. }),
                "{bad}: {err:?}"
            );
        }
        let mut cfg = ClusterConfig::demo(1);
        cfg.budget = Watts(260.0);
        assert!(cfg.validate().is_ok(), "exactly the floors is fundable");
        let mut cfg = ClusterConfig::demo(1);
        cfg.slowdown = Ratio(1.5);
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue {
                what: "slowdown",
                ..
            }
        ));
        let mut cfg = ClusterConfig::demo(1);
        cfg.epoch = Duration::from_secs(0);
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue { what: "epoch", .. }
        ));
        assert!(ClusterConfig::demo(1).validate().is_ok());
    }

    #[test]
    fn empty_queue_is_rejected() {
        let cfg = ClusterConfig {
            nodes: vec![NodeSpec { queue: vec![] }],
            budget: Watts(100.0),
            slowdown: Ratio::from_percent(10.0),
            epoch: Duration::from_secs(1),
            seed: 1,
        };
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue { what: "nodes", .. }
        ));
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let cfg = ClusterConfig {
            nodes: vec![],
            budget: Watts(100.0),
            slowdown: Ratio::from_percent(10.0),
            epoch: Duration::from_secs(1),
            seed: 1,
        };
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue { what: "nodes", .. }
        ));
    }
}
