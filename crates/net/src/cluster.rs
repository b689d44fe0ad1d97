//! A DUFP cluster experiment, the paper's §VI composition of a budget
//! allocator with node-level DUFP, in process: one [`DufpNode`] per job
//! queue under [`crate::FleetCore`], as a [`FleetModel`]. The CPU+GPU node
//! ([`crate::hetero`]) is the same model with a GPU slot after its one
//! `DufpNode`.

use crate::config::{fund_floors, PolicyKind};
use crate::fleet_sim::{FleetModel, FleetPlan, FleetSim, NodeHello};
use dufp_cluster::allocator::{AllocatorPolicy, NodeObservation};
use dufp_cluster::node::INTERVAL;
use dufp_cluster::{DufpNode, GpuSim, GpuSpec};
use dufp_telemetry::Telemetry;
use dufp_types::check::{fraction, positive};
use dufp_types::{Duration, Error, Ratio, Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One node's job queue: applications run back to back; the node counts as
/// active until the queue drains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Applications to run in order (see `dufp apps`).
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
    /// queues, zero/negative/NaN budgets or ones below the nodes' cap
    /// floors, slowdowns outside [0, 1), zero-length epochs — with a typed
    /// [`Error::InvalidValue`] naming the offending field, the same
    /// contract [`dufp_control::ControlConfig::validate`] gives control
    /// settings. [`run_cluster`] checks this before it builds any node.
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
        fund_floors(self.budget, DufpNode::cap_floor() * self.nodes.len() as f64)?;
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

/// A GPU job in the slot after the last `DufpNode`, on its clock.
pub(crate) struct GpuNode {
    pub(crate) sim: GpuSim,
    pub(crate) spec: GpuSpec,
    /// When the job finished, once it has.
    pub(crate) done_at: Option<Seconds>,
    /// Sum and count of the power limit over the intervals the job ran.
    pub(crate) limits: (f64, u64),
}

/// Budgeted DUFP nodes, then an optional GPU, under [`FleetSim`].
pub(crate) struct ClusterFleet {
    /// `(queue joined for display, node)`, in slot order.
    pub(crate) nodes: Vec<(String, DufpNode)>,
    pub(crate) gpu: Option<GpuNode>,
    /// Allocator epoch length, the period consumption is averaged over.
    epoch_s: f64,
    /// Peak epoch-average fleet power so far.
    pub(crate) peak: f64,
}

impl FleetModel for ClusterFleet {
    fn hellos(&self) -> Vec<NodeHello> {
        let (floor, pl1) = (DufpNode::cap_floor(), DufpNode::pl1());
        let cpus = self.nodes.iter().map(|(app, _)| (app.clone(), floor, pl1));
        let gpu = (self.gpu.iter()).map(|g| ("gpu".into(), g.spec.min_limit, g.spec.tdp));
        let hello = |(i, (app, floor, node_max))| NodeHello {
            name: format!("node{i}"),
            app,
            floor,
            node_max,
        };
        cpus.chain(gpu).enumerate().map(hello).collect()
    }

    fn finished(&self, _tick: u64) -> bool {
        self.nodes.iter().all(|(_, n)| n.finished_at().is_some())
            && self.gpu.as_ref().is_none_or(|g| g.done_at.is_some())
    }

    fn interval(&mut self, _tick: u64, _tel: &Telemetry) -> Result<()> {
        self.nodes.iter_mut().try_for_each(|(_, n)| n.step())?;
        if let (Some(g), Some((_, clock))) = (&mut self.gpu, self.nodes.first()) {
            let (ticks, tick) = clock.ticks();
            for _ in 0..ticks {
                g.sim.tick(tick);
            }
            if g.done_at.is_none() && g.sim.done() {
                g.done_at = Some(clock.elapsed());
            } else if g.done_at.is_none() {
                g.limits.0 += g.sim.power_limit().value();
                g.limits.1 += 1;
            }
        }
        Ok(())
    }

    fn reports(&mut self) -> Result<Vec<NodeObservation>> {
        let mut reports = Vec::with_capacity(self.nodes.len() + 1);
        for (_, n) in &mut self.nodes {
            reports.push(NodeObservation {
                ceiling: n.ceiling(),
                consumption: n.consumption(self.epoch_s)?,
                active: n.finished_at().is_none(),
            });
        }
        if let Some(g) = &self.gpu {
            reports.push(NodeObservation {
                ceiling: g.sim.power_limit(),
                consumption: g.sim.power(),
                active: !g.sim.done(),
            });
        }
        let fleet_power: f64 = reports.iter().map(|r| r.consumption.value()).sum();
        self.peak = self.peak.max(fleet_power);
        Ok(reports)
    }

    fn grant(&mut self, node: usize, ceiling: Watts) -> Result<Watts> {
        if let Some((_, n)) = self.nodes.get(node) {
            let old = n.ceiling();
            return n.set_ceiling(ceiling).map(|()| old);
        }
        let g = self.gpu.as_mut().expect("grants go to admitted slots");
        let old = g.sim.power_limit();
        g.sim.set_power_limit(ceiling);
        Ok(old)
    }
}

/// Runs `nodes`, then `gpu`, to completion under `policy`, which re-splits
/// `budget` every `epoch`.
pub(crate) fn run_fleet(
    nodes: Vec<(String, DufpNode)>,
    gpu: Option<GpuNode>,
    budget: Watts,
    epoch: Duration,
    policy: Box<dyn AllocatorPolicy>,
    tel: Telemetry,
) -> Result<ClusterFleet> {
    let plan = FleetPlan {
        budget,
        interval_ms: INTERVAL.as_millis(),
        epoch_intervals: (epoch.as_micros() / INTERVAL.as_micros()).max(1),
    };
    let epoch_s = epoch.as_seconds().value();
    let fleet = ClusterFleet {
        nodes,
        gpu,
        epoch_s,
        peak: 0.0,
    };
    let mut sim = FleetSim::new(fleet, plan, Some(policy), tel)?;
    sim.run()?;
    Ok(sim.into_model())
}

/// Runs a DUFP cluster to completion under `policy`. Every node starts at
/// an even split of the budget and runs its queue under DUFP; every
/// allocator epoch the coordinator's [`crate::FleetCore`] re-splits it.
pub fn run_cluster(cfg: &ClusterConfig, policy: PolicyKind) -> Result<ClusterOutcome> {
    cfg.validate()?;
    let even = cfg.budget / cfg.nodes.len() as f64;
    let tel = Telemetry::disabled();
    let mut nodes = Vec::with_capacity(cfg.nodes.len());
    for (i, spec) in cfg.nodes.iter().enumerate() {
        let seed = cfg.seed.wrapping_add(i as u64 * 131);
        let node = DufpNode::new(seed, &spec.queue, cfg.slowdown, even, &tel)?;
        nodes.push((spec.queue.join("+"), node));
    }
    let allocator = policy.allocator(DufpNode::cap_floor(), DufpNode::pl1());
    let fleet = run_fleet(nodes, None, cfg.budget, cfg.epoch, allocator, tel)?;
    let nodes: Vec<NodeOutcome> = (fleet.nodes.into_iter())
        .map(|(app, n)| NodeOutcome {
            app,
            exec_time: n.finished_at().expect("all finished"),
            avg_power: n.avg_power(),
            final_ceiling: n.ceiling(),
        })
        .collect();
    Ok(ClusterOutcome {
        policy: policy.label().to_string(),
        makespan: nodes
            .iter()
            .fold(Seconds(0.0), |acc, n| acc.max(n.exec_time)),
        nodes,
        peak_cluster_power: Watts(fleet.peak),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_cluster_completes_under_both_policies() {
        for policy in [PolicyKind::StaticSplit, PolicyKind::DemandBased] {
            let out = run_cluster(&ClusterConfig::demo(3), policy).unwrap();
            assert_eq!(out.policy, policy.label());
            assert_eq!(out.nodes.len(), 4);
            assert!(out.makespan.value() > 10.0);
            // Epoch-average cluster power stays within the budget (small
            // enforcement slack allowed).
            assert!(
                out.peak_cluster_power.value() <= 420.0 * 1.05,
                "{}: peak {:?}",
                out.policy,
                out.peak_cluster_power
            );
        }
    }

    #[test]
    fn demand_based_beats_static_split_on_the_hungry_node() {
        let static_out = run_cluster(&ClusterConfig::demo(7), PolicyKind::StaticSplit).unwrap();
        let demand_out = run_cluster(&ClusterConfig::demo(7), PolicyKind::DemandBased).unwrap();
        // HPL is node 0 and is the budget-hungry job: demand-based
        // allocation must speed it up.
        let hpl_static = static_out.nodes[0].exec_time.value();
        let hpl_demand = demand_out.nodes[0].exec_time.value();
        assert!(
            hpl_demand < hpl_static * 0.99,
            "HPL: static {hpl_static:.1}s vs demand {hpl_demand:.1}s"
        );
        // And the whole mix should not get worse.
        assert!(demand_out.makespan.value() <= static_out.makespan.value() * 1.02);
    }

    #[test]
    fn job_queues_run_back_to_back_and_donate_when_drained() {
        // Node 0 runs two short jobs in sequence; node 1 runs one long one.
        let cfg = ClusterConfig {
            nodes: vec![
                NodeSpec {
                    queue: vec!["EP".into(), "MG".into()],
                },
                NodeSpec::single("HPL"),
            ],
            budget: Watts(220.0),
            slowdown: Ratio::from_percent(10.0),
            epoch: Duration::from_secs(1),
            seed: 5,
        };
        let out = run_cluster(&cfg, PolicyKind::DemandBased).unwrap();
        // The queued node takes at least the sum of both jobs' shortest
        // possible times (EP ≈ 30 s + MG ≈ 30 s).
        assert!(
            out.nodes[0].exec_time.value() > 55.0,
            "queue ran too fast: {:?}",
            out.nodes[0].exec_time
        );
        assert_eq!(out.nodes[0].app, "EP+MG");
        // HPL finishes first here; once it drains, its budget flows to the
        // still-running queue node, whose final ceiling reflects that.
        assert!(
            out.nodes[0].final_ceiling >= Watts(100.0),
            "{:?}",
            out.nodes[0]
        );
    }

    #[test]
    fn grants_stop_at_the_silicon_limit_as_the_coordinator_does() {
        // 800 W over four nodes is a 200 W even split, above every node's
        // 125 W PL1: FleetCore keeps the unusable watts in the pool.
        let mut cfg = ClusterConfig::demo(3);
        cfg.budget = Watts(800.0);
        let out = run_cluster(&cfg, PolicyKind::StaticSplit).unwrap();
        for n in &out.nodes {
            assert_eq!(n.final_ceiling, DufpNode::pl1(), "{}", n.app);
        }
    }

    #[test]
    fn invalid_clusters_are_refused_before_any_node_runs() {
        // 100 W and 250 W cannot fund the demo's four 65 W floors.
        for bad in [100.0, 250.0] {
            let mut cfg = ClusterConfig::demo(1);
            cfg.budget = Watts(bad);
            let err = run_cluster(&cfg, PolicyKind::DemandBased).unwrap_err();
            assert!(
                matches!(err, Error::InvalidValue { what: "budget", .. }),
                "{bad} W: {err:?}"
            );
        }
        let mut cfg = ClusterConfig::demo(1);
        cfg.budget = Watts(100.0);
        cfg.nodes.clear();
        assert!(run_cluster(&cfg, PolicyKind::StaticSplit).is_err());
        // The budget is refused before any node (or its workload) is built.
        let mut cfg = ClusterConfig::demo(1);
        cfg.budget = Watts(100.0);
        cfg.nodes[2] = NodeSpec::single("no-such-app");
        let err = run_cluster(&cfg, PolicyKind::StaticSplit).unwrap_err();
        assert!(
            matches!(err, Error::InvalidValue { what: "budget", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn validation_names_the_offending_field() {
        for bad in [0.0, -50.0, f64::NAN, f64::INFINITY] {
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
        cfg.budget = Watts(259.0);
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue { what: "budget", .. }
        ));
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
