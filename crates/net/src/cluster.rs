//! The DUFP cluster as a [`FleetModel`]: one [`DufpNode`] per job queue,
//! the budget split between them by the coordinator's own
//! [`crate::FleetCore`] — the paper's §VI composition of a cluster budget
//! allocator with node-level DUFP, in process.

use crate::config::PolicyKind;
use crate::fleet_sim::{FleetModel, FleetPlan, FleetSim, NodeHello};
use dufp_cluster::allocator::NodeObservation;
use dufp_cluster::node::INTERVAL;
use dufp_cluster::{ClusterConfig, ClusterOutcome, DufpNode, NodeOutcome};
use dufp_telemetry::Telemetry;
use dufp_types::{Result, Seconds, Watts};

/// The cluster's nodes under [`FleetSim`].
struct ClusterFleet {
    /// `(queue joined for display, node)`, in slot order.
    nodes: Vec<(String, DufpNode)>,
    /// Allocator epoch length, the period consumption is averaged over.
    epoch_s: f64,
    /// Peak epoch-average cluster power so far.
    peak: f64,
}

impl FleetModel for ClusterFleet {
    fn hellos(&self) -> Vec<NodeHello> {
        let hello = |(i, (app, _)): (usize, &(String, DufpNode))| NodeHello {
            name: format!("node{i}"),
            app: app.clone(),
            floor: DufpNode::cap_floor(),
            node_max: DufpNode::pl1(),
        };
        self.nodes.iter().enumerate().map(hello).collect()
    }

    fn finished(&self, _tick: u64) -> bool {
        self.nodes.iter().all(|(_, n)| n.finished_at().is_some())
    }

    fn interval(&mut self, _tick: u64, _tel: &Telemetry) -> Result<()> {
        self.nodes.iter_mut().try_for_each(|(_, n)| n.step())
    }

    fn reports(&mut self) -> Result<Vec<NodeObservation>> {
        let mut reports = Vec::with_capacity(self.nodes.len());
        for (_, n) in &mut self.nodes {
            reports.push(NodeObservation {
                ceiling: n.ceiling(),
                consumption: n.consumption(self.epoch_s)?,
                active: n.finished_at().is_none(),
            });
        }
        let cluster_power: f64 = reports.iter().map(|r| r.consumption.value()).sum();
        self.peak = self.peak.max(cluster_power);
        Ok(reports)
    }

    fn grant(&mut self, node: usize, ceiling: Watts) -> Result<Watts> {
        let n = &self.nodes[node].1;
        let old = n.ceiling();
        n.set_ceiling(ceiling).map(|()| old)
    }
}

/// Runs a DUFP cluster to completion under `policy`. Every node starts at
/// an even split of the budget and runs its queue under DUFP; every
/// allocator epoch the coordinator's [`crate::FleetCore`] re-splits it.
pub fn run_cluster(cfg: &ClusterConfig, policy: PolicyKind) -> Result<ClusterOutcome> {
    cfg.validate()?;
    let even = cfg.budget / cfg.nodes.len() as f64;
    let mut nodes = Vec::with_capacity(cfg.nodes.len());
    for (i, spec) in cfg.nodes.iter().enumerate() {
        let seed = cfg.seed.wrapping_add(i as u64 * 131);
        let node = DufpNode::new(
            seed,
            &spec.queue,
            cfg.slowdown,
            even,
            &Telemetry::disabled(),
        )?;
        nodes.push((spec.queue.join("+"), node));
    }
    let plan = FleetPlan {
        budget: cfg.budget,
        policy: Some(policy),
        interval_ms: INTERVAL.as_millis(),
        epoch_intervals: (cfg.epoch.as_micros() / INTERVAL.as_micros()).max(1),
    };
    let epoch_s = cfg.epoch.as_seconds().value();
    let fleet = ClusterFleet {
        nodes,
        epoch_s,
        peak: 0.0,
    };
    let mut sim = FleetSim::new(fleet, plan, Telemetry::disabled())?;
    sim.run()?;
    let fleet = sim.into_model();
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
    use dufp_cluster::NodeSpec;
    use dufp_types::{Duration, Ratio};

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
        let mut cfg = ClusterConfig::demo(1);
        cfg.budget = Watts(100.0);
        assert!(run_cluster(&cfg, PolicyKind::DemandBased).is_err());
        cfg.nodes.clear();
        assert!(run_cluster(&cfg, PolicyKind::StaticSplit).is_err());
    }
}
