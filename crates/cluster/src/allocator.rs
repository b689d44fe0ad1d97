//! Budget allocation policies.

use crate::gpu::GpuSpec;
use crate::node::DufpNode;
use dufp_types::Watts;
use serde::{Deserialize, Serialize};

/// Per-node state the allocator sees at each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeObservation {
    /// The node's current ceiling.
    pub ceiling: Watts,
    /// Average package power over the last epoch.
    pub consumption: Watts,
    /// Whether the node still has work.
    pub active: bool,
}

/// A budget allocation policy: maps observations to new ceilings summing
/// to at most the cluster budget.
pub trait AllocatorPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Computes the next epoch's ceilings.
    fn allocate(&mut self, budget: Watts, nodes: &[NodeObservation]) -> Vec<Watts>;
}

/// Even split, never changes — the baseline every distribution paper
/// compares against.
#[derive(Debug, Default)]
pub struct StaticSplit;

impl AllocatorPolicy for StaticSplit {
    fn name(&self) -> &'static str {
        "static-split"
    }

    fn allocate(&mut self, budget: Watts, nodes: &[NodeObservation]) -> Vec<Watts> {
        let n = nodes.len().max(1) as f64;
        vec![budget / n; nodes.len()]
    }
}

/// Demand-based reallocation: nodes consuming well below their ceiling
/// donate part of the headroom; nodes riding their ceiling split the pool.
///
/// ```
/// use dufp_cluster::allocator::{AllocatorPolicy, DemandBased, NodeObservation};
/// use dufp_types::Watts;
///
/// let mut policy = DemandBased::default();
/// let nodes = [
///     NodeObservation { ceiling: Watts(100.0), consumption: Watts(99.0), active: true },
///     NodeObservation { ceiling: Watts(100.0), consumption: Watts(70.0), active: true },
/// ];
/// let out = policy.allocate(Watts(200.0), &nodes);
/// assert!(out[0] > Watts(100.0)); // the rider gains what the donor frees
/// assert!(out[1] < Watts(100.0));
/// ```
///
/// Inactive (finished) nodes keep only a `floor` allocation and donate the
/// rest — the mechanism of the paper's §VII heterogeneous-budget vision
/// ("reduce the budget of the CPU when it does not need it and increase
/// the GPU power budget"), applied across nodes.
#[derive(Debug)]
pub struct DemandBased {
    /// A node is "riding" its ceiling when within this margin of it.
    pub riding_margin: Watts,
    /// Fraction of observed headroom a node donates per epoch.
    pub donate_fraction: f64,
    /// No node's ceiling falls below this.
    pub floor: Watts,
    /// No node's ceiling exceeds this (the silicon PL1 — extra watts above
    /// it are unusable and stay in the pool).
    pub node_max: Watts,
}

impl Default for DemandBased {
    fn default() -> Self {
        DemandBased {
            riding_margin: Watts(6.0),
            donate_fraction: 0.5,
            floor: DufpNode::cap_floor(),
            node_max: DufpNode::pl1(),
        }
    }
}

impl AllocatorPolicy for DemandBased {
    fn name(&self) -> &'static str {
        "demand-based"
    }

    fn allocate(&mut self, budget: Watts, nodes: &[NodeObservation]) -> Vec<Watts> {
        if nodes.is_empty() {
            return Vec::new();
        }
        // Start from a demand estimate per node…
        let mut want: Vec<f64> = nodes
            .iter()
            .map(|n| {
                if !n.active {
                    self.floor.value()
                } else if n.consumption.value() >= (n.ceiling - self.riding_margin).value() {
                    // Riding the ceiling: wants more than it has.
                    n.ceiling.value() + 2.0 * self.riding_margin.value()
                } else {
                    // Headroom: donate a fraction of it.
                    let headroom = (n.ceiling - n.consumption).value();
                    (n.ceiling.value() - self.donate_fraction * headroom).max(self.floor.value())
                }
            })
            .collect();

        // …then scale into the budget while respecting the floor.
        let floor_total: f64 = self.floor.value() * nodes.len() as f64;
        let budget_above_floor = (budget.value() - floor_total).max(0.0);
        let want_above_floor: f64 = want.iter().map(|w| (w - self.floor.value()).max(0.0)).sum();
        if want_above_floor > 0.0 {
            let scale = (budget_above_floor / want_above_floor).min(1.0);
            for w in &mut want {
                let above = (*w - self.floor.value()).max(0.0);
                *w = self.floor.value() + above * scale;
            }
        }
        // Leftover (if everyone is modest) goes to the riders evenly.
        let assigned: f64 = want.iter().sum();
        let leftover = budget.value() - assigned;
        if leftover > 1.0 {
            let riders: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    n.active && n.consumption.value() >= (n.ceiling - self.riding_margin).value()
                })
                .map(|(i, _)| i)
                .collect();
            let targets = if riders.is_empty() {
                (0..nodes.len()).collect::<Vec<_>>()
            } else {
                riders
            };
            let share = leftover / targets.len() as f64;
            for i in targets {
                want[i] += share;
            }
        }
        // Watts above the silicon limit are unusable; clamp.
        for w in &mut want {
            *w = w.min(self.node_max.value());
        }
        want.into_iter().map(Watts).collect()
    }
}

/// How the CPU+GPU node's shared budget is split each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharePolicy {
    /// Fixed split: CPU gets its PL1 share, the GPU the rest.
    Static,
    /// The CPU keeps its draw plus a margin; the GPU gets the rest.
    Donate,
}

/// The CPU+GPU node's split (§VII): slot 0 is a [`DufpNode`], slot 1 the
/// `gpu` board. Any other fleet gets an even split.
#[derive(Debug, Clone, Copy)]
pub struct CpuGpuShare {
    /// Fixed or donating split.
    pub share: SharePolicy,
    /// The GPU board.
    pub gpu: GpuSpec,
}

impl CpuGpuShare {
    /// The fixed split of `budget`, where both nodes start: the GPU gets
    /// what the CPU's PL1 leaves, the CPU the rest, each within its range.
    pub fn static_split(&self, budget: Watts) -> [Watts; 2] {
        let (floor, pl1) = (DufpNode::cap_floor(), DufpNode::pl1());
        let gpu = (budget - pl1).clamp(self.gpu.min_limit, self.gpu.tdp);
        [(budget - gpu).clamp(floor, pl1), gpu]
    }
}

impl AllocatorPolicy for CpuGpuShare {
    fn name(&self) -> &'static str {
        "cpu-gpu-share"
    }

    fn allocate(&mut self, budget: Watts, nodes: &[NodeObservation]) -> Vec<Watts> {
        let [cpu, _] = nodes else {
            return StaticSplit.allocate(budget, nodes);
        };
        if self.share == SharePolicy::Static {
            return self.static_split(budget).to_vec();
        }
        // The CPU keeps its draw plus 15 W (at most PL1 while its job
        // runs), its ceiling decaying *gradually* toward that: snapping it
        // to consumption would ratchet DUFP down, as every reset would land
        // on the squeezed ceiling.
        let mut demand = cpu.consumption + Watts(15.0);
        if cpu.active {
            demand = demand.min(DufpNode::pl1());
        }
        let cpu_share = demand.max(cpu.ceiling * 0.93);
        let gpu = (budget - cpu_share).clamp(self.gpu.min_limit, self.gpu.tdp);
        // Whatever the GPU cannot absorb flows back to the CPU.
        vec![(budget - gpu).max(DufpNode::cap_floor()), gpu]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ceiling: f64, consumption: f64, active: bool) -> NodeObservation {
        NodeObservation {
            ceiling: Watts(ceiling),
            consumption: Watts(consumption),
            active,
        }
    }

    #[test]
    fn static_split_is_even_and_constant() {
        let mut p = StaticSplit;
        let out = p.allocate(Watts(400.0), &[obs(100.0, 50.0, true); 4]);
        assert_eq!(out, vec![Watts(100.0); 4]);
    }

    #[test]
    fn demand_based_moves_watts_from_idle_to_riders() {
        let mut p = DemandBased::default();
        let nodes = [
            obs(100.0, 99.0, true),  // rider (HPL-like)
            obs(100.0, 70.0, true),  // headroom (EP under DUFP)
            obs(100.0, 99.0, true),  // rider
            obs(100.0, 65.0, false), // finished
        ];
        let out = p.allocate(Watts(400.0), &nodes);
        let total: f64 = out.iter().map(|w| w.value()).sum();
        assert!(total <= 400.0 + 1e-6, "total {total}");
        assert!(out[0] > Watts(100.0), "rider should gain: {:?}", out[0]);
        assert!(out[0] <= Watts(125.0), "never above the silicon PL1");
        assert!(out[2] > Watts(100.0));
        assert!(out[1] < Watts(100.0), "donor should shrink: {:?}", out[1]);
        assert!(
            out[3] >= Watts(65.0) && out[3] <= Watts(80.0),
            "finished node near floor"
        );
    }

    #[test]
    fn nobody_falls_below_the_floor() {
        let mut p = DemandBased::default();
        let nodes = [obs(70.0, 40.0, true), obs(70.0, 69.0, true)];
        let out = p.allocate(Watts(140.0), &nodes);
        for w in &out {
            assert!(*w >= Watts(65.0), "{w:?}");
        }
    }

    #[test]
    fn total_respects_a_tight_budget() {
        let mut p = DemandBased::default();
        let nodes = [obs(100.0, 99.0, true); 4];
        let out = p.allocate(Watts(300.0), &nodes);
        let total: f64 = out.iter().map(|w| w.value()).sum();
        assert!(total <= 300.0 + 1e-6, "{total}");
    }

    #[test]
    fn cpu_gpu_share_splits_the_whole_budget_within_each_range() {
        let gpu = GpuSpec::v100();
        let mut donate = CpuGpuShare {
            share: SharePolicy::Donate,
            gpu,
        };
        // Riding PL1, donating headroom, and drained.
        for (ceiling, draw, active) in [
            (125.0, 118.0, true),
            (100.0, 60.0, true),
            (90.0, 30.0, false),
        ] {
            let nodes = [obs(ceiling, draw, active), obs(205.0, 205.0, true)];
            let out = donate.allocate(Watts(330.0), &nodes);
            assert_eq!(out[0] + out[1], Watts(330.0), "{out:?}");
            assert!(out[0] <= Watts(125.0) && out[1] >= Watts(100.0) && out[1] <= Watts(300.0));
        }
        let fixed = CpuGpuShare {
            share: SharePolicy::Static,
            gpu,
        };
        assert_eq!(
            fixed.static_split(Watts(330.0)),
            [Watts(125.0), Watts(205.0)]
        );
        // No node starts above its limit, or its first report is vetoed.
        assert_eq!(
            fixed.static_split(Watts(600.0)),
            [Watts(125.0), Watts(300.0)]
        );
    }

    #[test]
    fn empty_cluster_is_fine() {
        let mut p = DemandBased::default();
        assert!(p.allocate(Watts(100.0), &[]).is_empty());
        let mut s = StaticSplit;
        assert!(s.allocate(Watts(100.0), &[]).is_empty());
    }
}
