//! The in-process fleet loop: [`FleetSim`] owns the virtual clock and a
//! real [`FleetCore`]; a [`FleetModel`] owns the nodes. Each interval the
//! model advances the whole fleet; every `epoch_intervals` intervals each
//! node reports to the core, the core runs its allocator epoch and the
//! model applies the grants. It has three models: the scenario engine,
//! the DUFP cluster ([`crate::cluster`]) and the CPU+GPU node
//! ([`crate::hetero`]), which brings its own allocator. Chaos keeps its
//! own loop: its admission, kills, partitions and frame fates *are* its
//! transport.

use crate::config::{fund_floors, CoordinatorConfig};
use crate::core::{fleet_event, FleetCore};
use crate::wire::{Frame, GrantKind};
use dufp_cluster::allocator::{AllocatorPolicy, NodeObservation};
use dufp_telemetry::{Reason, Telemetry};
use dufp_types::{Error, Result, Watts};
use std::time::Duration;

/// What a node announces on admission.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHello {
    /// Node name.
    pub name: String,
    /// The work it runs.
    pub app: String,
    /// The lowest ceiling it can enforce.
    pub floor: Watts,
    /// Its silicon limit.
    pub node_max: Watts,
}

/// A fleet of nodes [`FleetSim`] can drive.
pub trait FleetModel {
    /// Every node's admission announcement, in slot order.
    fn hellos(&self) -> Vec<NodeHello>;
    /// Whether the run is over after `tick` intervals.
    fn finished(&self, tick: u64) -> bool;
    /// Advances the whole fleet through interval `tick`, recording its
    /// decisions in `tel`.
    fn interval(&mut self, tick: u64, tel: &Telemetry) -> Result<()>;
    /// Every node's report on the epoch that just closed, in slot order.
    fn reports(&mut self) -> Result<Vec<NodeObservation>>;
    /// Applies a granted ceiling; returns the ceiling it replaced.
    fn grant(&mut self, node: usize, ceiling: Watts) -> Result<Watts>;
}

/// The budget and the clock a fleet runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPlan {
    /// Global fleet budget.
    pub budget: Watts,
    /// Control-interval length.
    pub interval_ms: u64,
    /// Intervals per allocator epoch.
    pub epoch_intervals: u64,
}

/// What a finished run counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Intervals run.
    pub intervals: u64,
    /// Grants that raised a ceiling.
    pub raises: u64,
    /// Grants that shrank a ceiling.
    pub shrinks: u64,
}

/// The in-process fleet loop. See the module docs.
pub struct FleetSim<M> {
    model: M,
    plan: FleetPlan,
    core: Option<FleetCore>,
    tel: Telemetry,
}

impl<M: FleetModel> FleetSim<M> {
    /// Wraps `model`. With a policy ([`crate::PolicyKind::allocator`] builds
    /// the coordinator's own), refuses a budget below the sum of the node
    /// floors, then builds the coordinator and admits every node at time 0.
    pub fn new(
        model: M,
        plan: FleetPlan,
        policy: Option<Box<dyn AllocatorPolicy>>,
        tel: Telemetry,
    ) -> Result<Self> {
        if plan.epoch_intervals == 0 {
            return Err(Error::invalid("epoch_intervals", "must be >= 1"));
        }
        let mut core = None;
        if let Some(policy) = policy {
            let hellos = model.hellos();
            let epoch = Duration::from_millis(plan.interval_ms * plan.epoch_intervals);
            let mut cfg = CoordinatorConfig::new("fleet-sim", plan.budget).with_epoch(epoch);
            cfg.floor = hellos
                .iter()
                .fold(Watts(f64::INFINITY), |f, h| f.min(h.floor));
            cfg.node_max = hellos.iter().fold(Watts(0.0), |m, h| m.max(h.node_max));
            cfg.validate()?;
            fund_floors(plan.budget, hellos.iter().map(|h| h.floor).sum())?;
            let fleet = core.insert(FleetCore::with_policy(&cfg, policy, Telemetry::disabled()));
            for (i, h) in hellos.into_iter().enumerate() {
                let slot = fleet.admit(h.name, h.app, h.floor, h.node_max, 0)?;
                debug_assert_eq!(slot, i, "slots are admission-ordered");
            }
        }
        Ok(FleetSim {
            model,
            plan,
            core,
            tel,
        })
    }

    /// Runs the model until it reports itself finished.
    pub fn run(&mut self) -> Result<FleetStats> {
        let mut stats = FleetStats::default();
        while !self.model.finished(stats.intervals) {
            let tick = stats.intervals;
            self.model.interval(tick, &self.tel)?;
            if (tick + 1) % self.plan.epoch_intervals == 0 {
                self.epoch(tick, &mut stats)?;
            }
            stats.intervals += 1;
        }
        Ok(stats)
    }

    /// One allocator epoch: demand reports in, budget grants out.
    fn epoch(&mut self, tick: u64, stats: &mut FleetStats) -> Result<()> {
        let Some(core) = self.core.as_mut() else {
            return Ok(());
        };
        let now_ms = tick * self.plan.interval_ms;
        for (slot, r) in self.model.reports()?.into_iter().enumerate() {
            core.on_report(slot, tick, r.ceiling, r.consumption, r.active, now_ms);
        }
        for (slot, frame) in core.epoch_once(now_ms).grants {
            if let Frame::BudgetGrant { ceiling, kind, .. } = frame {
                let old = self.model.grant(slot, ceiling)?.value();
                match kind {
                    GrantKind::Raise => stats.raises += 1,
                    GrantKind::Shrink => stats.shrinks += 1,
                }
                let grant = Reason::BudgetGrant;
                let event = fleet_event(tick, now_ms, slot, old, ceiling.value(), grant);
                self.tel.record_decision(event);
            }
        }
        Ok(())
    }

    /// Gives the model back, for reading its outcome.
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    /// Nodes that draw exactly their ceiling for `len` intervals.
    struct Flat {
        ceilings: Vec<Watts>,
        len: u64,
        intervals: Vec<u64>,
    }

    impl Flat {
        fn new(nodes: usize, ceiling: f64, len: u64) -> Self {
            Flat {
                ceilings: vec![Watts(ceiling); nodes],
                len,
                intervals: Vec::new(),
            }
        }
    }

    impl FleetModel for Flat {
        fn hellos(&self) -> Vec<NodeHello> {
            (0..self.ceilings.len())
                .map(|i| NodeHello {
                    name: format!("n{i}"),
                    app: "flat".into(),
                    floor: Watts(65.0),
                    node_max: Watts(125.0),
                })
                .collect()
        }

        fn finished(&self, tick: u64) -> bool {
            tick >= self.len
        }

        fn interval(&mut self, tick: u64, _tel: &Telemetry) -> Result<()> {
            self.intervals.push(tick);
            Ok(())
        }

        fn reports(&mut self) -> Result<Vec<NodeObservation>> {
            Ok(self
                .ceilings
                .iter()
                .map(|&c| NodeObservation {
                    ceiling: c,
                    consumption: c,
                    active: true,
                })
                .collect())
        }

        fn grant(&mut self, node: usize, ceiling: Watts) -> Result<Watts> {
            Ok(std::mem::replace(&mut self.ceilings[node], ceiling))
        }
    }

    fn plan() -> FleetPlan {
        FleetPlan {
            budget: Watts(300.0),
            interval_ms: 200,
            epoch_intervals: 5,
        }
    }

    #[test]
    fn fleet_sim_runs_every_interval_in_order() {
        let flat = Flat::new(3, 65.0, 12);
        let mut sim = FleetSim::new(flat, plan(), None, Telemetry::disabled()).unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(
            stats,
            FleetStats {
                intervals: 12,
                ..FleetStats::default()
            }
        );
        let fleet = sim.into_model();
        assert_eq!(fleet.intervals, (0..12).collect::<Vec<_>>());
        // No coordinator: ceilings never move.
        assert_eq!(fleet.ceilings, vec![Watts(65.0); 3]);
    }

    #[test]
    fn fleet_sim_grants_each_epoch_within_the_budget() {
        let tel = Telemetry::enabled();
        let policy = Some(PolicyKind::StaticSplit.allocator(Watts(65.0), Watts(125.0)));
        let mut sim = FleetSim::new(Flat::new(3, 65.0, 12), plan(), policy, tel.clone()).unwrap();
        let stats = sim.run().unwrap();
        // Epochs close after intervals 4 and 9; the first raises every
        // node to the even split, the second finds nothing to change.
        assert_eq!(stats.raises, 3);
        assert_eq!(stats.shrinks, 0);
        assert_eq!(sim.into_model().ceilings, vec![Watts(100.0); 3]);
        let events = tel.drain_events();
        assert_eq!(events.len(), 3);
        for (slot, e) in events.iter().enumerate() {
            assert_eq!(
                (e.socket, e.at_us, e.reason),
                (slot as u16, 800_000, Reason::BudgetGrant)
            );
            assert_eq!((e.old, e.new), (65.0, 100.0));
        }
    }

    #[test]
    fn fleet_sim_refuses_a_budget_below_one_floor_or_a_zero_epoch() {
        let sim = |budget: f64, coordinated: bool| {
            let p = FleetPlan {
                budget: Watts(budget),
                ..plan()
            };
            let demand = PolicyKind::DemandBased.allocator(Watts(65.0), Watts(125.0));
            let policy = coordinated.then_some(demand);
            FleetSim::new(Flat::new(2, 65.0, 1), p, policy, Telemetry::disabled())
        };
        assert!(sim(10.0, true).is_err());
        // Each 65 W floor fits in 129 W; the two together do not.
        assert!(matches!(
            sim(129.0, true),
            Err(Error::InvalidValue { what: "budget", .. })
        ));
        assert!(sim(130.0, true).is_ok(), "exactly the floors is fundable");
        assert!(sim(10.0, false).is_ok(), "no coordinator, no budget to fit");
        let mut p = plan();
        p.epoch_intervals = 0;
        assert!(matches!(
            FleetSim::new(Flat::new(2, 65.0, 1), p, None, Telemetry::disabled()),
            Err(Error::InvalidValue {
                what: "epoch_intervals",
                ..
            })
        ));
    }
}
