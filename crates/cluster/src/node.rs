//! The budgeted DUFP node: a simulated single-socket Yeti machine running
//! a job queue under unmodified DUFP in the runner's [`SocketLoop`], whose
//! caps pass through a [`BudgetedCapper`] under the node's
//! [`crate::NodeBudget`] ceiling. The in-process cluster, the
//! heterogeneous node's CPU and the TCP agent all run it; they differ
//! only in who moves the ceiling.

use crate::budget::{BudgetedCapper, NodeBudget};
use dufp::SocketLoop;
use dufp_control::{ControlConfig, Dufp};
use dufp_counters::Telemetry as CounterSource;
use dufp_rapl::MsrRapl;
use dufp_sim::{Machine, SimConfig};
use dufp_telemetry::Telemetry;
use dufp_types::{ArchSpec, Duration, Error, Ratio, Result, Seconds, SocketId, Watts};
use dufp_workloads::{apps, MaterializeCtx, Workload};
use std::sync::Arc;

/// The node's monitoring (and DUFP decision) interval.
pub const INTERVAL: Duration = Duration::from_millis(200);

/// The budget-enforcing RAPL stack under a node's actuators.
pub type NodeCapper = Arc<BudgetedCapper<MsrRapl<Arc<Machine>>>>;

/// One budgeted DUFP node. See the module docs.
pub struct DufpNode {
    machine: Arc<Machine>,
    /// Jobs not yet started, next job last.
    pending: Vec<Workload>,
    /// DUFP on the node's socket; restores platform defaults when the
    /// node drops.
    socket: SocketLoop<NodeCapper>,
    capper: NodeCapper,
    ticks_per_interval: u64,
    elapsed: Seconds,
    intervals: u64,
    finished_at: Option<Seconds>,
    power_sum: f64,
    power_samples: u64,
    period_start_energy: f64,
}

impl DufpNode {
    /// A node seeded with `seed` running `queue` back to back under DUFP
    /// at `slowdown`, starting at `ceiling`; DUFP and the guard record to
    /// `tel` as socket 0. A `ceiling` below [`DufpNode::cap_floor`] (or
    /// not finite) is refused before anything is built.
    pub fn new(
        seed: u64,
        queue: &[String],
        slowdown: Ratio,
        ceiling: Watts,
        tel: &Telemetry,
    ) -> Result<Self> {
        let floor = Self::cap_floor();
        if !ceiling.value().is_finite() || ceiling < floor {
            let why = format!("{ceiling} cannot be enforced: the cap floor is {floor}");
            return Err(Error::invalid("ceiling", why));
        }
        let sim = SimConfig::yeti_single_socket(seed);
        let arch = sim.arch.clone();
        let ctx = MaterializeCtx::from_arch(&arch);
        let machine = Arc::new(Machine::new(sim));
        let mut pending = queue
            .iter()
            .map(|app| apps::by_name(app, &ctx))
            .collect::<Result<Vec<_>>>()?;
        if pending.is_empty() {
            return Err(Error::invalid("queue", "empty application queue"));
        }
        machine.load_all(&pending.remove(0));
        pending.reverse(); // pop() yields the next job in order

        let capper = Arc::new(BudgetedCapper::new(
            MsrRapl::new(Arc::clone(&machine), 1, arch.cores_per_socket as usize)?,
            NodeBudget::try_new(ceiling)?,
        ));
        let cfg = ControlConfig::from_arch(&arch, slowdown)?;
        let dufp = Box::new(Dufp::new(cfg.clone()).with_telemetry(tel.for_socket(0)));
        let mut socket =
            SocketLoop::new(&machine, Arc::clone(&capper), SocketId(0), &cfg, dufp, tel)?;
        socket.actuators().reset_cap()?; // start at the ceiling
        Ok(DufpNode {
            ticks_per_interval: (INTERVAL.as_micros() / machine.config().tick.as_micros()).max(1),
            period_start_energy: machine.sample(SocketId(0))?.pkg_energy.value(),
            machine,
            pending,
            socket,
            capper,
            elapsed: Seconds(0.0),
            intervals: 0,
            finished_at: None,
            power_sum: 0.0,
            power_samples: 0,
        })
    }

    /// The socket's cap floor: the lowest ceiling a node can enforce.
    pub fn cap_floor() -> Watts {
        ArchSpec::yeti().cap_floor
    }

    /// The socket's default PL1: watts above it buy nothing.
    pub fn pl1() -> Watts {
        ArchSpec::yeti().pl1_default
    }

    /// One [`INTERVAL`]: advance the machine a whole interval, start the
    /// next queued job once it drains (or retire DUFP when the queue is
    /// finished), then run the socket loop. Fails past an hour of
    /// simulated time.
    pub fn step(&mut self) -> Result<()> {
        // `advance` stops at the tick a job drains; the interval keeps
        // its full length, so step the idle rest too.
        let mut ticks = 0;
        while ticks < self.ticks_per_interval {
            ticks += self.machine.advance(self.ticks_per_interval - ticks);
        }
        self.elapsed += INTERVAL.as_seconds();
        self.intervals += 1;
        if self.elapsed.value() > 3600.0 {
            return Err(Error::Precondition("node run exceeded 1 h".into()));
        }
        if self.finished_at.is_none() && self.machine.done() {
            match self.pending.pop() {
                Some(next) => self.machine.load_all(&next),
                None => {
                    self.finished_at = Some(self.elapsed);
                    self.socket.retire();
                }
            }
        }
        if let Some(m) = self.socket.interval()? {
            self.power_sum += m.pkg_power.value();
            self.power_samples += 1;
        }
        Ok(())
    }

    /// Average package power since the previous call (or the start), over
    /// a period of `period_s` seconds.
    pub fn consumption(&mut self, period_s: f64) -> Result<Watts> {
        let energy = self.machine.sample(SocketId(0))?.pkg_energy.value();
        let consumed = energy - std::mem::replace(&mut self.period_start_energy, energy);
        Ok(Watts(consumed / period_s))
    }

    /// Moves the ceiling and pulls the programmed limits under it.
    pub fn set_ceiling(&self, ceiling: Watts) -> Result<()> {
        self.capper.set_ceiling(SocketId(0), ceiling)
    }

    /// The ceiling in force.
    pub fn ceiling(&self) -> Watts {
        self.capper.budget().ceiling()
    }

    /// The budget-enforcing capper (and, through it, the ceiling), for
    /// writers outside the control loop.
    pub fn capper(&self) -> &NodeCapper {
        &self.capper
    }

    /// Machine ticks per [`INTERVAL`], and their length.
    pub fn ticks(&self) -> (u64, Seconds) {
        (
            self.ticks_per_interval,
            self.machine.config().tick.as_seconds(),
        )
    }

    /// Simulated time so far.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Intervals run so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// When the queue drained, once it has.
    pub fn finished_at(&self) -> Option<Seconds> {
        self.finished_at
    }

    /// Mean sampled package power so far.
    pub fn avg_power(&self) -> Watts {
        Watts(self.power_sum / self.power_samples.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_msr::FaultPlan;
    use dufp_telemetry::Reason;

    fn queue(apps: &[&str]) -> Vec<String> {
        apps.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn a_node_drains_its_queue_under_its_ceiling() {
        let mut node = DufpNode::new(
            1,
            &queue(&["EP"]),
            Ratio::from_percent(10.0),
            Watts(90.0),
            &Telemetry::disabled(),
        )
        .unwrap();
        while node.finished_at().is_none() {
            node.step().unwrap();
        }
        assert!(node.elapsed().value() > 10.0);
        assert!(
            node.avg_power() <= Watts(90.0 * 1.05),
            "{:?}",
            node.avg_power()
        );
        assert_eq!(node.ceiling(), Watts(90.0));
    }

    #[test]
    fn a_node_rides_out_a_transient_cap_write_fault() {
        let tel = Telemetry::enabled();
        let slowdown = Ratio::from_percent(10.0);
        let mut node = DufpNode::new(1, &queue(&["EP"]), slowdown, Watts(90.0), &tel).unwrap();
        // Every cap write fails from 1 s to 6 s into the run.
        let plan = FaultPlan::parse("write,reg=cap,window=1000+5000").unwrap();
        node.machine.inject_faults(plan);
        while node.finished_at().is_none() {
            node.step()
                .expect("cap-write faults must not stop the node");
        }
        let retried = tel
            .report()
            .decisions
            .iter()
            .any(|e| e.reason == Reason::ActuationRetry);
        assert!(retried, "the fault window must have hit a cap write");
        assert!(
            node.avg_power() <= Watts(90.0 * 1.05),
            "{:?}",
            node.avg_power()
        );
    }

    #[test]
    fn empty_queues_and_unenforceable_ceilings_are_rejected() {
        let tel = Telemetry::disabled();
        let slowdown = Ratio::from_percent(10.0);
        assert!(matches!(
            DufpNode::new(1, &[], slowdown, Watts(90.0), &tel),
            Err(Error::InvalidValue { what: "queue", .. })
        ));
        assert!(matches!(
            DufpNode::new(1, &queue(&["EP"]), slowdown, Watts(f64::NAN), &tel),
            Err(Error::InvalidValue {
                what: "ceiling",
                ..
            })
        ));
        assert!(DufpNode::new(1, &queue(&["nope"]), slowdown, Watts(90.0), &tel).is_err());
        // 25 W per node is what a 100 W budget splits four ways.
        assert!(matches!(
            DufpNode::new(1, &queue(&["EP"]), slowdown, Watts(25.0), &tel),
            Err(Error::InvalidValue {
                what: "ceiling",
                ..
            })
        ));
    }

    #[test]
    fn consumption_is_the_energy_delta_over_the_period() {
        let mut node = DufpNode::new(
            2,
            &queue(&["CG"]),
            Ratio::from_percent(10.0),
            Watts(125.0),
            &Telemetry::disabled(),
        )
        .unwrap();
        for _ in 0..5 {
            node.step().unwrap();
        }
        let first = node.consumption(1.0).unwrap();
        assert!(first > Watts(20.0) && first < Watts(160.0), "{first:?}");
        // A second read with no time passed consumed nothing.
        assert_eq!(node.consumption(1.0).unwrap(), Watts(0.0));
    }
}
