//! The CPU+GPU node (§VII): slot 0 a [`DufpNode`], slot 1 a [`GpuSim`],
//! their shared budget re-split every epoch by a [`CpuGpuShare`].

use crate::cluster::{run_fleet, GpuNode};
use crate::config::fund_floors;
use dufp_cluster::{CpuGpuShare, DufpNode, GpuSim, GpuSpec, SharePolicy};
use dufp_telemetry::Telemetry;
use dufp_types::check::{finite, fraction, positive};
use dufp_types::{Duration, Error, Ratio, Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Configuration of one heterogeneous-node experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroConfig {
    /// CPU application (runs under DUFP).
    pub cpu_app: String,
    /// CPU DUFP tolerated slowdown.
    pub slowdown: Ratio,
    /// GPU job size in abstract units (1 unit/s at TDP).
    pub gpu_work: f64,
    /// GPU board.
    pub gpu: GpuSpec,
    /// Shared budget for CPU package + GPU board.
    pub budget: Watts,
    /// Coordinator epoch.
    pub epoch: Duration,
    /// Seed.
    pub seed: u64,
}

impl HeteroConfig {
    /// The paper's motivating pairing: a memory-leaning CPU code whose
    /// budget DUFP can shrink, next to a power-hungry GPU job, under a
    /// budget well below `PL1 + GPU TDP`.
    pub fn demo(seed: u64) -> Self {
        HeteroConfig {
            cpu_app: "CG".into(),
            slowdown: Ratio::from_percent(10.0),
            gpu_work: 60.0,
            gpu: GpuSpec::v100(),
            budget: Watts(330.0),
            epoch: Duration::from_secs(1),
            seed,
        }
    }

    /// Rejects a non-finite budget or one below the CPU's cap floor plus
    /// the GPU's minimum limit, a non-positive GPU job, a zero epoch or a
    /// slowdown outside [0, 1) as [`Error::InvalidValue`] naming the field.
    pub fn validate(&self) -> Result<()> {
        finite("budget", self.budget.value())?;
        fund_floors(self.budget, DufpNode::cap_floor() + self.gpu.min_limit)?;
        positive("gpu_work", self.gpu_work)?;
        if self.epoch.as_micros() == 0 {
            return Err(Error::invalid("epoch", "zero coordinator epoch"));
        }
        fraction("slowdown", self.slowdown.value())
    }
}

/// Outcome of one heterogeneous run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroOutcome {
    /// Policy used.
    pub policy: SharePolicy,
    /// CPU job completion time.
    pub cpu_time: Seconds,
    /// GPU job completion time.
    pub gpu_time: Seconds,
    /// Average GPU power limit while the GPU job ran.
    pub avg_gpu_limit: Watts,
    /// Peak epoch-average combined power.
    pub peak_combined_power: Watts,
}

/// Runs the CPU+GPU experiment to completion under `policy`.
pub fn run_hetero(cfg: &HeteroConfig, policy: SharePolicy) -> Result<HeteroOutcome> {
    run(cfg, policy, Telemetry::disabled())
}

/// [`run_hetero`], recording the fleet's decisions in `tel`.
fn run(cfg: &HeteroConfig, share: SharePolicy, tel: Telemetry) -> Result<HeteroOutcome> {
    cfg.validate()?;
    let gpu = cfg.gpu;
    let split = CpuGpuShare { share, gpu };
    let [cpu_start, gpu_start] = split.static_split(cfg.budget);
    let queue = std::slice::from_ref(&cfg.cpu_app);
    let cpu = DufpNode::new(cfg.seed, queue, cfg.slowdown, cpu_start, &tel)?;
    let mut sim = GpuSim::new(cfg.gpu, cfg.gpu_work)?;
    sim.set_power_limit(gpu_start);
    let gpu = GpuNode {
        sim,
        spec: cfg.gpu,
        done_at: None,
        limits: (0.0, 0),
    };
    let nodes = vec![(cfg.cpu_app.clone(), cpu)];
    let policy = Box::new(split);
    let fleet = run_fleet(nodes, Some(gpu), cfg.budget, cfg.epoch, policy, tel)?;
    let gpu = fleet.gpu.expect("the GPU slot");
    Ok(HeteroOutcome {
        policy: share,
        cpu_time: fleet.nodes[0].1.finished_at().expect("cpu finished"),
        gpu_time: gpu.done_at.expect("gpu finished"),
        avg_gpu_limit: Watts(gpu.limits.0 / gpu.limits.1.max(1) as f64),
        peak_combined_power: Watts(fleet.peak),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_telemetry::{Actuator, Reason};

    #[test]
    fn both_policies_complete_within_budget() {
        for policy in [SharePolicy::Static, SharePolicy::Donate] {
            let out = run_hetero(&HeteroConfig::demo(3), policy).unwrap();
            assert!(out.cpu_time.value() > 10.0);
            assert!(out.gpu_time.value() > 10.0);
            assert!(
                out.peak_combined_power.value() <= 330.0 * 1.06,
                "{policy:?}: peak {:?}",
                out.peak_combined_power
            );
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        // The demo's floor is the V100's 100 W minimum plus the 65 W CPU
        // cap floor.
        for bad in [f64::NAN, 0.0, -5.0, 100.0, 150.0] {
            let mut cfg = HeteroConfig::demo(1);
            cfg.budget = Watts(bad);
            let err = run_hetero(&cfg, SharePolicy::Static).unwrap_err();
            assert!(
                matches!(err, Error::InvalidValue { what: "budget", .. }),
                "{bad} W: {err:?}"
            );
        }
        let mut cfg = HeteroConfig::demo(1);
        cfg.budget = Watts(165.0);
        assert!(cfg.validate().is_ok(), "exactly the floors is fundable");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = HeteroConfig::demo(1);
            cfg.gpu_work = bad;
            assert!(matches!(
                cfg.validate().unwrap_err(),
                Error::InvalidValue {
                    what: "gpu_work",
                    ..
                }
            ));
        }
        let mut cfg = HeteroConfig::demo(1);
        cfg.epoch = Duration::from_secs(0);
        assert!(matches!(
            cfg.validate().unwrap_err(),
            Error::InvalidValue { what: "epoch", .. }
        ));
        for bad in [1.0, -0.1, f64::NAN] {
            let mut cfg = HeteroConfig::demo(1);
            cfg.slowdown = Ratio(bad);
            assert!(matches!(
                cfg.validate().unwrap_err(),
                Error::InvalidValue {
                    what: "slowdown",
                    ..
                }
            ));
        }
        assert!(HeteroConfig::demo(1).validate().is_ok());
    }

    #[test]
    fn donating_the_cpu_headroom_speeds_up_the_gpu() {
        // The §VII question, answered in the affirmative: DUFP trims CG's
        // package power, the coordinator hands the freed watts to the GPU,
        // and the GPU job finishes sooner at the same combined budget.
        let st = run_hetero(&HeteroConfig::demo(7), SharePolicy::Static).unwrap();
        let dn = run_hetero(&HeteroConfig::demo(7), SharePolicy::Donate).unwrap();
        assert!(
            dn.gpu_time.value() < st.gpu_time.value() * 0.97,
            "GPU: static {:.1}s vs donate {:.1}s",
            st.gpu_time.value(),
            dn.gpu_time.value()
        );
        assert!(
            dn.avg_gpu_limit > st.avg_gpu_limit,
            "the GPU must actually have received more budget"
        );
        // The CPU must not blow its tolerance for it: CG at 10 % on this
        // seed stays close to its static-share time.
        assert!(
            dn.cpu_time.value() <= st.cpu_time.value() * 1.12,
            "CPU: static {:.1}s vs donate {:.1}s",
            st.cpu_time.value(),
            dn.cpu_time.value()
        );
    }

    #[test]
    fn near_floor_budgets_never_over_grant() {
        // 165 W is exactly the GPU's 100 W minimum limit plus the CPU's
        // 65 W cap floor. Once the CPU job drains, Donate asks for more
        // than the budget; the core's fit must keep every epoch within it
        // without pushing the GPU below its minimum.
        for budget in [165.0, 170.0] {
            let mut cfg = HeteroConfig::demo(42);
            cfg.budget = Watts(budget);
            let tel = Telemetry::enabled();
            run(&cfg, SharePolicy::Donate, tel.clone()).unwrap();
            let mut events = tel.drain_events();
            events.retain(|e| e.actuator == Actuator::Budget);
            assert!(!events.is_empty());
            let mut granted = [0.0; 2];
            for epoch in events.chunk_by(|a, b| a.at_us == b.at_us) {
                for e in epoch {
                    assert_eq!(e.reason, Reason::BudgetGrant);
                    granted[usize::from(e.socket)] = e.new;
                }
                let total = granted[0] + granted[1];
                assert!(
                    total <= budget,
                    "{budget} W: granted {total} W at {} us",
                    epoch[0].at_us
                );
                assert!(granted[1] >= 100.0, "{budget} W: GPU at {} W", granted[1]);
            }
        }
    }
}
