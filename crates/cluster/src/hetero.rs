//! CPU+GPU shared-budget coordination — the paper's closing §VII question:
//! *"With a specified shared power budget to distribute over a CPU and a
//! GPU, can we benefit from dynamic power capping to reduce the budget of
//! the CPU when it does not need it and increase the GPU power budget?"*
//!
//! One [`DufpNode`] runs the CPU application under an unmodified DUFP
//! instance behind a [`crate::budget::BudgetedCapper`]; one
//! [`crate::gpu::GpuSim`] runs a GPU job under an NVML-style power limit.
//! Every epoch a coordinator re-splits the shared budget:
//!
//! * **static** — a fixed CPU/GPU split, the baseline,
//! * **donate** — the CPU keeps `consumption + margin` (whatever DUFP's
//!   capping left it actually using); everything else goes to the GPU.

use crate::gpu::{GpuSim, GpuSpec};
use crate::node::{DufpNode, INTERVAL};
use dufp_telemetry::Telemetry;
use dufp_types::check::{finite, fraction, positive};
use dufp_types::{Duration, Error, Ratio, Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// How the shared budget is split each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharePolicy {
    /// Fixed split: CPU gets its PL1 share, the GPU the rest.
    Static,
    /// The CPU keeps measured consumption plus a margin; the GPU gets the
    /// remainder (clamped to its board range).
    Donate,
}

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

    /// Rejects experiments no node can run — a budget that is not finite
    /// or cannot fund the GPU's minimum limit plus the CPU's cap floor, a
    /// non-positive or non-finite GPU job, a zero-length epoch, a
    /// slowdown outside [0, 1) — with a typed [`Error::InvalidValue`]
    /// naming the offending field.
    pub fn validate(&self) -> Result<()> {
        finite("budget", self.budget.value())?;
        let floor = self.gpu.min_limit + DufpNode::cap_floor();
        if self.budget < floor {
            return Err(Error::invalid(
                "budget",
                format!(
                    "{} W cannot fund the GPU's {} W minimum limit plus the CPU's {} W cap floor",
                    self.budget.value(),
                    self.gpu.min_limit.value(),
                    DufpNode::cap_floor().value()
                ),
            ));
        }
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

/// Runs the experiment under `policy`.
pub fn run_hetero(cfg: &HeteroConfig, policy: SharePolicy) -> Result<HeteroOutcome> {
    cfg.validate()?;
    let pl1 = DufpNode::pl1();

    // Static split: CPU gets PL1's share of the budget (or everything the
    // GPU cannot use).
    let gpu_static = (cfg.budget - pl1).clamp(cfg.gpu.min_limit, cfg.gpu.tdp);
    let cpu_initial = cfg.budget - gpu_static;
    let queue = std::slice::from_ref(&cfg.cpu_app);
    let tel = Telemetry::disabled();
    let mut cpu = DufpNode::new(cfg.seed, queue, cfg.slowdown, cpu_initial, &tel)?;

    let mut gpu = GpuSim::new(cfg.gpu, cfg.gpu_work)?;
    gpu.set_power_limit(gpu_static);

    let (ticks, tick) = cpu.ticks();
    let intervals_per_epoch = (cfg.epoch.as_micros() / INTERVAL.as_micros()).max(1);
    let epoch_secs = cfg.epoch.as_seconds().value();

    let mut gpu_done_at: Option<Seconds> = None;
    let mut peak_combined = 0.0f64;
    let mut gpu_limit_sum = 0.0;
    let mut gpu_limit_samples = 0u64;
    let mut prev_cpu_ceiling = cpu_initial.value();

    while cpu.finished_at().is_none() || gpu_done_at.is_none() {
        cpu.step()?;
        for _ in 0..ticks {
            gpu.tick(tick);
        }
        if gpu_done_at.is_none() && gpu.done() {
            gpu_done_at = Some(cpu.elapsed());
        }
        if gpu_done_at.is_none() {
            gpu_limit_sum += gpu.power_limit().value();
            gpu_limit_samples += 1;
        }

        // Coordinator epoch.
        if cpu.intervals().is_multiple_of(intervals_per_epoch) {
            let cpu_power = cpu.consumption(epoch_secs)?.value();
            peak_combined = peak_combined.max(cpu_power + gpu.power().value());

            if policy == SharePolicy::Donate {
                // CPU keeps what it uses plus a margin; the GPU gets the
                // rest. The ceiling decays *gradually* toward demand —
                // snapping it to consumption each epoch would ratchet DUFP
                // down (every reset would land on the squeezed ceiling and
                // probing headroom would vanish).
                let margin = 15.0;
                let demand = if cpu.finished_at().is_some() {
                    cpu_power + margin
                } else {
                    (cpu_power + margin).min(pl1.value())
                };
                let cpu_share = demand.max(prev_cpu_ceiling * 0.93);
                let gpu_share = (cfg.budget.value() - cpu_share)
                    .clamp(cfg.gpu.min_limit.value(), cfg.gpu.tdp.value());
                // Whatever the GPU cannot absorb flows back to the CPU.
                let cpu_ceiling =
                    (cfg.budget.value() - gpu_share).max(DufpNode::cap_floor().value());
                prev_cpu_ceiling = cpu_ceiling;
                cpu.set_ceiling(Watts(cpu_ceiling))?;
                gpu.set_power_limit(Watts(gpu_share));
            }
        }
    }

    Ok(HeteroOutcome {
        policy,
        cpu_time: cpu.finished_at().expect("cpu finished"),
        gpu_time: gpu_done_at.expect("gpu finished"),
        avg_gpu_limit: Watts(gpu_limit_sum / gpu_limit_samples.max(1) as f64),
        peak_combined_power: Watts(peak_combined),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
