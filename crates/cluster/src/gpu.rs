//! A power-cappable GPU model, for the paper's §VII heterogeneous
//! future-work study.
//!
//! The paper closes with: "we plan to target heterogeneous architectures:
//! With a specified shared power budget to distribute over a CPU and a
//! GPU, can we benefit from dynamic power capping to reduce the budget of
//! the CPU when it does not need it and increase the GPU power budget?"
//!
//! This module provides the GPU half of that question: a discrete-time
//! device with an NVML-style power limit. GPU boards enforce power limits
//! by clock-capping just like RAPL does, and compute throughput follows
//! the delivered power sub-linearly (voltage rides down with frequency):
//!
//! ```text
//! rate(cap) = peak_rate · ((cap − idle) / (tdp − idle))^α ,  α ≈ 0.7
//! ```

use dufp_types::check::positive;
use dufp_types::{Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Static description of a GPU device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Board power limit ceiling (the silicon TDP).
    pub tdp: Watts,
    /// Idle/static power (fans, HBM refresh, leakage).
    pub idle: Watts,
    /// Lowest enforceable power limit (NVML refuses lower).
    pub min_limit: Watts,
    /// Work throughput at TDP, abstract units/second.
    pub peak_rate: f64,
    /// Power-to-throughput exponent (sub-linear: voltage scales down with
    /// the clock cap).
    pub alpha: f64,
}

impl GpuSpec {
    /// A V100-class board: 300 W TDP, 100 W minimum limit.
    pub fn v100() -> Self {
        GpuSpec {
            tdp: Watts(300.0),
            idle: Watts(40.0),
            min_limit: Watts(100.0),
            peak_rate: 1.0,
            alpha: 0.7,
        }
    }
}

/// A running GPU job under a power limit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuSim {
    spec: GpuSpec,
    /// Programmed power limit.
    limit: Watts,
    /// Remaining work units.
    remaining: f64,
    /// Total energy consumed so far.
    energy: f64,
}

impl GpuSim {
    /// Starts a job of `work_units` on a board at its TDP limit.
    pub fn new(spec: GpuSpec, work_units: f64) -> Result<Self> {
        positive("work_units", work_units)?;
        Ok(GpuSim {
            limit: spec.tdp,
            spec,
            remaining: work_units,
            energy: 0.0,
        })
    }

    /// Sets the power limit (clamped to the board's legal range, like
    /// `nvidia-smi -pl`).
    pub fn set_power_limit(&mut self, w: Watts) {
        self.limit = w.clamp(self.spec.min_limit, self.spec.tdp);
    }

    /// The programmed power limit.
    pub fn power_limit(&self) -> Watts {
        self.limit
    }

    /// Instantaneous throughput at the current limit (units/second).
    pub fn rate(&self) -> f64 {
        if self.done() {
            return 0.0;
        }
        let span = (self.spec.tdp - self.spec.idle).value().max(1e-9);
        let avail = (self.limit - self.spec.idle).value().max(0.0);
        self.spec.peak_rate * (avail / span).powf(self.spec.alpha)
    }

    /// Instantaneous power draw: the limit while busy (boost clocks ride
    /// the limit), idle power when the job is finished.
    pub fn power(&self) -> Watts {
        if self.done() {
            self.spec.idle
        } else {
            self.limit
        }
    }

    /// Advances the device by `dt`.
    pub fn tick(&mut self, dt: Seconds) {
        let p = self.power();
        self.energy += (p * dt).value();
        if !self.done() {
            self.remaining = (self.remaining - self.rate() * dt.value()).max(0.0);
        }
    }

    /// True once the job has no work left.
    pub fn done(&self) -> bool {
        self.remaining <= 0.0
    }

    /// Energy consumed so far (including idle tail).
    pub fn energy(&self) -> f64 {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run_to_done(mut g: GpuSim, max_secs: f64) -> f64 {
        let dt = Seconds(0.01);
        let mut t = 0.0;
        while !g.done() {
            g.tick(dt);
            t += dt.value();
            assert!(t < max_secs, "gpu job stuck");
        }
        t
    }

    #[test]
    fn full_power_full_speed() {
        let g = GpuSim::new(GpuSpec::v100(), 30.0).unwrap();
        assert!((g.rate() - 1.0).abs() < 1e-9);
        let t = run_to_done(g, 100.0);
        assert!((t - 30.0).abs() < 0.1, "{t}");
    }

    #[test]
    fn halving_available_power_slows_sublinearly() {
        let mut g = GpuSim::new(GpuSpec::v100(), 30.0).unwrap();
        g.set_power_limit(Watts(170.0)); // half the idle..tdp span
        let r = g.rate();
        assert!(
            r > 0.5 && r < 0.75,
            "α=0.7 keeps throughput above linear scaling: {r}"
        );
    }

    #[test]
    fn limit_clamps_to_board_range() {
        let mut g = GpuSim::new(GpuSpec::v100(), 1.0).unwrap();
        g.set_power_limit(Watts(20.0));
        assert_eq!(g.power_limit(), Watts(100.0));
        g.set_power_limit(Watts(900.0));
        assert_eq!(g.power_limit(), Watts(300.0));
    }

    #[test]
    fn finished_board_draws_idle_power() {
        let mut g = GpuSim::new(GpuSpec::v100(), 0.5).unwrap();
        run_to_done(g.clone(), 10.0);
        for _ in 0..100 {
            g.tick(Seconds(0.01));
        }
        assert!(g.done());
        assert_eq!(g.power(), Watts(40.0));
    }

    #[test]
    fn invalid_work_rejected() {
        assert!(GpuSim::new(GpuSpec::v100(), 0.0).is_err());
        assert!(GpuSim::new(GpuSpec::v100(), f64::NAN).is_err());
    }

    proptest! {
        #[test]
        fn rate_monotone_in_limit(a in 100.0f64..300.0, b in 100.0f64..300.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let mut g = GpuSim::new(GpuSpec::v100(), 100.0).unwrap();
            g.set_power_limit(Watts(lo));
            let r_lo = g.rate();
            g.set_power_limit(Watts(hi));
            let r_hi = g.rate();
            prop_assert!(r_lo <= r_hi + 1e-12);
        }

        #[test]
        fn energy_is_power_times_time(limit in 100.0f64..300.0, secs in 1.0f64..20.0) {
            let mut g = GpuSim::new(GpuSpec::v100(), 1e12).unwrap(); // never finishes
            g.set_power_limit(Watts(limit));
            let steps = (secs / 0.01) as usize;
            for _ in 0..steps {
                g.tick(Seconds(0.01));
            }
            let expect = limit * steps as f64 * 0.01;
            prop_assert!((g.energy() - expect).abs() < expect * 1e-9 + 1e-6);
        }
    }
}
