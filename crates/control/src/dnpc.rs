//! DNPC-style dynamic power capping (related-work baseline, §VI).
//!
//! DNPC (Sharma et al., IEEE CLUSTER 2021) dynamically adapts the package
//! power cap to a user-defined performance-degradation limit, but its
//! degradation model is *frequency-linear*: it assumes performance scales
//! with core frequency and estimates next-period degradation as
//! `1 − f/f_max`. The paper's critique (§VI): "This is not the case
//! especially when targeting memory-intensive or vectorized applications.
//! DUFP reads the flops to detect if there was a performance change."
//!
//! This reimplementation exists as a comparator so the critique is
//! measurable: on memory-bound codes DNPC *over*-estimates degradation
//! (the cores idle at low frequency without hurting progress), backs the
//! cap off early, and leaves savings on the table that DUFP collects. The
//! "DUFP vs DNPC" section of `EXPERIMENTS.md` reproduces that comparison.

use crate::actuators::Actuators;
use crate::config::{ControlConfig, Split, EPSILON};
use crate::duf::{Action, Knob, Ladder};
use crate::state::{ControllerState, DnpcState};
use crate::trace::Trace;
use crate::Controller;
use dufp_counters::IntervalMetrics;
use dufp_telemetry::{Actuator, Reason, SocketTelemetry};
use dufp_types::Result;

/// The DNPC-style controller: cap only, frequency-linear degradation model.
#[derive(Debug)]
pub struct Dnpc {
    cfg: ControlConfig,
    state: DnpcState,
    tel: SocketTelemetry,
}

impl Dnpc {
    /// New instance honoring `cfg`'s tolerated slowdown, cap step/floor.
    pub fn new(cfg: ControlConfig) -> Self {
        Dnpc {
            cfg,
            state: DnpcState::default(),
            tel: SocketTelemetry::default(),
        }
    }

    /// Attaches a decision-trace recorder (builder style).
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The most recent action; a reset at the default counts as
    /// [`Action::Increased`].
    pub fn last_action(&self) -> Action {
        self.state.last_action
    }

    /// DNPC's frequency-linear degradation estimate for an interval.
    pub fn estimated_degradation(&self, m: &IntervalMetrics) -> f64 {
        (1.0 - m.core_freq.value() / self.cfg.core_freq_max.value()).max(0.0)
    }
}

impl Controller for Dnpc {
    fn name(&self) -> &'static str {
        "DNPC"
    }

    fn on_interval(&mut self, m: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()> {
        let cap_before = act.cap_long();
        let est = self.estimated_degradation(m);
        // DNPC's own model thresholds: raise past `s + ε`, hold down to
        // `max(s − ε, 0)`. The tolerance reads through the shared rule, so
        // one at or below ε is 0 % and has no hold band. DNPC has no probe
        // memory: each interval steps through a fresh ladder.
        let violated_above = self.cfg.tolerance() + EPSILON;
        let s = &mut self.state;
        s.last_action = match self.cfg.split_over(est, violated_above) {
            // Model says we are over budget: raise the cap.
            Split::Violated => match Ladder::default().raise(Knob::Cap, &self.cfg, act)? {
                Action::Hold => Action::Hold,
                _ => Action::Increased,
            },
            Split::AtBoundary => Action::Hold,
            // Model says there is headroom: lower the cap.
            Split::Within => Ladder::default().lower(Knob::Cap, &self.cfg, act)?,
        };

        if self.tel.is_enabled() {
            // Every DNPC move comes from the frequency-linear model; raises
            // are the model declaring the budget exceeded, drops are probes
            // into the headroom it predicts.
            let why = if s.last_action == Action::Increased {
                Reason::ModelEstimate
            } else {
                Reason::Probe
            };
            let trace = Trace {
                tel: &self.tel,
                counters: s.tel,
                tracker: None,
                m,
            };
            trace.emit(
                Actuator::PowerCap,
                cap_before.value(),
                act.cap_long().value(),
                why,
            );
        }
        s.tel.tick += 1;
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::Dnpc(self.state)
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::Dnpc(s) => self.state = *s,
            other => return Err(other.mismatch("DNPC")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuators::test_support::MemActuators;
    use dufp_types::{
        ArchSpec, BytesPerSec, FlopsPerSec, Hertz, Instant, OpIntensity, Ratio, Seconds, Watts,
    };

    fn cfg(pct: f64) -> ControlConfig {
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(pct)).unwrap()
    }

    fn m(freq_ghz: f64) -> IntervalMetrics {
        IntervalMetrics {
            at: Instant(0),
            interval: Seconds(0.2),
            flops: FlopsPerSec(1e11),
            bandwidth: BytesPerSec(5e10),
            oi: OpIntensity(2.0),
            pkg_power: Watts(110.0),
            dram_power: Watts(25.0),
            core_freq: Hertz::from_ghz(freq_ghz),
        }
    }

    #[test]
    fn full_frequency_means_headroom_and_decrease() {
        let c = cfg(10.0);
        let mut d = Dnpc::new(c.clone());
        let mut a = MemActuators::new(c);
        d.on_interval(&m(2.8), &mut a).unwrap();
        assert_eq!(d.last_action(), Action::Decreased);
        assert_eq!(a.cap_long(), Watts(120.0));
    }

    #[test]
    fn deep_throttle_raises_cap_even_if_flops_are_fine() {
        // The flaw the paper points out: frequency down 20 % on a
        // memory-bound phase (FLOPS unaffected) still reads as a 20 %
        // degradation to DNPC.
        let c = cfg(10.0);
        let mut d = Dnpc::new(c.clone());
        let mut a = MemActuators::new(c);
        d.on_interval(&m(2.8), &mut a).unwrap(); // 125 → 120
        d.on_interval(&m(2.8), &mut a).unwrap(); // 120 → 115
        assert_eq!(a.cap_long(), Watts(115.0));
        d.on_interval(&m(2.24), &mut a).unwrap(); // est 20 % > 11 %
        assert_eq!(d.last_action(), Action::Increased);
        assert_eq!(a.cap_long(), Watts(120.0));
    }

    #[test]
    fn estimate_is_frequency_linear() {
        let d = Dnpc::new(cfg(10.0));
        assert!((d.estimated_degradation(&m(2.8)) - 0.0).abs() < 1e-9);
        assert!((d.estimated_degradation(&m(2.52)) - 0.1).abs() < 1e-9);
        assert!((d.estimated_degradation(&m(1.4)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn holds_inside_the_band_and_floors_out() {
        let c = cfg(10.0);
        let mut d = Dnpc::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        // est exactly 10 %: hold.
        d.on_interval(&m(2.52), &mut a).unwrap();
        assert_eq!(d.last_action(), Action::Hold);
        // Decrease to the floor and stay there.
        for _ in 0..30 {
            d.on_interval(&m(2.8), &mut a).unwrap();
        }
        assert_eq!(a.cap_long(), c.cap_floor);
        assert_eq!(d.last_action(), Action::Hold);
    }

    #[test]
    fn increase_saturates_with_reset_at_default() {
        let c = cfg(5.0);
        let mut d = Dnpc::new(c.clone());
        let mut a = MemActuators::new(c);
        d.on_interval(&m(2.8), &mut a).unwrap(); // → 120
        d.on_interval(&m(1.4), &mut a).unwrap(); // est 50 % → 125 = reset
        assert_eq!(a.cap_long(), Watts(125.0));
        assert_eq!(a.cap_short(), Watts(150.0));
        // Already at default: hold.
        d.on_interval(&m(1.4), &mut a).unwrap();
        assert_eq!(d.last_action(), Action::Hold);
    }
}
