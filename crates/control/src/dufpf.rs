//! DUFP-F — DUFP extended with *direct* core-frequency management (the
//! paper's §VII future work).
//!
//! §V-G observes that under DUFP "power capping impacts CPU frequency.
//! Therefore, better handling CPU frequency under power capping, instead
//! of relying on power capping to change the CPU frequency, may improve
//! even more both performance and power consumption." DUFP-F implements
//! that idea with the third knob, `IA32_PERF_CTL`:
//!
//! * the **uncore** runs DUF's algorithm unchanged,
//! * the **core frequency** is stepped down directly (100 MHz at a time)
//!   while FLOPS/s stay within the tolerated slowdown, through the same
//!   [`ControlConfig::split`] and [`crate::duf::Ladder`] as the other
//!   knobs,
//! * the **power cap** no longer drives DVFS at all: it *trails* the
//!   measured power a couple of steps above it, so bursts are still
//!   clipped but the enforcement loop never throttles behind the
//!   controller's back (and never triggers its settle transients).
//!
//! Compared with DUFP, the same operating point is reached through an
//! explicit request rather than through the RAPL firmware hunting for it —
//! fewer transients, no bandwidth starvation from deep allowances.

use crate::actuators::Actuators;
use crate::config::{ControlConfig, Split};
use crate::duf::{relative_drop, Action, Knob, Ladder};
use crate::phase::PhaseEvent;
use crate::state::{ControllerState, DufpFState};
use crate::trace::Trace;
use crate::Controller;
use dufp_counters::IntervalMetrics;
use dufp_telemetry::{Actuator, Reason, SocketTelemetry};
use dufp_types::{Result, Watts};

/// The DUFP-F controller.
#[derive(Debug)]
pub struct DufpF {
    cfg: ControlConfig,
    state: DufpFState,
    tel: SocketTelemetry,
}

impl DufpF {
    /// New DUFP-F instance.
    pub fn new(cfg: ControlConfig) -> Self {
        DufpF {
            cfg,
            state: DufpFState::default(),
            tel: SocketTelemetry::default(),
        }
    }

    /// Attaches a decision-trace recorder (builder style).
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The most recent frequency action.
    pub fn last_freq_action(&self) -> Action {
        self.state.last_freq_action
    }

    /// The trailing power cap for a measured power level: two cap steps of
    /// headroom, quantized to the cap step, clamped to `[floor, default]`.
    fn trailing_cap(&self, measured: Watts, default_long: Watts) -> Watts {
        let step = self.cfg.cap_step.value();
        let target = measured.value() + 2.0 * step;
        let quantized = (target / step).ceil() * step;
        Watts(quantized.clamp(self.cfg.cap_floor.value(), default_long.value()))
    }

    /// The frequency decision of a `Continued` interval: the same split
    /// and ladder as the uncore, on the FLOPS/s drop alone.
    fn freq_decide(&mut self, drop_f: f64, act: &mut dyn Actuators) -> Result<(Action, Reason)> {
        let (cfg, freq) = (&self.cfg, &mut self.state.freq);
        freq.tick();
        Ok(match cfg.split(drop_f) {
            Split::Violated => (
                freq.raise(Knob::CoreFreq, cfg, act)?,
                Reason::SlowdownViolation,
            ),
            Split::AtBoundary => (Action::Hold, Reason::Probe),
            Split::Within => (freq.lower(Knob::CoreFreq, cfg, act)?, Reason::Probe),
        })
    }
}

impl Controller for DufpF {
    fn name(&self) -> &'static str {
        "DUFP-F"
    }

    fn on_interval(&mut self, m: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()> {
        let uncore_before = act.uncore();
        let cap_before = act.cap_long();
        let freq_before = act.core_freq_cap();
        let s = &mut self.state;
        let event = s.tracker.observe(m);
        if event == PhaseEvent::Changed {
            s.tel.phase_seq += 1;
        }

        // Attribution mirror of DUFP: while we hold the frequency below the
        // maximum, FLOPS dips are (potentially) our own doing — the uncore
        // must not respond to them.
        let freq_throttling = act.core_freq_cap() < self.cfg.core_freq_max;
        let (_, uncore_why) =
            s.uncore
                .decide(&self.cfg, event, &s.tracker, m, act, freq_throttling)?;

        let (freq_action, freq_why) = match event {
            PhaseEvent::First => (Action::None, Reason::Probe),
            PhaseEvent::Changed => {
                act.reset_core_freq_cap()?;
                act.reset_cap()?;
                s.freq = Ladder::default();
                (Action::Reset, Reason::PhaseReset)
            }
            PhaseEvent::Continued => {
                // The uncore raising this interval means the dip was the
                // uncore's probe — leave the frequency alone for one round.
                let drop_f = relative_drop(m.flops.value(), s.tracker.max_flops);
                let decision = if s.uncore.last_action == Action::Increased {
                    (Action::Hold, Reason::Probe)
                } else {
                    self.freq_decide(drop_f, act)?
                };

                // The cap trails measured power instead of leading it.
                let (default_long, _) = act.cap_defaults();
                let want = self.trailing_cap(m.pkg_power, default_long);
                if (want.value() - act.cap_long().value()).abs() >= self.cfg.cap_step.value() - 1e-9
                {
                    act.set_cap_both(want)?;
                }
                decision
            }
        };

        let s = &mut self.state;
        if self.tel.is_enabled() {
            let trace = Trace {
                tel: &self.tel,
                counters: s.tel,
                tracker: Some(&s.tracker),
                m,
            };
            trace.emit(
                Actuator::Uncore,
                uncore_before.value(),
                act.uncore().value(),
                uncore_why,
            );
            trace.emit(
                Actuator::CoreFreq,
                freq_before.value(),
                act.core_freq_cap().value(),
                freq_why,
            );
            let cap_reason = if event == PhaseEvent::Changed {
                Reason::PhaseReset
            } else {
                Reason::TrailingCap
            };
            trace.emit(
                Actuator::PowerCap,
                cap_before.value(),
                act.cap_long().value(),
                cap_reason,
            );
        }
        s.tel.tick += 1;

        s.last_freq_action = freq_action;
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::DufpF(self.state.clone())
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::DufpF(s) => self.state = s.clone(),
            other => return Err(other.mismatch("DUFP-F")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuators::test_support::MemActuators;
    use dufp_types::{
        ArchSpec, BytesPerSec, FlopsPerSec, Hertz, Instant, OpIntensity, Ratio, Seconds,
    };

    fn cfg(pct: f64) -> ControlConfig {
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(pct)).unwrap()
    }

    fn m(flops: f64, bw: f64, power: f64, freq_ghz: f64) -> IntervalMetrics {
        IntervalMetrics {
            at: Instant(0),
            interval: Seconds(0.2),
            flops: FlopsPerSec(flops),
            bandwidth: BytesPerSec(bw),
            oi: OpIntensity(if bw > 0.0 { flops / bw } else { f64::INFINITY }),
            pkg_power: Watts(power),
            dram_power: Watts(25.0),
            core_freq: Hertz::from_ghz(freq_ghz),
        }
    }

    #[test]
    fn steady_memory_phase_steps_frequency_down() {
        let c = cfg(10.0);
        let mut d = DufpF::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        for _ in 0..6 {
            d.on_interval(&m(1e10, 8e10, 100.0, 2.8), &mut a).unwrap();
        }
        assert!(
            a.core_freq_cap() < c.core_freq_max,
            "freq cap should descend: {:?}",
            a.core_freq_cap()
        );
        assert_eq!(d.last_freq_action(), Action::Decreased);
    }

    #[test]
    fn violation_raises_frequency_and_locks_probe_floor() {
        let c = cfg(10.0);
        let mut d = DufpF::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&m(1e10, 8e10, 100.0, 2.8), &mut a).unwrap();
        for _ in 0..4 {
            d.on_interval(&m(1e10, 8e10, 98.0, 2.8), &mut a).unwrap();
        }
        let low = a.core_freq_cap();
        // 12 % drop > 10 % → raise.
        d.on_interval(&m(0.88e10, 7.0e10, 95.0, low.as_ghz()), &mut a)
            .unwrap();
        // The uncore responds first (it was not suppressed before the freq
        // started moving? it was — freq_cap < max ⇒ uncore held), so the
        // frequency logic must have acted.
        assert_eq!(d.last_freq_action(), Action::Increased);
        assert!(a.core_freq_cap() > low);
        // Further decreases are blocked by the probe floor.
        let at = a.core_freq_cap();
        d.on_interval(&m(1e10, 8e10, 98.0, at.as_ghz()), &mut a)
            .unwrap();
        assert_eq!(a.core_freq_cap(), at, "probe floor must hold");
    }

    #[test]
    fn cap_trails_measured_power() {
        let c = cfg(10.0);
        let mut d = DufpF::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&m(1e10, 8e10, 93.0, 2.8), &mut a).unwrap();
        d.on_interval(&m(1e10, 8e10, 93.0, 2.8), &mut a).unwrap();
        // 93 W + 10 W headroom, ceil to 5 W grid → 105 W.
        assert_eq!(a.cap_long(), Watts(105.0));
        assert_eq!(a.cap_short(), Watts(105.0));
        // Power falls; the cap follows down.
        for _ in 0..3 {
            d.on_interval(&m(1e10, 8e10, 74.0, 2.6), &mut a).unwrap();
        }
        assert_eq!(a.cap_long(), Watts(85.0));
    }

    #[test]
    fn trailing_cap_respects_floor_and_default() {
        let c = cfg(10.0);
        let d = DufpF::new(c);
        assert_eq!(d.trailing_cap(Watts(40.0), Watts(125.0)), Watts(65.0));
        assert_eq!(d.trailing_cap(Watts(130.0), Watts(125.0)), Watts(125.0));
        assert_eq!(d.trailing_cap(Watts(93.0), Watts(125.0)), Watts(105.0));
    }

    #[test]
    fn phase_change_resets_all_three_knobs() {
        let c = cfg(10.0);
        let mut d = DufpF::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        for _ in 0..5 {
            d.on_interval(&m(1e10, 8e10, 95.0, 2.8), &mut a).unwrap();
        }
        assert!(a.core_freq_cap() < c.core_freq_max);
        assert!(a.cap_long() < Watts(125.0));
        // Class flip.
        d.on_interval(&m(3e11, 5e10, 120.0, 2.8), &mut a).unwrap();
        assert_eq!(d.last_freq_action(), Action::Reset);
        assert_eq!(a.core_freq_cap(), c.core_freq_max);
        assert_eq!(a.cap_long(), Watts(125.0));
        assert_eq!(a.uncore_now, c.uncore_max);
    }

    #[test]
    fn frequency_never_leaves_ladder_bounds() {
        let c = cfg(20.0);
        let mut d = DufpF::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        for _ in 0..60 {
            d.on_interval(&m(1e10, 8e10, 90.0, 2.8), &mut a).unwrap();
            assert!(a.core_freq_cap() >= c.core_freq_min);
            assert!(a.core_freq_cap() <= c.core_freq_max);
        }
        assert_eq!(a.core_freq_cap(), c.core_freq_min);
    }
}
