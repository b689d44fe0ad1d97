//! DUF — dynamic uncore frequency scaling (the paper's prior tool and the
//! baseline of every figure) — and the step ladder every controller's
//! knobs walk.
//!
//! Per monitoring interval (§II-C): on a phase change the uncore resets;
//! otherwise the FLOPS/s and bandwidth drops against the per-phase maxima
//! (DUF guards bandwidth on *all* phases, unlike DUFP's cap logic, §III)
//! go through [`ControlConfig::split`]: past the tolerated slowdown the
//! uncore steps up one rung, inside the measurement-error band it holds,
//! otherwise it keeps stepping down toward its minimum.
//!
//! DUFP "uses the same algorithm as DUF when it comes to uncore frequency"
//! (§I), and its cap and DUFP-F's core frequency follow the same rule. All
//! three step through a [`Ladder`]: one rung up on a violation, one rung
//! down unless the probe memory (DESIGN §6 item 2) blocks it.

use crate::actuators::Actuators;
use crate::config::{ControlConfig, Split};
use crate::phase::{PhaseEvent, PhaseTracker};
use crate::state::{ControllerState, DufState};
use crate::trace::Trace;
use crate::Controller;
use dufp_counters::IntervalMetrics;
use dufp_telemetry::{Actuator, Reason, SocketTelemetry};
use dufp_types::{Hertz, Result, Watts};
use serde::{Deserialize, Serialize};

/// What a controller did to one knob this interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// No decision yet (first interval).
    #[default]
    None,
    /// Stepped the knob down.
    Decreased,
    /// Stepped the knob up.
    Increased,
    /// Restored the knob's default.
    Reset,
    /// Held steady.
    Hold,
}

/// A knob's step ladder: it raises the knob one rung on a violation and
/// lowers it one rung otherwise, and holds its probe memory. After a
/// violation forces the knob back up, it does not probe below that level
/// again for [`ControlConfig::reprobe_intervals`] intervals, so it does not
/// oscillate across the violation boundary every other interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Ladder {
    /// Level a violation raised the knob to, if any.
    pub probe_floor: Option<f64>,
    /// Intervals since the last violation (the re-probe clock).
    pub since_violation: u32,
}

/// A knob a [`Ladder`] steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Knob {
    /// The pinned uncore frequency.
    Uncore,
    /// DUFP-F's core-frequency request.
    CoreFreq,
    /// Both RAPL constraints.
    Cap,
}

impl Knob {
    /// `(bottom, top, step, tolerance)`: the knob's range, its rung, and
    /// how far below the probe floor a level must be to count as below it.
    fn rungs(self, cfg: &ControlConfig, act: &dyn Actuators) -> (f64, f64, f64, f64) {
        match self {
            Knob::Uncore => (
                cfg.uncore_min.value(),
                cfg.uncore_max.value(),
                cfg.uncore_step.value(),
                1.0,
            ),
            Knob::CoreFreq => (
                cfg.core_freq_min.value(),
                cfg.core_freq_max.value(),
                cfg.core_freq_step.value(),
                1.0,
            ),
            Knob::Cap => (
                cfg.cap_floor.value(),
                act.cap_defaults().0.value(),
                cfg.cap_step.value(),
                0.1,
            ),
        }
    }

    fn level(self, act: &dyn Actuators) -> f64 {
        match self {
            Knob::Uncore => act.uncore().value(),
            Knob::CoreFreq => act.core_freq_cap().value(),
            Knob::Cap => act.cap_long().value(),
        }
    }

    fn set(self, act: &mut dyn Actuators, level: f64) -> Result<()> {
        match self {
            Knob::Uncore => act.set_uncore(Hertz(level)),
            Knob::CoreFreq => act.set_core_freq_cap(Hertz(level)),
            Knob::Cap => act.set_cap_both(Watts(level)),
        }
    }
}

impl Ladder {
    /// Advances the re-probe clock by one interval.
    pub(crate) fn tick(&mut self) {
        self.since_violation = self.since_violation.saturating_add(1);
    }

    /// A violation: restarts the re-probe clock and steps `knob` one rung
    /// up, remembering the new level as the probe floor. At its top the
    /// knob holds, its clock restarted all the same (DUFP therefore raises
    /// the cap only below its default). The cap resets instead once the
    /// step reaches its default
    /// ("if the value reached by the long term constraint is equal to its
    /// default value, the power cap is reset", §III).
    pub(crate) fn raise(
        &mut self,
        knob: Knob,
        cfg: &ControlConfig,
        act: &mut dyn Actuators,
    ) -> Result<Action> {
        self.since_violation = 0;
        let (_, top, step, _) = knob.rungs(cfg, act);
        let cur = knob.level(act);
        if cur >= top {
            return Ok(Action::Hold);
        }
        let up = cur + step;
        let (action, level) = if knob == Knob::Cap && up >= top {
            act.reset_cap()?;
            (Action::Reset, top)
        } else {
            knob.set(act, up)?;
            (Action::Increased, up)
        };
        self.probe_floor = Some(level);
        Ok(action)
    }

    /// Steps `knob` one rung down, unless it is at its bottom or the probe
    /// floor blocks it. Once the re-probe window has passed the floor is
    /// forgotten and the knob feels for the boundary again. Only the cap
    /// clamps to its bottom; the frequency ladders are step-aligned.
    pub(crate) fn lower(
        &mut self,
        knob: Knob,
        cfg: &ControlConfig,
        act: &mut dyn Actuators,
    ) -> Result<Action> {
        let (bottom, _, step, tolerance) = knob.rungs(cfg, act);
        let cur = knob.level(act);
        if cur <= bottom {
            return Ok(Action::Hold);
        }
        let mut down = cur - step;
        if knob == Knob::Cap {
            down = down.max(bottom);
        }
        if self.probe_floor.is_some_and(|fl| down < fl - tolerance) {
            if self.since_violation < cfg.reprobe_intervals {
                return Ok(Action::Hold);
            }
            self.probe_floor = None;
        }
        knob.set(act, down)?;
        Ok(Action::Decreased)
    }
}

/// The uncore decision engine, shared verbatim between DUF, DUFP and
/// DUFP-F ("DUFP uses the same algorithm as DUF when it comes to uncore
/// frequency", §I). Its fields are its whole decision state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UncoreLogic {
    /// The action taken on the most recent interval.
    pub last_action: Action,
    /// The uncore's probe memory.
    pub ladder: Ladder,
}

impl UncoreLogic {
    /// Decides and actuates for one interval under `cfg`, returning the
    /// action and its trace reason. `event` must come from the shared
    /// phase tracker *after* observing `m`.
    ///
    /// `suppress_violation` tells the engine that another actuator (DUFP's
    /// power cap) moved last interval and is the likely cause of any
    /// FLOPS/s dip — the uncore must not react to it. Standalone DUF
    /// always passes `false`.
    pub fn decide(
        &mut self,
        cfg: &ControlConfig,
        event: PhaseEvent,
        tracker: &PhaseTracker,
        m: &IntervalMetrics,
        act: &mut dyn Actuators,
        suppress_violation: bool,
    ) -> Result<(Action, Reason)> {
        let (action, why) = match event {
            PhaseEvent::First => (Action::None, Reason::Probe),
            PhaseEvent::Changed => {
                act.reset_uncore()?;
                self.ladder = Ladder::default();
                (Action::Reset, Reason::PhaseReset)
            }
            PhaseEvent::Continued => {
                // DUF guards both FLOPS/s and bandwidth on every phase; the
                // worse of the two drops decides.
                let flops = cfg.split(relative_drop(m.flops.value(), tracker.max_flops));
                let bandwidth =
                    cfg.split(relative_drop(m.bandwidth.value(), tracker.max_bandwidth));
                let why = if flops == Split::Violated {
                    Reason::SlowdownViolation
                } else {
                    Reason::BandwidthViolation
                };
                self.ladder.tick();
                match flops.max(bandwidth) {
                    // The cap moved last interval: let the cap logic fix
                    // its own damage instead of burning uncore headroom.
                    Split::Violated if suppress_violation => (Action::Hold, why),
                    Split::Violated => (self.ladder.raise(Knob::Uncore, cfg, act)?, why),
                    Split::AtBoundary => (Action::Hold, Reason::Probe),
                    Split::Within => (self.ladder.lower(Knob::Uncore, cfg, act)?, Reason::Probe),
                }
            }
        };
        self.last_action = action;
        Ok((action, why))
    }
}

/// `1 - value/max`, clamped to zero when the phase has no recorded maximum.
#[inline]
pub(crate) fn relative_drop(value: f64, max: f64) -> f64 {
    if max > 0.0 {
        (1.0 - value / max).max(0.0)
    } else {
        0.0
    }
}

/// The DUF controller: phase tracking + uncore logic, nothing else.
#[derive(Debug)]
pub struct Duf {
    cfg: ControlConfig,
    state: DufState,
    tel: SocketTelemetry,
}

impl Duf {
    /// New DUF instance.
    pub fn new(cfg: ControlConfig) -> Self {
        Duf {
            cfg,
            state: DufState::default(),
            tel: SocketTelemetry::default(),
        }
    }

    /// Attaches a decision-trace recorder (builder style).
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The most recent uncore action (for tests and traces).
    pub fn last_action(&self) -> Action {
        self.state.uncore.last_action
    }
}

impl Controller for Duf {
    fn name(&self) -> &'static str {
        "DUF"
    }

    fn on_interval(&mut self, m: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()> {
        let uncore_before = act.uncore();
        let s = &mut self.state;
        let event = s.tracker.observe(m);
        if event == PhaseEvent::Changed {
            s.tel.phase_seq += 1;
        }
        let (_, why) = s
            .uncore
            .decide(&self.cfg, event, &s.tracker, m, act, false)?;
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
            why,
        );
        s.tel.tick += 1;
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::Duf(self.state.clone())
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::Duf(s) => self.state = s.clone(),
            other => return Err(other.mismatch("DUF")),
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

    fn cfg(slowdown_pct: f64) -> ControlConfig {
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(slowdown_pct)).unwrap()
    }

    fn m(flops: f64, bw: f64) -> IntervalMetrics {
        IntervalMetrics {
            at: Instant(0),
            interval: Seconds(0.2),
            flops: FlopsPerSec(flops),
            bandwidth: BytesPerSec(bw),
            oi: OpIntensity(if bw > 0.0 { flops / bw } else { f64::INFINITY }),
            pkg_power: Watts(100.0),
            dram_power: Watts(20.0),
            core_freq: Hertz::from_ghz(2.8),
        }
    }

    #[test]
    fn steady_phase_keeps_stepping_down_to_minimum() {
        let c = cfg(5.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        // 20 identical intervals: flops stay at max, so DUF steps 100 MHz
        // each time until the 1.2 GHz floor.
        for _ in 0..20 {
            duf.on_interval(&m(1e11, 5e10), &mut act).unwrap();
        }
        assert_eq!(act.uncore(), c.uncore_min);
        assert_eq!(duf.last_action(), Action::Hold);
    }

    #[test]
    fn slowdown_violation_steps_back_up() {
        let c = cfg(5.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        duf.on_interval(&m(1e11, 5e10), &mut act).unwrap(); // prime
        duf.on_interval(&m(1e11, 5e10), &mut act).unwrap(); // decrease → 2.3
        assert_eq!(act.uncore(), Hertz::from_ghz(2.3));
        // FLOPS drop 8 % — beyond the 5 % tolerance.
        duf.on_interval(&m(0.92e11, 4.6e10), &mut act).unwrap();
        assert_eq!(duf.last_action(), Action::Increased);
        assert_eq!(act.uncore(), Hertz::from_ghz(2.4));
    }

    #[test]
    fn bandwidth_drop_alone_triggers_increase() {
        // DUF guards bandwidth on all phases (§III, difference 1).
        let c = cfg(5.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        duf.on_interval(&m(1e10, 8e10), &mut act).unwrap();
        duf.on_interval(&m(1e10, 8e10), &mut act).unwrap(); // decrease
        let down = act.uncore();
        // FLOPS fine, bandwidth down 10 %.
        duf.on_interval(&m(1e10, 7.2e10), &mut act).unwrap();
        assert_eq!(duf.last_action(), Action::Increased);
        assert!(act.uncore() > down);
    }

    #[test]
    fn within_band_holds() {
        let c = cfg(5.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        duf.on_interval(&m(1e11, 5e10), &mut act).unwrap();
        // Exactly at the 5 % floor: inside the ±1 % band → hold.
        duf.on_interval(&m(0.95e11, 4.75e10), &mut act).unwrap();
        assert_eq!(duf.last_action(), Action::Hold);
        assert_eq!(act.uncore(), c.uncore_max);
    }

    #[test]
    fn phase_change_resets_uncore() {
        let c = cfg(10.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        duf.on_interval(&m(1e10, 8e10), &mut act).unwrap(); // memory phase
        duf.on_interval(&m(1e10, 8e10), &mut act).unwrap(); // decrease
        duf.on_interval(&m(1e10, 8e10), &mut act).unwrap(); // decrease
        assert!(act.uncore() < c.uncore_max);
        // Flip to a CPU-intensive interval (oi ≥ 1).
        duf.on_interval(&m(2e11, 5e10), &mut act).unwrap();
        assert_eq!(duf.last_action(), Action::Reset);
        assert_eq!(act.uncore(), c.uncore_max);
    }

    #[test]
    fn never_steps_outside_ladder() {
        let c = cfg(20.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        // Long steady run: must stop at min, never below.
        for _ in 0..50 {
            duf.on_interval(&m(1e11, 5e10), &mut act).unwrap();
            assert!(act.uncore() >= c.uncore_min);
            assert!(act.uncore() <= c.uncore_max);
        }
        // Long violating run: must stop at max.
        for _ in 0..50 {
            duf.on_interval(&m(0.5e11, 2.5e10), &mut act).unwrap();
            assert!(act.uncore() <= c.uncore_max);
        }
        assert_eq!(act.uncore(), c.uncore_max);
    }

    #[test]
    fn ladder_blocks_probing_below_a_violation_until_the_reprobe_window() {
        let c = cfg(5.0);
        let mut act = MemActuators::new(c.clone());
        act.set_uncore(Hertz::from_ghz(2.0)).unwrap();
        let low = act.uncore();
        let mut ladder = Ladder::default();
        assert_eq!(
            ladder.raise(Knob::Uncore, &c, &mut act).unwrap(),
            Action::Increased
        );
        assert_eq!(ladder.probe_floor, Some(act.uncore().value()));
        for _ in 1..c.reprobe_intervals {
            ladder.tick();
            assert_eq!(
                ladder.lower(Knob::Uncore, &c, &mut act).unwrap(),
                Action::Hold
            );
        }
        ladder.tick();
        assert_eq!(
            ladder.lower(Knob::Uncore, &c, &mut act).unwrap(),
            Action::Decreased
        );
        assert_eq!(ladder.probe_floor, None, "the window passed: forget it");
        assert_eq!(act.uncore(), low);
    }

    #[test]
    fn zero_slowdown_still_reclaims_uncore_when_flops_hold() {
        let c = cfg(0.0);
        let mut duf = Duf::new(c.clone());
        let mut act = MemActuators::new(c.clone());
        for _ in 0..5 {
            duf.on_interval(&m(1e11, 5e10), &mut act).unwrap();
        }
        assert!(
            act.uncore() < c.uncore_max,
            "steady FLOPS at 0 % tolerance must still allow decreases"
        );
    }
}
