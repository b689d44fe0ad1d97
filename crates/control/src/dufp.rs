//! DUFP — dynamic uncore frequency scaling **plus** dynamic power capping
//! (the paper's contribution, §III and Fig. 2).
//!
//! The uncore side is DUF verbatim ([`crate::duf::UncoreLogic`]); this
//! module adds the cap state machine, which steps the cap through the same
//! [`crate::duf::Ladder`] and reads drops through the same
//! [`ControlConfig::split`]:
//!
//! * **Phase change** → reset the cap (both constraints to their
//!   defaults); then coupling 2: read the uncore back and retry the reset
//!   if the lingering cap kept it below the maximum.
//! * **Overshoot** (§IV-D) → if measured package power exceeds the
//!   programmed long-term cap by more than a margin (a fresh cap hasn't
//!   bitten yet), reset the cap.
//! * **Post-reset trim** → on the interval after a reset, if the measured
//!   power already fits under the long-term cap, pull the short-term
//!   constraint down to the long-term value.
//! * **Highly compute-intensive phases** (`oi > 100`) → any FLOPS/s *or*
//!   bandwidth drop beyond the tolerance resets the cap outright (these
//!   phases are the ones power capping hurts most).
//! * **Highly memory-intensive phases** (`oi < 0.02`) → keep decreasing
//!   toward the 65 W floor regardless of FLOPS/s.
//! * **Otherwise** → the DUF-style three-way split on the FLOPS/s drop:
//!   beyond tolerance → increase one step (a full reset once the long-term
//!   constraint would return to its default); at the boundary → hold;
//!   else → decrease one step, writing *both* constraints.
//! * **Coupling 1** → if the uncore was raised last interval and that did
//!   not improve FLOPS/s, raise the cap too (the cap, not the uncore, was
//!   the real bottleneck).

use crate::actuators::Actuators;
use crate::config::{
    ControlConfig, Split, EPSILON, OI_HIGHLY_COMPUTE, OI_HIGHLY_MEMORY, OVERSHOOT_MARGIN,
};
use crate::duf::{relative_drop, Action, Knob, Ladder};
use crate::phase::PhaseEvent;
use crate::state::{ControllerState, DufpState};
use crate::trace::Trace;
use crate::Controller;
use dufp_counters::IntervalMetrics;
use dufp_telemetry::{Actuator, Reason, SocketTelemetry};
use dufp_types::Result;

/// The DUFP controller.
#[derive(Debug)]
pub struct Dufp {
    cfg: ControlConfig,
    state: DufpState,
    tel: SocketTelemetry,
}

impl Dufp {
    /// New DUFP instance.
    pub fn new(cfg: ControlConfig) -> Self {
        Dufp {
            cfg,
            state: DufpState::default(),
            tel: SocketTelemetry::default(),
        }
    }

    /// Attaches a decision-trace recorder (builder style).
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.tel = tel;
        self
    }

    /// The cumulative progress deficit, `1 − observed / reference`, used by
    /// the §V-G guard. Zero until enough reference accumulates.
    pub fn cumulative_deficit(&self) -> f64 {
        let s = &self.state;
        if s.cumulative_reference > 0.0 {
            (1.0 - s.cumulative_flops / s.cumulative_reference).max(0.0)
        } else {
            0.0
        }
    }

    /// The most recent cap action.
    pub fn last_cap_action(&self) -> Action {
        self.state.last_cap_action
    }

    /// The most recent uncore action.
    pub fn last_uncore_action(&self) -> Action {
        self.state.uncore.last_action
    }

    /// Resets the cap and re-checks the uncore (coupling 2).
    fn reset_both_coupling(&mut self, act: &mut dyn Actuators) -> Result<()> {
        act.reset_cap()?;
        // "whenever we reset both values, DUFP checks if the uncore
        // frequency is at the maximum. If not, it tries to reset it once
        // again." (§III, coupling 2)
        if self.cfg.coupling2 && act.read_uncore()? < self.cfg.uncore_max {
            act.reset_uncore()?;
        }
        Ok(())
    }

    /// The cap decision of a `Continued` interval. `uncore_before` is the
    /// uncore action of the previous interval.
    fn cap_decide(
        &mut self,
        m: &IntervalMetrics,
        act: &mut dyn Actuators,
        uncore_before: Action,
    ) -> Result<(Action, Reason)> {
        let deficit = self.cumulative_deficit();
        let (cfg, s) = (&self.cfg, &mut self.state);
        s.cap.tick();
        let below_default = act.cap_long() < act.cap_defaults().0;
        // §V-G: reserve part of the slowdown budget for hidden,
        // counter-invisible slowdown (LAMMPS' aliased bursts): once the
        // *cumulative* FLOPS deficit eats 75 % of the tolerance, stop
        // capping deeper and step back up.
        let guard_threshold = (cfg.tolerance() * 0.75).max(EPSILON);
        if cfg.cumulative_guard && deficit > guard_threshold && below_default {
            let action = s.cap.raise(Knob::Cap, cfg, act)?;
            return Ok((action, Reason::CumulativeGuard));
        }

        // §IV-D: a just-written cap needs time to bite; if measured power
        // still exceeds the programmed cap, reset it.
        if cfg.overshoot_reset && m.pkg_power > act.cap_long() + OVERSHOOT_MARGIN && below_default {
            act.reset_cap()?;
            return Ok((Action::Reset, Reason::Overshoot));
        }
        if s.last_cap_action == Action::Reset
            && m.pkg_power < act.cap_long()
            && act.cap_short() > act.cap_long()
        {
            // Post-reset bookkeeping: power already under the cap → pull
            // the short-term constraint down to the long-term value (§III,
            // last paragraph). This is the interval's whole cap action.
            act.set_cap_short(act.cap_long())?;
            return Ok((Action::Hold, Reason::PostResetTrim));
        }

        let flops = cfg.split(relative_drop(m.flops.value(), s.tracker.max_flops));
        // Coupling 1: the uncore went up last interval but FLOPS/s did not
        // improve → the cap was the bottleneck. Applies "even if the
        // FLOPS/s are still within the tolerated slowdown" (§III) — i.e.
        // only there; outright violations go through the regular paths.
        let e = EPSILON;
        let uncore_increase_failed = cfg.coupling1
            && uncore_before == Action::Increased
            && flops != Split::Violated
            && s.prev_flops
                .is_some_and(|p| m.flops.value() <= p * (1.0 + e));
        if uncore_increase_failed && below_default {
            let action = s.cap.raise(Knob::Cap, cfg, act)?;
            return Ok((action, Reason::CrossCoupling));
        }

        let oi = s.tracker.last_oi;
        if oi < OI_HIGHLY_MEMORY {
            // Highly memory-intensive: free to cap to the floor.
            return Ok((s.cap.lower(Knob::Cap, cfg, act)?, Reason::Probe));
        }
        // Highly compute-intensive phases guard bandwidth too, and a
        // violation resets the cap outright instead of stepping it. Only
        // the cap resets here — the uncore keeps its own state (decisions
        // are taken separately, §III).
        let compute = oi > OI_HIGHLY_COMPUTE;
        let bandwidth_violated = compute
            && cfg.split(relative_drop(m.bandwidth.value(), s.tracker.max_bandwidth))
                == Split::Violated;
        Ok(if flops == Split::Violated || bandwidth_violated {
            let why = if flops == Split::Violated {
                Reason::SlowdownViolation
            } else {
                Reason::BandwidthViolation
            };
            // Reverse attribution: if the *uncore* stepped down last
            // interval (its periodic probe below the recorded boundary), a
            // dip this interval is the uncore's doing — the uncore logic
            // will raise it back itself; the cap must not react. At its
            // default the cap has nothing to give back either.
            let action = if uncore_before == Action::Decreased || !below_default {
                Action::Hold
            } else if compute {
                act.reset_cap()?;
                Action::Reset
            } else {
                s.cap.raise(Knob::Cap, cfg, act)?
            };
            (action, why)
        } else if flops == Split::AtBoundary {
            (Action::Hold, Reason::Probe)
        } else {
            (s.cap.lower(Knob::Cap, cfg, act)?, Reason::Probe)
        })
    }
}

impl Controller for Dufp {
    fn name(&self) -> &'static str {
        "DUFP"
    }

    fn on_interval(&mut self, m: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()> {
        let uncore_before = act.uncore();
        let cap_long_before = act.cap_long();
        let cap_short_before = act.cap_short();
        let (cfg, s) = (&self.cfg, &mut self.state);
        let event = s.tracker.observe(m);
        if event == PhaseEvent::Changed {
            s.tel.phase_seq += 1;
        }
        // §V-G cumulative guard bookkeeping (cheap even when disabled).
        s.cumulative_flops += m.flops.value() * m.interval.value();
        s.cumulative_reference += s.tracker.max_flops * m.interval.value();
        let uncore_action_before = s.uncore.last_action;
        // Attribution: when the observed core frequency sits below the
        // all-core maximum, RAPL is actively throttling to honor the cap —
        // a FLOPS/s dip is then on the cap, not the uncore, and the uncore
        // must not react. (DVFS-ladder quantization keeps the measured
        // power a few watts *below* the cap while throttling, so comparing
        // power against the cap would miss it.)
        let cap_binding = act.cap_long() < act.cap_defaults().0
            && m.core_freq.value() < cfg.core_freq_max.value() * 0.98;
        // Also suppress for one interval after the cap moved back up: the
        // interval straddling the raise still carries throttled FLOPS.
        let cap_recovering = matches!(s.last_cap_action, Action::Reset | Action::Increased);
        let suppress = cap_binding || cap_recovering;
        let (_, uncore_why) = s.uncore.decide(cfg, event, &s.tracker, m, act, suppress)?;

        // Each decision pairs its action with the trace reason for it; the
        // reason only reaches the recorder when the cap actually moved.
        let (cap_action, cap_reason) = match event {
            PhaseEvent::First => (Action::None, Reason::Probe),
            PhaseEvent::Changed => {
                self.reset_both_coupling(act)?;
                self.state.cap = Ladder::default();
                (Action::Reset, Reason::PhaseReset)
            }
            PhaseEvent::Continued => self.cap_decide(m, act, uncore_action_before)?,
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
            let long_now = act.cap_long();
            let short_now = act.cap_short();
            trace.emit(
                Actuator::PowerCap,
                cap_long_before.value(),
                long_now.value(),
                cap_reason,
            );
            // The short constraint gets its own event only when it moved
            // alone (the post-reset trim); joint writes are one decision.
            if long_now.value() == cap_long_before.value() {
                trace.emit(
                    Actuator::PowerCapShort,
                    cap_short_before.value(),
                    short_now.value(),
                    cap_reason,
                );
            }
        }
        s.tel.tick += 1;

        s.last_cap_action = cap_action;
        s.prev_flops = Some(m.flops.value());
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::Dufp(self.state.clone())
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::Dufp(s) => self.state = s.clone(),
            other => return Err(other.mismatch("DUFP")),
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

    fn m(flops: f64, bw: f64, power: f64) -> IntervalMetrics {
        IntervalMetrics {
            at: Instant(0),
            interval: Seconds(0.2),
            flops: FlopsPerSec(flops),
            bandwidth: BytesPerSec(bw),
            oi: OpIntensity(if bw > 0.0 { flops / bw } else { f64::INFINITY }),
            pkg_power: Watts(power),
            dram_power: Watts(20.0),
            core_freq: Hertz::from_ghz(2.8),
        }
    }

    /// Mixed-intensity metrics: oi = 2 (not highly anything).
    fn mixed(flops: f64, power: f64) -> IntervalMetrics {
        m(flops, flops / 2.0, power)
    }

    /// Highly-memory metrics: oi = 0.01.
    fn hmem(bw: f64, power: f64) -> IntervalMetrics {
        m(bw * 0.01, bw, power)
    }

    /// Highly-compute metrics: oi = 200.
    fn hcpu(flops: f64, power: f64) -> IntervalMetrics {
        m(flops, flops / 200.0, power)
    }

    #[test]
    fn steady_phase_steps_cap_down_both_constraints() {
        let c = cfg(5.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap(); // prime
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Decreased);
        assert_eq!(a.cap_long(), Watts(120.0));
        assert_eq!(a.cap_short(), Watts(120.0), "decrease writes both");
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(115.0));
    }

    #[test]
    fn cap_never_goes_below_floor() {
        let c = cfg(20.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        for _ in 0..40 {
            d.on_interval(&hmem(9e10, 60.0), &mut a).unwrap();
            assert!(a.cap_long() >= c.cap_floor);
        }
        assert_eq!(a.cap_long(), c.cap_floor);
        assert_eq!(d.last_cap_action(), Action::Hold);
    }

    #[test]
    fn highly_memory_phase_decreases_despite_flops_drop() {
        // oi < 0.02: "power capping can be decreased with no impact on
        // performance" — the FLOPS/s check is bypassed.
        let c = cfg(0.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&hmem(9e10, 80.0), &mut a).unwrap();
        // 10 % flops drop at 0 % tolerance would normally trigger increase.
        d.on_interval(&hmem(8.1e10, 78.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Decreased);
    }

    #[test]
    fn violation_increases_then_resets_at_default() {
        let c = cfg(5.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        // Two decreases: 125 → 120 → 115.
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(115.0));
        // 10 % drop → first violating interval is attributed to the uncore
        // (it probed down last interval): the cap holds while the uncore
        // recovers.
        d.on_interval(&mixed(0.9e11, 100.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Hold);
        // Still violating → now the cap reacts: increase 115 → 120.
        d.on_interval(&mixed(0.9e11, 100.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Increased);
        assert_eq!(a.cap_long(), Watts(120.0));
        assert_eq!(a.cap_short(), Watts(120.0));
        // Another violation: 120 + 5 = 125 = default → full reset.
        d.on_interval(&mixed(0.9e11, 100.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Reset);
        assert_eq!(a.cap_long(), Watts(125.0));
        assert_eq!(a.cap_short(), Watts(150.0), "reset restores PL2 default");
    }

    #[test]
    fn highly_compute_violation_resets_outright() {
        let c = cfg(5.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&hcpu(4e11, 100.0), &mut a).unwrap();
        for _ in 0..4 {
            d.on_interval(&hcpu(4e11, 100.0), &mut a).unwrap();
        }
        assert_eq!(a.cap_long(), Watts(105.0));
        // 8 % drop > 5 % tolerance. The first violating interval is
        // attributed to the uncore's own probe; the second resets the cap
        // outright (no stepwise increase for oi > 100).
        d.on_interval(&hcpu(3.68e11, 100.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Hold);
        d.on_interval(&hcpu(3.68e11, 100.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Reset);
        assert_eq!(a.cap_long(), Watts(125.0));
    }

    #[test]
    fn highly_compute_bandwidth_drop_resets() {
        // §III: for oi > 100 the slowdown also applies to bandwidth.
        let c = cfg(5.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&hcpu(4e11, 120.0), &mut a).unwrap();
        d.on_interval(&hcpu(4e11, 115.0), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(120.0));
        // FLOPS steady but bandwidth collapses 10 %: craft oi still > 100.
        let mut bad = m(4e11, (4e11 / 200.0) * 0.9, 110.0);
        bad.oi = OpIntensity(222.0);
        d.on_interval(&bad, &mut a).unwrap(); // attributed to uncore probe
        d.on_interval(&bad, &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Reset);
    }

    #[test]
    fn phase_change_resets_cap_and_uncore() {
        let c = cfg(10.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&m(1e10, 8e10, 110.0), &mut a).unwrap(); // memory
        d.on_interval(&m(1e10, 8e10, 110.0), &mut a).unwrap(); // decrease
        d.on_interval(&m(1e10, 8e10, 110.0), &mut a).unwrap();
        assert!(a.cap_long() < Watts(125.0));
        assert!(a.uncore() < c.uncore_max);
        // Class flip → both reset.
        d.on_interval(&m(3e11, 5e10, 120.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Reset);
        assert_eq!(a.cap_long(), Watts(125.0));
        assert_eq!(a.uncore(), c.uncore_max);
    }

    #[test]
    fn coupling2_retries_uncore_reset_when_readback_lags() {
        let c = cfg(10.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&m(1e10, 8e10, 110.0), &mut a).unwrap();
        d.on_interval(&m(1e10, 8e10, 110.0), &mut a).unwrap();
        // Make the hardware report a lingering low uncore on read-back.
        a.uncore_readback_override = Some(Hertz::from_ghz(1.8));
        d.on_interval(&m(3e11, 5e10, 120.0), &mut a).unwrap(); // phase change
                                                               // The retry must have issued a second uncore reset.
        let resets = a.log.iter().filter(|l| *l == "uncore=reset").count();
        assert!(resets >= 2, "log: {:?}", a.log);
    }

    #[test]
    fn overshoot_resets_cap() {
        let c = cfg(10.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap(); // 120 W cap
        assert_eq!(a.cap_long(), Watts(120.0));
        // Measured power 126 W > 120 + 3 margin → §IV-D reset.
        d.on_interval(&mixed(1e11, 126.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Reset);
        assert_eq!(a.cap_long(), Watts(125.0));
    }

    #[test]
    fn post_reset_trims_short_term_constraint() {
        let c = cfg(10.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        d.on_interval(&mixed(1e11, 126.0), &mut a).unwrap(); // overshoot → reset
        assert_eq!(a.cap_short(), Watts(150.0));
        // Next interval: power (110) < PL1 (125) → short := long.
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        assert_eq!(a.cap_short(), Watts(125.0));
    }

    #[test]
    fn coupling1_raises_cap_when_uncore_increase_did_not_help() {
        let c = cfg(10.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        // Memory-ish phase so the uncore logic is in charge of bandwidth.
        let base = m(1e10, 8e10, 110.0);
        d.on_interval(&base, &mut a).unwrap();
        // Several decreases of both actuators.
        for _ in 0..3 {
            d.on_interval(&base, &mut a).unwrap();
        }
        let cap_before = a.cap_long();
        // Bandwidth dips 12 % → uncore logic increases (violation), cap
        // logic sees flops fine (within slowdown)… uncore raised.
        d.on_interval(&m(1e10, 7.0e10, 105.0), &mut a).unwrap();
        assert_eq!(d.last_uncore_action(), Action::Increased);
        // Next interval FLOPS did not improve → coupling 1 raises the cap.
        d.on_interval(&m(1e10, 7.0e10, 105.0), &mut a).unwrap();
        assert!(
            a.cap_long() > cap_before - Watts(5.1),
            "cap must move up (or reset), log: {:?}",
            a.log
        );
        assert!(matches!(
            d.last_cap_action(),
            Action::Increased | Action::Reset
        ));
    }

    #[test]
    fn cumulative_guard_freezes_descent_on_sustained_drain() {
        // Per-interval FLOPS sit inside the decrease region (8.5 % drop at
        // 10 % tolerance), so the vanilla controller caps all the way to
        // the floor. The guard sees the *cumulative* deficit cross 75 % of
        // the tolerance and backs off, leaving budget for slowdown the
        // counters cannot see (§V-G, LAMMPS).
        let mut c = cfg(10.0);
        c.cumulative_guard = true;
        let mut guarded = Dufp::new(c.clone());
        let mut a_guarded = MemActuators::new(c.clone());
        let vanilla_cfg = cfg(10.0);
        let mut vanilla = Dufp::new(vanilla_cfg.clone());
        let mut a_vanilla = MemActuators::new(vanilla_cfg);

        // Measured power (60 W) stays under every cap the controllers set,
        // so the §IV-D overshoot reset stays out of the picture.
        let mut stream = vec![1.0, 1.0];
        stream.extend(std::iter::repeat_n(0.915, 28));
        for d in stream {
            let m = mixed(1e11 * d, 60.0);
            guarded.on_interval(&m, &mut a_guarded).unwrap();
            vanilla.on_interval(&m, &mut a_vanilla).unwrap();
        }
        assert!(
            guarded.cumulative_deficit() > 0.075,
            "deficit {:.4}",
            guarded.cumulative_deficit()
        );
        assert_eq!(
            a_vanilla.cap_long(),
            Watts(65.0),
            "vanilla runs to the floor"
        );
        assert!(
            a_guarded.cap_long() > a_vanilla.cap_long() + Watts(10.0),
            "guarded cap {:?} must hold back",
            a_guarded.cap_long()
        );
    }

    #[test]
    fn at_boundary_holds_cap() {
        let c = cfg(5.0);
        let mut d = Dufp::new(c.clone());
        let mut a = MemActuators::new(c.clone());
        d.on_interval(&mixed(1e11, 110.0), &mut a).unwrap();
        // Exactly 5 % down: inside the ±1 % band → hold.
        d.on_interval(&mixed(0.95e11, 105.0), &mut a).unwrap();
        assert_eq!(d.last_cap_action(), Action::Hold);
        assert_eq!(a.cap_long(), Watts(125.0));
    }
}
