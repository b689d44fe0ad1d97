//! Baseline controllers: the default configuration and static power caps.

use crate::actuators::Actuators;
use crate::state::{ControllerState, StaticCapState};
use crate::Controller;
use dufp_counters::IntervalMetrics;
use dufp_types::{Result, Seconds, Watts};

/// Leaves the platform exactly as it is — the "default" series in every
/// figure (performance governor, hardware UFS, PL1/PL2 at defaults).
#[derive(Debug, Default)]
pub struct NoOp;

impl Controller for NoOp {
    fn name(&self) -> &'static str {
        "default"
    }

    fn on_interval(&mut self, _m: &IntervalMetrics, _act: &mut dyn Actuators) -> Result<()> {
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::NoOp
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::NoOp => Ok(()),
            other => Err(other.mismatch("default")),
        }
    }
}

/// Applies a fixed power cap, either for the whole run or only inside a
/// time window — the §II-A motivation experiments (Fig. 1): whole-run
/// 110 W / 100 W caps, and the same caps applied only to CG's first,
/// highly-memory phase.
#[derive(Debug)]
pub struct StaticCap {
    cap: Watts,
    /// `(start, end)` — apply the cap only within this window; reset after.
    window: Option<(Seconds, Seconds)>,
    state: StaticCapState,
}

impl StaticCap {
    /// Caps the whole run at `cap` (both constraints).
    pub fn whole_run(cap: Watts) -> Self {
        StaticCap {
            cap,
            window: None,
            state: StaticCapState::default(),
        }
    }

    /// Caps only `[start, end)`; the cap resets at `end` ("after this phase
    /// completed, we just reset the power cap to the default value").
    pub fn windowed(cap: Watts, start: Seconds, end: Seconds) -> Self {
        StaticCap {
            cap,
            window: Some((start, end)),
            state: StaticCapState::default(),
        }
    }
}

impl Controller for StaticCap {
    fn name(&self) -> &'static str {
        "static-cap"
    }

    fn on_interval(&mut self, m: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()> {
        let s = &mut self.state;
        match self.window {
            None => {
                if !s.applied {
                    act.set_cap_both(self.cap)?;
                    s.applied = true;
                }
            }
            Some((start, end)) => {
                let t = m.at.as_seconds();
                if !s.applied && t >= start && t < end {
                    act.set_cap_both(self.cap)?;
                    s.applied = true;
                }
                if s.applied && !s.reset_done && t >= end {
                    act.reset_cap()?;
                    s.reset_done = true;
                }
            }
        }
        Ok(())
    }

    fn state(&self) -> ControllerState {
        ControllerState::StaticCap(self.state)
    }

    fn restore(&mut self, state: &ControllerState) -> Result<()> {
        match state {
            ControllerState::StaticCap(s) => self.state = *s,
            other => return Err(other.mismatch("static-cap")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuators::test_support::MemActuators;
    use crate::config::ControlConfig;
    use dufp_types::{ArchSpec, BytesPerSec, FlopsPerSec, Hertz, Instant, OpIntensity, Ratio};

    fn cfg() -> ControlConfig {
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(5.0)).unwrap()
    }

    fn at(seconds: f64) -> IntervalMetrics {
        IntervalMetrics {
            at: Instant((seconds * 1e6) as u64),
            interval: Seconds(0.2),
            flops: FlopsPerSec(1e10),
            bandwidth: BytesPerSec(1e10),
            oi: OpIntensity(1.0),
            pkg_power: Watts(100.0),
            dram_power: Watts(20.0),
            core_freq: Hertz::from_ghz(2.8),
        }
    }

    #[test]
    fn noop_touches_nothing() {
        let c = cfg();
        let mut a = MemActuators::new(c);
        NoOp.on_interval(&at(0.2), &mut a).unwrap();
        assert!(a.log.is_empty());
    }

    #[test]
    fn whole_run_cap_applies_once() {
        let c = cfg();
        let mut a = MemActuators::new(c);
        let mut s = StaticCap::whole_run(Watts(110.0));
        s.on_interval(&at(0.2), &mut a).unwrap();
        s.on_interval(&at(0.4), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(110.0));
        assert_eq!(a.cap_short(), Watts(110.0));
        assert_eq!(
            a.log.iter().filter(|l| l.starts_with("cap_both")).count(),
            1
        );
    }

    #[test]
    fn windowed_cap_applies_and_resets() {
        let c = cfg();
        let mut a = MemActuators::new(c);
        let mut s = StaticCap::windowed(Watts(100.0), Seconds(1.0), Seconds(3.0));
        s.on_interval(&at(0.2), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(125.0), "before window");
        s.on_interval(&at(1.2), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(100.0), "inside window");
        s.on_interval(&at(2.0), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(100.0));
        s.on_interval(&at(3.2), &mut a).unwrap();
        assert_eq!(a.cap_long(), Watts(125.0), "after window");
        assert_eq!(a.cap_short(), Watts(150.0));
    }

    #[test]
    fn every_controller_restores_its_own_state_and_refuses_another_kind() {
        let c = cfg();
        let mut a = MemActuators::new(c.clone());
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(NoOp),
            Box::new(StaticCap::whole_run(Watts(110.0))),
            Box::new(crate::Duf::new(c.clone())),
            Box::new(crate::Dufp::new(c.clone())),
            Box::new(crate::DufpF::new(c.clone())),
            Box::new(crate::Dnpc::new(c.clone())),
        ];
        for ctl in &mut controllers {
            for t in 1..6 {
                ctl.on_interval(&at(0.2 * f64::from(t)), &mut a).unwrap();
            }
        }
        let states: Vec<ControllerState> = controllers.iter().map(|c| c.state()).collect();
        for (i, ctl) in controllers.iter_mut().enumerate() {
            for (j, state) in states.iter().enumerate() {
                let restored = ctl.restore(state);
                if i == j {
                    restored.unwrap();
                    assert_eq!(&ctl.state(), state);
                } else {
                    let err = restored.unwrap_err().to_string();
                    let want = format!("cannot restore a {} snapshot into", state.kind());
                    assert!(err.contains(&want), "{err}");
                }
            }
        }
    }
}
