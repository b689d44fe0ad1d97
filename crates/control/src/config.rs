//! Controller configuration, and the constants of the paper's algorithm.

use dufp_types::check::{fraction, positive};
use dufp_types::{ArchSpec, Duration, Error, Hertz, Ratio, Result, Watts};
use serde::{Deserialize, Serialize};

/// Measurement-error band ε: FLOPS/s within `EPSILON` of the slowdown
/// boundary are "equivalent" and the actuators hold steady (§III).
pub(crate) const EPSILON: f64 = 0.01;

/// §IV-D: reset the cap when measured power exceeds the programmed cap
/// by more than this margin (a freshly applied cap needs time to bite).
pub(crate) const OVERSHOOT_MARGIN: Watts = Watts(3.0);

/// Operational-intensity threshold below which a phase counts as
/// *highly* memory-intensive (§III).
pub(crate) const OI_HIGHLY_MEMORY: f64 = 0.02;

/// Operational-intensity threshold above which a phase counts as
/// *highly* compute-intensive (§III).
pub(crate) const OI_HIGHLY_COMPUTE: f64 = 100.0;

const _: () = assert!(0.0 < OI_HIGHLY_MEMORY && OI_HIGHLY_MEMORY < OI_HIGHLY_COMPUTE);

/// Everything a DUF/DUFP instance needs to know about limits and steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// User-defined tolerated slowdown, in `[0, 1)` (the paper evaluates
    /// 0 %, 5 %, 10 % and 20 %).
    pub slowdown: Ratio,
    /// Monitoring interval (200 ms in the paper, §IV-D).
    pub interval: Duration,
    /// Maximum (all-core turbo) core frequency; observing an average core
    /// frequency below it means RAPL is actively throttling.
    pub core_freq_max: Hertz,
    /// Lowest core P-state (DUFP-F's frequency floor).
    pub core_freq_min: Hertz,
    /// Core DVFS ladder step (100 MHz).
    pub core_freq_step: Hertz,
    /// Uncore ladder: lowest frequency.
    pub uncore_min: Hertz,
    /// Uncore ladder: highest frequency.
    pub uncore_max: Hertz,
    /// Uncore actuation step (100 MHz).
    pub uncore_step: Hertz,
    /// Cap actuation step (5 W).
    pub cap_step: Watts,
    /// Lowest cap DUFP applies (65 W, §IV-A).
    pub cap_floor: Watts,
    /// After a slowdown violation forced an actuator back up, wait this
    /// many intervals before probing below that level again. Prevents the
    /// controller from oscillating across the violation boundary every
    /// other interval (which would push the *average* slowdown past the
    /// tolerance). `0` disables the memory entirely (ablation).
    pub reprobe_intervals: u32,
    /// Enable coupling 1 (§III): raise the cap when an uncore increase did
    /// not restore FLOPS/s. Disable only for ablation studies.
    pub coupling1: bool,
    /// Enable coupling 2 (§III): after a joint reset, re-read the uncore
    /// and retry its reset if the lingering cap held it down. Disable only
    /// for ablation studies.
    pub coupling2: bool,
    /// Enable the §IV-D rule: reset the cap when measured power exceeds the
    /// programmed cap beyond `OVERSHOOT_MARGIN`. Disable
    /// only for ablation studies.
    pub overshoot_reset: bool,
    /// §V-G improvement (off by default — the paper's tool does not have
    /// it): guard *cumulative* progress as well as per-interval FLOPS/s.
    /// Slowdowns that hide below the per-interval tolerance but accumulate
    /// (LAMMPS' aliased power bursts) freeze cap decreases once the
    /// cumulative deficit reaches the tolerated slowdown.
    pub cumulative_guard: bool,
}

impl ControlConfig {
    /// The paper's configuration for `arch` at the given tolerated
    /// slowdown.
    pub fn from_arch(arch: &ArchSpec, slowdown: Ratio) -> Result<Self> {
        let cfg = Self::from_arch_unchecked(arch, slowdown);
        cfg.validate()?;
        Ok(cfg)
    }

    fn from_arch_unchecked(arch: &ArchSpec, slowdown: Ratio) -> Self {
        ControlConfig {
            slowdown,
            interval: Duration::from_millis(200),
            core_freq_max: arch.core_freq_max,
            core_freq_min: arch.core_freq_min,
            core_freq_step: arch.core_freq_step,
            uncore_min: arch.uncore_freq_min,
            uncore_max: arch.uncore_freq_max,
            uncore_step: arch.uncore_freq_step,
            cap_step: arch.cap_step,
            cap_floor: arch.cap_floor,
            reprobe_intervals: 25,
            coupling1: true,
            coupling2: true,
            overshoot_reset: true,
            cumulative_guard: false,
        }
    }

    /// Rejects configurations no controller can act on — NaN/negative
    /// magnitudes, inverted ladders, a zero monitoring interval — with a
    /// typed [`Error::InvalidValue`] naming the offending field. Called by
    /// [`ControlConfig::from_arch`], which builds every controller
    /// configuration from an architecture and a user-chosen slowdown.
    pub fn validate(&self) -> Result<()> {
        fraction("slowdown", self.slowdown.value())?;
        if self.interval.as_micros() == 0 {
            return Err(Error::invalid("interval", "zero monitoring interval"));
        }
        positive("core_freq_min", self.core_freq_min.value())?;
        positive("core_freq_max", self.core_freq_max.value())?;
        positive("core_freq_step", self.core_freq_step.value())?;
        if self.core_freq_min > self.core_freq_max {
            return Err(Error::invalid(
                "core_freq_min",
                format!(
                    "{:.2} GHz above core_freq_max {:.2} GHz",
                    self.core_freq_min.as_ghz(),
                    self.core_freq_max.as_ghz()
                ),
            ));
        }
        positive("uncore_min", self.uncore_min.value())?;
        positive("uncore_max", self.uncore_max.value())?;
        positive("uncore_step", self.uncore_step.value())?;
        if self.uncore_min > self.uncore_max {
            return Err(Error::invalid(
                "uncore_min",
                format!(
                    "{:.2} GHz above uncore_max {:.2} GHz",
                    self.uncore_min.as_ghz(),
                    self.uncore_max.as_ghz()
                ),
            ));
        }
        positive("cap_step", self.cap_step.value())?;
        positive("cap_floor", self.cap_floor.value())?;
        Ok(())
    }

    /// The tolerated slowdown the controllers act on: `slowdown`, or 0 %
    /// when it is at or below `EPSILON`. ε is the measurement error, so a
    /// tolerance inside it is no tolerance at all; read literally, its hold
    /// band `[s − ε, s]` would reach down to zero and a zero drop would
    /// hold forever, so the controller would never step down.
    pub(crate) fn tolerance(&self) -> f64 {
        let s = self.slowdown.value();
        if s > EPSILON {
            s
        } else {
            0.0
        }
    }

    /// Sorts a relative performance drop against the tolerance `s` (DESIGN
    /// §6 item 1): above `s` is a violation, `[s − ε, s]` is equivalent to
    /// the slowdown within measurement error, anything less is within. At
    /// 0 % the ε band itself is the violation threshold and nothing holds.
    pub fn split(&self, drop: f64) -> Split {
        let s = self.tolerance();
        self.split_over(drop, if s > 0.0 { s } else { EPSILON })
    }

    /// [`ControlConfig::split`] with the violation threshold at
    /// `violated_above` instead of `s`; the hold band still starts at
    /// `s − ε`. DNPC's degradation model violates above `s + ε`.
    pub(crate) fn split_over(&self, drop: f64, violated_above: f64) -> Split {
        let s = self.tolerance();
        if drop > violated_above {
            Split::Violated
        } else if s > 0.0 && drop >= s - EPSILON {
            Split::AtBoundary
        } else {
            Split::Within
        }
    }
}

/// Where a relative performance drop falls against the tolerated slowdown
/// ([`ControlConfig::split`]). Ordered by severity, so the worse of two
/// drops is the `max` of their splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Split {
    /// Comfortably inside the tolerance: keep stepping down.
    Within,
    /// Equivalent to the tolerance within measurement error: hold.
    AtBoundary,
    /// Dropped by more than the tolerance: step back up.
    Violated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yeti_defaults_match_paper() {
        let c = ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(5.0)).unwrap();
        assert_eq!(c.interval, Duration::from_millis(200));
        assert_eq!(c.cap_step, Watts(5.0));
        assert_eq!(c.cap_floor, Watts(65.0));
        assert_eq!(c.uncore_step, Hertz::from_mhz(100.0));
        assert_eq!(EPSILON, 0.01);
        assert_eq!(OVERSHOOT_MARGIN, Watts(3.0));
        assert_eq!(OI_HIGHLY_MEMORY, 0.02);
        assert_eq!(OI_HIGHLY_COMPUTE, 100.0);
    }

    #[test]
    fn slowdown_must_be_a_fraction() {
        assert!(ControlConfig::from_arch(&ArchSpec::yeti(), Ratio(1.0)).is_err());
        assert!(ControlConfig::from_arch(&ArchSpec::yeti(), Ratio(-0.1)).is_err());
        assert!(ControlConfig::from_arch(&ArchSpec::yeti(), Ratio(0.0)).is_ok());
    }

    #[test]
    fn broken_configs_are_rejected_with_the_offending_field() {
        let base = ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(5.0)).unwrap();
        let check = |mutate: &dyn Fn(&mut ControlConfig), field: &str| {
            let mut c = base.clone();
            mutate(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(field), "expected {field} in: {err}");
        };
        check(&|c| c.slowdown = Ratio(f64::NAN), "slowdown");
        check(&|c| c.slowdown = Ratio(1.5), "slowdown");
        check(&|c| c.interval = Duration::ZERO, "interval");
        check(&|c| c.core_freq_step = Hertz(0.0), "core_freq_step");
        check(&|c| c.uncore_min = Hertz::from_ghz(3.0), "uncore_min");
        check(&|c| c.uncore_max = Hertz(f64::INFINITY), "uncore_max");
        check(&|c| c.cap_step = Watts(-5.0), "cap_step");
        check(&|c| c.cap_floor = Watts(0.0), "cap_floor");
    }

    #[test]
    fn split_edges() {
        let at = |pct: f64| {
            ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(pct)).unwrap()
        };
        // s = 0: ε is the violation threshold, nothing holds.
        let c = at(0.0);
        assert_eq!(c.split(0.0), Split::Within);
        assert_eq!(c.split(0.01), Split::Within);
        assert_eq!(c.split(0.0101), Split::Violated);
        // s = ε reads as 0 %: a zero drop steps down instead of holding.
        let c = at(1.0);
        assert_eq!(c.tolerance(), 0.0);
        assert_eq!(c.split(0.0), Split::Within);
        assert_eq!(c.split(0.0101), Split::Violated);
        assert_eq!(at(0.5).split(0.0), Split::Within);
        // s = 10 %: the hold band is [s − ε, s], closed at both ends.
        let c = at(10.0);
        let (s, e) = (c.slowdown.value(), EPSILON);
        assert_eq!(c.split(s - e - 1e-6), Split::Within);
        assert_eq!(c.split(s - e), Split::AtBoundary);
        assert_eq!(c.split(s), Split::AtBoundary);
        assert_eq!(c.split(s + 1e-6), Split::Violated);
        // DNPC's model moves the violation edge to s + ε.
        assert_eq!(c.split_over(s + e / 2.0, s + e), Split::AtBoundary);
        assert_eq!(c.split_over(s + e + 1e-6, s + e), Split::Violated);
    }
}
