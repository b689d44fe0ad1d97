//! Controller configuration.

use dufp_types::check::{finite, fraction, positive};
use dufp_types::{ArchSpec, Duration, Error, Hertz, Ratio, Result, Watts};
use serde::{Deserialize, Serialize};

/// Everything a DUF/DUFP instance needs to know about limits and steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// User-defined tolerated slowdown, in `[0, 1)` (the paper evaluates
    /// 0 %, 5 %, 10 % and 20 %).
    pub slowdown: Ratio,
    /// Monitoring interval (200 ms in the paper, §IV-D).
    pub interval: Duration,
    /// Measurement-error band: FLOPS/s within `epsilon` of the slowdown
    /// boundary are "equivalent" and the actuators hold steady (§III).
    pub epsilon: Ratio,
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
    /// §IV-D: reset the cap when measured power exceeds the programmed cap
    /// by more than this margin (a freshly applied cap needs time to bite).
    pub overshoot_margin: Watts,
    /// Operational-intensity threshold below which a phase counts as
    /// *highly* memory-intensive (0.02).
    pub oi_highly_memory: f64,
    /// Operational-intensity threshold above which a phase counts as
    /// *highly* compute-intensive (100).
    pub oi_highly_compute: f64,
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
    /// programmed cap beyond [`ControlConfig::overshoot_margin`]. Disable
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
            epsilon: Ratio(0.01),
            core_freq_max: arch.core_freq_max,
            core_freq_min: arch.core_freq_min,
            core_freq_step: arch.core_freq_step,
            uncore_min: arch.uncore_freq_min,
            uncore_max: arch.uncore_freq_max,
            uncore_step: arch.uncore_freq_step,
            cap_step: arch.cap_step,
            cap_floor: arch.cap_floor,
            overshoot_margin: Watts(3.0),
            oi_highly_memory: 0.02,
            oi_highly_compute: 100.0,
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
    /// [`ControlConfig::from_arch`] and by anything deserializing a config
    /// from user input.
    pub fn validate(&self) -> Result<()> {
        fraction("slowdown", self.slowdown.value())?;
        fraction("epsilon", self.epsilon.value())?;
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
        finite("overshoot_margin", self.overshoot_margin.value())?;
        if self.overshoot_margin.value() < 0.0 {
            return Err(Error::invalid(
                "overshoot_margin",
                format!("{} W is negative", self.overshoot_margin.value()),
            ));
        }
        positive("oi_highly_memory", self.oi_highly_memory)?;
        positive("oi_highly_compute", self.oi_highly_compute)?;
        if self.oi_highly_memory >= self.oi_highly_compute {
            return Err(Error::invalid(
                "oi_highly_memory",
                format!(
                    "{} not below oi_highly_compute {}",
                    self.oi_highly_memory, self.oi_highly_compute
                ),
            ));
        }
        Ok(())
    }

    /// The FLOPS/s floor implied by the tolerated slowdown for a per-phase
    /// maximum of `max`.
    #[inline]
    pub fn performance_floor(&self, max: f64) -> f64 {
        max * (1.0 - self.slowdown.value())
    }

    /// Half-width of the "equivalent" hold band around the floor.
    #[inline]
    pub fn band(&self, max: f64) -> f64 {
        max * self.epsilon.value()
    }
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
        assert_eq!(c.oi_highly_memory, 0.02);
        assert_eq!(c.oi_highly_compute, 100.0);
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
        check(&|c| c.epsilon = Ratio(-0.01), "epsilon");
        check(&|c| c.interval = Duration::ZERO, "interval");
        check(&|c| c.core_freq_step = Hertz(0.0), "core_freq_step");
        check(&|c| c.uncore_min = Hertz::from_ghz(3.0), "uncore_min");
        check(&|c| c.uncore_max = Hertz(f64::INFINITY), "uncore_max");
        check(&|c| c.cap_step = Watts(-5.0), "cap_step");
        check(&|c| c.cap_floor = Watts(0.0), "cap_floor");
        check(&|c| c.overshoot_margin = Watts(-1.0), "overshoot_margin");
        check(&|c| c.oi_highly_memory = 200.0, "oi_highly_memory");
        check(&|c| c.oi_highly_compute = f64::NAN, "oi_highly_compute");
    }

    #[test]
    fn performance_floor_scales() {
        let c = ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(10.0)).unwrap();
        assert!((c.performance_floor(100.0) - 90.0).abs() < 1e-9);
        assert!((c.band(100.0) - 1.0).abs() < 1e-9);
    }
}
