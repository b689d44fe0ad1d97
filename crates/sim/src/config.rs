//! Simulator configuration.

use crate::governor::Governor;
use dufp_model::{CapEnforcerParams, DramPowerModel, PowerModel};
use dufp_types::{ArchSpec, Duration, Error, Result};
use serde::{Deserialize, Serialize};

/// Measurement / execution noise configuration.
///
/// Three components, all multiplicative:
///
/// * a per-run factor (σ = `run_sigma`) — run-to-run variation, what the
///   paper's error bars show (< 2 % for most configurations, §V),
/// * a slowly-varying random walk (step σ = `walk_sigma`, reverting to 1),
/// * per-tick jitter (σ = `tick_sigma`) — averages out over a 200 ms
///   sampling interval but gives the controllers realistic measurement
///   wiggle, which the paper's "equivalent with respect to the considered
///   measurement error" branch must absorb.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Std-dev of the per-run performance/power factor.
    pub run_sigma: f64,
    /// Std-dev of each random-walk step (applied per tick, mean-reverting).
    pub walk_sigma: f64,
    /// Std-dev of independent per-tick jitter.
    pub tick_sigma: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            run_sigma: 0.004,
            walk_sigma: 0.0015,
            tick_sigma: 0.01,
        }
    }
}

impl NoiseConfig {
    /// Noise-free configuration, for exactness-sensitive tests.
    pub fn none() -> Self {
        NoiseConfig {
            run_sigma: 0.0,
            walk_sigma: 0.0,
            tick_sigma: 0.0,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Architecture being simulated (Table I values).
    pub arch: ArchSpec,
    /// Package power model.
    pub power: PowerModel,
    /// DRAM power model (per socket's NUMA node).
    pub dram: DramPowerModel,
    /// Bandwidth transfer function.
    pub bandwidth: dufp_model::BandwidthModel,
    /// RAPL enforcement dynamics.
    pub cap: CapEnforcerParams,
    /// Simulation tick.
    pub tick: Duration,
    /// Noise model.
    pub noise: NoiseConfig,
    /// Master seed; per-socket streams derive from it.
    pub seed: u64,
    /// CPU frequency governor (the paper uses the performance governor).
    #[serde(default)]
    pub governor: Governor,
}

impl SimConfig {
    /// The paper's platform: four Xeon Gold 6130 packages.
    pub fn yeti(seed: u64) -> Self {
        SimConfig {
            arch: ArchSpec::yeti(),
            power: PowerModel::xeon_gold_6130(),
            dram: DramPowerModel::ddr4_64gib(),
            bandwidth: dufp_model::BandwidthModel::xeon_gold_6130(),
            cap: CapEnforcerParams::default(),
            tick: Duration::from_millis(1),
            noise: NoiseConfig::default(),
            seed,
            governor: Governor::Performance,
        }
    }

    /// Single-socket YETI variant for fast unit tests.
    pub fn yeti_single_socket(seed: u64) -> Self {
        let mut c = Self::yeti(seed);
        c.arch.sockets = 1;
        c
    }

    /// Noise-free single-socket variant for exactness-sensitive tests.
    pub fn deterministic(seed: u64) -> Self {
        let mut c = Self::yeti_single_socket(seed);
        c.noise = NoiseConfig::none();
        c
    }

    /// Rejects machine descriptions the simulator cannot run — a zero
    /// tick period, zero sockets/cores, NaN or negative noise, inverted
    /// frequency ladders, a cap floor above PL1, a power model whose
    /// package power could fall as the core frequency rises or whose
    /// package or DRAM power could go negative — with a typed
    /// [`Error::InvalidValue`] naming the offending field. Called on every
    /// run and by anything deserializing a `--machine` file.
    pub fn validate(&self) -> Result<()> {
        if self.tick.as_micros() == 0 {
            return Err(Error::invalid("tick", "zero tick period"));
        }
        if self.arch.sockets == 0 {
            return Err(Error::invalid("sockets", "need at least one socket"));
        }
        if self.arch.cores_per_socket == 0 {
            return Err(Error::invalid(
                "cores_per_socket",
                "need at least one core per socket",
            ));
        }
        for (name, v) in [
            ("noise.run_sigma", self.noise.run_sigma),
            ("noise.walk_sigma", self.noise.walk_sigma),
            ("noise.tick_sigma", self.noise.tick_sigma),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid(
                    name,
                    format!("{v} must be finite and non-negative"),
                ));
            }
        }
        for (name, v) in [
            ("core_freq_min", self.arch.core_freq_min.value()),
            ("core_freq_max", self.arch.core_freq_max.value()),
            ("core_freq_step", self.arch.core_freq_step.value()),
            ("uncore_freq_min", self.arch.uncore_freq_min.value()),
            ("uncore_freq_max", self.arch.uncore_freq_max.value()),
            ("pl1_default", self.arch.pl1_default.value()),
            ("pl2_default", self.arch.pl2_default.value()),
            ("cap_step", self.arch.cap_step.value()),
            ("cap_floor", self.arch.cap_floor.value()),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(Error::invalid(
                    name,
                    format!("{v} must be finite and positive"),
                ));
            }
        }
        if self.arch.core_freq_min > self.arch.core_freq_max {
            return Err(Error::invalid(
                "core_freq_min",
                format!(
                    "{:.2} GHz above core_freq_max {:.2} GHz",
                    self.arch.core_freq_min.as_ghz(),
                    self.arch.core_freq_max.as_ghz()
                ),
            ));
        }
        if self.arch.uncore_freq_min > self.arch.uncore_freq_max {
            return Err(Error::invalid(
                "uncore_freq_min",
                format!(
                    "{:.2} GHz above uncore_freq_max {:.2} GHz",
                    self.arch.uncore_freq_min.as_ghz(),
                    self.arch.uncore_freq_max.as_ghz()
                ),
            ));
        }
        if self.arch.cap_floor > self.arch.pl1_default {
            return Err(Error::invalid(
                "cap_floor",
                format!(
                    "{:.0} W above the PL1 default {:.0} W",
                    self.arch.cap_floor.value(),
                    self.arch.pl1_default.value()
                ),
            ));
        }
        self.validate_power()
    }

    /// The power model's share of [`SimConfig::validate`]. Both V/f curves
    /// need finite fields and `vmin <= vmax` (`f64::clamp` panics
    /// otherwise). The core terms must keep package power non-decreasing
    /// in core frequency, which the cap→frequency inversion and its
    /// stability bounds rest on: a non-negative slope and rails, leakage,
    /// dynamic coefficient and activity floor. The frequency-independent
    /// terms (package base, uncore leakage, dynamic coefficient and
    /// activity floor, the DRAM model) must be finite and non-negative so
    /// no reported power goes below zero.
    fn validate_power(&self) -> Result<()> {
        let (core, uncore) = (&self.power.core_vf, &self.power.uncore_vf);
        for (name, v) in [
            ("power.core_vf.v0", core.v0),
            ("power.core_vf.slope_per_ghz", core.slope_per_ghz),
            ("power.core_vf.vmin", core.vmin),
            ("power.core_vf.vmax", core.vmax),
            ("power.uncore_vf.v0", uncore.v0),
            ("power.uncore_vf.slope_per_ghz", uncore.slope_per_ghz),
            ("power.uncore_vf.vmin", uncore.vmin),
            ("power.uncore_vf.vmax", uncore.vmax),
        ] {
            if !v.is_finite() {
                return Err(Error::invalid(name, format!("{v} must be finite")));
            }
        }
        for (name, curve) in [
            ("power.core_vf.vmin", core),
            ("power.uncore_vf.vmin", uncore),
        ] {
            if curve.vmin > curve.vmax {
                return Err(Error::invalid(
                    name,
                    format!("{} V above vmax {} V", curve.vmin, curve.vmax),
                ));
            }
        }
        for (name, v) in [
            ("power.base", self.power.base.value()),
            (
                "power.uncore_leak_per_volt",
                self.power.uncore_leak_per_volt,
            ),
            ("power.uncore_cdyn", self.power.uncore_cdyn),
            (
                "power.uncore_activity_floor",
                self.power.uncore_activity_floor,
            ),
            ("dram.background", self.dram.background.value()),
            ("dram.energy_per_byte", self.dram.energy_per_byte),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid(
                    name,
                    format!("{v} must be finite and non-negative"),
                ));
            }
        }
        for (name, v) in [
            ("power.core_vf.slope_per_ghz", core.slope_per_ghz),
            ("power.core_vf.vmin", core.vmin),
            ("power.core_leak_per_volt", self.power.core_leak_per_volt),
            ("power.core_cdyn", self.power.core_cdyn),
            ("power.core_activity_floor", self.power.core_activity_floor),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid(
                    name,
                    format!(
                        "{v} must be finite and non-negative \
                         (package power must not fall as the core frequency rises)"
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yeti_config_matches_table1() {
        let c = SimConfig::yeti(0);
        assert_eq!(c.arch.sockets, 4);
        assert_eq!(c.arch.total_cores(), 64);
        assert_eq!(c.tick, Duration::from_millis(1));
    }

    #[test]
    fn deterministic_config_has_no_noise() {
        let c = SimConfig::deterministic(0);
        assert_eq!(c.noise, NoiseConfig::none());
        assert_eq!(c.arch.sockets, 1);
    }

    #[test]
    fn default_configs_validate() {
        SimConfig::yeti(0).validate().unwrap();
        SimConfig::deterministic(0).validate().unwrap();
    }

    #[test]
    fn broken_configs_are_rejected_with_the_offending_field() {
        use dufp_types::{Hertz, Watts};
        let check = |mutate: &dyn Fn(&mut SimConfig), field: &str| {
            let mut c = SimConfig::yeti(0);
            mutate(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(field), "expected {field} in: {err}");
        };
        check(&|c| c.tick = Duration::ZERO, "tick");
        check(&|c| c.arch.sockets = 0, "socket");
        check(&|c| c.arch.cores_per_socket = 0, "core");
        check(&|c| c.noise.tick_sigma = f64::NAN, "tick_sigma");
        check(&|c| c.noise.run_sigma = -0.1, "run_sigma");
        check(&|c| c.arch.pl1_default = Watts(f64::NAN), "pl1_default");
        check(&|c| c.arch.cap_floor = Watts(-5.0), "cap_floor");
        check(&|c| c.arch.core_freq_step = Hertz::ZERO, "core_freq_step");
        check(&|c| c.arch.cap_floor = Watts(500.0), "cap_floor");
        check(
            &|c| c.arch.uncore_freq_min = Hertz::from_ghz(3.0),
            "uncore_freq_min",
        );
        check(
            &|c| c.arch.core_freq_max = Hertz::from_ghz(0.5),
            "core_freq_min",
        );
        // Power models the simulator cannot honour: an inverted rail pair
        // (a `clamp` panic), non-finite curve fields, and core terms that
        // would make package power fall as the core frequency rises.
        check(
            &|c| {
                c.power.core_vf.vmin = 1.2;
                c.power.core_vf.vmax = 0.6;
            },
            "power.core_vf.vmin",
        );
        check(&|c| c.power.uncore_vf.vmax = 0.5, "power.uncore_vf.vmin");
        check(&|c| c.power.core_vf.v0 = f64::NAN, "power.core_vf.v0");
        check(
            &|c| c.power.uncore_vf.slope_per_ghz = f64::INFINITY,
            "power.uncore_vf.slope_per_ghz",
        );
        check(
            &|c| c.power.uncore_vf.vmax = f64::NAN,
            "power.uncore_vf.vmax",
        );
        check(
            &|c| {
                c.power.core_vf.v0 = 1.6;
                c.power.core_vf.slope_per_ghz = -0.3;
                c.power.core_vf.vmin = 0.0;
                c.power.core_vf.vmax = 5.0;
            },
            "power.core_vf.slope_per_ghz",
        );
        check(&|c| c.power.core_vf.vmin = -0.1, "power.core_vf.vmin");
        check(
            &|c| c.power.core_leak_per_volt = -1.0,
            "power.core_leak_per_volt",
        );
        check(&|c| c.power.core_cdyn = -0.5, "power.core_cdyn");
        check(&|c| c.power.core_cdyn = f64::NAN, "power.core_cdyn");
        check(
            &|c| c.power.core_activity_floor = -0.2,
            "power.core_activity_floor",
        );
    }

    /// Asserts `validate` rejects the mutated YETI config as
    /// `invalid value for <field>`.
    fn rejects(mutate: impl Fn(&mut SimConfig), field: &str) {
        let mut c = SimConfig::yeti(0);
        mutate(&mut c);
        let err = c.validate().unwrap_err().to_string();
        assert!(
            err.starts_with(&format!("invalid value for {field}:")),
            "expected {field} in: {err}"
        );
    }

    #[test]
    fn negative_or_non_finite_power_base_is_rejected() {
        use dufp_types::Watts;
        rejects(|c| c.power.base = Watts(-200.0), "power.base");
        rejects(|c| c.power.base = Watts(f64::NAN), "power.base");
    }

    #[test]
    fn negative_or_non_finite_uncore_leakage_is_rejected() {
        rejects(
            |c| c.power.uncore_leak_per_volt = -1.0,
            "power.uncore_leak_per_volt",
        );
        rejects(
            |c| c.power.uncore_leak_per_volt = f64::INFINITY,
            "power.uncore_leak_per_volt",
        );
    }

    #[test]
    fn negative_or_non_finite_uncore_cdyn_is_rejected() {
        rejects(|c| c.power.uncore_cdyn = -50.0, "power.uncore_cdyn");
        rejects(|c| c.power.uncore_cdyn = f64::NAN, "power.uncore_cdyn");
    }

    #[test]
    fn negative_or_non_finite_uncore_activity_floor_is_rejected() {
        rejects(
            |c| c.power.uncore_activity_floor = -0.1,
            "power.uncore_activity_floor",
        );
        rejects(
            |c| c.power.uncore_activity_floor = f64::NEG_INFINITY,
            "power.uncore_activity_floor",
        );
    }

    #[test]
    fn negative_or_non_finite_dram_background_is_rejected() {
        use dufp_types::Watts;
        rejects(|c| c.dram.background = Watts(-15.0), "dram.background");
        rejects(|c| c.dram.background = Watts(f64::NAN), "dram.background");
    }

    #[test]
    fn negative_or_non_finite_dram_energy_per_byte_is_rejected() {
        rejects(|c| c.dram.energy_per_byte = -1e-10, "dram.energy_per_byte");
        rejects(
            |c| c.dram.energy_per_byte = f64::INFINITY,
            "dram.energy_per_byte",
        );
    }
}
