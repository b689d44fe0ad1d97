//! Actuator abstraction and the hardware implementation.

use crate::config::ControlConfig;
use dufp_msr::registers::{PerfCtl, UncoreRatioLimit, IA32_PERF_CTL, MSR_UNCORE_RATIO_LIMIT};
use dufp_msr::MsrIo;
use dufp_rapl::{Constraint, PowerCapper};
use dufp_types::{Hertz, Result, SocketId, Watts};
use serde::{Deserialize, Serialize};

/// The two knobs a controller can move on its socket.
///
/// Setters are *write-through*: they program the hardware and update the
/// cached view the getters return. `read_uncore` re-reads the register —
/// DUFP needs that for coupling 2 (§III): after a joint reset the applied
/// uncore frequency may still differ from the maximum because the cap's
/// effect lingers, and DUFP retries the reset when the read-back disagrees.
pub trait Actuators {
    /// Pins the uncore frequency (both band bounds) to `f`.
    fn set_uncore(&mut self, f: Hertz) -> Result<()>;

    /// Restores the default uncore band (hardware UFS active).
    fn reset_uncore(&mut self) -> Result<()>;

    /// The last uncore frequency this controller pinned; the band maximum
    /// if unpinned.
    fn uncore(&self) -> Hertz;

    /// Reads the uncore setting back from the hardware.
    fn read_uncore(&mut self) -> Result<Hertz>;

    /// Sets both RAPL constraints to `w` (DUFP's decrease path).
    fn set_cap_both(&mut self, w: Watts) -> Result<()>;

    /// Sets only the long-term constraint.
    fn set_cap_long(&mut self, w: Watts) -> Result<()>;

    /// Sets only the short-term constraint.
    fn set_cap_short(&mut self, w: Watts) -> Result<()>;

    /// Restores both constraints to their platform defaults.
    fn reset_cap(&mut self) -> Result<()>;

    /// Currently programmed long-term limit.
    fn cap_long(&self) -> Watts;

    /// Currently programmed short-term limit.
    fn cap_short(&self) -> Watts;

    /// Platform-default `(long_term, short_term)` limits.
    fn cap_defaults(&self) -> (Watts, Watts);

    /// Caps the core frequency directly via the P-state request
    /// (`IA32_PERF_CTL`) — the third knob, used by the DUFP-F extension
    /// (the paper's §VII future work).
    fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()>;

    /// Restores the P-state request to the architectural maximum.
    fn reset_core_freq_cap(&mut self) -> Result<()>;

    /// The currently requested core-frequency ceiling.
    fn core_freq_cap(&self) -> Hertz;
}

/// The register views [`HwActuators`] caches between writes: what its
/// getters return, and what a fresh instance cannot re-derive from the
/// registers alone, so checkpoints carry it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActuatorCache {
    /// Whether the controller considers the uncore band pinned.
    pub pinned: bool,
    /// The cached uncore frequency (pin target, or band maximum).
    pub uncore: Hertz,
    /// The cached long-term power limit.
    pub cap_long: Watts,
    /// The cached short-term power limit.
    pub cap_short: Watts,
    /// The last requested core-frequency ceiling.
    pub freq_cap: Hertz,
}

/// Hardware actuators for one socket: uncore via the MSR, cap via a
/// [`PowerCapper`].
pub struct HwActuators<M, C> {
    msr: M,
    capper: C,
    socket: SocketId,
    lead_cpu: usize,
    cfg: ControlConfig,
    cache: ActuatorCache,
    defaults: (Watts, Watts),
}

impl<M: MsrIo, C: PowerCapper> HwActuators<M, C> {
    /// Creates actuators for `socket`; `lead_cpu` is any CPU on that
    /// socket (MSR access point).
    pub fn new(
        msr: M,
        capper: C,
        socket: SocketId,
        lead_cpu: usize,
        cfg: ControlConfig,
    ) -> Result<Self> {
        let defaults = capper.defaults(socket)?;
        let cap_long = capper.limit(socket, Constraint::LongTerm)?;
        let cap_short = capper.limit(socket, Constraint::ShortTerm)?;
        let raw = UncoreRatioLimit::decode(msr.read(lead_cpu, MSR_UNCORE_RATIO_LIMIT)?);
        let cache = ActuatorCache {
            pinned: false,
            uncore: raw.band().1,
            cap_long,
            cap_short,
            freq_cap: cfg.core_freq_max,
        };
        Ok(HwActuators {
            defaults,
            msr,
            capper,
            socket,
            lead_cpu,
            cfg,
            cache,
        })
    }

    /// The socket these actuators drive.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// The cached register views (for checkpoints).
    pub fn cache(&self) -> ActuatorCache {
        self.cache
    }

    /// Restores the cached register views from a checkpoint. A fresh
    /// construction reads the *default* register state, not the state the
    /// checkpointed run had driven the hardware to, so every cached value
    /// a controller's getters can observe must come from the checkpoint.
    /// Platform defaults need no restore: they are invariant across the
    /// run.
    pub fn set_cache(&mut self, cache: ActuatorCache) {
        self.cache = cache;
    }
}

impl<M: MsrIo, C: PowerCapper> Actuators for HwActuators<M, C> {
    fn set_uncore(&mut self, f: Hertz) -> Result<()> {
        let f = Hertz(
            f.value()
                .clamp(self.cfg.uncore_min.value(), self.cfg.uncore_max.value()),
        );
        self.msr.write(
            self.lead_cpu,
            MSR_UNCORE_RATIO_LIMIT,
            UncoreRatioLimit::pinned(f).encode(),
        )?;
        self.cache.uncore = f;
        self.cache.pinned = true;
        Ok(())
    }

    fn reset_uncore(&mut self) -> Result<()> {
        let raw = UncoreRatioLimit {
            max_ratio: self.cfg.uncore_max.as_ratio_100mhz(),
            min_ratio: self.cfg.uncore_min.as_ratio_100mhz(),
        };
        self.msr
            .write(self.lead_cpu, MSR_UNCORE_RATIO_LIMIT, raw.encode())?;
        self.cache.uncore = self.cfg.uncore_max;
        self.cache.pinned = false;
        Ok(())
    }

    fn uncore(&self) -> Hertz {
        self.cache.uncore
    }

    fn read_uncore(&mut self) -> Result<Hertz> {
        let raw = UncoreRatioLimit::decode(self.msr.read(self.lead_cpu, MSR_UNCORE_RATIO_LIMIT)?);
        let (_, hi) = raw.band();
        self.cache.uncore = hi;
        Ok(hi)
    }

    fn set_cap_both(&mut self, w: Watts) -> Result<()> {
        let w = w.max(self.cfg.cap_floor);
        self.capper.set_both(self.socket, w)?;
        // Read back: a backend may clamp (e.g. a cluster budget ceiling).
        self.cache.cap_long = self.capper.limit(self.socket, Constraint::LongTerm)?;
        self.cache.cap_short = self.capper.limit(self.socket, Constraint::ShortTerm)?;
        Ok(())
    }

    fn set_cap_long(&mut self, w: Watts) -> Result<()> {
        self.capper
            .set_limit(self.socket, Constraint::LongTerm, w)?;
        self.cache.cap_long = self.capper.limit(self.socket, Constraint::LongTerm)?;
        Ok(())
    }

    fn set_cap_short(&mut self, w: Watts) -> Result<()> {
        self.capper
            .set_limit(self.socket, Constraint::ShortTerm, w)?;
        self.cache.cap_short = self.capper.limit(self.socket, Constraint::ShortTerm)?;
        Ok(())
    }

    fn reset_cap(&mut self) -> Result<()> {
        // Defaults may move under a cluster budget allocator; refresh them
        // on the reset path so "reset" always means the *current* defaults.
        self.defaults = self.capper.defaults(self.socket)?;
        self.capper.reset(self.socket)?;
        self.cache.cap_long = self.capper.limit(self.socket, Constraint::LongTerm)?;
        self.cache.cap_short = self.capper.limit(self.socket, Constraint::ShortTerm)?;
        Ok(())
    }

    fn cap_long(&self) -> Watts {
        self.cache.cap_long
    }

    fn cap_short(&self) -> Watts {
        self.cache.cap_short
    }

    fn cap_defaults(&self) -> (Watts, Watts) {
        self.defaults
    }

    fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()> {
        let f = Hertz(f.value().clamp(
            self.cfg.core_freq_min.value(),
            self.cfg.core_freq_max.value(),
        ));
        self.msr
            .write(self.lead_cpu, IA32_PERF_CTL, PerfCtl::capped_at(f).encode())?;
        self.cache.freq_cap = f;
        Ok(())
    }

    fn reset_core_freq_cap(&mut self) -> Result<()> {
        self.set_core_freq_cap(self.cfg.core_freq_max)
    }

    fn core_freq_cap(&self) -> Hertz {
        self.cache.freq_cap
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A pure in-memory actuator set recording every action, for unit
    /// tests of the controller state machines.
    #[derive(Debug, Clone)]
    pub struct MemActuators {
        pub cfg: ControlConfig,
        pub uncore_now: Hertz,
        pub hardware_uncore: Hertz,
        pub long: Watts,
        pub short: Watts,
        pub defaults: (Watts, Watts),
        pub freq_cap: Hertz,
        pub log: Vec<String>,
        /// When set, `read_uncore` reports this instead of the cached value
        /// (models the lingering-cap effect of coupling 2).
        pub uncore_readback_override: Option<Hertz>,
    }

    impl MemActuators {
        pub fn new(cfg: ControlConfig) -> Self {
            let defaults = (Watts(125.0), Watts(150.0));
            MemActuators {
                uncore_now: cfg.uncore_max,
                hardware_uncore: cfg.uncore_max,
                long: defaults.0,
                short: defaults.1,
                defaults,
                freq_cap: cfg.core_freq_max,
                cfg,
                log: Vec::new(),
                uncore_readback_override: None,
            }
        }
    }

    impl Actuators for MemActuators {
        fn set_uncore(&mut self, f: Hertz) -> Result<()> {
            self.uncore_now = f;
            self.hardware_uncore = f;
            self.log.push(format!("uncore={:.1}", f.as_ghz()));
            Ok(())
        }
        fn reset_uncore(&mut self) -> Result<()> {
            self.uncore_now = self.cfg.uncore_max;
            self.hardware_uncore = self.cfg.uncore_max;
            self.log.push("uncore=reset".into());
            Ok(())
        }
        fn uncore(&self) -> Hertz {
            self.uncore_now
        }
        fn read_uncore(&mut self) -> Result<Hertz> {
            let v = self
                .uncore_readback_override
                .unwrap_or(self.hardware_uncore);
            self.uncore_now = v;
            Ok(v)
        }
        fn set_cap_both(&mut self, w: Watts) -> Result<()> {
            let w = w.max(self.cfg.cap_floor);
            self.long = w;
            self.short = w;
            self.log.push(format!("cap_both={:.0}", w.value()));
            Ok(())
        }
        fn set_cap_long(&mut self, w: Watts) -> Result<()> {
            self.long = w;
            self.log.push(format!("cap_long={:.0}", w.value()));
            Ok(())
        }
        fn set_cap_short(&mut self, w: Watts) -> Result<()> {
            self.short = w;
            self.log.push(format!("cap_short={:.0}", w.value()));
            Ok(())
        }
        fn reset_cap(&mut self) -> Result<()> {
            self.long = self.defaults.0;
            self.short = self.defaults.1;
            self.log.push("cap=reset".into());
            Ok(())
        }
        fn cap_long(&self) -> Watts {
            self.long
        }
        fn cap_short(&self) -> Watts {
            self.short
        }
        fn cap_defaults(&self) -> (Watts, Watts) {
            self.defaults
        }
        fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()> {
            self.freq_cap = Hertz(f.value().clamp(
                self.cfg.core_freq_min.value(),
                self.cfg.core_freq_max.value(),
            ));
            self.log
                .push(format!("freq_cap={:.1}", self.freq_cap.as_ghz()));
            Ok(())
        }
        fn reset_core_freq_cap(&mut self) -> Result<()> {
            self.freq_cap = self.cfg.core_freq_max;
            self.log.push("freq_cap=reset".into());
            Ok(())
        }
        fn core_freq_cap(&self) -> Hertz {
            self.freq_cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_msr::registers::{
        PkgPowerLimit, RaplPowerUnit, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
        SKYLAKE_SP_POWER_UNIT_RAW,
    };
    use dufp_msr::FakeMsr;
    use dufp_rapl::MsrRapl;
    use dufp_types::{ArchSpec, Ratio, Seconds};
    use std::sync::Arc;

    fn rig() -> HwActuators<Arc<FakeMsr>, MsrRapl<Arc<FakeMsr>>> {
        let msr = Arc::new(FakeMsr::new(32));
        msr.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
        msr.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
        let arch = ArchSpec::yeti();
        let default_band = UncoreRatioLimit {
            max_ratio: arch.uncore_freq_max.as_ratio_100mhz(),
            min_ratio: arch.uncore_freq_min.as_ratio_100mhz(),
        };
        msr.seed(MSR_UNCORE_RATIO_LIMIT, default_band.encode());
        let capper = MsrRapl::new(Arc::clone(&msr), 2, 16).unwrap();
        let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(5.0)).unwrap();
        HwActuators::new(msr, capper, SocketId(1), 16, cfg).unwrap()
    }

    #[test]
    fn uncore_pin_writes_through_and_caches() {
        let mut a = rig();
        assert_eq!(a.uncore(), Hertz::from_ghz(2.4));
        a.set_uncore(Hertz::from_ghz(1.7)).unwrap();
        assert_eq!(a.uncore(), Hertz::from_ghz(1.7));
        assert_eq!(a.read_uncore().unwrap(), Hertz::from_ghz(1.7));
        a.reset_uncore().unwrap();
        assert_eq!(a.uncore(), Hertz::from_ghz(2.4));
    }

    #[test]
    fn uncore_pin_clamps_to_ladder_range() {
        let mut a = rig();
        a.set_uncore(Hertz::from_ghz(9.0)).unwrap();
        assert_eq!(a.uncore(), Hertz::from_ghz(2.4));
        a.set_uncore(Hertz::from_ghz(0.1)).unwrap();
        assert_eq!(a.uncore(), Hertz::from_ghz(1.2));
    }

    #[test]
    fn cap_both_floors_at_65w() {
        let mut a = rig();
        a.set_cap_both(Watts(40.0)).unwrap();
        assert_eq!(a.cap_long(), Watts(65.0));
        assert_eq!(a.cap_short(), Watts(65.0));
    }

    #[test]
    fn cap_reset_restores_defaults() {
        let mut a = rig();
        a.set_cap_both(Watts(90.0)).unwrap();
        a.reset_cap().unwrap();
        assert_eq!(a.cap_long(), Watts(125.0));
        assert_eq!(a.cap_short(), Watts(150.0));
        assert_eq!(a.cap_defaults(), (Watts(125.0), Watts(150.0)));
    }

    #[test]
    fn short_and_long_move_independently() {
        let mut a = rig();
        a.set_cap_long(Watts(110.0)).unwrap();
        a.set_cap_short(Watts(120.0)).unwrap();
        assert_eq!(a.cap_long(), Watts(110.0));
        assert_eq!(a.cap_short(), Watts(120.0));
    }
}
