//! MSR-backed RAPL capping.

use crate::capper::{Constraint, PowerCapper};
use dufp_msr::registers::{
    PkgPowerLimit, RaplPowerUnit, MSR_DRAM_ENERGY_STATUS, MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_INFO, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
};
use dufp_msr::MsrIo;
use dufp_types::{Joules, Result, Seconds, SocketId, Watts};
use parking_lot::Mutex;

/// Per-socket wrap-correction state for one energy counter.
#[derive(Debug, Clone, Copy, Default)]
struct EnergyTrack {
    last_raw: u64,
    accumulated: f64,
    primed: bool,
}

impl EnergyTrack {
    fn update(&mut self, raw: u64, unit: f64) -> Joules {
        if self.primed {
            let delta = if raw >= self.last_raw {
                raw - self.last_raw
            } else {
                raw + (1u64 << 32) - self.last_raw
            };
            self.accumulated += delta as f64 * unit;
        }
        self.last_raw = raw;
        self.primed = true;
        Joules(self.accumulated)
    }
}

/// RAPL capping through `MSR_PKG_POWER_LIMIT` on any [`MsrIo`] backend.
///
/// Reads the unit register once, tracks 32-bit energy counter wraps, and
/// preserves enable/clamp bits and time windows across limit writes —
/// exactly what the powercap library does via sysfs.
pub struct MsrRapl<M: MsrIo> {
    msr: M,
    cores_per_socket: usize,
    units: RaplPowerUnit,
    defaults: Vec<(Watts, Watts)>,
    pkg_track: Vec<Mutex<EnergyTrack>>,
    dram_track: Vec<Mutex<EnergyTrack>>,
}

impl<M: MsrIo> MsrRapl<M> {
    /// Opens the RAPL surface of `msr`, reading units and recording the
    /// boot-time limits as the defaults to reset to.
    pub fn new(msr: M, sockets: usize, cores_per_socket: usize) -> Result<Self> {
        let units = RaplPowerUnit::decode(msr.read(0, MSR_RAPL_POWER_UNIT)?);
        let mut defaults = Vec::with_capacity(sockets);
        for s in 0..sockets {
            let cpu = s * cores_per_socket;
            let raw = msr.read(cpu, MSR_PKG_POWER_LIMIT)?;
            let reg = PkgPowerLimit::decode(raw, &units);
            defaults.push((reg.pl1.power, reg.pl2.power));
        }
        Ok(MsrRapl {
            msr,
            cores_per_socket,
            units,
            defaults,
            pkg_track: (0..sockets)
                .map(|_| Mutex::new(EnergyTrack::default()))
                .collect(),
            dram_track: (0..sockets)
                .map(|_| Mutex::new(EnergyTrack::default()))
                .collect(),
        })
    }

    /// The decoded unit scaling factors.
    pub fn units(&self) -> RaplPowerUnit {
        self.units
    }

    /// TDP as reported by `MSR_PKG_POWER_INFO`.
    pub fn tdp(&self, socket: SocketId) -> Result<Watts> {
        let raw = self.msr.read(self.lead_cpu(socket), MSR_PKG_POWER_INFO)?;
        Ok(Watts((raw & 0x7FFF) as f64 * self.units.power_unit.value()))
    }

    fn lead_cpu(&self, socket: SocketId) -> usize {
        socket.as_usize() * self.cores_per_socket
    }

    fn read_reg(&self, socket: SocketId) -> Result<PkgPowerLimit> {
        let raw = self.msr.read(self.lead_cpu(socket), MSR_PKG_POWER_LIMIT)?;
        Ok(PkgPowerLimit::decode(raw, &self.units))
    }

    fn write_reg(&self, socket: SocketId, reg: &PkgPowerLimit) -> Result<()> {
        let raw = reg.encode(&self.units)?;
        self.msr
            .write(self.lead_cpu(socket), MSR_PKG_POWER_LIMIT, raw)
    }
}

impl<M: MsrIo> PowerCapper for MsrRapl<M> {
    fn set_limit(&self, socket: SocketId, which: Constraint, limit: Watts) -> Result<()> {
        let mut reg = self.read_reg(socket)?;
        let slot = match which {
            Constraint::LongTerm => &mut reg.pl1,
            Constraint::ShortTerm => &mut reg.pl2,
        };
        slot.power = limit;
        slot.enabled = true;
        if slot.window.value() <= 0.0 {
            slot.window = Seconds(0.01);
        }
        self.write_reg(socket, &reg)
    }

    fn limit(&self, socket: SocketId, which: Constraint) -> Result<Watts> {
        let reg = self.read_reg(socket)?;
        Ok(match which {
            Constraint::LongTerm => reg.pl1.power,
            Constraint::ShortTerm => reg.pl2.power,
        })
    }

    fn defaults(&self, socket: SocketId) -> Result<(Watts, Watts)> {
        self.defaults
            .get(socket.as_usize())
            .copied()
            .ok_or_else(|| dufp_types::Error::NoSuchComponent(socket.to_string()))
    }

    fn package_energy(&self, socket: SocketId) -> Result<Joules> {
        let raw = self
            .msr
            .read(self.lead_cpu(socket), MSR_PKG_ENERGY_STATUS)?;
        let track = self
            .pkg_track
            .get(socket.as_usize())
            .ok_or_else(|| dufp_types::Error::NoSuchComponent(socket.to_string()))?;
        Ok(track
            .lock()
            .update(raw & 0xFFFF_FFFF, self.units.energy_unit))
    }

    fn dram_energy(&self, socket: SocketId) -> Result<Joules> {
        let raw = self
            .msr
            .read(self.lead_cpu(socket), MSR_DRAM_ENERGY_STATUS)?;
        let track = self
            .dram_track
            .get(socket.as_usize())
            .ok_or_else(|| dufp_types::Error::NoSuchComponent(socket.to_string()))?;
        Ok(track
            .lock()
            .update(raw & 0xFFFF_FFFF, self.units.energy_unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_msr::registers::SKYLAKE_SP_POWER_UNIT_RAW;
    use dufp_msr::FakeMsr;

    fn fake() -> FakeMsr {
        let m = FakeMsr::new(32); // 2 sockets × 16 cores
        m.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
        m.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
        m.seed(MSR_PKG_POWER_INFO, 1000);
        m
    }

    #[test]
    fn captures_boot_defaults() {
        let r = MsrRapl::new(fake(), 2, 16).unwrap();
        assert_eq!(
            r.defaults(SocketId(0)).unwrap(),
            (Watts(125.0), Watts(150.0))
        );
        assert_eq!(r.tdp(SocketId(1)).unwrap(), Watts(125.0));
    }

    #[test]
    fn set_limit_touches_only_selected_constraint() {
        let r = MsrRapl::new(fake(), 2, 16).unwrap();
        r.set_limit(SocketId(0), Constraint::LongTerm, Watts(100.0))
            .unwrap();
        assert_eq!(
            r.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(100.0)
        );
        assert_eq!(
            r.limit(SocketId(0), Constraint::ShortTerm).unwrap(),
            Watts(150.0)
        );
        // Other socket untouched.
        assert_eq!(
            r.limit(SocketId(1), Constraint::LongTerm).unwrap(),
            Watts(125.0)
        );
    }

    #[test]
    fn set_both_then_reset_round_trips() {
        let r = MsrRapl::new(fake(), 2, 16).unwrap();
        r.set_both(SocketId(1), Watts(80.0)).unwrap();
        assert_eq!(
            r.limit(SocketId(1), Constraint::LongTerm).unwrap(),
            Watts(80.0)
        );
        assert_eq!(
            r.limit(SocketId(1), Constraint::ShortTerm).unwrap(),
            Watts(80.0)
        );
        r.reset(SocketId(1)).unwrap();
        assert_eq!(
            r.limit(SocketId(1), Constraint::LongTerm).unwrap(),
            Watts(125.0)
        );
        assert_eq!(
            r.limit(SocketId(1), Constraint::ShortTerm).unwrap(),
            Watts(150.0)
        );
    }

    #[test]
    fn energy_accumulates_and_survives_wrap() {
        let m = fake();
        let unit = RaplPowerUnit::skylake_sp().energy_unit;
        let near_wrap = (1u64 << 32) - 100;
        m.seed(MSR_PKG_ENERGY_STATUS, near_wrap);
        let r = MsrRapl::new(m, 2, 16).unwrap();
        let e0 = r.package_energy(SocketId(0)).unwrap();
        assert_eq!(e0, Joules(0.0), "first read primes");
        // Advance past the wrap: raw counter is now small again.
        r.msr.seed_cpu(0, MSR_PKG_ENERGY_STATUS, 400);
        let e1 = r.package_energy(SocketId(0)).unwrap();
        let expect = 500.0 * unit;
        assert!((e1.value() - expect).abs() < 1e-9, "{e1:?} vs {expect}");
    }

    #[test]
    fn double_wrap_across_a_long_gap_accumulates_both_wraps() {
        // The 32-bit counter wraps twice over a long run; as long as each
        // wrap is straddled by at least one read (at ~250 W a full lap of
        // the counter takes ≈ 260 s against a 200 ms sampling interval),
        // both laps land in the accumulator.
        let m = fake();
        let unit = RaplPowerUnit::skylake_sp().energy_unit;
        let near_wrap = (1u64 << 32) - 100;
        m.seed(MSR_PKG_ENERGY_STATUS, near_wrap);
        let r = MsrRapl::new(m, 2, 16).unwrap();
        assert_eq!(r.package_energy(SocketId(0)).unwrap(), Joules(0.0));

        // First wrap: 100 units up to the wrap, 400 past it.
        r.msr.seed_cpu(0, MSR_PKG_ENERGY_STATUS, 400);
        let e1 = r.package_energy(SocketId(0)).unwrap();
        // Long quiet stretch climbing back toward the wrap point...
        r.msr.seed_cpu(0, MSR_PKG_ENERGY_STATUS, near_wrap);
        let e2 = r.package_energy(SocketId(0)).unwrap();
        // ...then the second wrap: another 100 up to it, 300 past it.
        r.msr.seed_cpu(0, MSR_PKG_ENERGY_STATUS, 300);
        let e3 = r.package_energy(SocketId(0)).unwrap();

        let expect1 = 500.0 * unit;
        let expect2 = (near_wrap - 400) as f64 * unit + expect1;
        let expect3 = 400.0 * unit + expect2;
        assert!((e1.value() - expect1).abs() < 1e-9, "{e1:?} vs {expect1}");
        assert!((e2.value() - expect2).abs() < 1e-6, "{e2:?} vs {expect2}");
        assert!((e3.value() - expect3).abs() < 1e-6, "{e3:?} vs {expect3}");
        // Monotone despite the raw counter going backwards twice.
        assert!(e3 > e2 && e2 > e1);
    }

    #[test]
    fn wrap_state_is_tracked_per_counter_and_per_socket() {
        // A wrap on socket 0's package counter must not leak phantom
        // energy into its DRAM counter or into socket 1: each counter
        // carries its own EnergyTrack.
        let m = fake();
        let unit = RaplPowerUnit::skylake_sp().energy_unit;
        m.seed_cpu(0, MSR_PKG_ENERGY_STATUS, (1u64 << 32) - 50);
        m.seed_cpu(0, MSR_DRAM_ENERGY_STATUS, 1_000);
        m.seed_cpu(16, MSR_PKG_ENERGY_STATUS, 2_000);
        let r = MsrRapl::new(m, 2, 16).unwrap();
        // Prime all three counters.
        assert_eq!(r.package_energy(SocketId(0)).unwrap(), Joules(0.0));
        assert_eq!(r.dram_energy(SocketId(0)).unwrap(), Joules(0.0));
        assert_eq!(r.package_energy(SocketId(1)).unwrap(), Joules(0.0));

        // Socket 0's package counter wraps; the others advance modestly.
        r.msr.seed_cpu(0, MSR_PKG_ENERGY_STATUS, 150);
        r.msr.seed_cpu(0, MSR_DRAM_ENERGY_STATUS, 1_250);
        r.msr.seed_cpu(16, MSR_PKG_ENERGY_STATUS, 2_400);

        let pkg0 = r.package_energy(SocketId(0)).unwrap();
        let dram0 = r.dram_energy(SocketId(0)).unwrap();
        let pkg1 = r.package_energy(SocketId(1)).unwrap();
        assert!((pkg0.value() - 200.0 * unit).abs() < 1e-9, "{pkg0:?}");
        assert!((dram0.value() - 250.0 * unit).abs() < 1e-9, "{dram0:?}");
        assert!((pkg1.value() - 400.0 * unit).abs() < 1e-9, "{pkg1:?}");
    }

    #[test]
    fn msr_fault_propagates() {
        let m = fake();
        m.inject_plan(dufp_msr::FaultPlan::parse("write,reg=cap").unwrap());
        let r = MsrRapl::new(m, 2, 16).unwrap();
        assert!(r.set_both(SocketId(0), Watts(100.0)).is_err());
    }

    #[test]
    fn out_of_range_socket_errors() {
        let r = MsrRapl::new(fake(), 2, 16).unwrap();
        assert!(r.defaults(SocketId(5)).is_err());
        assert!(r.package_energy(SocketId(5)).is_err());
    }
}
