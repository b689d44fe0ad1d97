//! Integration of the hardware-access layers: MSR codecs ↔ backends ↔ the
//! RAPL zone API ↔ the simulator's register surface.

use dufp_control::{Actuators, ControlConfig, HwActuators};
use dufp_msr::registers::{
    PkgPowerLimit, RaplPowerUnit, UncoreRatioLimit, IA32_PERF_CTL, MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT, MSR_UNCORE_RATIO_LIMIT, SKYLAKE_SP_POWER_UNIT_RAW,
};
use dufp_msr::{FakeMsr, MsrIo};
use dufp_rapl::{Constraint, MsrRapl, PowerCapper, SysfsRapl};
use dufp_sim::{Machine, SimConfig};
use dufp_types::{ArchSpec, Hertz, Joules, Ratio, Result, Seconds, SocketId, Watts};
use std::sync::{Arc, Mutex};

fn seeded_fake() -> FakeMsr {
    let m = FakeMsr::new(32);
    m.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
    let units = RaplPowerUnit::skylake_sp();
    let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
    m.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
    m
}

#[test]
fn same_limits_read_identically_from_fake_and_simulator() {
    // The simulator's MSR surface and a seeded fake must be
    // indistinguishable to the RAPL layer.
    let fake_rapl = MsrRapl::new(seeded_fake(), 2, 16).unwrap();
    let sim = Arc::new(Machine::new(SimConfig::deterministic(1)));
    let sim_rapl = MsrRapl::new(Arc::clone(&sim), 1, 16).unwrap();

    for rapl in [&fake_rapl as &dyn PowerCapper, &sim_rapl] {
        assert_eq!(
            rapl.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(125.0)
        );
        assert_eq!(
            rapl.limit(SocketId(0), Constraint::ShortTerm).unwrap(),
            Watts(150.0)
        );
    }

    fake_rapl.set_both(SocketId(0), Watts(90.0)).unwrap();
    sim_rapl.set_both(SocketId(0), Watts(90.0)).unwrap();
    for rapl in [&fake_rapl as &dyn PowerCapper, &sim_rapl] {
        assert_eq!(
            rapl.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(90.0)
        );
    }
}

#[test]
fn sysfs_and_msr_backends_agree_through_the_trait() {
    let dir = std::env::temp_dir().join(format!("dufp-it-powercap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SysfsRapl::create_fixture(&dir, 1, Watts(125.0), Watts(150.0)).unwrap();
    let sysfs = SysfsRapl::open_at(&dir).unwrap();
    let msr = MsrRapl::new(seeded_fake(), 1, 16).unwrap();

    for capper in [&sysfs as &dyn PowerCapper, &msr] {
        capper.set_both(SocketId(0), Watts(100.0)).unwrap();
        assert_eq!(
            capper.limit(SocketId(0), Constraint::LongTerm).unwrap(),
            Watts(100.0)
        );
        capper.reset(SocketId(0)).unwrap();
        assert_eq!(
            capper.limit(SocketId(0), Constraint::ShortTerm).unwrap(),
            Watts(150.0)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn uncore_writes_through_machine_register_surface() {
    let sim = Arc::new(Machine::new(SimConfig::deterministic(2)));
    let pinned = UncoreRatioLimit::pinned(dufp_types::Hertz::from_ghz(1.6));
    sim.write(0, MSR_UNCORE_RATIO_LIMIT, pinned.encode())
        .unwrap();
    let back = UncoreRatioLimit::decode(sim.read(0, MSR_UNCORE_RATIO_LIMIT).unwrap());
    assert_eq!(back, pinned);
}

#[test]
fn energy_counter_flows_from_simulation_to_rapl_joules() {
    let sim = Arc::new(Machine::new(SimConfig::deterministic(3)));
    let ctx = dufp_workloads::MaterializeCtx::from_arch(&sim.config().arch);
    sim.load_all(&dufp_workloads::apps::ep(&ctx).unwrap());
    let rapl = MsrRapl::new(Arc::clone(&sim), 1, 16).unwrap();

    let e0 = rapl.package_energy(SocketId(0)).unwrap();
    assert_eq!(e0, Joules(0.0), "first reading primes the wrap tracker");
    let _ = rapl.dram_energy(SocketId(0)).unwrap(); // prime DRAM too
    for _ in 0..1000 {
        sim.tick();
    }
    let e1 = rapl.package_energy(SocketId(0)).unwrap();
    // 1 s of EP at ~120 W.
    assert!((80.0..160.0).contains(&e1.value()), "1s of EP gave {e1:?}");
    let d = rapl.dram_energy(SocketId(0)).unwrap();
    assert!(d.value() > 5.0, "DRAM energy {d:?}");
}

#[test]
fn msr_fault_surfaces_through_the_full_stack() {
    let fake = Arc::new(seeded_fake());
    let rapl = MsrRapl::new(Arc::clone(&fake), 2, 16).unwrap();
    fake.inject_plan(dufp_msr::FaultPlan::parse("write,reg=cap").unwrap());
    let err = rapl.set_both(SocketId(1), Watts(80.0)).unwrap_err();
    assert!(err.to_string().contains("0x610"), "{err}");
    fake.clear_faults();
    assert!(rapl.set_both(SocketId(1), Watts(80.0)).is_ok());
}

#[test]
fn dram_capping_is_rejected_like_the_paper_platform() {
    // §II-B: "memory power capping is not available on the processor that
    // we used".
    let sim = Machine::new(SimConfig::deterministic(4));
    let err = sim
        .write(0, dufp_msr::registers::MSR_DRAM_POWER_LIMIT, 0x1234)
        .unwrap_err();
    assert!(matches!(err, dufp_types::Error::Unsupported(_)));
}

/// One register access: `('R' | 'W', address)`.
type Access = (char, u32);

/// An [`MsrIo`] that logs every access before passing it on.
struct Recording<M> {
    inner: M,
    log: Mutex<Vec<Access>>,
}

impl<M> Recording<M> {
    /// The accesses since the last call.
    fn take(&self) -> Vec<Access> {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

impl<M: MsrIo> MsrIo for Recording<M> {
    fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        self.log.lock().unwrap().push(('R', address));
        self.inner.read(cpu, address)
    }
    fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()> {
        self.log.lock().unwrap().push(('W', address));
        self.inner.write(cpu, address, value)
    }
    fn cpu_count(&self) -> usize {
        self.inner.cpu_count()
    }
}

#[test]
fn each_actuator_call_makes_a_fixed_sequence_of_register_accesses() {
    // A probabilistic fault rule draws its RNG once per matching access,
    // so dropping a read-back or merging the two PL writes would shift
    // every later fault of a seeded chaos run. The sequences are pinned.
    const UNCORE: u32 = MSR_UNCORE_RATIO_LIMIT;
    let (r, w) = (('R', MSR_PKG_POWER_LIMIT), ('W', MSR_PKG_POWER_LIMIT));
    let msr = Arc::new(Recording {
        inner: seeded_fake(),
        log: Mutex::default(),
    });
    let rapl = MsrRapl::new(Arc::clone(&msr), 2, 16).unwrap();
    let cfg = ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(10.0)).unwrap();
    let mut hw = HwActuators::new(Arc::clone(&msr), rapl, SocketId(1), 16, cfg).unwrap();
    msr.take();

    hw.set_uncore(Hertz::from_ghz(1.8)).unwrap();
    assert_eq!(msr.take(), [('W', UNCORE)], "set_uncore");
    hw.read_uncore().unwrap();
    assert_eq!(msr.take(), [('R', UNCORE)], "read_uncore");
    hw.reset_uncore().unwrap();
    assert_eq!(msr.take(), [('W', UNCORE)], "reset_uncore");

    hw.set_cap_both(Watts(100.0)).unwrap();
    assert_eq!(msr.take(), [r, w, r, w, r, r], "set_cap_both");
    hw.set_cap_long(Watts(110.0)).unwrap();
    assert_eq!(msr.take(), [r, w, r], "set_cap_long");
    hw.set_cap_short(Watts(120.0)).unwrap();
    assert_eq!(msr.take(), [r, w, r], "set_cap_short");
    hw.reset_cap().unwrap();
    assert_eq!(msr.take(), [r, w, r, w, r, r], "reset_cap");

    hw.set_core_freq_cap(Hertz::from_ghz(1.6)).unwrap();
    assert_eq!(msr.take(), [('W', IA32_PERF_CTL)], "set_core_freq_cap");
    hw.reset_core_freq_cap().unwrap();
    assert_eq!(msr.take(), [('W', IA32_PERF_CTL)], "reset_core_freq_cap");
    assert_eq!(
        (hw.cap_long(), hw.cap_short()),
        (Watts(125.0), Watts(150.0))
    );
}
