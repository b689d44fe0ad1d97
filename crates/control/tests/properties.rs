//! Property tests for the controller state machines: arbitrary metric
//! streams must never drive the actuators outside their legal ranges, and
//! the actuator caches must always agree with the hardware registers.

use dufp_control::{
    Actuators, ControlConfig, Controller, Dnpc, Duf, Dufp, DufpF, ResilientActuators,
    SafeStateGuard,
};
use dufp_counters::IntervalMetrics;
use dufp_msr::registers::{
    PkgPowerLimit, RaplPowerUnit, UncoreRatioLimit, MSR_PKG_POWER_LIMIT, MSR_RAPL_POWER_UNIT,
    MSR_UNCORE_RATIO_LIMIT, SKYLAKE_SP_POWER_UNIT_RAW,
};
use dufp_msr::{FakeMsr, FaultOp, FaultPlan, FaultRule, FaultWhen, MsrIo};
use dufp_rapl::{Constraint, MsrRapl, PowerCapper};
use dufp_types::{
    ArchSpec, BytesPerSec, FlopsPerSec, Hertz, Instant, OpIntensity, Ratio, Seconds, SocketId,
    Watts,
};
use proptest::prelude::*;
use std::sync::Arc;

type Rig = (
    Arc<FakeMsr>,
    ControlConfig,
    dufp_control::HwActuators<Arc<FakeMsr>, MsrRapl<Arc<FakeMsr>>>,
);

fn rig(slowdown_pct: f64) -> Rig {
    let msr = Arc::new(FakeMsr::new(16));
    msr.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
    let units = RaplPowerUnit::skylake_sp();
    let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
    msr.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
    let arch = ArchSpec::yeti();
    let band = UncoreRatioLimit {
        max_ratio: arch.uncore_freq_max.as_ratio_100mhz(),
        min_ratio: arch.uncore_freq_min.as_ratio_100mhz(),
    };
    msr.seed(MSR_UNCORE_RATIO_LIMIT, band.encode());
    let capper = MsrRapl::new(Arc::clone(&msr), 1, 16).unwrap();
    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(slowdown_pct)).unwrap();
    let act = dufp_control::HwActuators::new(Arc::clone(&msr), capper, SocketId(0), 0, cfg.clone())
        .unwrap();
    (msr, cfg, act)
}

/// Arbitrary-but-plausible interval metrics.
fn arb_metrics() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        0.0f64..1e12,   // flops/s
        1.0f64..1.2e11, // bytes/s
        30.0f64..160.0, // pkg power W
        1.0f64..2.8,    // core freq GHz
    )
}

fn metrics(t: u64, flops: f64, bw: f64, power: f64, freq: f64) -> IntervalMetrics {
    IntervalMetrics {
        at: Instant(t * 200_000),
        interval: Seconds(0.2),
        flops: FlopsPerSec(flops),
        bandwidth: BytesPerSec(bw),
        oi: OpIntensity(if bw > 0.0 { flops / bw } else { f64::INFINITY }),
        pkg_power: Watts(power),
        dram_power: Watts(20.0),
        core_freq: Hertz::from_ghz(freq),
    }
}

fn check_invariants(
    cfg: &ControlConfig,
    act: &dufp_control::HwActuators<Arc<FakeMsr>, MsrRapl<Arc<FakeMsr>>>,
    msr: &FakeMsr,
) {
    // Cached views stay in legal ranges.
    assert!(act.uncore() >= cfg.uncore_min && act.uncore() <= cfg.uncore_max);
    assert!(act.cap_long() >= cfg.cap_floor);
    assert!(act.cap_short() >= act.cap_long());
    assert!(act.core_freq_cap() >= cfg.core_freq_min);
    assert!(act.core_freq_cap() <= cfg.core_freq_max);

    // Cache coherence: the hardware registers agree with the cached view.
    let units = RaplPowerUnit::skylake_sp();
    let raw = msr.read(0, MSR_PKG_POWER_LIMIT).unwrap();
    let reg = PkgPowerLimit::decode(raw, &units);
    assert!(
        (reg.pl1.power.value() - act.cap_long().value()).abs() < 0.25,
        "PL1 register {:?} vs cache {:?}",
        reg.pl1.power,
        act.cap_long()
    );
    assert!(
        (reg.pl2.power.value() - act.cap_short().value()).abs() < 0.25,
        "PL2 register {:?} vs cache {:?}",
        reg.pl2.power,
        act.cap_short()
    );
}

macro_rules! fuzz_controller {
    ($name:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn $name(
                slowdown in prop::sample::select(vec![0.0, 5.0, 10.0, 20.0]),
                stream in prop::collection::vec(arb_metrics(), 1..120),
            ) {
                let (msr, cfg, mut act) = rig(slowdown);
                let mut controller = $make(cfg.clone());
                for (t, (flops, bw, power, freq)) in stream.into_iter().enumerate() {
                    controller
                        .on_interval(&metrics(t as u64, flops, bw, power, freq), &mut act)
                        .unwrap();
                    check_invariants(&cfg, &act, &msr);
                }
            }
        }
    };
}

fuzz_controller!(duf_survives_arbitrary_metric_streams, Duf::new);
fuzz_controller!(dufp_survives_arbitrary_metric_streams, Dufp::new);
fuzz_controller!(dufpf_survives_arbitrary_metric_streams, DufpF::new);
fuzz_controller!(dnpc_survives_arbitrary_metric_streams, Dnpc::new);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A `SlowdownViolation` decision event is a claim that measured
    /// FLOPS/s fell below `(1 - slowdown)` of the running per-phase
    /// maximum — the emitted `flops_ratio` must back it up. The phase
    /// tracker observes the interval *before* the controller decides, so
    /// the ratio and the decision share the same maximum and the bound is
    /// exact (modulo float rounding).
    #[test]
    fn slowdown_violation_events_imply_flops_below_budget(
        slowdown in prop::sample::select(vec![5.0, 10.0, 20.0]),
        stream in prop::collection::vec(arb_metrics(), 1..120),
    ) {
        use dufp_telemetry::{Reason, SocketTelemetry, Telemetry};
        let budget = 1.0 - slowdown / 100.0;
        type Make = fn(ControlConfig, SocketTelemetry) -> Box<dyn Controller>;
        let makes: [Make; 3] = [
            |cfg, t| Box::new(Duf::new(cfg).with_telemetry(t)),
            |cfg, t| Box::new(Dufp::new(cfg).with_telemetry(t)),
            |cfg, t| Box::new(DufpF::new(cfg).with_telemetry(t)),
        ];
        for make in makes {
            let tel = Telemetry::new(8192);
            let (_msr, cfg, mut act) = rig(slowdown);
            let mut controller = make(cfg, tel.for_socket(0));
            for (t, &(flops, bw, power, freq)) in stream.iter().enumerate() {
                controller
                    .on_interval(&metrics(t as u64, flops, bw, power, freq), &mut act)
                    .unwrap();
            }
            for e in tel.drain_events() {
                if e.reason == Reason::SlowdownViolation {
                    let ratio = e
                        .flops_ratio
                        .expect("slowdown violations must carry a flops ratio");
                    prop_assert!(
                        ratio < budget + 1e-9,
                        "{}: flops ratio {ratio} does not violate the {budget} budget (tick {})",
                        controller.name(),
                        e.tick
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NaN/∞-poisoned metrics must not wedge the controllers or break the
    /// actuator invariants (a dead PAPI counter reads as zero or garbage).
    #[test]
    fn dufp_tolerates_degenerate_metrics(
        poison_idx in 0usize..20,
        kind in 0u8..4,
    ) {
        let (msr, cfg, mut act) = rig(10.0);
        let mut controller = Dufp::new(cfg.clone());
        for t in 0..20u64 {
            let m = if t as usize == poison_idx {
                match kind {
                    0 => metrics(t, 0.0, 0.0, 0.0, 1.0),
                    1 => metrics(t, f64::INFINITY, 1.0, 100.0, 2.8),
                    2 => metrics(t, 1e11, 0.0, 100.0, 2.8), // oi = inf
                    _ => metrics(t, 0.0, 1e11, 160.0, 1.0),
                }
            } else {
                metrics(t, 1e11, 5e10, 100.0, 2.8)
            };
            controller.on_interval(&m, &mut act).unwrap();
            check_invariants(&cfg, &act, &msr);
        }
    }
}

/// Arbitrary fault rules against the cap and uncore registers: random
/// probabilistic noise, one-shot faults and bursts, on reads and writes.
/// (The vendored proptest shim has no `prop_map`, so rules are drawn as
/// raw selector tuples and decoded here.)
type RuleTuple = (u8, u8, u8, f64, u64, u64);

fn arb_fault_rule() -> impl Strategy<Value = RuleTuple> {
    (
        0u8..3,       // op selector
        0u8..3,       // register selector
        0u8..3,       // schedule selector
        0.0f64..0.25, // probability
        0u64..40,     // window start / one-shot index
        1u64..25,     // window length
    )
}

fn decode_rule((op, reg, when, p, from, count): RuleTuple) -> FaultRule {
    FaultRule {
        op: match op {
            0 => FaultOp::Read,
            1 => FaultOp::Write,
            _ => FaultOp::Any,
        },
        register: match reg {
            0 => None,
            1 => Some(MSR_PKG_POWER_LIMIT),
            _ => Some(MSR_UNCORE_RATIO_LIMIT),
        },
        cpus: None,
        when: match when {
            0 => FaultWhen::Probability { p },
            1 => FaultWhen::At { at: from },
            _ => FaultWhen::Window { from, count },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline resilience property: under *any* fault plan, a DUFP
    /// run through the retry/degrade wrapper (a) never rests the power cap
    /// below the floor — degraded or not — and (b) leaves the register
    /// file at platform defaults once the safe-state guard lets go.
    #[test]
    fn any_fault_plan_leaves_defaults_restored_and_floor_respected(
        seed in 0u64..1_000,
        rules in prop::collection::vec(arb_fault_rule(), 0..4),
        stream in prop::collection::vec(arb_metrics(), 1..60),
    ) {
        let (msr, cfg, act) = rig(10.0);
        let resilient = ResilientActuators::new(act, cfg.cap_floor);
        let mut guard = SafeStateGuard::new(resilient);
        let mut controller = Dufp::new(cfg.clone());
        let rules = rules.into_iter().map(decode_rule).collect();
        msr.inject_plan(FaultPlan { seed, rules });
        for (t, (flops, bw, power, freq)) in stream.into_iter().enumerate() {
            controller
                .on_interval(&metrics(t as u64, flops, bw, power, freq), &mut *guard)
                .unwrap();
            // Injected faults are transient/persistent, never fatal: the
            // run keeps going and the resting cap honors the floor.
            prop_assert!(
                guard.cap_long() >= cfg.cap_floor,
                "cap {:?} rests below floor {:?} (degradation {:?})",
                guard.cap_long(),
                cfg.cap_floor,
                guard.degradation()
            );
        }
        // The fault plan ends with the workload (a chaos plan models the
        // run, not the teardown); the guard must then restore defaults
        // even if knobs were degraded mid-run.
        msr.clear_faults();
        drop(guard.restore_now());

        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit::decode(msr.read(0, MSR_PKG_POWER_LIMIT).unwrap(), &units);
        prop_assert!((reg.pl1.power.value() - 125.0).abs() < 0.25, "PL1 {:?}", reg.pl1.power);
        prop_assert!((reg.pl2.power.value() - 150.0).abs() < 0.25, "PL2 {:?}", reg.pl2.power);
        let arch = ArchSpec::yeti();
        let band = UncoreRatioLimit::decode(msr.read(0, MSR_UNCORE_RATIO_LIMIT).unwrap());
        prop_assert_eq!(band.max_ratio, arch.uncore_freq_max.as_ratio_100mhz());
        prop_assert_eq!(band.min_ratio, arch.uncore_freq_min.as_ratio_100mhz());
    }
}

#[test]
fn mid_run_msr_fault_surfaces_as_a_clean_error() {
    // A dying MSR device must produce an error, not a panic or a wedged
    // state; after the fault clears the controller keeps working.
    let (msr, cfg, mut act) = rig(10.0);
    let mut controller = Dufp::new(cfg.clone());
    controller
        .on_interval(&metrics(0, 1e11, 5e10, 100.0, 2.8), &mut act)
        .unwrap();
    msr.inject_plan(dufp_msr::FaultPlan::parse("write,reg=cap").unwrap());
    let err = controller
        .on_interval(&metrics(1, 1e11, 5e10, 100.0, 2.8), &mut act)
        .unwrap_err();
    assert!(err.to_string().contains("0x610"), "{err}");
    msr.clear_faults();
    controller
        .on_interval(&metrics(2, 1e11, 5e10, 100.0, 2.8), &mut act)
        .unwrap();
    check_invariants(&cfg, &act, &msr);
}

#[test]
fn cap_writes_are_visible_in_the_register_file() {
    let (msr, cfg, mut act) = rig(10.0);
    let mut controller = Dufp::new(cfg);
    // Two steady intervals: prime then decrease → 120 W in the register.
    controller
        .on_interval(&metrics(0, 1e11, 5e10, 100.0, 2.8), &mut act)
        .unwrap();
    controller
        .on_interval(&metrics(1, 1e11, 5e10, 100.0, 2.8), &mut act)
        .unwrap();
    let units = RaplPowerUnit::skylake_sp();
    let reg = PkgPowerLimit::decode(msr.read(0, MSR_PKG_POWER_LIMIT).unwrap(), &units);
    assert_eq!(reg.pl1.power, Watts(120.0));
    assert_eq!(reg.pl2.power, Watts(120.0));
}

#[test]
fn actuator_cache_follows_external_clamping() {
    // A capper that clamps (like the cluster budget wrapper) must stay
    // coherent with the cached view thanks to the read-back writes.
    struct Clamping<C>(C);
    impl<C: PowerCapper> PowerCapper for Clamping<C> {
        fn set_limit(&self, s: SocketId, w: Constraint, l: Watts) -> dufp_types::Result<()> {
            self.0.set_limit(s, w, l.min(Watts(100.0)))
        }
        fn limit(&self, s: SocketId, w: Constraint) -> dufp_types::Result<Watts> {
            self.0.limit(s, w)
        }
        fn defaults(&self, s: SocketId) -> dufp_types::Result<(Watts, Watts)> {
            let (a, b) = self.0.defaults(s)?;
            Ok((a.min(Watts(100.0)), b.min(Watts(100.0))))
        }
        fn package_energy(&self, s: SocketId) -> dufp_types::Result<dufp_types::Joules> {
            self.0.package_energy(s)
        }
        fn dram_energy(&self, s: SocketId) -> dufp_types::Result<dufp_types::Joules> {
            self.0.dram_energy(s)
        }
    }

    let msr = Arc::new(FakeMsr::new(16));
    msr.seed(MSR_RAPL_POWER_UNIT, SKYLAKE_SP_POWER_UNIT_RAW);
    let units = RaplPowerUnit::skylake_sp();
    let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
    msr.seed(MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap());
    let arch = ArchSpec::yeti();
    let capper = Clamping(MsrRapl::new(Arc::clone(&msr), 1, 16).unwrap());
    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(10.0)).unwrap();
    let mut act =
        dufp_control::HwActuators::new(Arc::clone(&msr), capper, SocketId(0), 0, cfg).unwrap();

    act.set_cap_both(Watts(115.0)).unwrap();
    assert_eq!(act.cap_long(), Watts(100.0), "cache reflects the clamp");
    act.reset_cap().unwrap();
    assert_eq!(
        act.cap_long(),
        Watts(100.0),
        "reset lands on the clamped default"
    );
}
