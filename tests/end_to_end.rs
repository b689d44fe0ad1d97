//! End-to-end integration: the full public API from workload to report.

use dufp::prelude::*;
use dufp::{ratios_vs_default, run_once, run_repeated, ControllerKind, ExperimentSpec, TraceSpec};

fn spec(app: &str, controller: ControllerKind) -> ExperimentSpec {
    ExperimentSpec {
        sim: SimConfig::yeti_single_socket(1),
        app: app.into(),
        controller,
        trace: None,
        interval_ms: None,
        telemetry: false,
        fault_plan: None,
        engine: Default::default(),
    }
}

#[test]
fn dufp_run_is_deterministic_in_seed() {
    let s = spec(
        "CG",
        ControllerKind::Dufp {
            slowdown: Ratio::from_percent(10.0),
        },
    );
    let a = run_once(&s, 99).unwrap();
    let b = run_once(&s, 99).unwrap();
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.pkg_energy, b.pkg_energy);
    assert_eq!(a.dram_energy, b.dram_energy);
}

#[test]
fn different_seeds_vary_within_error_bars() {
    let s = spec("EP", ControllerKind::Default);
    let a = run_once(&s, 1).unwrap();
    let b = run_once(&s, 2).unwrap();
    assert_ne!(a.exec_time, b.exec_time, "noise must differ across seeds");
    let rel = (a.exec_time.value() - b.exec_time.value()).abs() / a.exec_time.value();
    assert!(rel < 0.03, "seed-to-seed spread {rel} too large");
}

#[test]
fn every_app_completes_under_every_controller() {
    for app in [
        "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
    ] {
        for controller in [
            ControllerKind::Default,
            ControllerKind::Duf {
                slowdown: Ratio::from_percent(10.0),
            },
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
        ] {
            let r = run_once(&spec(app, controller), 5)
                .unwrap_or_else(|e| panic!("{app} under {}: {e}", controller.label()));
            assert!(r.exec_time.value() > 1.0, "{app}");
            assert!(r.avg_pkg_power.value() > 20.0, "{app}");
        }
    }
}

#[test]
fn dufp_saves_power_on_every_app_at_10pct() {
    // Paper: "DUFP manages to reduce the power consumption of all
    // applications" (§V-H).
    for app in [
        "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
    ] {
        let d = run_repeated(&spec(app, ControllerKind::Default), 3, 7).unwrap();
        let p = run_repeated(
            &spec(
                app,
                ControllerKind::Dufp {
                    slowdown: Ratio::from_percent(10.0),
                },
            ),
            3,
            7,
        )
        .unwrap();
        let r = ratios_vs_default(&d, &p);
        assert!(
            r.pkg_power_savings_pct > 0.0,
            "{app}: DUFP@10% lost power ({:.2} %)",
            r.pkg_power_savings_pct
        );
    }
}

#[test]
fn tolerated_slowdown_is_respected_at_10pct_for_stable_apps() {
    // The apps the paper lists as well-behaved at 10 %.
    for app in ["BT", "CG", "EP", "FT", "MG", "SP", "HPL"] {
        let d = run_repeated(&spec(app, ControllerKind::Default), 3, 3).unwrap();
        let p = run_repeated(
            &spec(
                app,
                ControllerKind::Dufp {
                    slowdown: Ratio::from_percent(10.0),
                },
            ),
            3,
            3,
        )
        .unwrap();
        let r = ratios_vs_default(&d, &p);
        assert!(
            r.overhead_pct <= 10.0 + 0.75,
            "{app}: overhead {:.2} % exceeds the 10 % tolerance",
            r.overhead_pct
        );
    }
}

#[test]
fn default_runtimes_match_the_analytic_nominal_for_every_app() {
    // The simulator's default-configuration execution time must agree with
    // the workload's analytic design-point duration — the contract that
    // makes "seconds_at_default" in the specs meaningful.
    use dufp_workloads::{apps, MaterializeCtx};
    let sim = SimConfig::yeti_single_socket(8);
    let ctx = MaterializeCtx::from_arch(&sim.arch);
    for app in [
        "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
    ] {
        let nominal = apps::by_name(app, &ctx)
            .unwrap()
            .nominal_duration(&ctx)
            .value();
        let r = run_once(&spec(app, ControllerKind::Default), 8).unwrap();
        let t = r.exec_time.value();
        let err = (t - nominal).abs() / nominal;
        // HPL rides PL1 by design (its default op point exceeds the cap a
        // little); everything else must land tight.
        let tol = if app == "HPL" { 0.06 } else { 0.03 };
        assert!(
            err < tol,
            "{app}: simulated {t:.2}s vs nominal {nominal:.2}s ({:.1} % off)",
            err * 100.0
        );
    }
}

#[test]
fn four_socket_machine_runs_and_aggregates() {
    let mut s = spec(
        "CG",
        ControllerKind::Dufp {
            slowdown: Ratio::from_percent(10.0),
        },
    );
    s.sim = SimConfig::yeti(2);
    let r = run_once(&s, 2).unwrap();
    // Whole-node power ≈ 4× a single socket's.
    assert!(
        (300.0..520.0).contains(&r.avg_pkg_power.value()),
        "4-socket package power {:?}",
        r.avg_pkg_power
    );
}

#[test]
fn trace_spans_the_whole_run() {
    let mut s = spec("EP", ControllerKind::Default);
    s.trace = Some(TraceSpec {
        socket: SocketId(0),
        stride: 100,
    });
    let r = run_once(&s, 4).unwrap();
    let t = r.trace.unwrap();
    let last = t.points.last().unwrap().at.as_seconds().value();
    assert!(
        last > r.exec_time.value() * 0.9,
        "trace ends at {last}s of a {:.1}s run",
        r.exec_time.value()
    );
}

#[test]
fn static_cap_bounds_power_on_memory_app() {
    // A whole-run 75 W static cap on a memory-bound app: big power savings
    // with bounded slowdown. (65 W is only sustainable when DUF manages the
    // uncore too — with the default uncore at 2.4 GHz the package floor sits
    // above it, which is exactly why the paper pairs capping with UFS.)
    let d = run_once(&spec("MG", ControllerKind::Default), 6).unwrap();
    let capped = run_once(
        &spec("MG", ControllerKind::StaticCap { cap: Watts(75.0) }),
        6,
    )
    .unwrap();
    assert!(
        capped.avg_pkg_power.value() < 79.0,
        "capped MG power {:?}",
        capped.avg_pkg_power
    );
    assert!(capped.avg_pkg_power.value() < d.avg_pkg_power.value() - 15.0);
    // MG's compute headroom is razor thin (§V-D is where it loses energy):
    // capping without uncore coordination costs it dearly — the motivation
    // for DUFP's *dynamic*, application-aware capping. Bound it loosely.
    assert!(capped.exec_time.value() < d.exec_time.value() * 3.0);
    assert!(capped.exec_time.value() > d.exec_time.value() * 1.05);
}

#[test]
fn tolerances_up_to_epsilon_act_as_zero() {
    // ε = 1 % is the measurement error: a tolerance inside it is 0 %. Read
    // literally, its hold band [s − ε, s] reaches zero, a zero drop holds
    // forever and the controller never leaves the default configuration.
    for (name, kind) in [
        (
            "DUF",
            (|slowdown| ControllerKind::Duf { slowdown }) as fn(Ratio) -> _,
        ),
        ("DUFP", |slowdown| ControllerKind::Dufp { slowdown }),
        ("DUFP-F", |slowdown| ControllerKind::DufpF { slowdown }),
        ("DNPC", |slowdown| ControllerKind::Dnpc { slowdown }),
    ] {
        let run = |pct: f64| run_once(&spec("EP", kind(Ratio::from_percent(pct))), 1).unwrap();
        let zero = run(0.0);
        for pct in [0.5, 1.0] {
            let r = run(pct);
            assert_eq!(r.exec_time, zero.exec_time, "{name} at {pct} %");
            assert_eq!(r.pkg_energy, zero.pkg_energy, "{name} at {pct} %");
        }
    }
}
