//! Integration tests for the beyond-the-paper extensions (DESIGN.md §7):
//! the DNPC baseline, DUFP-F, and the cluster budget layer's composition
//! with per-node DUFP.

use dufp::prelude::*;
use dufp::{ratios_vs_default, run_once, run_repeated, ControllerKind, ExperimentSpec};

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

fn compare(app: &str, controller: ControllerKind, seed: u64) -> dufp::Ratios {
    let d = run_repeated(&spec(app, ControllerKind::Default), 3, seed).unwrap();
    let v = run_repeated(&spec(app, controller), 3, seed).unwrap();
    ratios_vs_default(&d, &v)
}

#[test]
fn dnpc_saves_less_than_dufp_on_memory_bound_cg() {
    // The §VI critique: DNPC's frequency-linear model over-estimates
    // degradation on memory-bound codes and backs the cap off early.
    let slowdown = Ratio::from_percent(10.0);
    let dnpc = compare("CG", ControllerKind::Dnpc { slowdown }, 5);
    let dufp = compare("CG", ControllerKind::Dufp { slowdown }, 5);
    assert!(
        dufp.pkg_power_savings_pct > dnpc.pkg_power_savings_pct + 1.0,
        "DUFP {:.2} % must clearly beat DNPC {:.2} % on CG",
        dufp.pkg_power_savings_pct,
        dnpc.pkg_power_savings_pct
    );
}

#[test]
fn dnpc_cannot_touch_the_uncore_so_ep_suffers() {
    // EP's savings are mostly uncore (Fig 3b); a cap-only controller
    // cannot reach them.
    let slowdown = Ratio::from_percent(10.0);
    let dnpc = compare("EP", ControllerKind::Dnpc { slowdown }, 7);
    let dufp = compare("EP", ControllerKind::Dufp { slowdown }, 7);
    assert!(
        dufp.pkg_power_savings_pct > dnpc.pkg_power_savings_pct + 3.0,
        "DUFP {:.2} % vs DNPC {:.2} % on EP",
        dufp.pkg_power_savings_pct,
        dnpc.pkg_power_savings_pct
    );
}

#[test]
fn dufpf_completes_every_app_within_tolerance_margin() {
    let slowdown = Ratio::from_percent(10.0);
    for app in [
        "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS",
    ] {
        let r = compare(app, ControllerKind::DufpF { slowdown }, 9);
        assert!(
            r.overhead_pct <= 10.0 + 1.5,
            "{app}: DUFP-F overhead {:.2} %",
            r.overhead_pct
        );
        assert!(
            r.pkg_power_savings_pct > 0.0,
            "{app}: DUFP-F must save power, got {:.2} %",
            r.pkg_power_savings_pct
        );
    }
}

#[test]
fn dufpf_outperforms_dufp_on_compute_bound_ep() {
    // The §VII hypothesis: direct frequency management uses the tolerance
    // budget better than RAPL-driven throttling on frequency-sensitive
    // codes.
    let slowdown = Ratio::from_percent(10.0);
    let dufp = compare("EP", ControllerKind::Dufp { slowdown }, 11);
    let dufpf = compare("EP", ControllerKind::DufpF { slowdown }, 11);
    assert!(
        dufpf.pkg_power_savings_pct > dufp.pkg_power_savings_pct,
        "DUFP-F {:.2} % vs DUFP {:.2} % on EP",
        dufpf.pkg_power_savings_pct,
        dufp.pkg_power_savings_pct
    );
}

#[test]
fn dufpf_trace_shows_direct_frequency_descent() {
    let mut s = spec(
        "EP",
        ControllerKind::DufpF {
            slowdown: Ratio::from_percent(10.0),
        },
    );
    s.trace = Some(dufp::TraceSpec {
        socket: SocketId(0),
        stride: 100,
    });
    let r = run_once(&s, 13).unwrap();
    let trace = r.trace.unwrap();
    let min_f = trace
        .points
        .iter()
        .map(|p| p.core_freq.as_ghz())
        .fold(f64::MAX, f64::min);
    assert!(
        min_f < 2.7,
        "DUFP-F should have lowered the frequency: {min_f}"
    );
    // …and the trailing cap should sit close above the measured power for
    // the throttled stretch.
    let close = trace
        .points
        .iter()
        .filter(|p| p.pl1.value() < 124.0)
        .filter(|p| (p.pl1.value() - p.pkg_power.value()).abs() < 16.0)
        .count();
    assert!(close > trace.points.len() / 4, "trailing cap never engaged");
}

#[test]
fn cluster_composes_with_unmodified_dufp() {
    use dufp_net::{run_cluster, ClusterConfig, PolicyKind};
    let out = run_cluster(&ClusterConfig::demo(21), PolicyKind::DemandBased).unwrap();
    // Every node finished, consumed sane power, and the final allocations
    // still sum within the budget.
    let total_ceiling: f64 = out.nodes.iter().map(|n| n.final_ceiling.value()).sum();
    assert!(total_ceiling <= 420.0 + 1e-6, "{total_ceiling}");
    for n in &out.nodes {
        assert!(n.exec_time.value() > 10.0, "{}", n.app);
        assert!(n.avg_power.value() > 40.0, "{}", n.app);
    }
}
