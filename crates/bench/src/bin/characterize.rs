//! Application sensitivity characterization — the §V-F discussion, made
//! systematic.
//!
//! The paper observes that predicting how much an application gains from
//! power capping is "not straightforward": CPU-intensive codes save little
//! (< 7 %) because capping costs them frequency; highly-memory codes
//! tolerate the 65 W floor outright; everything else needs measuring. This
//! binary measures exactly that, per application:
//!
//! * **cap sensitivity** — slowdown per watt removed, from a static-cap
//!   probe at 100 W,
//! * **uncore sensitivity** — slowdown from pinning the uncore one step
//!   below the bandwidth knee,
//! * the resulting **DUFP class** prediction, checked against the measured
//!   DUFP@10 % savings.
//!
//! Usage: `characterize [--seed S]`

use dufp::prelude::*;
use dufp::{run_once, ControllerKind, ExperimentSpec};
use dufp_bench::report::markdown_table;
use rayon::prelude::*;

struct Row {
    app: String,
    cap_sens: f64,
    uncore_sens: f64,
    class: &'static str,
    dufp_savings: f64,
    dufp_overhead: f64,
}

fn main() {
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().expect("--seed S").parse().expect("int"),
            other => panic!("unknown argument {other}"),
        }
    }
    eprintln!(
        "characterize: probing {} applications...",
        apps::NAMES.len()
    );
    let rows: Vec<Row> = apps::NAMES
        .par_iter()
        .map(|app| characterize(app, seed))
        .collect();

    println!("\n## Application characterization (§V-F)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!("{:.2}", r.cap_sens),
                format!("{:.2}", r.uncore_sens),
                r.class.to_string(),
                format!("{:+.1} % @ {:+.1} %", r.dufp_savings, r.dufp_overhead),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "app",
                "cap sens. (%slow / 10 W)",
                "uncore sens. (%slow / step)",
                "class",
                "DUFP@10% (savings @ overhead)"
            ],
            &table
        )
    );
    println!(
        "\ncap-bound apps (high cap sensitivity) keep their savings below ~7 % \
         (paper: HPL, BT); bandwidth-bound apps tolerate deep caps; the mixed \
         rest 'is not easy to draw any characteristic' — which is why DUFP \
         measures instead of predicting."
    );
}

fn characterize(app: &str, seed: u64) -> Row {
    let spec = |controller| ExperimentSpec {
        sim: SimConfig::yeti_single_socket(seed),
        app: app.into(),
        controller,
        trace: None,
        interval_ms: None,
        telemetry: false,
        fault_plan: None,
        engine: Default::default(),
    };
    let base = run_once(&spec(ControllerKind::Default), seed).unwrap();
    let base_t = base.exec_time.value();
    let base_p = base.avg_pkg_power.value();

    // Cap probe: static 100 W.
    let capped = run_once(&spec(ControllerKind::StaticCap { cap: Watts(100.0) }), seed).unwrap();
    let removed_w = (base_p - capped.avg_pkg_power.value()).max(1.0);
    let cap_sens = ((capped.exec_time.value() / base_t - 1.0) * 100.0) / removed_w * 10.0;

    // Uncore probe: DUF at 0 % finds the free uncore level; compare a DUF
    // run at 10 % to see how much slowdown the uncore path alone causes.
    let duf = run_once(
        &spec(ControllerKind::Duf {
            slowdown: Ratio::from_percent(10.0),
        }),
        seed,
    )
    .unwrap();
    let uncore_sens = (duf.exec_time.value() / base_t - 1.0) * 100.0;

    // The static-cap probe runs with the uncore at its default maximum, so
    // even memory codes show some sensitivity; the split that separates the
    // paper's classes is the relative magnitude.
    let class = if cap_sens > 9.0 {
        "frequency-sensitive (CPU-intensive)"
    } else if uncore_sens < 1.5 {
        "cap-tolerant (memory-leaning)"
    } else {
        "mixed"
    };

    let dufp = run_once(
        &spec(ControllerKind::Dufp {
            slowdown: Ratio::from_percent(10.0),
        }),
        seed,
    )
    .unwrap();
    Row {
        app: app.to_string(),
        cap_sens,
        uncore_sens,
        class,
        dufp_savings: (1.0 - dufp.avg_pkg_power.value() / base_p) * 100.0,
        dufp_overhead: (dufp.exec_time.value() / base_t - 1.0) * 100.0,
    }
}
