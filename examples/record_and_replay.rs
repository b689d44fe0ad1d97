//! Characterize an application from its own counter trace, then use the
//! captured model for offline what-if planning.
//!
//! This is the workflow a production deployment would follow:
//!
//! 1. run the application once in the default configuration, recording the
//!    (FLOPS/s, bandwidth, power) time series the measurement layer already
//!    produces,
//! 2. segment the trace into phases and save the description as JSON,
//! 3. sweep DUFP tolerances against the *captured model* — no more machine
//!    time spent on the real code — and pick the §V-H sweet spot.
//!
//! ```sh
//! cargo run --release --example record_and_replay -- FT
//! ```

use dufp::prelude::*;
use dufp::{ratios_vs_default, run_repeated, ControllerKind, ExperimentSpec};

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "FT".to_string());
    let sim = SimConfig::yeti_single_socket(17);

    // 1+2. Record and segment.
    println!("recording {app} once in the default configuration...");
    let file = dufp::record_workload(&sim, &app).unwrap();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("{app}-captured.json"));
    file.save(&path).unwrap();
    let ctx = MaterializeCtx::from_arch(&sim.arch);
    let rebuilt = file.materialize(&ctx).unwrap();
    println!(
        "captured {} phases (≈{:.1} s) into {}\n",
        file.phases.len(),
        rebuilt.nominal_duration(&ctx).value(),
        path.display()
    );
    for p in file.phases.iter().take(4) {
        println!(
            "  {:<12} {:5.1}s  oi={:<8.3} util={:.2}",
            p.name, p.seconds_at_default, p.oi, p.core_util
        );
    }
    if file.phases.len() > 4 {
        println!("  ... and {} more", file.phases.len() - 4);
    }

    // 3. What-if sweep on the captured model only.
    let spec = |controller| ExperimentSpec {
        sim: sim.clone(),
        app: path.to_str().unwrap().to_string(),
        controller,
        trace: None,
        interval_ms: None,
        telemetry: false,
        fault_plan: None,
        engine: Default::default(),
    };
    let base = run_repeated(&spec(ControllerKind::Default), 4, 1).unwrap();
    println!("\nwhat-if on the captured model:");
    for pct in [5.0, 10.0, 20.0] {
        let r = run_repeated(
            &spec(ControllerKind::Dufp {
                slowdown: Ratio::from_percent(pct),
            }),
            4,
            1,
        )
        .unwrap();
        let ratios = ratios_vs_default(&base, &r);
        println!(
            "  DUFP@{pct:>2.0}%: {:+6.2} % power, {:+6.2} % energy, {:+5.2} % overhead",
            ratios.pkg_power_savings_pct, ratios.energy_savings_pct, ratios.overhead_pct
        );
    }

    std::fs::remove_file(&path).ok();
}
