//! DUFP vs DUFP-F — the §VII future-work study: does managing core
//! frequency directly (instead of relying on RAPL to throttle) improve
//! performance and power?
//!
//! Usage: `future_freq [--runs N] [--sockets N] [--slowdown PCT]`

use dufp::prelude::*;
use dufp::{ratios_vs_default, run_repeated, ControllerKind, ExperimentSpec};
use dufp_bench::report::{fmt_pct, markdown_table};
use rayon::prelude::*;

fn main() {
    let mut runs = 5usize;
    let mut sockets = 1u16;
    let mut pct = 10.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => runs = args.next().expect("--runs N").parse().expect("int"),
            "--sockets" => sockets = args.next().expect("--sockets N").parse().expect("int"),
            "--slowdown" => pct = args.next().expect("--slowdown PCT").parse().expect("float"),
            other => panic!("unknown argument {other}"),
        }
    }
    let mut sim = SimConfig::yeti(42);
    sim.arch.sockets = sockets;
    let slowdown = Ratio::from_percent(pct);

    eprintln!(
        "future_freq: DUFP vs DUFP-F on {} apps at {pct:.0}%...",
        apps::NAMES.len()
    );
    let rows: Vec<Vec<String>> = apps::NAMES
        .par_iter()
        .map(|app| {
            let spec = |controller| ExperimentSpec {
                sim: sim.clone(),
                app: (*app).into(),
                controller,
                trace: None,
                interval_ms: None,
                telemetry: false,
                fault_plan: None,
                engine: Default::default(),
            };
            let base = run_repeated(&spec(ControllerKind::Default), runs, 1).expect(app);
            let dufp = ratios_vs_default(
                &base,
                &run_repeated(&spec(ControllerKind::Dufp { slowdown }), runs, 1).expect(app),
            );
            let dufpf = ratios_vs_default(
                &base,
                &run_repeated(&spec(ControllerKind::DufpF { slowdown }), runs, 1).expect(app),
            );
            vec![
                (*app).to_string(),
                format!(
                    "{} / {}",
                    fmt_pct(dufp.overhead_pct),
                    fmt_pct(dufp.pkg_power_savings_pct)
                ),
                format!(
                    "{} / {}",
                    fmt_pct(dufpf.overhead_pct),
                    fmt_pct(dufpf.pkg_power_savings_pct)
                ),
                format!(
                    "{}",
                    fmt_pct(dufpf.pkg_power_savings_pct - dufp.pkg_power_savings_pct)
                ),
            ]
        })
        .collect();

    println!("\n## DUFP vs DUFP-F at {pct:.0}% tolerated slowdown ({runs} runs)\n");
    print!(
        "{}",
        markdown_table(
            &[
                "app",
                "DUFP (overhead/savings)",
                "DUFP-F (overhead/savings)",
                "Δ savings"
            ],
            &rows
        )
    );
    println!(
        "\nDUFP-F reaches the throttled operating point by explicit P-state \
         request instead of letting the RAPL firmware hunt for it — fewer \
         enforcement transients, no deep-allowance bandwidth starvation \
         (the paper's §VII hypothesis, made measurable)."
    );
}
