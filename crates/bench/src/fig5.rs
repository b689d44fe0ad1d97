//! Fig. 5 — CPU frequency under DUF vs DUFP (CG at 10 % tolerated
//! slowdown).
//!
//! The paper's mechanism figure: with uncore scaling alone the cores sit at
//! the 2.8 GHz all-core turbo for almost the whole run; adding dynamic
//! power capping pulls the average down to ≈2.5 GHz, which is where the
//! extra package power savings come from.

use crate::report::section;
use dufp::prelude::*;
use dufp::{run_once, ControllerKind, ExperimentSpec, TraceSpec};
use dufp_sim::Trace;
use dufp_types::Result;
use serde::{Deserialize, Serialize};

/// Frequency-trace comparison for one controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FreqTrace {
    /// Controller label.
    pub label: String,
    /// Average core frequency over the run (GHz).
    pub avg_core_ghz: f64,
    /// Average package power (per socket).
    pub avg_pkg_power: f64,
    /// The raw trace (downsampled), for CSV export.
    pub trace: Trace,
}

/// Runs CG at the given slowdown under one controller, tracing core 0's
/// socket.
pub fn trace_cg(controller: ControllerKind, sockets: u16, seed: u64) -> Result<FreqTrace> {
    let mut sim = SimConfig::yeti(seed);
    sim.arch.sockets = sockets;
    let spec = ExperimentSpec {
        sim,
        app: "CG".into(),
        controller,
        trace: Some(TraceSpec {
            socket: SocketId(0),
            stride: 100, // one point per 100 ms
        }),
        interval_ms: None,
        telemetry: false,
        fault_plan: None,
        engine: Default::default(),
    };
    let r = run_once(&spec, seed)?;
    let trace = r.trace.expect("trace requested");
    Ok(FreqTrace {
        label: controller.label(),
        avg_core_ghz: trace
            .avg_core_freq()
            .map(|f| f.as_ghz())
            .unwrap_or(f64::NAN),
        avg_pkg_power: trace.avg_pkg_power().map(|p| p.value()).unwrap_or(f64::NAN),
        trace,
    })
}

/// The full Fig. 5 pair: DUF vs DUFP on CG at 10 %.
pub fn run_fig5(sockets: u16, seed: u64) -> Result<(FreqTrace, FreqTrace)> {
    let slowdown = Ratio::from_percent(10.0);
    let duf = trace_cg(ControllerKind::Duf { slowdown }, sockets, seed)?;
    let dufp = trace_cg(ControllerKind::Dufp { slowdown }, sockets, seed)?;
    Ok((duf, dufp))
}

/// Renders a trace as `time_s,core_ghz,uncore_ghz,pkg_w,pl1_w` CSV.
pub fn trace_csv(t: &FreqTrace) -> String {
    let mut out = String::from("time_s,core_ghz,uncore_ghz,pkg_w,pl1_w\n");
    for p in &t.trace.points {
        out.push_str(&format!(
            "{:.3},{:.2},{:.2},{:.2},{:.1}\n",
            p.at.as_seconds().value(),
            p.core_freq.as_ghz(),
            p.uncore_freq.as_ghz(),
            p.pkg_power.value(),
            p.pl1.value(),
        ));
    }
    out
}

/// The traces' `EXPERIMENTS.md` section: each controller's average core
/// frequency against the paper's, and its package power.
pub fn trace_section(duf: &FreqTrace, dufp: &FreqTrace) -> String {
    section(
        "Fig 5 — CPU frequency, CG @ 10 %",
        &format!(
            "| controller | avg core freq (GHz) | paper | package (W) |\n|---|---|---|---|\n\
             | DUF | {:.2} | ≈2.8 | {:.1} |\n| DUFP | {:.2} | ≈2.5 | {:.1} |\n",
            duf.avg_core_ghz, duf.avg_pkg_power, dufp.avg_core_ghz, dufp.avg_pkg_power
        ),
        "Power capping enables core-frequency reduction that uncore scaling \
         alone cannot reach — the source of DUFP's extra package savings (§V-E).",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dufp_lowers_average_frequency_vs_duf() {
        let (duf, dufp) = run_fig5(1, 5).unwrap();
        // Paper: DUF ≈ 2.8 GHz, DUFP ≈ 2.5 GHz.
        assert!(duf.avg_core_ghz > 2.7, "DUF avg {:.2}", duf.avg_core_ghz);
        assert!(
            dufp.avg_core_ghz < duf.avg_core_ghz - 0.1,
            "DUFP {:.2} vs DUF {:.2}",
            dufp.avg_core_ghz,
            duf.avg_core_ghz
        );
        assert!(dufp.avg_pkg_power < duf.avg_pkg_power);
    }

    #[test]
    fn csv_export_is_well_formed() {
        let t = trace_cg(ControllerKind::Default, 1, 1).unwrap();
        let csv = trace_csv(&t);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_s,core_ghz,uncore_ghz,pkg_w,pl1_w"
        );
        let first = lines.next().unwrap();
        assert_eq!(first.split(',').count(), 5);
    }
}
