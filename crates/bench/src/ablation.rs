//! Ablation harness: quantify each DUFP design choice by disabling it.
//!
//! DESIGN.md calls out the load-bearing mechanisms; this module measures
//! what each one buys on a representative application mix:
//!
//! * **coupling 1** (§III) — raise the cap when an uncore increase fails,
//! * **coupling 2** (§III) — retry the uncore reset after a joint reset,
//! * **overshoot reset** (§IV-D) — reset when power exceeds a fresh cap,
//! * **probe-floor memory** — don't re-probe below a violated level every
//!   interval (reprobe window vs none),
//! * **monitoring interval** — 50 ms vs the paper's 200 ms (§IV-D).

use crate::report::{self, fmt_pct, markdown_table};
use dufp::SocketLoop;
use dufp_control::{ControlConfig, Controller, Dufp, NoOp};
use dufp_counters::Telemetry as _;
use dufp_rapl::MsrRapl;
use dufp_sim::{Machine, SimConfig};
use dufp_telemetry::Telemetry;
use dufp_types::{Duration, Ratio, Result, SocketId};
use dufp_workloads::{apps, MaterializeCtx};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// The full DUFP configuration (baseline for the study).
    Full,
    /// Coupling 1 disabled.
    NoCoupling1,
    /// Coupling 2 disabled.
    NoCoupling2,
    /// §IV-D overshoot reset disabled.
    NoOvershootReset,
    /// Probe-floor memory disabled (re-probe every interval).
    NoProbeMemory,
    /// 50 ms monitoring interval instead of 200 ms.
    FastInterval,
    /// The §V-G cumulative-progress guard enabled (off in the paper's tool).
    CumulativeGuard,
}

impl Variant {
    /// All variants, baseline first.
    pub const ALL: [Variant; 7] = [
        Variant::Full,
        Variant::NoCoupling1,
        Variant::NoCoupling2,
        Variant::NoOvershootReset,
        Variant::NoProbeMemory,
        Variant::FastInterval,
        Variant::CumulativeGuard,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "full DUFP",
            Variant::NoCoupling1 => "no coupling 1",
            Variant::NoCoupling2 => "no coupling 2",
            Variant::NoOvershootReset => "no overshoot reset",
            Variant::NoProbeMemory => "no probe memory",
            Variant::FastInterval => "50 ms interval",
            Variant::CumulativeGuard => "+ cumulative guard (§V-G)",
        }
    }

    fn apply(self, cfg: &mut ControlConfig) {
        match self {
            Variant::Full => {}
            Variant::NoCoupling1 => cfg.coupling1 = false,
            Variant::NoCoupling2 => cfg.coupling2 = false,
            Variant::NoOvershootReset => cfg.overshoot_reset = false,
            Variant::NoProbeMemory => cfg.reprobe_intervals = 0,
            Variant::FastInterval => cfg.interval = Duration::from_millis(50),
            Variant::CumulativeGuard => cfg.cumulative_guard = true,
        }
    }
}

/// Measurements of one variant on one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// The variant measured.
    pub variant: Variant,
    /// Application name.
    pub app: String,
    /// Execution-time overhead vs the default configuration (%).
    pub overhead_pct: f64,
    /// Package power savings vs the default configuration (%).
    pub pkg_savings_pct: f64,
}

/// Runs one app under one DUFP variant (`None`: no controller) on a
/// single socket; returns (exec seconds, avg package watts).
fn run_variant(
    app: &str,
    variant: Option<Variant>,
    slowdown_pct: f64,
    seed: u64,
) -> Result<(f64, f64)> {
    let sim = SimConfig::yeti_single_socket(seed);
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);
    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&apps::by_name(app, &ctx)?);

    let mut cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(slowdown_pct))?;
    let controller: Box<dyn Controller> = match variant {
        None => Box::new(NoOp),
        Some(v) => {
            v.apply(&mut cfg);
            Box::new(Dufp::new(cfg.clone()))
        }
    };
    let capper = Arc::new(MsrRapl::new(
        Arc::clone(&machine),
        1,
        arch.cores_per_socket as usize,
    )?);
    let tel = Telemetry::disabled();
    let mut socket = SocketLoop::new(&machine, capper, SocketId(0), &cfg, controller, &tel)?;
    let start = machine.sample(SocketId(0))?;
    let ticks = (cfg.interval.as_micros() / machine.config().tick.as_micros()).max(1);
    while !machine.done() {
        machine.advance(ticks);
        socket.interval()?;
    }
    let end = machine.sample(SocketId(0))?;
    let secs = end.at.duration_since(start.at).as_seconds();
    let pkg = (end.pkg_energy - start.pkg_energy) / secs;
    Ok((secs.value(), pkg.value()))
}

/// Runs the full ablation grid on the given apps.
pub fn run_ablation(apps: &[&str], slowdown_pct: f64, seed: u64) -> Result<Vec<AblationRow>> {
    let mut rows = Vec::new();
    for app in apps {
        let (t0, p0) = run_variant(app, None, slowdown_pct, seed)?;
        for v in Variant::ALL {
            let (t, p) = run_variant(app, Some(v), slowdown_pct, seed)?;
            rows.push(AblationRow {
                variant: v,
                app: (*app).to_string(),
                overhead_pct: (t / t0 - 1.0) * 100.0,
                pkg_savings_pct: (1.0 - p / p0) * 100.0,
            });
        }
    }
    Ok(rows)
}

/// The ablation's `EXPERIMENTS.md` section: every variant on CG, EP, UA
/// and LAMMPS at 10 % tolerated slowdown.
pub fn section(seed: u64) -> Result<String> {
    const SLOWDOWN_PCT: f64 = 10.0;
    let apps = ["CG", "EP", "UA", "LAMMPS"];
    let rows = run_ablation(&apps, SLOWDOWN_PCT, seed)?;
    let mut header = vec!["variant"];
    header.extend(apps);
    let table: Vec<Vec<String>> = Variant::ALL
        .iter()
        .map(|v| {
            let mut row = vec![v.label().to_string()];
            row.extend(rows.iter().filter(|r| r.variant == *v).map(|r| {
                format!(
                    "{} / {}",
                    fmt_pct(r.overhead_pct),
                    fmt_pct(r.pkg_savings_pct)
                )
            }));
            row
        })
        .collect();
    Ok(report::section(
        &format!("Ablation — DUFP @ {SLOWDOWN_PCT:.0}% (overhead% / package savings%)"),
        &markdown_table(&header, &table),
        "Read each row against 'full DUFP': a mechanism earns its place when \
         removing it either breaks the tolerance (overhead above the target) \
         or costs savings.",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_memory_protects_the_tolerance_on_cg() {
        // Without the probe-floor memory the controller oscillates across
        // the violation boundary; the time-average slowdown degrades.
        let (t_full, _) = run_variant("CG", Some(Variant::Full), 10.0, 3).unwrap();
        let (t_no_mem, _) = run_variant("CG", Some(Variant::NoProbeMemory), 10.0, 3).unwrap();
        assert!(
            t_no_mem > t_full * 0.999,
            "removing probe memory should not speed things up: {t_full} vs {t_no_mem}"
        );
    }

    #[test]
    fn all_variants_complete_on_ep_and_save_power() {
        let (_, p0) = run_variant("EP", None, 10.0, 5).unwrap();
        for v in Variant::ALL {
            let (_, p) = run_variant("EP", Some(v), 10.0, 5).unwrap();
            assert!(
                p < p0,
                "{}: EP power {p:.1} W should beat default {p0:.1} W",
                v.label()
            );
        }
    }

    #[test]
    fn grid_produces_one_row_per_variant_per_app() {
        let rows = run_ablation(&["EP"], 10.0, 7).unwrap();
        assert_eq!(rows.len(), Variant::ALL.len());
    }
}
