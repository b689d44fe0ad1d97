//! The `datacenter` workload: a generated heterogeneous fleet spec run
//! through `run_rows` under every budget regime, for several arrival seeds.

use crate::gen::{self, DatacenterSize};
use crate::stats::{mean, Report};
use crate::timed::{report_section, timed_setups, Timed};
use dufp_scenario::{run_rows, PolicyChoice, ScenarioSpec, ScorecardRow};
use dufp_workloads::cache;
use std::time::{Duration, Instant};

pub const POLICIES: [PolicyChoice; 3] = [
    PolicyChoice::Uncapped,
    PolicyChoice::StaticSplit,
    PolicyChoice::DemandBased,
];

/// Generates and parses the spec, then materializes every (tenant, machine
/// class) phase table from a cold cache.
pub fn setup(seed: u64, size: &DatacenterSize) -> Result<(ScenarioSpec, Vec<u64>), String> {
    let inputs = gen::datacenter_inputs(seed, size);
    let spec = ScenarioSpec::from_toml(&inputs.spec_toml).map_err(|e| e.to_string())?;
    cache::clear();
    for node in &spec.nodes {
        let class = spec
            .class_of(node)
            .ok_or("validated spec resolves machines")?;
        let ctx = class.materialize_ctx();
        for app in &node.tenants {
            cache::shared_by_name(app, &ctx).map_err(|e| e.to_string())?;
        }
    }
    Ok((spec, inputs.arrival_seeds))
}

pub fn run(
    seed: u64,
    size: &DatacenterSize,
    seconds: f64,
    workers: usize,
    setup_reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    let (spec, arrival_seeds) = timed_setups(setup_reps, report, || setup(seed, size))?;

    // Repeats of an arrival seed give the first pass's rows again, so only
    // the first pass is kept.
    let mut rows: Vec<ScorecardRow> = Vec::new();
    let mut timed = Timed::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (k, &s) in arrival_seeds.iter().cycle().enumerate() {
        if !timed.before(deadline) {
            break;
        }
        let out = timed.sample(|| {
            let rows = run_rows(&spec, s, &POLICIES, workers).map_err(|e| e.to_string())?;
            Ok((rows.len() as u64, rows))
        })?;
        if k < arrival_seeds.len() {
            rows.extend(out);
        }
    }
    report_section(&timed, report);

    let scored = score(&rows);
    report.detail("scenario.power_saved_pct", scored.power_saved_pct, "%");
    report.detail("scenario.energy_saved_pct", scored.energy_saved_pct, "%");
    report.detail("scenario.slo_violation_pct", scored.slo_violation_pct, "%");

    for r in &rows {
        report.check(r.conservation_ok, || {
            format!(
                "tenant energy does not sum to socket energy: {} seed {}",
                r.policy, r.seed
            )
        });
    }
    Ok(())
}

/// Demand-based against the uncapped baseline of the same arrival seed.
pub struct Scored {
    pub power_saved_pct: f64,
    pub energy_saved_pct: f64,
    pub slo_violation_pct: f64,
}

pub fn score(rows: &[ScorecardRow]) -> Scored {
    let demand: Vec<&ScorecardRow> = rows
        .iter()
        .filter(|r| r.policy == PolicyChoice::DemandBased.label())
        .collect();
    let baseline_power = |seed: u64| -> f64 {
        rows.iter()
            .filter(|r| r.seed == seed && r.policy == PolicyChoice::Uncapped.label())
            .flat_map(|r| r.nodes.iter().map(|n| n.avg_power_w))
            .sum()
    };
    let power: Vec<f64> = demand
        .iter()
        .map(|r| {
            let capped: f64 = r.nodes.iter().map(|n| n.avg_power_w).sum();
            (1.0 - capped / baseline_power(r.seed)) * 100.0
        })
        .collect();
    let energy: Vec<f64> = demand.iter().map(|r| r.energy_saved_pct).collect();
    let violated: Vec<f64> = demand.iter().map(|r| r.slo_violation_pct).collect();
    Scored {
        power_saved_pct: mean(&power),
        energy_saved_pct: mean(&energy),
        slo_violation_pct: mean(&violated),
    }
}
