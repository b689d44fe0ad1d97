//! Scenario engine: runs/sec of the built-in mini scenario over the
//! worker ladder, and the serial-vs-parallel speedup. The work unit is
//! one `(seed, policy)` fleet run: co-tenant physics, arrival model and
//! allocator epochs included.
//!
//! Gate, skipped on a degenerate host: the widest series beats serial.

use super::{failed, worker_ladder, BenchResult, Measured};
use dufp_scenario::{run_one, PolicyChoice, ScenarioSpec};
use rayon::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// Seeds per policy: 8 seeds × 3 policies = 24 runs per series.
const SEEDS: u64 = 8;

/// One worker-count measurement over the same run set.
#[derive(Debug, Serialize)]
struct Series {
    workers: usize,
    runs: usize,
    elapsed_s: f64,
    runs_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    nodes: usize,
    tenants: usize,
    intervals: u64,
    seeds: u64,
    policies: usize,
    runs: usize,
    series: Vec<Series>,
    /// runs/sec at the widest worker count over runs/sec serial.
    speedup_all_vs_serial: f64,
}

fn measure(
    spec: &ScenarioSpec,
    pairs: &[(u64, PolicyChoice)],
    workers: usize,
) -> BenchResult<Series> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()?;
    let start = Instant::now();
    let energies = pool.install(|| {
        pairs
            .par_iter()
            .map(|&(seed, policy)| run_one(spec, seed, policy).map(|out| out.row.fleet_energy_j))
            .collect::<dufp_types::Result<Vec<f64>>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    if !energies.iter().all(|e| e.is_finite() && *e > 0.0) {
        return Err("a scenario run reported a non-positive or non-finite fleet energy".into());
    }
    Ok(Series {
        workers,
        runs: pairs.len(),
        elapsed_s: elapsed,
        runs_per_sec: pairs.len() as f64 / elapsed.max(1e-9),
    })
}

pub(super) fn run(cores: usize) -> BenchResult<Measured> {
    let spec = ScenarioSpec::mini();
    let pairs: Vec<(u64, PolicyChoice)> = (0..SEEDS)
        .flat_map(|s| PolicyChoice::ALL.map(|p| (s, p)))
        .collect();

    // Warm the process-wide workload cache so the serial series is not
    // charged for phase-table materialization.
    measure(&spec, &pairs, 1)?;

    let mut series = Vec::new();
    for w in worker_ladder(cores) {
        eprintln!("mini scenario ({} runs) on {w} worker(s)...", pairs.len());
        series.push(measure(&spec, &pairs, w)?);
    }

    let serial = series[0].runs_per_sec;
    let widest = series[series.len() - 1].runs_per_sec;
    let dt = spec.interval_ms as f64 / 1000.0;
    let report = Report {
        nodes: spec.nodes.len(),
        tenants: spec.tenant_count(),
        intervals: (spec.duration_s / dt).ceil() as u64,
        seeds: SEEDS,
        policies: PolicyChoice::ALL.len(),
        runs: pairs.len(),
        speedup_all_vs_serial: widest / serial,
        series,
    };
    let gates = [(
        report.speedup_all_vs_serial > 1.0,
        format!(
            "parallel scenario runs slower than serial on a {cores}-core host (speedup {:.2})",
            report.speedup_all_vs_serial
        ),
    )];
    Measured::new(&report, failed(cores, gates))
}
