//! Chaos harness: virtual-epoch throughput of the in-process adversarial
//! fleet soak, clean (`baseline`) and under a lossy wire (`frame-chaos`:
//! drops, corruption, delays, duplicates), 8 agents × 2000 epochs at
//! seed 42, plus the whole ten-scenario matrix at fleet scale (256 agents
//! × 100 epochs, seed 1) on the default pool and on one worker. Every
//! fleet-resilience guarantee leans on this rig; if it slows down, the CI
//! soak and the property suites slow down with it.
//!
//! Gates: each scenario holds conservation and the honest floors, and the
//! matrix's scorecard is the same on both pools.

use super::{BenchResult, Measured};
use dufp_net::chaos::{run_matrix, run_scenario, ChaosConfig, ScenarioScore};
use dufp_types::Watts;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;
const EPOCHS: u64 = 2_000;
/// The matrix at the `fleet-failover` workload's shape: 256 agents ×
/// 100 epochs, 87.5 W of budget per agent.
const MATRIX_SEED: u64 = 1;
const MATRIX_AGENTS: usize = 256;
const MATRIX_EPOCHS: u64 = 100;
const MATRIX_RUNS: usize = 3;

#[derive(Debug, Serialize)]
struct ScenarioBench {
    scenario: &'static str,
    agents: usize,
    epochs: u64,
    elapsed_ms: f64,
    epochs_per_sec: f64,
    frames_dropped: u64,
    frames_corrupted: u64,
    score: f64,
}

/// The full matrix, timed on the default pool and on one worker.
#[derive(Debug, Serialize)]
struct MatrixBench {
    seed: u64,
    agents: usize,
    epochs: u64,
    scenarios: usize,
    workers: usize,
    pooled_ms: f64,
    one_worker_ms: f64,
    cards_equal: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    seed: u64,
    scenarios: Vec<ScenarioBench>,
    matrix: MatrixBench,
}

fn bench_scenario(cfg: &ChaosConfig, name: &'static str) -> BenchResult<ScenarioBench> {
    let started = Instant::now();
    let card = run_scenario(cfg, name)?;
    let elapsed = started.elapsed().as_secs_f64();
    if !(card.conservation_ok && card.floor_ok) {
        return Err(format!("bench scenario must hold its invariants: {card:?}").into());
    }
    let bench = ScenarioBench {
        scenario: name,
        agents: cfg.agents,
        epochs: cfg.epochs,
        elapsed_ms: elapsed * 1e3,
        epochs_per_sec: cfg.epochs as f64 / elapsed.max(1e-9),
        frames_dropped: card.frames_dropped,
        frames_corrupted: card.frames_corrupted,
        score: card.score,
    };
    eprintln!(
        "  {name:<12} {:>10.0} epochs/s  ({:.1} ms, {} dropped, {} corrupted)",
        bench.epochs_per_sec, bench.elapsed_ms, bench.frames_dropped, bench.frames_corrupted
    );
    Ok(bench)
}

/// Runs the matrix under `cfg`, returning its cards and wall ms.
fn timed_matrix(cfg: &ChaosConfig) -> BenchResult<(Vec<ScenarioScore>, f64)> {
    let started = Instant::now();
    let cards = run_matrix(cfg)?;
    Ok((cards, started.elapsed().as_secs_f64() * 1e3))
}

fn bench_matrix() -> BenchResult<MatrixBench> {
    let cfg = ChaosConfig {
        agents: MATRIX_AGENTS,
        epochs: MATRIX_EPOCHS,
        budget: Watts(87.5 * MATRIX_AGENTS as f64),
        ..ChaosConfig::new(MATRIX_SEED)
    };
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build()?;
    // Best of alternating runs, so neither pool pays alone for a cold start.
    let (mut pooled, mut serial) = (Vec::new(), Vec::new());
    let (mut pooled_ms, mut one_worker_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..MATRIX_RUNS {
        let (cards, ms) = timed_matrix(&cfg)?;
        (pooled, pooled_ms) = (cards, pooled_ms.min(ms));
        let (cards, ms) = one.install(|| timed_matrix(&cfg))?;
        (serial, one_worker_ms) = (cards, one_worker_ms.min(ms));
    }
    let bench = MatrixBench {
        seed: MATRIX_SEED,
        agents: cfg.agents,
        epochs: cfg.epochs,
        scenarios: pooled.len(),
        workers: rayon::current_num_threads().min(pooled.len()),
        pooled_ms,
        one_worker_ms,
        cards_equal: pooled == serial,
    };
    eprintln!(
        "  matrix       {:.1} ms on {} workers, {:.1} ms on one ({} agents x {} epochs)",
        bench.pooled_ms, bench.workers, bench.one_worker_ms, bench.agents, bench.epochs
    );
    Ok(bench)
}

pub(super) fn run() -> BenchResult<Measured> {
    let mut cfg = ChaosConfig::new(SEED);
    cfg.epochs = EPOCHS;
    eprintln!(
        "chaos: {} agents x {EPOCHS} virtual epochs, seed {SEED}...",
        cfg.agents
    );
    let report = Report {
        seed: SEED,
        scenarios: vec![
            bench_scenario(&cfg, "baseline")?,
            bench_scenario(&cfg, "frame-chaos")?,
        ],
        matrix: bench_matrix()?,
    };
    let mut failed = Vec::new();
    if !report.matrix.cards_equal {
        failed.push("the matrix's scorecard depends on the pool's width".to_string());
    }
    Measured::new(&report, failed)
}
