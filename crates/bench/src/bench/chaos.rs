//! Chaos harness: virtual-epoch throughput of the in-process adversarial
//! fleet soak, clean (`baseline`) and under a lossy wire (`frame-chaos`:
//! drops, corruption, delays, duplicates), 8 agents × 2000 epochs at
//! seed 42. Every fleet-resilience guarantee leans on this rig; if it
//! slows down, the CI soak and the property suites slow down with it.
//!
//! Gate: each scenario holds conservation and the honest floors.

use super::{BenchResult, Measured};
use dufp_net::chaos::{run_scenario, ChaosConfig};
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;
const EPOCHS: u64 = 2_000;

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

#[derive(Debug, Serialize)]
struct Report {
    seed: u64,
    scenarios: Vec<ScenarioBench>,
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
    };
    Ok(Measured {
        report: report.to_value(),
        failed_gates: Vec::new(),
    })
}
