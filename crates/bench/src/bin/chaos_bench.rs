//! Chaos-harness benchmark: virtual-epoch throughput of the in-process
//! adversarial fleet soak, clean and under a lossy wire.
//!
//! The chaos harness is the test rig every fleet-resilience guarantee
//! leans on; if it slows down, the CI soak and the property suites slow
//! down with it. This bench tracks epochs/second for the baseline
//! (honest, lossless) scenario and for frame-chaos (drops, corruption,
//! delays, duplicates) at a fixed seed, and seeds `BENCH_chaos.json` at
//! the current directory (repo root in CI, uploaded as an artifact).
//!
//! Usage: cargo run -p dufp-bench --release --bin chaos_bench --
//!        [--out FILE] [--epochs N] [--agents N] [--seed S]

use dufp_net::chaos::{run_scenario, ChaosConfig};
use dufp_types::Watts;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ScenarioBench {
    scenario: String,
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
    bench: &'static str,
    seed: u64,
    scenarios: Vec<ScenarioBench>,
}

fn bench_scenario(cfg: &ChaosConfig, name: &str) -> ScenarioBench {
    let started = Instant::now();
    let card = run_scenario(cfg, name).expect("built-in scenario runs");
    let elapsed = started.elapsed();
    assert!(
        card.conservation_ok && card.floor_ok,
        "bench scenario must hold its invariants: {card:?}"
    );
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    ScenarioBench {
        scenario: name.to_string(),
        agents: cfg.agents,
        epochs: cfg.epochs,
        elapsed_ms,
        epochs_per_sec: cfg.epochs as f64 / elapsed.as_secs_f64().max(1e-9),
        frames_dropped: card.frames_dropped,
        frames_corrupted: card.frames_corrupted,
        score: card.score,
    }
}

fn main() {
    let mut out = String::from("BENCH_chaos.json");
    let mut epochs = 2_000u64;
    let mut agents = 8usize;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out FILE"),
            "--epochs" => epochs = args.next().expect("--epochs N").parse().expect("int"),
            "--agents" => agents = args.next().expect("--agents N").parse().expect("int"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("int"),
            other => panic!("unknown flag {other}"),
        }
    }

    let mut cfg = ChaosConfig::new(seed);
    // Keep the default shape's budget per agent, so every fleet size can
    // fund its honest floors.
    let budget_per_agent = cfg.budget.value() / cfg.agents as f64;
    cfg.epochs = epochs;
    cfg.agents = agents;
    cfg.budget = Watts(budget_per_agent * agents as f64);

    eprintln!("chaos_bench: {agents} agents x {epochs} virtual epochs, seed {seed}...");
    let scenarios = vec![
        bench_scenario(&cfg, "baseline"),
        bench_scenario(&cfg, "frame-chaos"),
    ];
    for s in &scenarios {
        eprintln!(
            "  {:<12} {:>10.0} epochs/s  ({:.1} ms, {} dropped, {} corrupted)",
            s.scenario, s.epochs_per_sec, s.elapsed_ms, s.frames_dropped, s.frames_corrupted
        );
    }

    let report = Report {
        bench: "chaos",
        seed,
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write bench report");
    println!("{json}");
    eprintln!("chaos_bench: wrote {out}");
}
