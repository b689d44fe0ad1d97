//! Sweep-engine benchmark: paper-grid throughput for both stepping
//! engines (the `tick` oracle and the memoized `event` fast path) at 1,
//! half-cores and all-cores workers, plus the serial-vs-parallel speedup
//! and the per-job engine speedup.
//!
//! Seeds `BENCH_sweep.json` at the current directory (repo root in CI,
//! where it is uploaded as an artifact), so the batched-engine and
//! fast-path trajectories are tracked from their first PRs. Numbers are
//! honest for the host they ran on: `available_cores` is recorded next to
//! every series, and on a single-core host a 2-worker series is still
//! measured so the pool overhead (not a fantasy speedup) is what lands in
//! the artifact.
//!
//! Usage: cargo run -p dufp-bench --release --bin sweep_bench -- [--out FILE]

use dufp::{run_sweep, Engine, SweepGrid};
use serde::Serialize;

/// One (engine, worker-count) measurement over the same grid.
#[derive(Debug, Serialize)]
struct Series {
    engine: &'static str,
    workers: usize,
    workers_observed: usize,
    jobs: usize,
    elapsed_s: f64,
    jobs_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: &'static str,
    available_cores: usize,
    grid_apps: usize,
    grid_policies: usize,
    grid_slowdowns: usize,
    grid_seeds: usize,
    jobs: usize,
    /// True when the host has a single core: every series then measures
    /// pool overhead, not parallelism, so the speedup check is skipped
    /// and downstream consumers must not read `speedup_all_vs_serial`
    /// as a scaling signal.
    degenerate: bool,
    series: Vec<Series>,
    /// Event-engine jobs/sec at the widest worker count over jobs/sec
    /// serial (the parallel-scaling signal, measured on the default
    /// engine).
    speedup_all_vs_serial: f64,
    /// Serial jobs/sec for the legacy per-tick oracle.
    tick_jobs_per_sec: f64,
    /// Serial jobs/sec for the memoized fast path.
    event_jobs_per_sec: f64,
    /// The per-job fast-path speedup: event over tick, both serial, same
    /// grid. CI gates on this staying above 5x.
    event_speedup_vs_tick: f64,
}

fn measure(grid: &SweepGrid, workers: usize) -> Series {
    let out = run_sweep(grid, workers).expect("sweep run");
    Series {
        engine: grid.engine.label(),
        workers,
        workers_observed: out.workers_observed,
        jobs: out.rows.len(),
        elapsed_s: out.elapsed_s,
        jobs_per_sec: out.jobs_per_sec(),
    }
}

fn main() {
    let mut out = String::from("BENCH_sweep.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: sweep_bench [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let mut grid = SweepGrid::paper();
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // 1, half, all — deduplicated; a single-core host still measures a
    // 2-worker series so the artifact shows real pool overhead.
    let mut worker_counts = vec![1, (cores / 2).max(1), cores];
    if cores == 1 {
        worker_counts.push(2);
    }
    worker_counts.sort_unstable();
    worker_counts.dedup();

    // Warm the process-wide workload cache so the first serial series is
    // not charged for materialization the later ones get for free.
    let _ = measure(&grid, 1);

    // Oracle first, fast path second: the artifact reads as a before/after.
    let mut series = Vec::new();
    for engine in [Engine::Tick, Engine::Event] {
        grid.engine = engine;
        for &w in &worker_counts {
            eprintln!(
                "paper grid ({} jobs), engine {}, {w} worker(s)...",
                grid.len(),
                engine.label()
            );
            series.push(measure(&grid, w));
        }
    }

    let serial_for = |engine: &str| {
        series
            .iter()
            .find(|s| s.engine == engine && s.workers == 1)
            .unwrap_or_else(|| panic!("serial {engine} series"))
    };
    let tick_serial = serial_for("tick").jobs_per_sec;
    let event_serial = serial_for("event").jobs_per_sec;
    let widest = series
        .iter()
        .rfind(|s| s.engine == "event")
        .expect("event series");
    let report = Report {
        bench: "sweep",
        available_cores: cores,
        grid_apps: grid.apps.len(),
        grid_policies: grid.policies.len(),
        grid_slowdowns: grid.slowdowns_pct.len(),
        grid_seeds: grid.seeds.len(),
        jobs: grid.len(),
        degenerate: cores == 1,
        speedup_all_vs_serial: widest.jobs_per_sec / event_serial,
        tick_jobs_per_sec: tick_serial,
        event_jobs_per_sec: event_serial,
        event_speedup_vs_tick: event_serial / tick_serial,
        series,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    println!("{json}");
    std::fs::write(&out, format!("{json}\n")).expect("write bench json");
    eprintln!("wrote {out}");

    // The scaling sanity check only means something with real parallelism
    // on offer; a single-core host measures pool overhead by design. The
    // engine-speedup gate is likewise skipped there: a contended single
    // core makes both numbers noise.
    if report.degenerate {
        eprintln!("single core available: degenerate run, speedup checks skipped");
    } else {
        assert!(
            report.speedup_all_vs_serial > 1.0,
            "parallel sweep slower than serial on a {cores}-core host \
             (speedup {:.2})",
            report.speedup_all_vs_serial
        );
        assert!(
            report.event_speedup_vs_tick >= 5.0,
            "fast-path regression: event engine only {:.1}x the tick oracle \
             (contract: >= 5x)",
            report.event_speedup_vs_tick
        );
    }
}
