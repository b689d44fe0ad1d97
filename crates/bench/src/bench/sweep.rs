//! Sweep engine: paper-grid throughput for both stepping engines (the
//! `tick` oracle and the memoized `event` fast path) over the worker
//! ladder, the serial-vs-parallel speedup, and the per-job engine
//! speedup.
//!
//! Gates, skipped on a degenerate host: the widest event series beats
//! serial, and the event engine is at least 5× the tick engine. The
//! engine speedup is the median of `SPEEDUP_PAIRS` alternating serial
//! tick/event runs, because one serial run of each reads anywhere from
//! about 4× to 8× on a shared 2-vCPU host.

use super::{failed, median, worker_ladder, BenchResult, Measured};
use dufp::{run_sweep, Engine, SweepGrid};
use serde::Serialize;

/// Alternating serial tick/event pairs behind the engine-speedup gate.
const SPEEDUP_PAIRS: usize = 5;

/// The fast path's contract: event jobs/s at least this multiple of tick.
const MIN_EVENT_SPEEDUP: f64 = 5.0;

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
    grid_apps: usize,
    grid_policies: usize,
    grid_slowdowns: usize,
    grid_seeds: usize,
    jobs: usize,
    series: Vec<Series>,
    /// Event-engine jobs/sec at the widest worker count over serial.
    speedup_all_vs_serial: f64,
    /// Median serial jobs/sec of the per-tick oracle over the pairs.
    tick_jobs_per_sec: f64,
    /// Median serial jobs/sec of the memoized fast path over the pairs.
    event_jobs_per_sec: f64,
    /// Median over the pairs of event over tick jobs/sec: the gated
    /// number.
    event_speedup_vs_tick: f64,
    /// Every pair's event over tick jobs/sec, in run order.
    event_speedup_samples: Vec<f64>,
}

fn measure(grid: &SweepGrid, workers: usize) -> BenchResult<Series> {
    let out = run_sweep(grid, workers)?;
    Ok(Series {
        engine: grid.engine.label(),
        workers,
        workers_observed: out.workers_observed,
        jobs: out.rows.len(),
        elapsed_s: out.elapsed_s,
        jobs_per_sec: out.jobs_per_sec(),
    })
}

pub(super) fn run(cores: usize) -> BenchResult<Measured> {
    let mut grid = SweepGrid::paper();
    // Warm the process-wide workload cache so the first serial series is
    // not charged for materialization the later ones get for free.
    measure(&grid, 1)?;

    // Oracle first, fast path second: the file reads as a before/after.
    let mut series = Vec::new();
    for engine in [Engine::Tick, Engine::Event] {
        grid.engine = engine;
        for w in worker_ladder(cores) {
            eprintln!(
                "paper grid ({} jobs), engine {}, {w} worker(s)...",
                grid.len(),
                engine.label()
            );
            series.push(measure(&grid, w)?);
        }
    }

    eprintln!("{SPEEDUP_PAIRS} alternating serial tick/event pairs...");
    let (mut ticks, mut events) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PAIRS {
        for (engine, out) in [(Engine::Tick, &mut ticks), (Engine::Event, &mut events)] {
            grid.engine = engine;
            out.push(measure(&grid, 1)?.jobs_per_sec);
        }
    }
    let samples: Vec<f64> = events.iter().zip(&ticks).map(|(e, t)| e / t).collect();

    let event = |workers: usize| {
        series
            .iter()
            .filter(|s| s.engine == Engine::Event.label())
            .find(|s| s.workers == workers)
            .map_or(f64::NAN, |s| s.jobs_per_sec)
    };
    let widest = worker_ladder(cores).last().copied().unwrap_or(1);
    let report = Report {
        grid_apps: grid.apps.len(),
        grid_policies: grid.policies.len(),
        grid_slowdowns: grid.slowdowns_pct.len(),
        grid_seeds: grid.seeds.len(),
        jobs: grid.len(),
        speedup_all_vs_serial: event(widest) / event(1),
        tick_jobs_per_sec: median(ticks),
        event_jobs_per_sec: median(events),
        event_speedup_vs_tick: median(samples.clone()),
        event_speedup_samples: samples,
        series,
    };

    let gates = [
        (
            report.speedup_all_vs_serial > 1.0,
            format!(
                "parallel sweep slower than serial on a {cores}-core host (speedup {:.2})",
                report.speedup_all_vs_serial
            ),
        ),
        (
            report.event_speedup_vs_tick >= MIN_EVENT_SPEEDUP,
            format!(
                "fast-path regression: event engine only {:.1}x the tick oracle \
                 (median of {SPEEDUP_PAIRS} pairs; contract: >= {MIN_EVENT_SPEEDUP}x)",
                report.event_speedup_vs_tick
            ),
        ),
    ];
    Ok(Measured {
        report: report.to_value(),
        failed_gates: failed(cores, gates),
    })
}
