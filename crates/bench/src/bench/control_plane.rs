//! Control plane: allocator-epoch throughput over live loopback fleets of
//! 1, 4 and 16 agents (200 epochs each), plus raw allocator decision
//! latency (10 000 decisions per policy and fleet size).

use super::{BenchResult, Measured};
use dufp_cluster::allocator::{AllocatorPolicy, DemandBased, NodeObservation, StaticSplit};
use dufp_net::{Agent, AgentConfig, Coordinator, CoordinatorConfig};
use dufp_telemetry::Telemetry;
use dufp_types::Watts;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: f64 = 1200.0;
const APPS: [&str; 4] = ["EP", "CG", "HPL", "BT"];
const FLEETS: [usize; 3] = [1, 4, 16];
const EPOCHS: u64 = 200;
const ITERS: u64 = 10_000;

/// Epoch throughput against a live loopback fleet.
#[derive(Debug, Serialize)]
struct FleetBench {
    agents: usize,
    epochs: u64,
    elapsed_ms: f64,
    epochs_per_sec: f64,
    peak_total_granted_w: f64,
}

/// Raw `AllocatorPolicy::allocate` latency on synthetic observations.
#[derive(Debug, Serialize)]
struct AllocLatency {
    policy: &'static str,
    nodes: usize,
    iters: u64,
    ns_per_decision: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    budget_w: f64,
    fleet_epochs_per_sec: Vec<FleetBench>,
    allocator_decision_latency: Vec<AllocLatency>,
}

/// Epoch throughput: bind a coordinator, join `n` live agents over
/// loopback, then step `epoch_once` flat out. Each epoch runs death
/// detection, the allocator, and the grant fan-out over real sockets.
fn fleet_bench(n: usize) -> BenchResult<FleetBench> {
    let cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(BUDGET));
    let mut coord = Coordinator::bind(cfg)?;
    let addr = coord.local_addr()?.to_string();

    let mut handles = Vec::with_capacity(n);
    let mut switches = Vec::with_capacity(n);
    for i in 0..n {
        let mut acfg = AgentConfig::new(&addr, format!("bench-n{i}"), APPS[i % APPS.len()]);
        acfg.seed = 42 + i as u64;
        // Pace the simulated nodes so they outlive the measurement without
        // saturating every core; bound them in case teardown is missed.
        acfg.pace = Duration::from_millis(2);
        acfg.max_intervals = Some(100_000);
        let switch = Arc::new(AtomicBool::new(false));
        let agent = Agent::new(acfg)?
            .with_crash_switch(Arc::clone(&switch))
            .with_telemetry(Telemetry::disabled());
        switches.push(switch);
        handles.push(std::thread::spawn(move || agent.run()));
    }

    // Wait for the whole fleet to complete its Hellos.
    let joined = Instant::now();
    while coord.node_count() < n && joined.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let measured = (coord.node_count() >= n).then(|| {
        let start = Instant::now();
        let mut peak = 0.0f64;
        for _ in 0..EPOCHS {
            peak = peak.max(coord.epoch_once().total_granted);
        }
        (start.elapsed().as_secs_f64(), peak)
    });

    // Stop the fleet (crash switches: abrupt exit, no Goodbye chatter to
    // skew a rerun) and tear the coordinator down.
    for s in &switches {
        s.store(true, Ordering::SeqCst);
    }
    for h in handles {
        let _ = h.join();
    }
    let _ = coord.finish();
    let (elapsed, peak) = measured.ok_or_else(|| format!("fleet of {n} never joined"))?;
    Ok(FleetBench {
        agents: n,
        epochs: EPOCHS,
        elapsed_ms: elapsed * 1e3,
        epochs_per_sec: EPOCHS as f64 / elapsed,
        peak_total_granted_w: peak,
    })
}

/// Synthetic fleet observations: a mix of riders, donors, and finished
/// nodes, deterministic per node count.
fn synthetic(nodes: usize) -> Vec<NodeObservation> {
    (0..nodes)
        .map(|i| {
            let ceiling = 75.0 + (i % 7) as f64 * 7.0;
            NodeObservation {
                ceiling: Watts(ceiling),
                consumption: Watts(ceiling * (0.55 + (i % 5) as f64 * 0.11)),
                active: i % 9 != 8,
            }
        })
        .collect()
}

fn alloc_bench(policy: &mut dyn AllocatorPolicy, name: &'static str, nodes: usize) -> AllocLatency {
    let obs = synthetic(nodes);
    let start = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..ITERS {
        let out = policy.allocate(Watts(BUDGET), &obs);
        // Keep the optimizer honest.
        sink += out.last().map_or(0.0, |w| w.value());
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    AllocLatency {
        policy: name,
        nodes,
        iters: ITERS,
        ns_per_decision: elapsed.as_nanos() as f64 / ITERS as f64,
    }
}

pub(super) fn run() -> BenchResult<Measured> {
    let mut fleets = Vec::new();
    for n in FLEETS {
        eprintln!("fleet of {n}: {EPOCHS} epochs over loopback...");
        fleets.push(fleet_bench(n)?);
    }
    let mut latency = Vec::new();
    for n in FLEETS {
        latency.push(alloc_bench(&mut StaticSplit, "static-split", n));
        latency.push(alloc_bench(&mut DemandBased::default(), "demand-based", n));
    }
    let report = Report {
        budget_w: BUDGET,
        fleet_epochs_per_sec: fleets,
        allocator_decision_latency: latency,
    };
    Ok(Measured {
        report: report.to_value(),
        failed_gates: Vec::new(),
    })
}
