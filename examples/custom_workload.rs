//! Model your own application and see how DUFP treats it.
//!
//! DUFP never reads application code — it only observes FLOPS/s, bandwidth
//! and power. This example builds a custom phase-graph workload (a
//! stencil-like solver: compute sweeps alternating with halo exchanges and
//! a highly-memory checkpoint phase), runs it under DUFP on one simulated
//! socket through [`SocketLoop`] — the per-socket stack the experiment
//! runner uses — and prints how each phase class fared.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use dufp::prelude::*;
use dufp_model::perf::PhaseKind;
use dufp_model::RooflineModel;
use dufp_rapl::MsrRapl;
use dufp_workloads::{spec::repeat, Boundness, PhaseSpec, Workload};
use std::sync::Arc;

fn main() {
    let sim = SimConfig::yeti_single_socket(7);
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);

    // --- 1. Describe the application in behavioural terms. ---
    let body = [
        PhaseSpec {
            name: "stencil_sweep".into(),
            seconds_at_default: 1.2,
            oi: 3.0,
            boundness: Boundness::ComputeBound { mem_frac: 0.45 },
            core_util: 0.85,
            overlap_penalty: 0.1,
        },
        PhaseSpec {
            name: "halo_exchange".into(),
            seconds_at_default: 0.6,
            oi: 0.2,
            boundness: Boundness::MemoryBound { headroom: 1.3 },
            core_util: 0.5,
            overlap_penalty: 0.05,
        },
    ];
    let mut phases = repeat(&body, 12);
    phases.push(PhaseSpec {
        name: "checkpoint".into(),
        seconds_at_default: 3.0,
        oi: 0.01, // highly memory-intensive: DUFP may cap to the 65 W floor
        boundness: Boundness::MemoryBound { headroom: 2.0 },
        core_util: 0.3,
        overlap_penalty: 0.0,
    });
    let workload = Workload::from_specs("stencil-app", &phases, &ctx).unwrap();

    println!(
        "workload: {} phases, ≈{:.1} s at default",
        workload.phases.len(),
        workload.nominal_duration(&ctx).value()
    );
    for p in workload.phases.iter().take(3) {
        let oi = RooflineModel::intensity(&p.rates);
        println!(
            "  {:<15} oi={:<8.3} class={:?}",
            p.name,
            oi.value(),
            PhaseKind::classify(oi)
        );
    }

    // --- 2. Put DUFP on the socket and step the machine interval by
    // interval: `advance` runs the simulator to the next 200 ms boundary
    // (or the end of the run), then the socket loop samples, vets the
    // interval and lets DUFP actuate uncore and cap. ---
    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&workload);

    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(10.0)).unwrap();
    let capper =
        Arc::new(MsrRapl::new(Arc::clone(&machine), 1, arch.cores_per_socket as usize).unwrap());
    let dufp = Box::new(Dufp::new(cfg.clone()));
    let tel = dufp_telemetry::Telemetry::disabled();
    let mut socket = SocketLoop::new(&machine, capper, SocketId(0), &cfg, dufp, &tel).unwrap();
    let start = machine.sample(SocketId(0)).unwrap();

    let ticks_per_interval = cfg.interval.as_micros() / machine.config().tick.as_micros();
    let mut min_cap_seen = f64::INFINITY;
    let mut min_uncore_seen = f64::INFINITY;
    while !machine.done() {
        machine.advance(ticks_per_interval);
        if socket.interval().unwrap().is_some() {
            let act = socket.actuators();
            min_cap_seen = min_cap_seen.min(act.cap_long().value());
            min_uncore_seen = min_uncore_seen.min(act.uncore().as_ghz());
        }
    }
    let end = machine.sample(SocketId(0)).unwrap();

    let secs = end.at.duration_since(start.at).as_seconds();
    let pkg = (end.pkg_energy - start.pkg_energy) / secs;
    println!("\nDUFP @ 10 % on one socket:");
    println!("  execution time   : {:.2} s", secs.value());
    println!("  avg package power: {:.2} W", pkg.value());
    println!("  deepest cap seen : {min_cap_seen:.0} W (floor is 65 W)");
    println!("  lowest uncore    : {min_uncore_seen:.1} GHz (floor is 1.2 GHz)");

    assert!(
        min_cap_seen < arch.pl1_default.value(),
        "DUFP should have lowered the cap at least once"
    );
}
