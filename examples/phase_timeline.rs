//! Watch DUFP's decisions unfold over time on UA — the application whose
//! alternating 1-compute/N-memory iteration structure defeats phase
//! detection under deep caps (the paper's §V-A UA discussion).
//!
//! Prints a 200 ms-interval timeline: operational intensity, phase class,
//! FLOPS/s, the cap and the uncore frequency DUFP chose. DUFP runs in a
//! [`SocketLoop`], the runner's per-socket stack; each line shows the
//! metrics the loop handed DUFP and the knobs it left behind.
//!
//! ```sh
//! cargo run --release --example phase_timeline -- UA 0
//! ```

use dufp::prelude::*;
use dufp_control::PhaseClass;
use dufp_rapl::MsrRapl;
use std::sync::Arc;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "UA".to_string());
    let pct: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);

    let sim = SimConfig::yeti_single_socket(11);
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);
    let workload = apps::by_name(&app, &ctx).unwrap();

    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&workload);

    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(pct)).unwrap();
    let capper =
        Arc::new(MsrRapl::new(Arc::clone(&machine), 1, arch.cores_per_socket as usize).unwrap());
    let dufp = Box::new(Dufp::new(cfg.clone()));
    let tel = dufp_telemetry::Telemetry::disabled();
    let mut socket = SocketLoop::new(&machine, capper, SocketId(0), &cfg, dufp, &tel).unwrap();

    println!("{app} under DUFP @ {pct:.0}% — first 12 seconds of decisions\n");
    println!("   t(s)    oi      class    GFLOP/s    bw(GiB/s)   pkg(W)   cap(W)  uncore(GHz)");

    let ticks_per_interval = cfg.interval.as_micros() / machine.config().tick.as_micros();
    while !machine.done() && machine.now().as_seconds().value() < 12.0 {
        machine.advance(ticks_per_interval);
        if let Some(m) = socket.interval().unwrap() {
            let act = socket.actuators();
            let class = match PhaseClass::of(m.oi.value()) {
                PhaseClass::Memory => "memory",
                PhaseClass::Cpu => "cpu",
            };
            println!(
                "  {:5.1}  {:7.3}  {:<7}  {:9.1}  {:10.1}  {:7.1}  {:6.0}  {:^10.1}",
                m.at.as_seconds().value(),
                m.oi.value(),
                class,
                m.flops.as_gflops(),
                m.bandwidth.as_gib(),
                m.pkg_power.value(),
                act.cap_long().value(),
                act.uncore().as_ghz(),
            );
        }
    }

    println!(
        "\nNote the compute spikes (oi jumps above 1): when a deep cap flattens \
         them the 'FLOPS/s doubled' phase trigger misses, the cap is not reset, \
         and UA accumulates overhead beyond the 0 % tolerance (paper §V-A)."
    );
}
