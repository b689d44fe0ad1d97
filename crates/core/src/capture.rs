//! Record-and-model pipeline: run an application under the measurement
//! layer, capture its counter trace, and emit a workload description that
//! reproduces the same signature.
//!
//! This is how a real deployment would characterize its own codes — run
//! once in the default configuration, keep the JSON, and use it for
//! offline what-if studies (tolerance sweeps, budget planning) without
//! occupying the machine again.

use dufp_counters::Sampler;
use dufp_sim::{Machine, SimConfig};
use dufp_types::{Duration, Result, Seconds, SocketId};
use dufp_workloads::capture::{segment_with_power, CounterSample};
use dufp_workloads::{apps, MaterializeCtx, Workload, WorkloadFile};

/// Runs `app` (a model name or a `.json` spec path) once on `sim` in the
/// default configuration and records the 200 ms counter trace of socket 0.
///
/// Aborts with [`dufp_types::Error::Timeout`] — carrying the number of
/// samples captured so far — if the simulated run exceeds ten times the
/// workload's nominal duration (plus a 30 s grace), which indicates a
/// wedged workload or a mis-calibrated machine description.
pub fn record_trace(sim: &SimConfig, app: &str) -> Result<Vec<CounterSample>> {
    record_trace_with_deadline(sim, app, None)
}

/// [`record_trace`] with an explicit deadline override (used by the
/// timeout regression test; `None` applies the 10x-nominal rule).
fn record_trace_with_deadline(
    sim: &SimConfig,
    app: &str,
    deadline: Option<Duration>,
) -> Result<Vec<CounterSample>> {
    let ctx = MaterializeCtx::from_arch(&sim.arch);
    let workload: Workload = if app.ends_with(".json") {
        dufp_workloads::load_workload(app, &ctx)?
    } else {
        apps::by_name(app, &ctx)?
    };
    let machine = Machine::new(sim.clone());
    machine.load_all(&workload);

    let mut sampler = Sampler::new();
    sampler.sample(&machine, SocketId(0))?;
    let interval = Duration::from_millis(200);
    let ticks = (interval.as_micros() / sim.tick.as_micros()).max(1);
    let mut out = Vec::new();
    let max = deadline.unwrap_or_else(|| {
        Duration::from_seconds(Seconds(
            workload.nominal_duration(&ctx).value() * 10.0 + 30.0,
        ))
    });
    while !machine.done() {
        machine.advance(ticks);
        if machine.now().duration_since(dufp_types::Instant::ZERO) >= max {
            return Err(dufp_types::Error::Timeout {
                what: "trace recording",
                partial_len: out.len(),
            });
        }
        if let Some(m) = sampler.sample(&machine, SocketId(0))? {
            out.push(CounterSample {
                interval: m.interval,
                flops: m.flops,
                bandwidth: m.bandwidth,
                power: m.pkg_power,
            });
        }
    }
    Ok(out)
}

/// Records `app` and segments the trace into a saveable workload file.
pub fn record_workload(sim: &SimConfig, app: &str) -> Result<WorkloadFile> {
    let trace = record_trace(sim, app)?;
    let ctx = MaterializeCtx::from_arch(&sim.arch);
    let phases = segment_with_power(&trace, &ctx, &sim.power, sim.arch.uncore_freq_max)?;
    Ok(WorkloadFile {
        name: format!("{app}-captured"),
        phases,
        repeat: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_once, ControllerKind, ExperimentSpec};
    use dufp_types::Ratio;

    #[test]
    fn captured_cg_round_trips_through_the_simulator() {
        // Record CG, rebuild it from its own counter trace, and check the
        // rebuilt model matches the original where it matters: duration,
        // a highly-memory region, and similar DUFP behaviour.
        let sim = SimConfig::deterministic(3);
        let ctx = MaterializeCtx::from_arch(&sim.arch);
        let file = record_workload(&sim, "CG").unwrap();

        let original = apps::by_name("CG", &ctx).unwrap();
        let rebuilt = file.materialize(&ctx).unwrap();
        let d0 = original.nominal_duration(&ctx).value();
        let d1 = rebuilt.nominal_duration(&ctx).value();
        assert!(
            (d1 - d0).abs() / d0 < 0.10,
            "captured duration {d1:.1}s vs original {d0:.1}s"
        );
        // The highly-memory prologue must survive the round trip.
        assert!(
            file.phases.iter().any(|p| p.oi < 0.02),
            "prologue lost: {:#?}",
            file.phases.iter().map(|p| p.oi).collect::<Vec<_>>()
        );

        // And DUFP on the rebuilt model behaves like DUFP on the original.
        let dir = std::env::temp_dir().join(format!("dufp-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cg-captured.json");
        file.save(&path).unwrap();

        let spec = |app: String| ExperimentSpec {
            sim: SimConfig::deterministic(3),
            app,
            controller: ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
            trace: None,
            interval_ms: None,
            telemetry: false,
            fault_plan: None,
            engine: Default::default(),
        };
        let orig = run_once(&spec("CG".into()), 3).unwrap();
        let capt = run_once(&spec(path.to_str().unwrap().into()), 3).unwrap();
        // Memory-phase compute headroom is not observable from one trace
        // (see `dufp_workloads::capture::MEMORY_HEADROOM`), so the captured model's
        // cap response differs somewhat; a 15 % band covers the heuristic.
        let power_gap = (orig.avg_pkg_power.value() - capt.avg_pkg_power.value()).abs()
            / orig.avg_pkg_power.value();
        assert!(
            power_gap < 0.15,
            "DUFP power on captured model diverges: {:.1} vs {:.1} W",
            orig.avg_pkg_power.value(),
            capt.avg_pkg_power.value()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overrunning_a_recording_returns_a_typed_timeout_with_partial_progress() {
        // A 1 s deadline on a multi-second workload: the recorder must
        // abort with Error::Timeout and report how many 200 ms samples it
        // captured before giving up, so callers can salvage the prefix.
        let sim = SimConfig::deterministic(7);
        let err = record_trace_with_deadline(&sim, "CG", Some(Duration::from_secs(1))).unwrap_err();
        match err {
            dufp_types::Error::Timeout { what, partial_len } => {
                assert_eq!(what, "trace recording");
                assert!(
                    (1..=5).contains(&partial_len),
                    "expected a short partial trace, got {partial_len}"
                );
            }
            other => panic!("expected Error::Timeout, got {other:?}"),
        }
    }

    #[test]
    fn recording_ep_yields_one_compute_phase() {
        let sim = SimConfig::deterministic(5);
        let file = record_workload(&sim, "EP").unwrap();
        assert_eq!(file.phases.len(), 1, "{:#?}", file.phases);
        assert!(file.phases[0].oi > 100.0);
    }
}
