//! The experiment runner: one application × one controller × one platform.
//!
//! Reproduces the paper's measurement protocol: the application runs on
//! every socket, one controller instance per socket wakes every 200 ms,
//! samples the PAPI-like counters and actuates its socket's uncore
//! frequency and power cap. Execution time, package power, DRAM power and
//! total energy are reported for the whole node.

use crate::journal::{CheckpointState, JournalRecord, SocketRegs, CHECKPOINT_EVERY};
use crate::socket_loop::{SocketLoop, STAGE_BOUNDS};
use crate::stats::{summarize_runs, RepeatedResult};
use dufp_control::{ControlConfig, Controller, Duf, Dufp, NoOp, StaticCap};
use dufp_counters::{CounterSnapshot, Telemetry};
use dufp_journal::{FsyncPolicy, JournalWriter, Recovery};
use dufp_msr::registers::{PerfCtl, UncoreRatioLimit};
use dufp_msr::{FaultPlan, InjectorSnapshot};
use dufp_rapl::{MsrRapl, PowerCapper};
use dufp_sim::{Machine, SimConfig, Trace};
use dufp_telemetry::{
    Actuator, DecisionEvent, Reason, SocketTelemetry, Telemetry as TelemetryHandle, TelemetryReport,
};
use dufp_types::{shutdown, Duration, Error, Joules, Ratio, Result, Seconds, SocketId, Watts};
use dufp_workloads::MaterializeCtx;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which controller to run on each socket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerKind {
    /// Default configuration: nothing actuates.
    Default,
    /// DUF (uncore only) at the given tolerated slowdown.
    Duf {
        /// Tolerated slowdown in `[0, 1)`.
        slowdown: Ratio,
    },
    /// DUFP (uncore + dynamic cap) at the given tolerated slowdown.
    Dufp {
        /// Tolerated slowdown in `[0, 1)`.
        slowdown: Ratio,
    },
    /// The DNPC related-work baseline: cap only, frequency-linear model.
    Dnpc {
        /// Tolerated performance degradation in `[0, 1)`.
        slowdown: Ratio,
    },
    /// DUFP-F: the §VII future-work extension with direct core-frequency
    /// management.
    DufpF {
        /// Tolerated slowdown in `[0, 1)`.
        slowdown: Ratio,
    },
    /// A fixed whole-run power cap (Fig. 1a).
    StaticCap {
        /// The cap applied to both constraints.
        cap: Watts,
    },
    /// A fixed cap applied only within `[start, end)` (Fig. 1b/1c).
    WindowedCap {
        /// The cap applied to both constraints.
        cap: Watts,
        /// Window start, seconds from run start.
        start: Seconds,
        /// Window end, seconds from run start.
        end: Seconds,
    },
}

impl ControllerKind {
    fn build(&self, cfg: &ControlConfig, tel: SocketTelemetry) -> Box<dyn Controller> {
        match *self {
            ControllerKind::Default => Box::new(NoOp),
            ControllerKind::Duf { .. } => Box::new(Duf::new(cfg.clone()).with_telemetry(tel)),
            ControllerKind::Dufp { .. } => Box::new(Dufp::new(cfg.clone()).with_telemetry(tel)),
            ControllerKind::Dnpc { .. } => {
                Box::new(dufp_control::Dnpc::new(cfg.clone()).with_telemetry(tel))
            }
            ControllerKind::DufpF { .. } => {
                Box::new(dufp_control::DufpF::new(cfg.clone()).with_telemetry(tel))
            }
            ControllerKind::StaticCap { cap } => Box::new(StaticCap::whole_run(cap)),
            ControllerKind::WindowedCap { cap, start, end } => {
                Box::new(StaticCap::windowed(cap, start, end))
            }
        }
    }

    fn slowdown(&self) -> Ratio {
        match *self {
            ControllerKind::Duf { slowdown }
            | ControllerKind::Dufp { slowdown }
            | ControllerKind::Dnpc { slowdown }
            | ControllerKind::DufpF { slowdown } => slowdown,
            _ => Ratio(0.0),
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match *self {
            ControllerKind::Default => "default".into(),
            ControllerKind::Duf { slowdown } => {
                format!("DUF@{:.0}%", slowdown.as_percent())
            }
            ControllerKind::Dufp { slowdown } => {
                format!("DUFP@{:.0}%", slowdown.as_percent())
            }
            ControllerKind::Dnpc { slowdown } => {
                format!("DNPC@{:.0}%", slowdown.as_percent())
            }
            ControllerKind::DufpF { slowdown } => {
                format!("DUFP-F@{:.0}%", slowdown.as_percent())
            }
            ControllerKind::StaticCap { cap } => format!("cap{:.0}W", cap.value()),
            ControllerKind::WindowedCap { cap, .. } => {
                format!("cap{:.0}W[window]", cap.value())
            }
        }
    }
}

/// Which stepping engine drives the simulated machine.
///
/// Both engines produce bit-identical decision traces, energies and
/// telemetry — the fast path memoizes the expensive model evaluations of a
/// converged steady stretch and replays only the per-tick noise draws and
/// accumulator updates, re-deriving the operating point whenever any input
/// it depends on changes. `Tick` is the permanent differential oracle: the
/// equivalence suite in `tests/engine_differential.rs` runs every policy,
/// fault plan and crash/resume scenario under both and compares bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Engine {
    /// Legacy fixed-Δt stepping: one full model evaluation per tick.
    Tick,
    /// Memoized fast path (default): full evaluations only at events —
    /// phase changes, register writes, allowance regime crossings.
    #[default]
    Event,
}

impl Engine {
    /// CLI spelling (`--engine tick|event`).
    pub fn parse(s: &str) -> Result<Engine> {
        match s {
            "tick" => Ok(Engine::Tick),
            "event" => Ok(Engine::Event),
            other => Err(Error::invalid(
                "engine",
                format!("unknown engine `{other}` (expected `tick` or `event`)"),
            )),
        }
    }

    /// The CLI spelling of this engine.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Tick => "tick",
            Engine::Event => "event",
        }
    }
}

/// Optional per-run trace request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Socket to trace.
    pub socket: SocketId,
    /// Sampling stride in simulator ticks.
    pub stride: u32,
}

/// A fully-specified experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Platform configuration (the seed inside is overridden per run).
    pub sim: SimConfig,
    /// Application name (see [`dufp_workloads::apps::by_name`]) or, when
    /// the value ends in `.json`, a path to a workload spec file
    /// ([`dufp_workloads::WorkloadFile`]).
    pub app: String,
    /// Controller to run on every socket.
    pub controller: ControllerKind,
    /// Optional frequency/power trace.
    pub trace: Option<TraceSpec>,
    /// Monitoring-interval override in milliseconds (`None` = the paper's
    /// 200 ms). Shorter intervals react faster but cost more controller
    /// work and actuate on noisier samples (§IV-D).
    pub interval_ms: Option<u64>,
    /// When `true`, records decision events, simulator gauges and
    /// pipeline-stage timings, returned in [`RunResult::telemetry`].
    /// Defaults to off: the disabled path costs one branch per record
    /// site, so benchmarks are unaffected.
    #[serde(default)]
    pub telemetry: bool,
    /// Optional fault plan armed against the simulated hardware (chaos
    /// run). Armed after initialization — controller construction and
    /// sampler priming — so scheduled rules are relative to the control
    /// loop's start. The run survives injected faults through the
    /// resilience layer instead of aborting.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// Stepping engine. The default [`Engine::Event`] fast path is
    /// bit-identical to [`Engine::Tick`]; pass `Tick` to run the legacy
    /// per-tick oracle (differential baseline, ~an order of magnitude
    /// slower).
    #[serde(default)]
    pub engine: Engine,
}

/// Whole-node measurements of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Wall-clock execution time.
    pub exec_time: Seconds,
    /// Sum of package energies over all sockets.
    pub pkg_energy: Joules,
    /// Sum of DRAM energies over all sockets.
    pub dram_energy: Joules,
    /// Node-level average package power (all sockets).
    pub avg_pkg_power: Watts,
    /// Node-level average DRAM power.
    pub avg_dram_power: Watts,
    /// The recorded trace, if requested.
    pub trace: Option<Trace>,
    /// Decision events + metrics, when [`ExperimentSpec::telemetry`] is on.
    #[serde(default)]
    pub telemetry: Option<TelemetryReport>,
}

impl RunResult {
    /// Package + DRAM energy.
    pub fn total_energy(&self) -> Joules {
        self.pkg_energy + self.dram_energy
    }
}

/// Takes the end-of-run counter snapshot, riding out injected transient
/// sampler faults with a few retries.
fn sample_end(machine: &Machine, socket: SocketId) -> Result<CounterSnapshot> {
    let mut last = None;
    for _ in 0..4 {
        match machine.sample(socket) {
            Ok(snap) => return Ok(snap),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| Error::Precondition("unreachable: no sample error".into())))
}

/// A journaled-run request handed to the driver by [`crate::journal`].
pub(crate) enum JournalSession {
    /// A fresh run appending to a just-created journal.
    Fresh(JournalWriter),
    /// A crashed run to replay and continue.
    Resume(ResumePoint),
}

/// The validated journal contents a resume starts from.
pub(crate) struct ResumePoint {
    /// Final per-socket registers of every journaled interval, in order.
    pub intervals: Vec<Vec<SocketRegs>>,
    /// The records and the checkpoint to restore (`None`: a full
    /// deterministic replay from the start); reopened for the live run
    /// once replay reaches the checkpoint.
    pub journal: Recovery<CheckpointState>,
    /// Fsync policy for the live portion of the run.
    pub fsync: FsyncPolicy,
}

/// Snapshot of everything the journal registers cannot rebuild, taken at
/// a control-interval boundary.
fn checkpoint_state<C: PowerCapper>(
    interval: u64,
    tick: u64,
    seed: u64,
    sockets: &[SocketLoop<C>],
    injector: Option<InjectorSnapshot>,
) -> CheckpointState {
    let mut cp = CheckpointState {
        interval,
        tick,
        seed,
        controllers: Vec::with_capacity(sockets.len()),
        samplers: Vec::with_capacity(sockets.len()),
        resilience: Vec::with_capacity(sockets.len()),
        actuators: Vec::with_capacity(sockets.len()),
        injector,
    };
    for socket in sockets {
        socket.checkpoint_into(&mut cp);
    }
    cp
}

/// Restores a checkpoint onto freshly constructed socket loops.
fn restore_checkpoint<C: PowerCapper>(
    cp: &CheckpointState,
    sockets: &mut [SocketLoop<C>],
) -> Result<()> {
    let n = sockets.len();
    if cp.controllers.len() != n
        || cp.samplers.len() != n
        || cp.resilience.len() != n
        || cp.actuators.len() != n
    {
        return Err(Error::Corruption(format!(
            "checkpoint describes {} socket(s), run has {n}",
            cp.controllers.len()
        )));
    }
    for (i, socket) in sockets.iter_mut().enumerate() {
        socket.restore(cp, i)?;
    }
    Ok(())
}

/// Executes one run with the given seed.
pub fn run_once(spec: &ExperimentSpec, seed: u64) -> Result<RunResult> {
    run_driver(spec, seed, None)
}

/// The run loop shared by plain, journaled and resumed runs.
pub(crate) fn run_driver(
    spec: &ExperimentSpec,
    seed: u64,
    journal: Option<JournalSession>,
) -> Result<RunResult> {
    spec.sim.validate()?;
    let mut sim = spec.sim.clone();
    sim.seed = seed;
    let arch = sim.arch.clone();
    let machine = Arc::new(Machine::new(sim));
    let ctx = MaterializeCtx::from_arch(&arch);
    // Modeled applications come from the process-wide phase-table cache:
    // a sweep's jobs share one immutable Arc'd table per (app, machine)
    // instead of re-materializing the roofline terms per job. Spec files
    // stay uncached — the file may change between runs.
    let workload = if spec.app.ends_with(".json") {
        Arc::new(dufp_workloads::load_workload(&spec.app, &ctx)?)
    } else {
        dufp_workloads::shared_by_name(&spec.app, &ctx)?
    };
    let nominal = workload.nominal_duration(&ctx);
    machine.load_all(&workload);

    if let Some(t) = spec.trace {
        machine.enable_trace(t.socket, t.stride)?;
    }

    let tel = if spec.telemetry {
        TelemetryHandle::enabled()
    } else {
        TelemetryHandle::disabled()
    };
    machine.attach_telemetry(&tel);
    // Stepping time (µs); a detached no-op when telemetry is off. Each
    // socket loop times its own sample and control stages.
    let tick_us = tel.histogram("runner.tick_us", &STAGE_BOUNDS);
    let timed = tel.is_enabled();

    let mut cfg = ControlConfig::from_arch(&arch, spec.controller.slowdown())?;
    if let Some(ms) = spec.interval_ms {
        if ms == 0 {
            return Err(Error::invalid("interval_ms", "must be positive"));
        }
        cfg.interval = Duration::from_millis(ms);
    }
    let capper = MsrRapl::new(
        Arc::clone(&machine),
        arch.sockets as usize,
        arch.cores_per_socket as usize,
    )?;
    let capper = Arc::new(capper);

    // One socket loop per socket, its sampler primed at t = 0. Its
    // guard restores platform defaults however the run ends — normal
    // completion, error return, panic unwind or a shutdown request.
    let mut sockets = (0..arch.sockets)
        .map(|s| {
            let controller = spec.controller.build(&cfg, tel.for_socket(s));
            SocketLoop::new(
                &machine,
                Arc::clone(&capper),
                SocketId(s),
                &cfg,
                controller,
                &tel,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    let start_snaps: Vec<_> = (0..arch.sockets)
        .map(|s| machine.sample(SocketId(s)))
        .collect::<Result<Vec<_>>>()?;
    let started = machine.now();

    let tick_len = machine.config().tick.as_micros();
    let ticks_per_interval = (cfg.interval.as_micros() / tick_len).max(1);
    let tick_index = || machine.now().0 / tick_len;
    // The one stepping primitive both engines share: advances up to `n`
    // ticks, stopping after the tick on which every socket is done, and
    // returns the ticks advanced. `Tick` is the per-tick oracle; `Event`
    // replays memoized operating points in batches, bit-identically.
    let step = |n: u64| -> u64 {
        match spec.engine {
            Engine::Tick => {
                let mut ticks = 0;
                while ticks < n {
                    machine.tick();
                    ticks += 1;
                    if machine.done() {
                        break;
                    }
                }
                ticks
            }
            Engine::Event => machine.advance(n),
        }
    };

    // Journal activation. On resume this replays the journaled prefix —
    // tick batches plus each interval's final registers, which by the
    // simulator's determinism reproduces the crashed run bit-for-bit up
    // to the checkpoint — then restores the checkpointed soft state and
    // cuts the journal back to the checkpoint (the tail is regenerated
    // identically by the continued live run). The injector stays unarmed
    // throughout replay: its consumed randomness is accounted for by the
    // checkpointed snapshot, not by re-drawing.
    let mut completed: u64 = 0;
    let mut crash_enabled = true;
    let mut restored_injector: Option<InjectorSnapshot> = None;
    let mut writer = match journal {
        None => None,
        Some(JournalSession::Fresh(writer)) => Some(writer),
        Some(JournalSession::Resume(mut resume)) => {
            crash_enabled = false;
            let head = resume.intervals.len() as u64;
            let (replay_to, checkpoint) = match resume.journal.checkpoint.take() {
                Some((seq, cp)) => (seq, Some(cp)),
                None => (0, None),
            };
            for regs in resume.intervals.iter().take(replay_to as usize) {
                step(ticks_per_interval);
                if machine.done() {
                    return Err(Error::Corruption(
                        "journal extends past workload completion".into(),
                    ));
                }
                if regs.len() != sockets.len() {
                    return Err(Error::Corruption(format!(
                        "journal record carries {} socket(s), run has {}",
                        regs.len(),
                        sockets.len()
                    )));
                }
                for (s, r) in regs.iter().enumerate() {
                    machine.with_socket(SocketId(s as u16), |ss| {
                        ss.write_uncore(UncoreRatioLimit::decode(r.uncore));
                        ss.write_limit(r.limit);
                        ss.write_perf_ctl(PerfCtl::decode(r.perf_ctl));
                    })?;
                }
            }
            if let Some(cp) = checkpoint {
                restore_checkpoint(&cp, &mut sockets)?;
                restored_injector = cp.injector;
            }
            completed = replay_to;
            let tick = tick_index();
            let (old, new) = (replay_to as f64, head as f64);
            tel.record_decision(DecisionEvent {
                at_us: machine.now().0,
                ..DecisionEvent::new(tick, Actuator::Journal, old, new, Reason::Resumed)
            });
            Some(resume.journal.reopen(resume.fsync, replay_to)?)
        }
    };

    // Arm the fault plan only now: initialization (and any resume replay)
    // is done, so scheduled rules count from the first control interval
    // and a chaos plan cannot fail the setup path it is not meant to
    // model. A resumed run continues the checkpointed fault stream.
    match (&spec.fault_plan, restored_injector.take()) {
        (Some(plan), Some(snap)) => machine.inject_faults_with_state(plan.clone(), &snap)?,
        (Some(plan), None) => machine.inject_faults(plan.clone()),
        (None, _) => {}
    }
    // A `crash,at=N` rule kills the run once the fault clock reaches N —
    // the in-process stand-in for SIGKILL that the crash-equivalence
    // tests drive. A resumed run never re-crashes: the rule modeled the
    // one crash that already happened.
    let crash_at = if crash_enabled {
        spec.fault_plan.as_ref().and_then(|p| p.crash_tick())
    } else {
        None
    };
    let journal_checkpoints = tel.counter("journal_checkpoints_total");

    let max_duration = Duration::from_seconds(Seconds(nominal.value() * 10.0 + 30.0));

    // Reusable per-interval register buffer for the journal path: the
    // record type owns its Vec, so the buffer round-trips through each
    // record with mem::take and is reclaimed after encoding — one
    // allocation for the whole run instead of one per control interval.
    let mut regs_buf: Vec<SocketRegs> = Vec::with_capacity(sockets.len());

    'outer: loop {
        if shutdown::requested() {
            // Early return drops the guards, which restore the hardware.
            return Err(Error::Precondition(
                "run interrupted by shutdown request".into(),
            ));
        }
        let t0 = timed.then(std::time::Instant::now);
        // Step up to the next *scheduled* event: the interval boundary, a
        // `crash,at=N` rule, or the 10× timeout. Each barrier caps the
        // batch so its check fires at exactly the tick a per-tick loop
        // would fire it; completion needs no barrier because `step` stops
        // the moment every socket reports done.
        let mut remaining = ticks_per_interval;
        while remaining > 0 {
            let mut batch = remaining;
            if let Some(at) = crash_at {
                batch = batch.min(at.saturating_sub(tick_index()).max(1));
            }
            let elapsed = machine.now().duration_since(started).as_micros();
            let budget = max_duration.as_micros().saturating_sub(elapsed);
            batch = batch.min(budget.div_ceil(tick_len).max(1));
            remaining -= step(batch).min(remaining);
            if machine.done() {
                break 'outer;
            }
            if let Some(at) = crash_at.filter(|&at| tick_index() >= at) {
                // The modeled process death: the journal keeps only what
                // was durably appended — no Complete record — and the
                // safe-state guards restore the platform as the error
                // unwinds, exactly like a wrapper script cleaning up after
                // a killed run.
                return Err(Error::Precondition(format!(
                    "fault plan crash at tick {at}"
                )));
            }
            if machine.now().duration_since(started) >= max_duration {
                return Err(Error::Precondition(format!(
                    "{} did not finish within 10x nominal time under {}",
                    spec.app,
                    spec.controller.label()
                )));
            }
        }
        if let Some(t0) = t0 {
            tick_us.observe(t0.elapsed().as_secs_f64() * 1e6);
        }
        for socket in &mut sockets {
            socket.interval()?;
        }
        let tick_now = tick_index();
        completed += 1;
        if let Some(w) = writer.as_mut() {
            // Journal the interval's *final* register state — the complete
            // actuation surface, whatever mix of controller moves, retries
            // and degradations produced it.
            regs_buf.clear();
            for s in 0..sockets.len() {
                regs_buf.push(machine.with_socket(SocketId(s as u16), |ss| SocketRegs {
                    uncore: ss.uncore_raw().encode(),
                    limit: ss.limit_raw(),
                    perf_ctl: ss.perf_ctl().encode(),
                })?);
            }
            let record = JournalRecord::Interval {
                index: completed - 1,
                tick: tick_now,
                sockets: std::mem::take(&mut regs_buf),
            };
            w.append(&record.encode()?)?;
            let JournalRecord::Interval { sockets: regs, .. } = record else {
                unreachable!("record constructed as Interval above");
            };
            regs_buf = regs;
            if completed.is_multiple_of(CHECKPOINT_EVERY) {
                let cp = checkpoint_state(
                    completed,
                    tick_now,
                    seed,
                    &sockets,
                    machine.injector_snapshot(),
                );
                w.checkpoint(&cp.encode()?)?;
                journal_checkpoints.inc();
                let (old, new) = ((completed - CHECKPOINT_EVERY) as f64, completed as f64);
                tel.record_decision(DecisionEvent {
                    at_us: machine.now().0,
                    ..DecisionEvent::new(tick_now, Actuator::Journal, old, new, Reason::Checkpoint)
                });
            }
        }
    }

    if let Some(w) = writer.as_mut() {
        let record = JournalRecord::Complete {
            intervals: completed,
            tick: tick_index(),
        };
        w.append(&record.encode()?)?;
        w.sync()?;
    }

    let exec_time = machine.now().duration_since(started).as_seconds();
    let mut pkg = Joules(0.0);
    let mut dram = Joules(0.0);
    for (s, start) in start_snaps.iter().enumerate() {
        let end = sample_end(machine.as_ref(), SocketId(s as u16))?;
        pkg += end.pkg_energy - start.pkg_energy;
        dram += end.dram_energy - start.dram_energy;
    }

    // Restore platform defaults through the guards *before* draining the
    // report, so the restore (and any pending degradation) events are part
    // of the trace the caller sees.
    for socket in sockets {
        socket.restore_defaults();
    }

    let trace = match spec.trace {
        Some(t) => machine.take_trace(t.socket)?,
        None => None,
    };

    Ok(RunResult {
        exec_time,
        avg_pkg_power: pkg / exec_time,
        avg_dram_power: dram / exec_time,
        pkg_energy: pkg,
        dram_energy: dram,
        trace,
        telemetry: spec.telemetry.then(|| tel.report()),
    })
}

/// Executes `runs` seeded repetitions in parallel and summarizes them with
/// the paper's trimmed statistics.
pub fn run_repeated(spec: &ExperimentSpec, runs: usize, base_seed: u64) -> Result<RepeatedResult> {
    if runs == 0 {
        return Err(Error::Precondition("runs must be >= 1".into()));
    }
    let results: Vec<RunResult> = (0..runs)
        .into_par_iter()
        .map(|i| run_once(spec, base_seed.wrapping_add(i as u64 * 7919)))
        .collect::<Result<Vec<_>>>()?;
    Ok(summarize_runs(results.iter().map(|r| {
        [
            r.exec_time.value(),
            r.avg_pkg_power.value(),
            r.avg_dram_power.value(),
            r.total_energy().value(),
        ]
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(app: &str, controller: ControllerKind) -> ExperimentSpec {
        ExperimentSpec {
            sim: SimConfig::yeti_single_socket(0),
            app: app.into(),
            controller,
            trace: None,
            interval_ms: None,
            telemetry: false,
            fault_plan: None,
            engine: Engine::default(),
        }
    }

    #[test]
    fn default_run_produces_sane_numbers() {
        let r = run_once(&spec("EP", ControllerKind::Default), 1).unwrap();
        assert!(
            (25.0..40.0).contains(&r.exec_time.value()),
            "{:?}",
            r.exec_time
        );
        assert!(
            (100.0..135.0).contains(&r.avg_pkg_power.value()),
            "pkg {:?}",
            r.avg_pkg_power
        );
        assert!(r.avg_dram_power.value() > 10.0);
        assert!(r.total_energy().value() > 0.0);
    }

    #[test]
    fn unknown_app_errors() {
        assert!(run_once(&spec("NOPE", ControllerKind::Default), 1).is_err());
    }

    #[test]
    fn static_cap_reduces_power_and_slows_compute() {
        let free = run_once(&spec("EP", ControllerKind::Default), 1).unwrap();
        let capped = run_once(
            &spec("EP", ControllerKind::StaticCap { cap: Watts(100.0) }),
            1,
        )
        .unwrap();
        assert!(capped.avg_pkg_power.value() < free.avg_pkg_power.value() - 10.0);
        assert!(capped.exec_time.value() > free.exec_time.value() * 1.02);
    }

    #[test]
    fn dufp_respects_large_slowdown_budget_on_ep() {
        let free = run_once(&spec("EP", ControllerKind::Default), 2).unwrap();
        let dufp = run_once(
            &spec(
                "EP",
                ControllerKind::Dufp {
                    slowdown: Ratio::from_percent(20.0),
                },
            ),
            2,
        )
        .unwrap();
        let overhead = dufp.exec_time.value() / free.exec_time.value() - 1.0;
        assert!(overhead < 0.25, "overhead {overhead}");
        assert!(
            dufp.avg_pkg_power.value() < free.avg_pkg_power.value(),
            "DUFP must save power on EP"
        );
    }

    #[test]
    fn trace_request_round_trips() {
        let mut s = spec("CG", ControllerKind::Default);
        s.trace = Some(TraceSpec {
            socket: SocketId(0),
            stride: 100,
        });
        let r = run_once(&s, 3).unwrap();
        let trace = r.trace.expect("trace requested");
        assert!(!trace.points.is_empty());
    }

    #[test]
    fn telemetry_off_by_default_and_absent_from_results() {
        let r = run_once(&spec("EP", ControllerKind::Default), 1).unwrap();
        assert!(r.telemetry.is_none());
    }

    #[test]
    fn telemetry_run_reports_decisions_and_stage_timings() {
        let mut s = spec(
            "CG",
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
        );
        s.telemetry = true;
        let r = run_once(&s, 4).unwrap();
        let report = r.telemetry.expect("telemetry requested");
        assert!(!report.decisions.is_empty(), "DUFP on CG must actuate");
        assert_eq!(report.dropped, 0);
        // Every event carries a typed reason; the per-reason tally must
        // account for every decision.
        let total: usize = report.counts_by_reason().iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.decisions.len());
        // Stage timings and simulator gauges all made it into the snapshot.
        for h in ["runner.tick_us", "runner.sample_us", "runner.control_us"] {
            let hist = report
                .metrics
                .histograms
                .iter()
                .find(|s| s.name == h)
                .unwrap_or_else(|| panic!("missing histogram {h}"));
            assert!(hist.count > 0, "{h} never observed");
        }
        assert!(report
            .metrics
            .gauges
            .iter()
            .any(|g| g.name == "sim.socket0.pkg_power_w" && g.value > 0.0));
    }

    #[test]
    fn chaos_run_degrades_and_restores_without_aborting() {
        // ~1 % of all actuator writes fail transiently, and every cap write
        // fails for 25 consecutive intervals (ticks 200..5200): the retry
        // layer must ride out the noise, the burst must degrade DUFP to
        // uncore-only, and the run must still finish with a safe-state
        // restore on record.
        let mut s = spec(
            "EP",
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
        );
        s.telemetry = true;
        s.fault_plan = Some(
            FaultPlan::parse("seed=42;write,p=0.01;write,reg=cap,cpu=0-15,window=200+5000")
                .expect("valid plan"),
        );
        let r = run_once(&s, 4).expect("chaos run must survive its faults");
        assert!(r.exec_time.value() > 0.0);
        let report = r.telemetry.expect("telemetry requested");
        let count = |reason| {
            report
                .decisions
                .iter()
                .filter(|e| e.reason == reason)
                .count()
        };
        assert!(
            count(Reason::ActuationRetry) > 0,
            "transient faults must be retried"
        );
        assert!(
            count(Reason::Degraded) > 0,
            "a persistent cap-write burst must degrade DUFP to uncore-only"
        );
        assert!(
            count(Reason::SafeStateRestore) > 0,
            "the guard must log the end-of-run restore"
        );
    }

    #[test]
    fn repeated_runs_summarize() {
        let r = run_repeated(&spec("EP", ControllerKind::Default), 4, 10).unwrap();
        assert_eq!(r.exec_time.n, 2, "4 runs, trimmed to 2");
        assert!(r.exec_time.relative_spread() < 0.05);
    }

    #[test]
    fn zero_runs_rejected() {
        assert!(run_repeated(&spec("EP", ControllerKind::Default), 0, 1).is_err());
    }
}
