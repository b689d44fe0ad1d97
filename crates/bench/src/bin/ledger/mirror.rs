//! Mirrors: copies of the shipped run loops — the runner's plain
//! path (`dufp::run_once`) and the scenario engine (`dufp_scenario::run_one`)
//! — that time each public call into a layer from the benchmark's own
//! code. The traced run checks every mirrored result bit for bit against
//! the real function, so a mirror that drifts from the shipped loop fails
//! the run instead of measuring something else.

use crate::stats::ns_since;
use dufp::{ControllerKind, Engine, ExperimentSpec, Watchdog};
use dufp_control::{
    Actuators, ControlConfig, Controller, Dnpc, Duf, Dufp, DufpF, HwActuators, NoOp,
    ResilientActuators, SafeStateGuard, StaticCap,
};
use dufp_counters::{CounterSnapshot, Sampler, Telemetry as _};
use dufp_net::{CoordinatorConfig, FleetCore, Frame, GrantKind};
use dufp_rapl::MsrRapl;
use dufp_scenario::{LoadProfile, PolicyChoice, ScenarioSpec};
use dufp_sim::{Machine, SharedSocketSim};
use dufp_telemetry::{SocketTelemetry, Telemetry};
use dufp_types::{Duration, Error, Hertz, Joules, Ratio, Result, Seconds, SocketId, Watts};
use dufp_workloads::{cache, MaterializeCtx};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer time and counts collected by [`run_once`].
#[derive(Debug, Default)]
pub struct RunnerProbe {
    /// `Machine::advance` (event engine) time, calls and ticks advanced.
    pub advance_ns: u64,
    pub advance_calls: u64,
    pub advanced_ticks: u64,
    /// `Machine::tick` (tick oracle) time and ticks.
    pub tick_ns: u64,
    pub ticks: u64,
    /// One sample per `Sampler::sample` call.
    pub sample_ns: Vec<u64>,
    pub watchdog_trips: u64,
    /// Self time of each `Controller::on_interval` call (actuator calls
    /// excluded), keyed by the grid's policy name.
    pub on_interval_ns: BTreeMap<String, Vec<u64>>,
    pub intervals: u64,
    /// One sample per actuator call that reaches the hardware layers.
    pub actuate_ns: Vec<u64>,
    pub actuate_errors: u64,
}

/// The runner's controller construction (`ControllerKind::build`).
fn build(kind: &ControllerKind, cfg: &ControlConfig, tel: SocketTelemetry) -> Box<dyn Controller> {
    match *kind {
        ControllerKind::Default => Box::new(NoOp),
        ControllerKind::Duf { .. } => Box::new(Duf::new(cfg.clone()).with_telemetry(tel)),
        ControllerKind::Dufp { .. } => Box::new(Dufp::new(cfg.clone()).with_telemetry(tel)),
        ControllerKind::Dnpc { .. } => Box::new(Dnpc::new(cfg.clone()).with_telemetry(tel)),
        ControllerKind::DufpF { .. } => Box::new(DufpF::new(cfg.clone()).with_telemetry(tel)),
        ControllerKind::StaticCap { cap } => Box::new(StaticCap::whole_run(cap)),
        ControllerKind::WindowedCap { cap, start, end } => {
            Box::new(StaticCap::windowed(cap, start, end))
        }
    }
}

fn slowdown(kind: &ControllerKind) -> Ratio {
    match *kind {
        ControllerKind::Duf { slowdown }
        | ControllerKind::Dufp { slowdown }
        | ControllerKind::Dnpc { slowdown }
        | ControllerKind::DufpF { slowdown } => slowdown,
        _ => Ratio(0.0),
    }
}

/// Forwards every actuator call, timing the ones that reach the RAPL and
/// MSR layers; the cached getters pass through untimed.
struct TimedActuators<'a> {
    inner: &'a mut dyn Actuators,
    ns: &'a mut Vec<u64>,
    errors: &'a mut u64,
}

impl TimedActuators<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Actuators) -> Result<T>) -> Result<T> {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.ns.push(ns_since(t));
        if r.is_err() {
            *self.errors += 1;
        }
        r
    }
}

impl Actuators for TimedActuators<'_> {
    fn set_uncore(&mut self, f: Hertz) -> Result<()> {
        self.timed(|a| a.set_uncore(f))
    }
    fn reset_uncore(&mut self) -> Result<()> {
        self.timed(|a| a.reset_uncore())
    }
    fn uncore(&self) -> Hertz {
        self.inner.uncore()
    }
    fn read_uncore(&mut self) -> Result<Hertz> {
        self.timed(|a| a.read_uncore())
    }
    fn set_cap_both(&mut self, w: Watts) -> Result<()> {
        self.timed(|a| a.set_cap_both(w))
    }
    fn set_cap_long(&mut self, w: Watts) -> Result<()> {
        self.timed(|a| a.set_cap_long(w))
    }
    fn set_cap_short(&mut self, w: Watts) -> Result<()> {
        self.timed(|a| a.set_cap_short(w))
    }
    fn reset_cap(&mut self) -> Result<()> {
        self.timed(|a| a.reset_cap())
    }
    fn cap_long(&self) -> Watts {
        self.inner.cap_long()
    }
    fn cap_short(&self) -> Watts {
        self.inner.cap_short()
    }
    fn cap_defaults(&self) -> (Watts, Watts) {
        self.inner.cap_defaults()
    }
    fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()> {
        self.timed(|a| a.set_core_freq_cap(f))
    }
    fn reset_core_freq_cap(&mut self) -> Result<()> {
        self.timed(|a| a.reset_core_freq_cap())
    }
    fn core_freq_cap(&self) -> Hertz {
        self.inner.core_freq_cap()
    }
}

/// Whole-node results of a mirrored run, as `run_once` reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeResult {
    pub exec_time: Seconds,
    pub pkg_energy: Joules,
    pub dram_energy: Joules,
}

fn sample_end(machine: &Machine, socket: SocketId) -> Result<CounterSnapshot> {
    let mut last = None;
    for _ in 0..4 {
        match machine.sample(socket) {
            Ok(snap) => return Ok(snap),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| Error::Precondition("no sample error".into())))
}

/// The runner's plain loop (`run_once` without telemetry, fault plan,
/// trace or journal), with every layer call timed into `p`.
pub fn run_once(
    spec: &ExperimentSpec,
    seed: u64,
    policy: &str,
    p: &mut RunnerProbe,
) -> Result<NodeResult> {
    if spec.telemetry || spec.fault_plan.is_some() || spec.trace.is_some() {
        return Err(Error::Precondition(
            "the runner mirror covers plain runs only".into(),
        ));
    }
    spec.sim.validate()?;
    let mut sim = spec.sim.clone();
    sim.seed = seed;
    let arch = sim.arch.clone();
    let machine = Arc::new(Machine::new(sim));
    let ctx = MaterializeCtx::from_arch(&arch);
    let workload = cache::shared_by_name(&spec.app, &ctx)?;
    let nominal = workload.nominal_duration(&ctx);
    machine.load_all(&workload);
    let tel = Telemetry::disabled();
    machine.attach_telemetry(&tel);

    let mut cfg = ControlConfig::from_arch(&arch, slowdown(&spec.controller))?;
    if let Some(ms) = spec.interval_ms {
        if ms == 0 {
            return Err(Error::invalid("interval_ms", "must be positive"));
        }
        cfg.interval = Duration::from_millis(ms);
    }
    let capper = Arc::new(MsrRapl::new(
        Arc::clone(&machine),
        arch.sockets as usize,
        arch.cores_per_socket as usize,
    )?);
    let mut per_socket = (0..arch.sockets)
        .map(|s| {
            let act = HwActuators::new(
                Arc::clone(&machine),
                Arc::clone(&capper),
                SocketId(s),
                usize::from(s) * usize::from(arch.cores_per_socket),
                cfg.clone(),
            )?;
            let stel = tel.for_socket(s);
            let resilient =
                ResilientActuators::new(act, cfg.cap_floor).with_telemetry(stel.clone());
            let watchdog = Watchdog::new(
                cfg.interval.as_seconds(),
                Watts(arch.pl2_default.value() * 4.0),
            );
            Ok((
                build(&spec.controller, &cfg, stel.clone()),
                Sampler::new(),
                watchdog,
                SafeStateGuard::new(resilient).with_telemetry(stel),
            ))
        })
        .collect::<Result<Vec<_>>>()?;

    for (idx, (_, sampler, _, _)) in per_socket.iter_mut().enumerate() {
        sampler.sample(machine.as_ref(), SocketId(idx as u16))?;
    }
    let start_snaps = (0..arch.sockets)
        .map(|s| machine.sample(SocketId(s)))
        .collect::<Result<Vec<_>>>()?;
    let started = machine.now();
    let tick_len = machine.config().tick.as_micros();
    let ticks_per_interval = (cfg.interval.as_micros() / tick_len).max(1);
    let max_duration = Duration::from_seconds(Seconds(nominal.value() * 10.0 + 30.0));
    let timeout = || {
        Error::Precondition(format!(
            "{} did not finish within 10x nominal time under {}",
            spec.app,
            spec.controller.label()
        ))
    };
    let on_interval = p.on_interval_ns.entry(policy.to_string()).or_default();

    'outer: loop {
        match spec.engine {
            Engine::Tick => {
                let t = Instant::now();
                let mut n = 0;
                let mut finished = false;
                for _ in 0..ticks_per_interval {
                    machine.tick();
                    n += 1;
                    if machine.done() {
                        finished = true;
                        break;
                    }
                    if machine.now().duration_since(started) >= max_duration {
                        return Err(timeout());
                    }
                }
                p.tick_ns += ns_since(t);
                p.ticks += n;
                if finished {
                    break 'outer;
                }
            }
            Engine::Event => {
                let mut remaining = ticks_per_interval;
                while remaining > 0 {
                    let elapsed = machine.now().duration_since(started).as_micros();
                    let budget = max_duration.as_micros().saturating_sub(elapsed);
                    let batch = remaining.min(budget.div_ceil(tick_len).max(1));
                    let t = Instant::now();
                    let advanced = machine.advance(batch);
                    p.advance_ns += ns_since(t);
                    p.advance_calls += 1;
                    p.advanced_ticks += advanced;
                    remaining -= advanced.min(remaining);
                    if machine.done() {
                        break 'outer;
                    }
                    if machine.now().duration_since(started) >= max_duration {
                        return Err(timeout());
                    }
                }
            }
        }
        for (idx, (controller, sampler, watchdog, act)) in per_socket.iter_mut().enumerate() {
            let t = Instant::now();
            let sampled = sampler.sample(machine.as_ref(), SocketId(idx as u16))?;
            p.sample_ns.push(ns_since(t));
            let Some(metrics) = sampled else { continue };
            if watchdog.check(&metrics).is_some() {
                sampler.reset();
                let _ = act.reset_cap();
                p.watchdog_trips += 1;
                continue;
            }
            let before = p.actuate_ns.len();
            let t = Instant::now();
            controller.on_interval(
                &metrics,
                &mut TimedActuators {
                    inner: &mut **act,
                    ns: &mut p.actuate_ns,
                    errors: &mut p.actuate_errors,
                },
            )?;
            let total = ns_since(t);
            let actuation: u64 = p.actuate_ns[before..].iter().sum();
            on_interval.push(total.saturating_sub(actuation));
            p.intervals += 1;
        }
    }

    let exec_time = machine.now().duration_since(started).as_seconds();
    let mut pkg = Joules(0.0);
    let mut dram = Joules(0.0);
    for (s, start) in start_snaps.iter().enumerate() {
        let end = sample_end(machine.as_ref(), SocketId(s as u16))?;
        pkg += end.pkg_energy - start.pkg_energy;
        dram += end.dram_energy - start.dram_energy;
    }
    for (_, _, _, guard) in per_socket {
        drop(guard.restore_now());
    }
    Ok(NodeResult {
        exec_time,
        pkg_energy: pkg,
        dram_energy: dram,
    })
}

/// Physics sub-steps per control interval; must equal the scenario
/// engine's (the equivalence guard fails otherwise).
const SUBSTEPS: u32 = 5;

/// Per-layer time collected by [`run_one`].
#[derive(Debug, Default)]
pub struct ScenarioProbe {
    /// One sample per control interval (all nodes).
    pub interval_ns: Vec<u64>,
    /// One sample per `SharedSocketSim::step_fast` call.
    pub step_ns: Vec<u64>,
    /// Arrival model: `LoadProfile::intensity` and the intensity updates.
    pub arrival_ns: u64,
    /// Coordinator: reports, `FleetCore::epoch_once` and grant delivery.
    pub core_ns: u64,
}

/// The outputs the equivalence guard compares against `run_one`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetResult {
    pub fleet_energy_j: f64,
    pub grants: u64,
    pub shrinks: u64,
    pub conservation_ok: bool,
}

/// The scenario engine's loop (`run_one` without its telemetry), timed.
pub fn run_one(
    spec: &ScenarioSpec,
    seed: u64,
    policy: PolicyChoice,
    p: &mut ScenarioProbe,
) -> Result<FleetResult> {
    spec.validate()?;
    let dt = spec.interval_ms as f64 / 1000.0;
    let intervals = (spec.duration_s / dt).ceil() as u64;
    let sub_dt = Seconds(dt / f64::from(SUBSTEPS));

    let mut sims = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
        let class = spec
            .class_of(node)
            .ok_or_else(|| Error::invalid("node", "unresolved machine class"))?;
        let ctx = class.materialize_ctx();
        let weights = ScenarioSpec::weights_of(node);
        let mut tenants = Vec::with_capacity(node.tenants.len());
        for (app, w) in node.tenants.iter().zip(&weights) {
            let table = cache::shared_by_name(app, &ctx)?;
            tenants.push((app.clone(), Arc::new(table.scaled(*w)?)));
        }
        sims.push(SharedSocketSim::new(class.shared_cfg(), tenants)?);
    }

    let mut core = match policy.kind() {
        None => None,
        Some(kind) => {
            let mut cfg = CoordinatorConfig::new("scenario:virtual", Watts(spec.budget_w))
                .with_epoch(std::time::Duration::from_millis(
                    spec.interval_ms * u64::from(spec.epoch_intervals),
                ));
            cfg.policy = kind;
            cfg.floor = Watts(
                sims.iter()
                    .map(|s| s.cfg().cap_floor.value())
                    .fold(f64::INFINITY, f64::min),
            );
            cfg.node_max = Watts(sims.iter().map(|s| s.cfg().pl1.value()).fold(0.0, f64::max));
            cfg.validate()?;
            let mut core = FleetCore::new(&cfg, Telemetry::disabled());
            for (node, sim) in spec.nodes.iter().zip(&mut sims) {
                let floor = sim.cfg().cap_floor;
                let pl1 = sim.cfg().pl1;
                core.admit(node.id.clone(), node.tenants.join("+"), floor, pl1, 0)?;
                sim.set_ceiling(floor);
            }
            Some(core)
        }
    };

    let profile = LoadProfile::new(&spec.arrival, seed, spec.duration_s);
    let mut epoch_energy = vec![0.0; spec.nodes.len()];
    let mut node_energy = vec![0.0; spec.nodes.len()];
    let mut out = FleetResult {
        fleet_energy_j: 0.0,
        grants: 0,
        shrinks: 0,
        conservation_ok: true,
    };
    for tick in 0..intervals {
        let interval = Instant::now();
        let t = tick as f64 * dt;
        let now_ms = tick * spec.interval_ms;

        let span = Instant::now();
        for (i, sim) in sims.iter_mut().enumerate() {
            let v = profile.intensity(t, i as f64 * spec.arrival.node_stagger_s);
            for j in 0..sim.tenant_count() {
                sim.set_intensity(j, v);
            }
        }
        p.arrival_ns += ns_since(span);

        for (i, sim) in sims.iter_mut().enumerate() {
            for _ in 0..SUBSTEPS {
                let span = Instant::now();
                let step = sim.step_fast(sub_dt);
                p.step_ns.push(ns_since(span));
                let attributed: f64 = step.tenant_energy_j.iter().sum();
                out.conservation_ok &= attributed == step.pkg_energy_j;
                node_energy[i] += step.pkg_energy_j;
                epoch_energy[i] += step.pkg_energy_j;
            }
        }

        if let Some(core) = core.as_mut() {
            if (tick + 1) % u64::from(spec.epoch_intervals) == 0 {
                let span = Instant::now();
                let epoch_s = dt * f64::from(spec.epoch_intervals);
                for (i, sim) in sims.iter().enumerate() {
                    let avg = Watts(epoch_energy[i] / epoch_s);
                    core.on_report(i, tick, sim.ceiling(), avg, sim.has_backlog(), now_ms);
                    epoch_energy[i] = 0.0;
                }
                for (slot, frame) in core.epoch_once(now_ms).grants {
                    if let Frame::BudgetGrant { ceiling, kind, .. } = frame {
                        sims[slot].set_ceiling(ceiling);
                        match kind {
                            GrantKind::Raise => out.grants += 1,
                            GrantKind::Shrink => out.shrinks += 1,
                        }
                    }
                }
                p.core_ns += ns_since(span);
            }
        }
        p.interval_ns.push(ns_since(interval));
    }
    out.fleet_energy_j = node_energy.iter().sum();
    Ok(out)
}
