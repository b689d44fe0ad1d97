//! One simulated socket under a controller: the per-socket half of the
//! paper's DUFP runtime (§III, §IV-D).
//!
//! Every monitoring interval the loop samples the socket's counters,
//! vets the interval with the [`Watchdog`], and lets the controller
//! actuate uncore and cap through the resilient, safe-state-guarded
//! hardware stack. The runner, the cluster's budgeted node, the ablation
//! study and the examples all drive their sockets through it; stepping
//! the machine between intervals stays with the caller.

use crate::journal::CheckpointState;
use crate::watchdog::Watchdog;
use dufp_control::{
    classify, Actuators, ControlConfig, Controller, ErrorClass, HwActuators, NoOp,
    ResilientActuators, SafeStateGuard,
};
use dufp_counters::{IntervalMetrics, Sampler};
use dufp_rapl::PowerCapper;
use dufp_sim::Machine;
use dufp_telemetry::{Actuator, Counter, DecisionEvent, Histogram, Reason, Telemetry};
use dufp_types::{Result, SocketId, Watts};
use std::sync::Arc;
use std::time::Instant;

/// Bounds (µs) of the runner's stage-timing histograms.
pub(crate) const STAGE_BOUNDS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

/// One socket's controller, primed sampler, watchdog and guarded
/// actuators. See the module docs.
///
/// The actuators retry transient write failures and walk the
/// degradation ladder on persistent ones, so a faulty MSR never aborts
/// the loop; dropping the loop restores platform defaults, however the
/// caller exits.
pub struct SocketLoop<C: PowerCapper> {
    machine: Arc<Machine>,
    socket: SocketId,
    controller: Box<dyn Controller>,
    sampler: Sampler,
    watchdog: Watchdog,
    actuators: SafeStateGuard<ResilientActuators<HwActuators<Arc<Machine>, C>>>,
    tel: Telemetry,
    sample_us: Arc<Histogram>,
    control_us: Arc<Histogram>,
    watchdog_resets: Arc<Counter>,
    sample_failures: Arc<Counter>,
}

impl<C: PowerCapper> SocketLoop<C> {
    /// Puts `socket` of `machine` under `controller`, actuating through
    /// `capper` with `cfg`'s limits and interval, and primes the sampler
    /// at the machine's current time. The actuators, the guard and the
    /// watchdog record to `tel` as that socket.
    pub fn new(
        machine: &Arc<Machine>,
        capper: C,
        socket: SocketId,
        cfg: &ControlConfig,
        controller: Box<dyn Controller>,
        tel: &Telemetry,
    ) -> Result<Self> {
        let arch = &machine.config().arch;
        let lead_cpu = socket.as_usize() * usize::from(arch.cores_per_socket);
        let act = HwActuators::new(Arc::clone(machine), capper, socket, lead_cpu, cfg.clone())?;
        let stel = tel.for_socket(socket.0);
        let resilient = ResilientActuators::new(act, cfg.cap_floor).with_telemetry(stel.clone());
        // A plausibility ceiling for per-socket power: PL2 plus ample
        // headroom — anything beyond it is a glitched energy counter.
        let watchdog = Watchdog::new(
            cfg.interval.as_seconds(),
            Watts(arch.pl2_default.value() * 4.0),
        );
        let mut sampler = Sampler::new();
        sampler.sample(machine.as_ref(), socket)?;
        Ok(SocketLoop {
            machine: Arc::clone(machine),
            socket,
            controller,
            sampler,
            watchdog,
            actuators: SafeStateGuard::new(resilient).with_telemetry(stel),
            tel: tel.clone(),
            sample_us: tel.histogram("runner.sample_us", &STAGE_BOUNDS),
            control_us: tel.histogram("runner.control_us", &STAGE_BOUNDS),
            watchdog_resets: tel.counter("watchdog_resets_total"),
            sample_failures: tel.counter("sample_failures_total"),
        })
    }

    /// One monitoring interval: a fault-tolerant sample, the watchdog's
    /// check, then the controller's decision. Returns the metrics the
    /// controller saw, or `None` when it saw nothing: the sampler was
    /// (re-)priming, a counter read failed, or the watchdog tripped.
    pub fn interval(&mut self) -> Result<Option<IntervalMetrics>> {
        let timed = self.tel.is_enabled();
        let t1 = timed.then(Instant::now);
        let sampled = match self.sampler.sample(self.machine.as_ref(), self.socket) {
            Ok(sampled) => sampled,
            // A failed counter read is a sensor fault, not a reason to
            // abort: drop the baseline (the next good sample re-primes)
            // and skip this interval.
            Err(e) if classify(&e) != ErrorClass::Fatal => {
                self.sample_failures.inc();
                self.sampler.reset();
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if let Some(t1) = t1 {
            self.sample_us.observe(t1.elapsed().as_secs_f64() * 1e6);
        }
        let Some(metrics) = sampled else {
            return Ok(None);
        };
        if let Some(trip) = self.watchdog.check(&metrics) {
            // Corrupted interval: never show it to the controller.
            // Re-prime the sampler and park the cap at its default (the
            // §IV-D overshoot reset, generalized).
            self.sampler.reset();
            let cap_before = self.actuators.cap_long().value();
            let _ = self.actuators.reset_cap();
            self.watchdog_resets.inc();
            let at_us = self.machine.now().0;
            let tick = at_us / self.machine.config().tick.as_micros();
            let cap = self.actuators.cap_long().value();
            let reset = Reason::WatchdogReset;
            self.tel.record_decision(DecisionEvent {
                at_us,
                socket: self.socket.0,
                oi_class: Some(trip.label().to_string()),
                ..DecisionEvent::new(tick, Actuator::PowerCap, cap_before, cap, reset)
            });
            return Ok(None);
        }
        let t2 = timed.then(Instant::now);
        self.controller
            .on_interval(&metrics, &mut *self.actuators as &mut dyn Actuators)?;
        if let Some(t2) = t2 {
            self.control_us.observe(t2.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Some(metrics))
    }

    /// Swaps the controller for [`NoOp`]: a socket whose work is done
    /// keeps being sampled and vetted but decides nothing more.
    pub fn retire(&mut self) {
        self.controller = Box::new(NoOp);
    }

    /// The guarded actuators. Their getters show the cached register
    /// view; their setters go through the same retry and degradation
    /// path as the controller's.
    pub fn actuators(&mut self) -> &mut dyn Actuators {
        &mut *self.actuators
    }

    /// Restores platform defaults now, so the restore events land in the
    /// caller's telemetry before it is drained. Dropping the loop does
    /// the same at scope end.
    pub fn restore_defaults(self) {
        drop(self.actuators.restore_now());
    }

    /// Appends this socket's share of a checkpoint: the state its
    /// registers cannot rebuild.
    pub(crate) fn checkpoint_into(&self, cp: &mut CheckpointState) {
        cp.controllers.push(self.controller.state());
        cp.samplers.push(self.sampler.snapshot());
        cp.resilience.push(self.actuators.state());
        cp.actuators.push(self.actuators.inner().cache());
    }

    /// Restores socket `i`'s share of `cp` onto this freshly built loop.
    /// The caller checks that `cp` describes as many sockets as it runs.
    pub(crate) fn restore(&mut self, cp: &CheckpointState, i: usize) -> Result<()> {
        self.controller.restore(&cp.controllers[i])?;
        self.sampler.restore(cp.samplers[i]);
        self.actuators.restore_state(&cp.resilience[i]);
        self.actuators.inner_mut().set_cache(cp.actuators[i]);
        Ok(())
    }
}
