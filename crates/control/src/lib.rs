//! The DUF and DUFP runtime controllers.
//!
//! One controller instance runs per socket (exactly like the paper's tool,
//! §III). Every monitoring interval (200 ms) it receives the derived
//! [`dufp_counters::IntervalMetrics`] and decides how to move two
//! actuators: the pinned uncore frequency and the RAPL package power cap.
//!
//! * [`config`] — tolerated slowdown, interval, step sizes, floors, the
//!   paper's constants (ε, the operational-intensity cut-offs, the
//!   overshoot margin), and [`ControlConfig::split`], the one rule that
//!   sorts a performance drop into violated, at the boundary or within
//!   the tolerance.
//! * [`phase`] — the shared phase tracker: classifies intervals as
//!   memory-/CPU-intensive by operational intensity, detects phase changes
//!   (intensity class flips or FLOPS/s doubling), tracks the per-phase
//!   FLOPS/s and bandwidth maxima every decision compares against.
//! * [`actuators`] — the actuator abstraction plus the hardware
//!   implementation over [`dufp_msr::MsrIo`] + [`dufp_rapl::PowerCapper`].
//! * [`duf`] — the prior tool: uncore frequency only (the paper's
//!   baseline), and the [`Ladder`] every knob steps through: one rung up
//!   on a violation, one rung down unless the probe memory blocks it. The
//!   uncore, DUFP's cap and DUFP-F's core frequency each keep one; DNPC,
//!   which has no probe memory, steps its cap through a fresh one. Every
//!   controller reports what it did to a knob as one [`Action`].
//! * [`dufp`] — the paper's contribution: DUF's uncore algorithm plus
//!   dynamic power capping with the Fig. 2 decision rules, the two
//!   uncore/cap couplings, the asymmetric long/short-term constraint
//!   handling and the §IV-D overshoot reset.
//! * [`baseline`] — `NoOp` (default configuration) and `StaticCap`
//!   (whole-run or windowed fixed caps, used by the Fig. 1 motivation).
//! * [`dnpc`] — the DNPC related-work baseline (§VI): cap-only control
//!   with a frequency-linear degradation model, implemented so the paper's
//!   critique of it is measurable.
//! * [`dufpf`] — DUFP-F, the §VII future-work extension: core frequency is
//!   managed directly through `IA32_PERF_CTL` and the cap merely trails
//!   the measured power.
//!
//! Every controller accepts a `with_telemetry` recorder
//! ([`dufp_telemetry::SocketTelemetry`]); when attached, each actuator
//! move is emitted as a typed [`dufp_telemetry::DecisionEvent`] carrying
//! the reason for the move (slowdown violation, phase reset, overshoot,
//! cross-coupling, ...). Without it the controllers record nothing and the
//! instrumentation costs one branch per interval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuators;
pub mod baseline;
pub mod config;
pub mod dnpc;
pub mod duf;
pub mod dufp;
pub mod dufpf;
pub mod phase;
pub mod resilient;
pub mod state;
mod trace;

pub use actuators::{ActuatorCache, Actuators, HwActuators};
pub use baseline::{NoOp, StaticCap};
pub use config::{ControlConfig, Split};
pub use dnpc::Dnpc;
pub use duf::{Action, Duf, Ladder, UncoreLogic};
pub use dufp::Dufp;
pub use dufpf::DufpF;
pub use phase::{PhaseClass, PhaseEvent, PhaseTracker};
pub use resilient::{
    classify, DegradationLevel, ErrorClass, KnobSnapshot, ResilienceState, ResilientActuators,
    RetryPolicy, SafeStateGuard,
};
pub use state::{
    ControllerState, DnpcState, DufState, DufpFState, DufpState, StaticCapState, TelCounters,
};

use dufp_counters::IntervalMetrics;
use dufp_types::Result;

/// A per-socket runtime controller.
pub trait Controller: Send {
    /// Controller name for reports ("default", "DUF", "DUFP", ...).
    fn name(&self) -> &'static str;

    /// One monitoring-interval decision step.
    fn on_interval(&mut self, metrics: &IntervalMetrics, act: &mut dyn Actuators) -> Result<()>;

    /// Serializable snapshot of the full decision state, stored in
    /// checkpoints so a crashed run can resume mid-experiment.
    fn state(&self) -> ControllerState;

    /// Restores a snapshot taken from the same controller kind; a
    /// mismatched snapshot fails with a typed error.
    fn restore(&mut self, state: &ControllerState) -> Result<()>;
}

#[cfg(test)]
mod decision_table;
