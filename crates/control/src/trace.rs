//! Shared decision-trace plumbing for the controllers.
//!
//! Every controller owns a socket-bound recorder and keeps the tick and
//! phase-sequence counters its events carry in its checkpointed state
//! ([`TelCounters`]). Recording is a no-op on a disabled handle, so
//! controllers built without `with_telemetry` pay one branch per interval
//! and allocate nothing.

use crate::phase::PhaseTracker;
use crate::state::TelCounters;
use dufp_counters::IntervalMetrics;
use dufp_telemetry::{Actuator, DecisionCtx, Reason, SocketTelemetry};

/// What one interval's decision events are stamped with.
pub(crate) struct Trace<'a> {
    /// The socket-bound recorder.
    pub tel: &'a SocketTelemetry,
    /// The controller's counters.
    pub counters: TelCounters,
    /// The phase tracker, when the controller has one: it supplies the
    /// OI class and the FLOPS ratio against the per-phase maximum.
    pub tracker: Option<&'a PhaseTracker>,
    /// The interval's metrics.
    pub m: &'a IntervalMetrics,
}

impl Trace<'_> {
    /// Records that `actuator` moved `old` → `new` because of `reason`.
    pub fn emit(&self, actuator: Actuator, old: f64, new: f64, reason: Reason) {
        if !self.tel.is_enabled() || old == new {
            return;
        }
        let tracker = self.tracker;
        let ctx = DecisionCtx {
            tick: self.counters.tick,
            phase: self.counters.phase_seq,
            oi_class: tracker.and_then(|t| t.class()).map(|c| format!("{c:?}")),
            flops_ratio: tracker
                .and_then(|t| (t.max_flops > 0.0).then(|| self.m.flops.value() / t.max_flops)),
        };
        self.tel.decision(ctx, actuator, old, new, reason);
    }
}
