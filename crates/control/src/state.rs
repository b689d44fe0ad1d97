//! Serializable controller state for checkpoint/resume.
//!
//! Every [`crate::Controller`] can snapshot its full decision state into a
//! [`ControllerState`] and later restore from it; the runner stores these
//! snapshots in periodic checkpoints so a crashed experiment resumes with
//! the controllers exactly where they left off — same phase maxima, same
//! probe floors, same couplings — which is what makes the resumed decision
//! trajectory bit-identical to an uninterrupted run.
//!
//! The enum is deliberately data-only (no trait objects, no `Box`): it
//! round-trips through JSON with the vendored serde and a restore into the
//! wrong controller kind fails with a typed error instead of silently
//! reinterpreting fields.

use crate::duf::{Action, Ladder};
use crate::phase::PhaseTracker;
use serde::{Deserialize, Serialize};

/// The per-controller telemetry counters (`TelState`'s
/// durable part — the recorder handle itself is reattached on resume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelCounters {
    /// Monitoring intervals seen so far.
    pub tick: u64,
    /// Phase changes seen so far.
    pub phase_seq: u64,
}

/// Snapshot of the shared DUF uncore decision engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncoreLogicState {
    /// The action taken on the most recent interval.
    pub last_action: Action,
    /// The uncore's probe memory.
    pub ladder: Ladder,
}

/// A controller's full decision state, one variant per controller kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerState {
    /// [`crate::NoOp`] carries no state.
    NoOp,
    /// [`crate::StaticCap`] application latches.
    StaticCap {
        /// Whether the cap has been applied.
        applied: bool,
        /// Whether the windowed reset already happened.
        reset_done: bool,
    },
    /// [`crate::Duf`]: phase tracker + uncore engine.
    Duf {
        /// Shared phase tracker.
        tracker: PhaseTracker,
        /// Uncore decision engine.
        uncore: UncoreLogicState,
        /// Telemetry counters.
        tel: TelCounters,
    },
    /// [`crate::Dufp`]: DUF state plus the cap state machine.
    Dufp {
        /// Shared phase tracker.
        tracker: PhaseTracker,
        /// Uncore decision engine.
        uncore: UncoreLogicState,
        /// Most recent cap action.
        last_cap_action: Action,
        /// FLOPS/s of the previous interval (coupling 1).
        prev_flops: Option<f64>,
        /// The cap's probe memory.
        cap: Ladder,
        /// Cumulative FLOPs observed (§V-G guard).
        cumulative_flops: f64,
        /// Cumulative FLOPs of the per-phase-maximum reference run.
        cumulative_reference: f64,
        /// Telemetry counters.
        tel: TelCounters,
    },
    /// [`crate::DufpF`]: DUF state plus the direct-frequency ladder.
    DufpF {
        /// Shared phase tracker.
        tracker: PhaseTracker,
        /// Uncore decision engine.
        uncore: UncoreLogicState,
        /// Most recent frequency action.
        last_freq_action: Action,
        /// The core frequency's probe memory.
        freq: Ladder,
        /// Telemetry counters.
        tel: TelCounters,
    },
    /// [`crate::Dnpc`]: the frequency-linear baseline.
    Dnpc {
        /// Most recent action.
        last_action: Action,
        /// Telemetry counters.
        tel: TelCounters,
    },
}

impl ControllerState {
    /// The controller kind this snapshot belongs to (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            ControllerState::NoOp => "default",
            ControllerState::StaticCap { .. } => "static-cap",
            ControllerState::Duf { .. } => "DUF",
            ControllerState::Dufp { .. } => "DUFP",
            ControllerState::DufpF { .. } => "DUFP-F",
            ControllerState::Dnpc { .. } => "DNPC",
        }
    }

    /// The typed error for restoring into the wrong controller kind.
    pub(crate) fn mismatch(&self, expected: &'static str) -> dufp_types::Error {
        dufp_types::Error::invalid(
            "controller state",
            format!("cannot restore a {} snapshot into {expected}", self.kind()),
        )
    }
}
