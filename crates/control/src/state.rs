//! Serializable controller state for checkpoint/resume.
//!
//! Every [`crate::Controller`] keeps its full decision state in one of the
//! structs below and snapshots it as a [`ControllerState`]; the runner
//! stores these snapshots in periodic checkpoints so a crashed experiment
//! resumes with the controllers exactly where they left off — same phase
//! maxima, same probe floors, same couplings — which is what makes the
//! resumed decision trajectory bit-identical to an uninterrupted run.
//! A snapshot is a clone of the live struct and a restore assigns it
//! back, so there is no second copy of the fields to keep in step.
//!
//! The enum is deliberately data-only (no trait objects, no `Box`): it
//! round-trips through JSON with the vendored serde and a restore into the
//! wrong controller kind fails with a typed error instead of silently
//! reinterpreting fields.

use crate::duf::{Action, Ladder, UncoreLogic};
use crate::phase::PhaseTracker;
use serde::{Deserialize, Serialize};

/// The per-controller telemetry counters (the recorder handle itself is
/// not state: it is reattached on resume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelCounters {
    /// Monitoring intervals seen so far (event timestamp).
    pub tick: u64,
    /// Phase changes seen so far (monotonic per-socket sequence).
    pub phase_seq: u64,
}

/// [`crate::StaticCap`]'s application latches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticCapState {
    /// Whether the cap has been applied.
    pub applied: bool,
    /// Whether the windowed reset already happened.
    pub reset_done: bool,
}

/// [`crate::Duf`]'s state: phase tracker + uncore engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DufState {
    /// Shared phase tracker.
    pub tracker: PhaseTracker,
    /// Uncore decision engine.
    pub uncore: UncoreLogic,
    /// Telemetry counters.
    pub tel: TelCounters,
}

/// [`crate::Dufp`]'s state: DUF's plus the cap state machine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DufpState {
    /// Shared phase tracker.
    pub tracker: PhaseTracker,
    /// Uncore decision engine.
    pub uncore: UncoreLogic,
    /// Most recent cap action.
    pub last_cap_action: Action,
    /// FLOPS/s of the previous interval (coupling 1).
    pub prev_flops: Option<f64>,
    /// The cap's probe memory.
    pub cap: Ladder,
    /// Cumulative FLOPs observed (§V-G guard).
    pub cumulative_flops: f64,
    /// Cumulative FLOPs a run at each phase's maximum would have retired.
    pub cumulative_reference: f64,
    /// Telemetry counters.
    pub tel: TelCounters,
}

/// [`crate::DufpF`]'s state: DUF's plus the direct-frequency ladder.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DufpFState {
    /// Shared phase tracker.
    pub tracker: PhaseTracker,
    /// Uncore decision engine.
    pub uncore: UncoreLogic,
    /// Most recent frequency action.
    pub last_freq_action: Action,
    /// The core frequency's probe memory.
    pub freq: Ladder,
    /// Telemetry counters.
    pub tel: TelCounters,
}

/// [`crate::Dnpc`]'s state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DnpcState {
    /// Most recent action.
    pub last_action: Action,
    /// Telemetry counters.
    pub tel: TelCounters,
}

/// A controller's full decision state, one variant per controller kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerState {
    /// [`crate::NoOp`] carries no state.
    NoOp,
    /// [`crate::StaticCap`].
    StaticCap(StaticCapState),
    /// [`crate::Duf`].
    Duf(DufState),
    /// [`crate::Dufp`].
    Dufp(DufpState),
    /// [`crate::DufpF`].
    DufpF(DufpFState),
    /// [`crate::Dnpc`].
    Dnpc(DnpcState),
}

impl ControllerState {
    /// The controller kind this snapshot belongs to (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            ControllerState::NoOp => "default",
            ControllerState::StaticCap(_) => "static-cap",
            ControllerState::Duf(_) => "DUF",
            ControllerState::Dufp(_) => "DUFP",
            ControllerState::DufpF(_) => "DUFP-F",
            ControllerState::Dnpc(_) => "DNPC",
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
