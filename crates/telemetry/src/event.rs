//! Typed decision events: what a controller changed, when, and why.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, BufRead, Write};

/// The knob a decision acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Actuator {
    /// Uncore frequency (reported in Hz).
    Uncore,
    /// RAPL long-window power cap (reported in W).
    PowerCap,
    /// RAPL short-window power cap (reported in W).
    PowerCapShort,
    /// Core frequency via the scaling governor (reported in Hz).
    CoreFreq,
    /// Not a hardware knob: the experiment journal itself (checkpoint and
    /// resume lifecycle events; values are completed-interval counts).
    Journal,
    /// Not a hardware knob: a node's fleet power-budget ceiling (reported
    /// in W). Moved by the coordinator's allocator epochs and by an
    /// agent's coordinator-loss degradation.
    Budget,
}

impl fmt::Display for Actuator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Actuator::Uncore => "uncore",
            Actuator::PowerCap => "power_cap",
            Actuator::PowerCapShort => "power_cap_short",
            Actuator::CoreFreq => "core_freq",
            Actuator::Journal => "journal",
            Actuator::Budget => "budget",
        };
        f.write_str(s)
    }
}

/// Why a controller moved an actuator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Reason {
    /// A phase change reset the actuator to its maximum before re-probing.
    PhaseReset,
    /// Measured FLOPS fell below the allowed slowdown of the phase max.
    SlowdownViolation,
    /// Measured memory bandwidth fell below the allowed slowdown.
    BandwidthViolation,
    /// §IV-D: power overshot the cap after an uncore reset; caps re-armed.
    Overshoot,
    /// Cross-coupling: raising the uncore did not restore FLOPS, so the
    /// power cap backs off instead.
    CrossCoupling,
    /// §V-G: cumulative-degradation guard froze further decreases.
    CumulativeGuard,
    /// Post-reset trim of the short-window cap toward observed power.
    PostResetTrim,
    /// Routine downward probe step while performance holds.
    Probe,
    /// DUFP-F trailing cap following observed package power.
    TrailingCap,
    /// DNPC model-based estimate chose this setting.
    ModelEstimate,
    /// A transient actuation failure was retried (old = attempt number,
    /// new = the value being written).
    ActuationRetry,
    /// Persistent actuation failure degraded the controller's authority
    /// over a knob (old/new are degradation-ladder ordinals: 0 = full,
    /// 1 = uncore-only, 2 = passive).
    Degraded,
    /// The watchdog tripped (missed ticks, stale/NaN samples or an energy
    /// anomaly) and forced a sampler re-prime plus cap reset.
    WatchdogReset,
    /// The safe-state guard restored platform defaults at end of run.
    SafeStateRestore,
    /// The runner durably checkpointed controller and platform state
    /// (old/new are the completed-interval counts before/after).
    Checkpoint,
    /// The run was resumed from a crash-safe journal; the event's tick is
    /// the first live tick after replay (old = checkpointed interval, new
    /// = journal head at resume time).
    Resumed,
    /// The fleet coordinator granted a node a higher (or first) budget
    /// ceiling (old/new in W; the event's tick is the allocator epoch).
    BudgetGrant,
    /// The fleet coordinator shrank a node's budget ceiling to fund other
    /// nodes or to fit the global budget (old/new in W).
    BudgetShrink,
    /// The coordinator reclaimed a node's watts — dead (missed heartbeats)
    /// or cleanly departed — and returned them to the pool (old = the
    /// node's last ceiling, new = 0).
    BudgetReclaim,
    /// An agent lost its coordinator and degraded to the safe local
    /// static cap (old = last granted ceiling, new = the safe cap).
    CoordinatorLost,
    /// The coordinator refused a demand report that failed sanity vetting:
    /// non-finite or negative watts, or values outside the node's
    /// plausibility envelope (old = the offending watts when finite,
    /// new = the clamp applied, 0 when rejected outright).
    DemandVetoed,
    /// The coordinator dropped a frame whose sequence number had already
    /// been seen — a replayed or stale report/heartbeat (old = the frame's
    /// sequence number, new = the highest accepted one).
    ReplayRejected,
    /// The coordinator dropped frames beyond a node's per-epoch rate
    /// limit (old = frames seen this epoch, new = the limit).
    RateLimited,
    /// The quarantine ladder capped a misbehaving node at its floor
    /// (old/new are trust-ladder ordinals: 0 = trusted, 1 = suspect,
    /// 2 = quarantined, 3 = evicted).
    Quarantined,
    /// The quarantine ladder evicted a node outright: its watts returned
    /// to the pool and its connection was dropped (old/new are
    /// trust-ladder ordinals).
    Evicted,
    /// A coordinator observed a higher coordination term than its own and
    /// fenced itself: it stops granting budget because a successor has
    /// taken over (old = the fenced coordinator's term, new = the higher
    /// term observed). Also emitted by an agent that discards a stale-term
    /// grant (old = the grant's term, new = the highest term seen).
    TermFenced,
    /// A restarted coordinator rebuilt its state by checkpoint+journal
    /// replay and bumped the coordination term before granting (old = the
    /// replayed term, new = the bumped term).
    TookOver,
    /// A warm standby detected primary death, replayed the shared journal
    /// and promoted itself to primary (old = the replayed term, new = the
    /// promoted term).
    StandbyPromoted,
    /// The scenario engine's arrival model moved a node's offered load
    /// into a different intensity band (old/new are quarter-intensity
    /// band ordinals: 0 = idle, 4 = nominal, 8 = 2× nominal).
    IntensityShift,
    /// A tenant fell behind its offered load past the scenario's backlog
    /// threshold this control interval (old = backlog in seconds of
    /// nominal work, new = the threshold).
    SloViolation,
}

impl Reason {
    /// Every reason, in a stable order (used for summary tables).
    pub const ALL: [Reason; 30] = [
        Reason::PhaseReset,
        Reason::SlowdownViolation,
        Reason::BandwidthViolation,
        Reason::Overshoot,
        Reason::CrossCoupling,
        Reason::CumulativeGuard,
        Reason::PostResetTrim,
        Reason::Probe,
        Reason::TrailingCap,
        Reason::ModelEstimate,
        Reason::ActuationRetry,
        Reason::Degraded,
        Reason::WatchdogReset,
        Reason::SafeStateRestore,
        Reason::Checkpoint,
        Reason::Resumed,
        Reason::BudgetGrant,
        Reason::BudgetShrink,
        Reason::BudgetReclaim,
        Reason::CoordinatorLost,
        Reason::DemandVetoed,
        Reason::ReplayRejected,
        Reason::RateLimited,
        Reason::Quarantined,
        Reason::Evicted,
        Reason::TermFenced,
        Reason::TookOver,
        Reason::StandbyPromoted,
        Reason::IntensityShift,
        Reason::SloViolation,
    ];
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // CamelCase variant name -> kebab-case label.
        for (i, c) in format!("{self:?}").chars().enumerate() {
            if c.is_ascii_uppercase() {
                if i > 0 {
                    f.write_str("-")?;
                }
                write!(f, "{}", c.to_ascii_lowercase())?;
            } else {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// One controller decision: an actuator moved from `old` to `new`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// Simulator tick (or wall-clock interval index) of the decision.
    pub tick: u64,
    /// Microseconds since the run started, when known (0 otherwise).
    #[serde(default)]
    pub at_us: u64,
    /// Socket the controller instance manages.
    pub socket: u16,
    /// Monotonic per-socket phase sequence number at decision time.
    pub phase: u64,
    /// Operational-intensity class of the current phase, when classified.
    #[serde(default)]
    pub oi_class: Option<String>,
    /// Measured FLOPS over the per-phase maximum (1.0 = at phase max).
    #[serde(default)]
    pub flops_ratio: Option<f64>,
    /// Which knob moved.
    pub actuator: Actuator,
    /// Value before the decision, in the actuator's native unit.
    pub old: f64,
    /// Value after the decision, in the actuator's native unit.
    pub new: f64,
    /// Why the controller moved it.
    pub reason: Reason,
}

impl DecisionEvent {
    /// A decision at `tick` outside any controller phase: socket 0, no
    /// timestamp, OI class or FLOPS ratio.
    pub fn new(tick: u64, actuator: Actuator, old: f64, new: f64, reason: Reason) -> Self {
        DecisionEvent {
            tick,
            at_us: 0,
            socket: 0,
            phase: 0,
            oi_class: None,
            flops_ratio: None,
            actuator,
            old,
            new,
            reason,
        }
    }
}

/// Writes `items` as JSON Lines: each one's compact JSON followed by
/// `\n`. Every JSON Lines output — decision traces, sweep rows, scenario
/// and chaos scorecards — is these bytes.
pub fn write_jsonl<W: Write, T: Serialize>(mut w: W, items: &[T]) -> io::Result<()> {
    let mut line = String::new();
    for item in items {
        line.clear();
        item.write_json(&mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Reads items back from JSON Lines, skipping blank lines; a bad line
/// fails with its line number.
pub fn read_jsonl<T: Deserialize, R: BufRead>(r: R) -> io::Result<Vec<T>> {
    let mut items = Vec::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        items.push(serde_json::from_str(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", idx + 1))
        })?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionEvent {
        DecisionEvent {
            tick: 42,
            at_us: 8_400_000,
            socket: 1,
            phase: 3,
            oi_class: Some("MemoryBound".to_string()),
            flops_ratio: Some(0.93),
            actuator: Actuator::Uncore,
            old: 2.4e9,
            new: 2.2e9,
            reason: Reason::Probe,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let events = vec![
            sample(),
            DecisionEvent {
                reason: Reason::SlowdownViolation,
                actuator: Actuator::PowerCap,
                oi_class: None,
                flops_ratio: None,
                ..sample()
            },
        ];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back: Vec<DecisionEvent> = read_jsonl(io::Cursor::new(buf)).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn read_skips_blank_lines_and_reports_bad_ones() {
        let good = serde_json::to_string(&sample()).unwrap();
        let text = format!("{good}\n\n{good}\n");
        let back: Vec<DecisionEvent> = read_jsonl(io::Cursor::new(text.into_bytes())).unwrap();
        assert_eq!(back.len(), 2);

        let err =
            read_jsonl::<DecisionEvent, _>(io::Cursor::new(b"not json\n".to_vec())).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn reason_display_is_kebab() {
        assert_eq!(Reason::SlowdownViolation.to_string(), "slowdown-violation");
        assert_eq!(Reason::PhaseReset.to_string(), "phase-reset");
        assert_eq!(Actuator::PowerCapShort.to_string(), "power_cap_short");
    }

    #[test]
    fn every_reason_listed_once_in_all() {
        let mut seen = std::collections::HashSet::new();
        for r in Reason::ALL {
            assert!(seen.insert(format!("{r:?}")));
        }
        assert_eq!(seen.len(), 30);
    }
}
