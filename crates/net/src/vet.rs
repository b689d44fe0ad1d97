//! Demand-report vetting and the quarantine trust ladder.
//!
//! The coordinator cannot assume agents are honest: a compromised (or
//! merely buggy) node can report `NaN` demand that poisons the
//! proportional allocator, replay stale frames, storm heartbeats, or
//! quietly consume more than it was granted. This module holds the
//! coordinator-side defenses, applied at frame ingestion by
//! [`crate::core::FleetCore`]:
//!
//! * **Plausibility envelope** — watt values must be finite, non-negative
//!   and within `node_max × (1 +` `ENVELOPE_MARGIN``)` of the silicon limit
//!   the node itself announced at Hello. Anything else is vetoed before
//!   it reaches the allocator.
//! * **Sequence monotonicity** — report and heartbeat sequence numbers
//!   must strictly increase. An exact duplicate (`seq == last`) is
//!   dropped silently, because a lossy network legitimately duplicates
//!   frames; a *regression* (`seq < last`) counts as a replay, and more
//!   than `REPLAY_TOLERANCE` replays in one epoch — beyond
//!   what mild reordering produces — is a strike.
//! * **Rate limiting** — frames beyond the per-epoch budget
//!   (`MAX_REPORTS_PER_EPOCH`, `MAX_HEARTBEATS_PER_EPOCH`) are dropped
//!   without processing. Soft: being chatty is not a strike, it is just
//!   ignored, so a flapping-but-honest node cannot strike itself into
//!   quarantine.
//! * **Overdraw detection** — consuming more than both the granted
//!   ceiling *and* the ceiling the node claims to enforce (by
//!   `OVERDRAW_MARGIN`) means the node is ignoring grants.
//!
//! Strikes are epoch-granular: each category (veto, replay, overdraw)
//! can contribute at most one strike per epoch, and a clean epoch decays
//! one strike, so a single transient anomaly never escalates. The ladder
//! derived from the strike count is [`Trust`]: `Trusted → Suspect →
//! Quarantined` (capped at its floor) `→ Evicted` (watts reclaimed, name
//! blacklisted for the rest of the run), climbed at `SUSPECT_AFTER`,
//! `QUARANTINE_AFTER` and `EVICT_AFTER` strikes, which put a
//! persistently byzantine node in quarantine within two epochs.
//!
//! Every threshold is a constant of this module: one ladder runs in every
//! fleet, so there is nothing to configure or validate, and the ladder's
//! order is checked when the crate compiles.

use dufp_types::Watts;
use serde::{Deserialize, Serialize};

/// Watt values may exceed the node's announced `node_max` by this
/// fraction before they are implausible (measurement noise allowance).
const ENVELOPE_MARGIN: f64 = 0.25;
/// Demand reports accepted per node per epoch; the rest are dropped.
pub(crate) const MAX_REPORTS_PER_EPOCH: u32 = 16;
/// Heartbeats accepted per node per epoch; the rest are dropped.
const MAX_HEARTBEATS_PER_EPOCH: u32 = 32;
/// Sequence regressions tolerated per epoch before they count as a
/// replay strike (mild reordering is normal on a lossy path).
const REPLAY_TOLERANCE: u32 = 2;
/// Consumption may exceed the granted/claimed ceiling by this fraction
/// before it counts as overdraw.
const OVERDRAW_MARGIN: f64 = 0.15;
/// Strikes at which a node becomes [`Trust::Suspect`].
const SUSPECT_AFTER: u32 = 1;
/// Strikes at which a node is [`Trust::Quarantined`] (capped at its
/// floor; its reports no longer influence allocation).
const QUARANTINE_AFTER: u32 = 2;
/// Strikes at which a node is [`Trust::Evicted`] (disconnected, watts
/// reclaimed, name blacklisted).
const EVICT_AFTER: u32 = 6;

// The ladder only climbs: a node is a suspect before it is quarantined,
// and quarantined before it is evicted.
const _: () = assert!(0 < SUSPECT_AFTER && SUSPECT_AFTER <= QUARANTINE_AFTER);
const _: () = assert!(QUARANTINE_AFTER <= EVICT_AFTER);

/// How much the coordinator trusts a node. Ordinals are stable and appear
/// in [`dufp_telemetry::Reason::Quarantined`] / `Evicted` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Trust {
    /// No recent strikes; full allocator participation.
    Trusted = 0,
    /// Struck recently; still allocated normally, but watched.
    Suspect = 1,
    /// Capped at its floor; its demand no longer influences allocation.
    Quarantined = 2,
    /// Disconnected; watts reclaimed; name blacklisted. Terminal.
    Evicted = 3,
}

impl Trust {
    /// The stable ladder ordinal (event `old`/`new` encoding).
    pub fn ordinal(self) -> u64 {
        self as u64
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Trust::Trusted => "trusted",
            Trust::Suspect => "suspect",
            Trust::Quarantined => "quarantined",
            Trust::Evicted => "evicted",
        }
    }
}

/// The verdict on one ingested frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// Frame is sane; its contents were applied.
    Accepted,
    /// Exact duplicate of the last sequence number; dropped silently
    /// (lossy networks duplicate frames — not the node's fault).
    Duplicate,
    /// Sequence number regression: a replayed or badly stale frame.
    Replay,
    /// Over the per-epoch frame budget; dropped unprocessed.
    RateLimited,
    /// Watt values outside the plausibility envelope; dropped.
    Vetoed,
}

/// Per-node vetting state: sequence cursors, per-epoch rate counters and
/// strike flags, plus the accumulated strike count and trust rung.
///
/// Serializable so a coordinator checkpoint carries the full trust ladder:
/// a takeover standby must distrust exactly the nodes the dead primary
/// distrusted, or a quarantined node could launder its strikes through a
/// failover.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeVet {
    last_report_seq: Option<u64>,
    last_heartbeat_seq: Option<u64>,
    reports_this_epoch: u32,
    heartbeats_this_epoch: u32,
    replays_this_epoch: u32,
    veto_flag: bool,
    replay_flag: bool,
    overdraw_flag: bool,
    strikes: u32,
    trust_rung: u32,
}

impl NodeVet {
    /// Fresh state for a newly admitted node.
    pub fn new() -> Self {
        NodeVet::default()
    }

    /// The node's current trust rung.
    pub fn trust(&self) -> Trust {
        match self.trust_rung {
            0 => Trust::Trusted,
            1 => Trust::Suspect,
            2 => Trust::Quarantined,
            _ => Trust::Evicted,
        }
    }

    /// Accumulated strikes (decays one per clean epoch).
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// Highest accepted report sequence number (0 before the first), used
    /// by replay-rejection telemetry events.
    pub fn last_report_seq(&self) -> u64 {
        self.last_report_seq.unwrap_or(0)
    }

    /// Whether this epoch's rate limit was crossed for the first time by
    /// the frame just checked (so callers can emit exactly one event).
    pub fn just_hit_report_limit(&self) -> bool {
        self.reports_this_epoch == MAX_REPORTS_PER_EPOCH + 1
    }

    /// Vets one demand report. `granted` is the ceiling the coordinator
    /// last pushed to this node ([`Watts::ZERO`] before the first grant).
    pub fn check_report(
        &mut self,
        seq: u64,
        ceiling: Watts,
        consumption: Watts,
        node_max: Watts,
        granted: Watts,
    ) -> FrameVerdict {
        self.reports_this_epoch = self.reports_this_epoch.saturating_add(1);
        if self.reports_this_epoch > MAX_REPORTS_PER_EPOCH {
            return FrameVerdict::RateLimited;
        }
        if let Some(last) = self.last_report_seq {
            if seq == last {
                return FrameVerdict::Duplicate;
            }
            if seq < last {
                self.replays_this_epoch = self.replays_this_epoch.saturating_add(1);
                if self.replays_this_epoch > REPLAY_TOLERANCE {
                    self.replay_flag = true;
                }
                return FrameVerdict::Replay;
            }
        }
        self.last_report_seq = Some(seq);

        let (c, k) = (ceiling.value(), consumption.value());
        let envelope = node_max.value() * (1.0 + ENVELOPE_MARGIN);
        if !c.is_finite() || !k.is_finite() || c < 0.0 || k < 0.0 || c > envelope || k > envelope {
            self.veto_flag = true;
            return FrameVerdict::Vetoed;
        }
        // Overdraw: the node consumes more than BOTH the ceiling it was
        // granted and the one it claims to enforce. Requiring both keeps
        // an honest node with an in-flight shrink grant (consuming up to
        // its old, truthfully reported ceiling) off the ladder.
        let m = 1.0 + OVERDRAW_MARGIN;
        if granted.value() > 0.0 && k > granted.value() * m && k > c * m {
            self.overdraw_flag = true;
        }
        FrameVerdict::Accepted
    }

    /// Vets one heartbeat.
    pub fn check_heartbeat(&mut self, seq: u64) -> FrameVerdict {
        self.heartbeats_this_epoch = self.heartbeats_this_epoch.saturating_add(1);
        if self.heartbeats_this_epoch > MAX_HEARTBEATS_PER_EPOCH {
            return FrameVerdict::RateLimited;
        }
        if let Some(last) = self.last_heartbeat_seq {
            if seq == last {
                return FrameVerdict::Duplicate;
            }
            if seq < last {
                self.replays_this_epoch = self.replays_this_epoch.saturating_add(1);
                if self.replays_this_epoch > REPLAY_TOLERANCE {
                    self.replay_flag = true;
                }
                return FrameVerdict::Replay;
            }
        }
        self.last_heartbeat_seq = Some(seq);
        FrameVerdict::Accepted
    }

    /// Closes the epoch: converts strike flags into at most one strike per
    /// category, decays one strike on a clean epoch, resets the per-epoch
    /// counters and recomputes the trust rung. Returns `Some((old, new))`
    /// when the rung changed. Eviction is terminal: once there, the rung
    /// never moves again.
    pub fn finalize_epoch(&mut self) -> Option<(Trust, Trust)> {
        let struck =
            u32::from(self.veto_flag) + u32::from(self.replay_flag) + u32::from(self.overdraw_flag);
        if struck > 0 {
            self.strikes = self.strikes.saturating_add(struck);
        } else {
            self.strikes = self.strikes.saturating_sub(1);
        }
        self.veto_flag = false;
        self.replay_flag = false;
        self.overdraw_flag = false;
        self.reports_this_epoch = 0;
        self.heartbeats_this_epoch = 0;
        self.replays_this_epoch = 0;

        let old = self.trust();
        if old == Trust::Evicted {
            return None;
        }
        let new = if self.strikes >= EVICT_AFTER {
            Trust::Evicted
        } else if self.strikes >= QUARANTINE_AFTER {
            Trust::Quarantined
        } else if self.strikes >= SUSPECT_AFTER {
            Trust::Suspect
        } else {
            Trust::Trusted
        };
        self.trust_rung = new.ordinal() as u32;
        (new != old).then_some((old, new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE_MAX: Watts = Watts(125.0);

    #[test]
    fn nan_negative_and_absurd_watts_are_vetoed() {
        for (c, k) in [
            (f64::NAN, 90.0),
            (90.0, f64::NAN),
            (f64::INFINITY, 90.0),
            (-5.0, 90.0),
            (90.0, -5.0),
            (90.0, 1250.0), // 10× the silicon limit
        ] {
            let mut v = NodeVet::new();
            let verdict = v.check_report(1, Watts(c), Watts(k), NODE_MAX, Watts(100.0));
            assert_eq!(verdict, FrameVerdict::Vetoed, "c={c} k={k}");
        }
    }

    #[test]
    fn persistent_byzantine_reports_quarantine_within_two_epochs() {
        let mut v = NodeVet::new();
        v.check_report(1, Watts(f64::NAN), Watts(90.0), NODE_MAX, Watts::ZERO);
        assert_eq!(v.finalize_epoch(), Some((Trust::Trusted, Trust::Suspect)));
        v.check_report(2, Watts(f64::NAN), Watts(90.0), NODE_MAX, Watts::ZERO);
        assert_eq!(
            v.finalize_epoch(),
            Some((Trust::Suspect, Trust::Quarantined))
        );
    }

    #[test]
    fn clean_epochs_decay_strikes_back_to_trusted() {
        let mut v = NodeVet::new();
        v.check_report(1, Watts(-1.0), Watts(90.0), NODE_MAX, Watts::ZERO);
        v.finalize_epoch();
        assert_eq!(v.trust(), Trust::Suspect);
        v.check_report(2, Watts(90.0), Watts(80.0), NODE_MAX, Watts(90.0));
        assert_eq!(v.finalize_epoch(), Some((Trust::Suspect, Trust::Trusted)));
    }

    #[test]
    fn duplicates_drop_silently_and_mild_reordering_never_strikes() {
        let mut v = NodeVet::new();
        let ok = |v: &mut NodeVet, seq| {
            v.check_report(seq, Watts(90.0), Watts(80.0), NODE_MAX, Watts(90.0))
        };
        assert_eq!(ok(&mut v, 5), FrameVerdict::Accepted);
        assert_eq!(ok(&mut v, 5), FrameVerdict::Duplicate, "network dup");
        assert_eq!(ok(&mut v, 4), FrameVerdict::Replay, "one reorder");
        assert_eq!(ok(&mut v, 3), FrameVerdict::Replay, "two reorders");
        assert!(v.finalize_epoch().is_none(), "within tolerance");
        assert_eq!(v.trust(), Trust::Trusted);
    }

    #[test]
    fn a_replay_storm_walks_the_ladder_to_eviction() {
        let mut v = NodeVet::new();
        v.check_report(100, Watts(90.0), Watts(80.0), NODE_MAX, Watts(90.0));
        let mut evicted_at = None;
        for epoch in 1..=10u32 {
            for seq in 0..8 {
                v.check_report(seq, Watts(90.0), Watts(80.0), NODE_MAX, Watts(90.0));
            }
            if let Some((_, Trust::Evicted)) = v.finalize_epoch() {
                evicted_at = Some(epoch);
                break;
            }
        }
        let at = evicted_at.expect("storming replays must evict");
        assert_eq!(at, EVICT_AFTER, "one strike per epoch");
        // Terminal: nothing moves the rung again.
        assert!(v.finalize_epoch().is_none());
        assert_eq!(v.trust(), Trust::Evicted);
    }

    #[test]
    fn rate_limit_drops_without_striking() {
        let mut v = NodeVet::new();
        let mut limited = 0;
        for seq in 1..=MAX_REPORTS_PER_EPOCH as u64 + 10 {
            let verdict = v.check_report(seq, Watts(90.0), Watts(80.0), NODE_MAX, Watts(90.0));
            if verdict == FrameVerdict::RateLimited {
                limited += 1;
            }
        }
        assert_eq!(limited, 10);
        assert!(v.finalize_epoch().is_none(), "chatty is not a strike");
        assert_eq!(v.trust(), Trust::Trusted);
    }

    #[test]
    fn overdraw_requires_exceeding_both_granted_and_claimed_ceiling() {
        // Honest node with an in-flight shrink: consumes near its OLD
        // ceiling (which it truthfully reports) — no strike.
        let mut v = NodeVet::new();
        v.check_report(1, Watts(110.0), Watts(108.0), NODE_MAX, Watts(80.0));
        assert!(v.finalize_epoch().is_none());

        // Grant-ignorer claiming compliance while consuming double — strike.
        let mut v = NodeVet::new();
        v.check_report(1, Watts(80.0), Watts(160.0), NODE_MAX, Watts(80.0));
        assert_eq!(v.finalize_epoch(), Some((Trust::Trusted, Trust::Suspect)));
    }

    #[test]
    fn heartbeat_sequences_are_vetted_too() {
        let mut v = NodeVet::new();
        assert_eq!(v.check_heartbeat(7), FrameVerdict::Accepted);
        assert_eq!(v.check_heartbeat(7), FrameVerdict::Duplicate);
        assert_eq!(v.check_heartbeat(3), FrameVerdict::Replay);
        let mut limited = false;
        for seq in 8..8 + MAX_HEARTBEATS_PER_EPOCH as u64 + 1 {
            limited |= v.check_heartbeat(seq) == FrameVerdict::RateLimited;
        }
        assert!(limited);
    }
}
