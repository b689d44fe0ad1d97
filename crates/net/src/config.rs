//! Coordinator and agent configuration, with the same typed field-naming
//! validation [`dufp_control::ControlConfig::validate`] established.

use dufp_cluster::allocator::{AllocatorPolicy, DemandBased, StaticSplit};
use dufp_cluster::node::DufpNode;
use dufp_types::check::{fraction, positive};
use dufp_types::{splitmix, Error, Ratio, Result, Watts};
use std::path::PathBuf;
use std::time::Duration;

/// The ceiling an agent enforces while it has no coordinator, unless
/// configured otherwise: the safe local static cap, between the node's
/// 65 W floor and its 125 W PL1.
pub const DEFAULT_SAFE_CAP: Watts = Watts(90.0);

/// Which allocation policy the coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Even split, never changes.
    StaticSplit,
    /// Demand-based reallocation (headroom donors fund ceiling riders).
    DemandBased,
}

impl PolicyKind {
    /// Display label (matches the in-process allocator names).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::StaticSplit => "static-split",
            PolicyKind::DemandBased => "demand-based",
        }
    }

    /// The allocator this kind names, demand-based within `floor..=node_max`.
    pub fn allocator(self, floor: Watts, node_max: Watts) -> Box<dyn AllocatorPolicy> {
        match self {
            PolicyKind::StaticSplit => Box::new(StaticSplit),
            PolicyKind::DemandBased => Box::new(DemandBased {
                floor,
                node_max,
                ..DemandBased::default()
            }),
        }
    }

    /// Parses a policy name: its label or the short form (`static`,
    /// `demand`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "static-split" | "static" => Ok(PolicyKind::StaticSplit),
            "demand-based" | "demand" => Ok(PolicyKind::DemandBased),
            other => Err(Error::invalid(
                "policy",
                format!("unknown policy {other:?} (expected static-split or demand-based)"),
            )),
        }
    }
}

/// Refuses a `budget` below `floors`, the node floors it must fund — the
/// one budget check every fleet runs.
pub(crate) fn fund_floors(budget: Watts, floors: Watts) -> Result<()> {
    if budget >= floors {
        return Ok(());
    }
    let why = format!("{budget} cannot fund the node floors' {floors}");
    Err(Error::invalid("budget", why))
}

/// Coordinator-side configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub listen: String,
    /// Global fleet power budget (package domains).
    pub budget: Watts,
    /// Allocation policy.
    pub policy: PolicyKind,
    /// Wall-clock allocator epoch length; the heartbeat timeout is derived
    /// from it ([`CoordinatorConfig::heartbeat_timeout`]).
    pub epoch: Duration,
    /// Stop after this many allocator epochs (`None` = run until every
    /// agent that ever joined has departed, or shutdown is requested).
    pub max_epochs: Option<u64>,
    /// Floor for the demand-based policy: no live node's ceiling falls
    /// below it. Defaults to [`DufpNode::cap_floor`].
    pub floor: Watts,
    /// Per-node silicon limit for the demand-based policy. Defaults to
    /// [`DufpNode::pl1`].
    pub node_max: Watts,
    /// Journal directory for durable coordinator state (DESIGN.md §15).
    /// When set, every core input event is appended to a
    /// [`crate::fleet_journal::FleetJournal`] before it is applied, and a
    /// restart of the coordinator on the same directory recovers the fleet
    /// by checkpoint+replay instead of starting cold.
    pub journal_dir: Option<PathBuf>,
    /// Warm-standby mode: probe this primary's address and take over
    /// (replay the shared journal, bump the coordination term, bind and
    /// serve) when it stops answering. Requires `journal_dir` — a standby
    /// with no journal would promote to an empty fleet.
    pub standby_of: Option<String>,
    /// Successor address advertised in the graceful `Handover` frame when
    /// this coordinator finishes: agents reconnect there immediately
    /// instead of waiting out the disconnect grace. Also arms pause
    /// self-fencing: a primary that stalls longer than twice the heartbeat
    /// timeout fences itself rather than risk a split brain with the
    /// successor.
    pub successor: Option<String>,
}

impl CoordinatorConfig {
    /// A coordinator on `listen` owning `budget` watts, with the defaults
    /// the loopback fleet tests and the CLI use: demand-based policy,
    /// 1-second epochs, and the bounds every [`DufpNode`] announces.
    pub fn new(listen: impl Into<String>, budget: Watts) -> Self {
        CoordinatorConfig {
            listen: listen.into(),
            budget,
            policy: PolicyKind::DemandBased,
            epoch: Duration::from_secs(1),
            max_epochs: None,
            floor: DufpNode::cap_floor(),
            node_max: DufpNode::pl1(),
            journal_dir: None,
            standby_of: None,
            successor: None,
        }
    }

    /// Sets the allocator epoch.
    pub fn with_epoch(mut self, epoch: Duration) -> Self {
        self.epoch = epoch;
        self
    }

    /// A node whose last report or heartbeat is older than this is dead;
    /// its watts are reclaimed and redistributed at the next epoch. It is
    /// 1.5 × `epoch`, so a kill is detected within two epochs.
    pub fn heartbeat_timeout(&self) -> Duration {
        self.epoch.mul_f64(1.5)
    }

    /// Rejects configurations no coordinator can serve — zero/negative/NaN
    /// budgets, a floor above the per-node ceiling, degenerate timings —
    /// with a typed [`Error::InvalidValue`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.listen.is_empty() {
            return Err(Error::invalid("listen", "empty listen address"));
        }
        positive("budget", self.budget.value())?;
        positive("floor", self.floor.value())?;
        positive("node_max", self.node_max.value())?;
        if self.floor > self.node_max {
            return Err(Error::invalid(
                "floor",
                format!(
                    "{} W above node_max {} W",
                    self.floor.value(),
                    self.node_max.value()
                ),
            ));
        }
        fund_floors(self.budget, self.floor)?;
        if self.epoch.is_zero() {
            return Err(Error::invalid("epoch", "zero allocator epoch"));
        }
        if self.max_epochs == Some(0) {
            return Err(Error::invalid("max_epochs", "zero epochs"));
        }
        if self.standby_of.is_some() && self.journal_dir.is_none() {
            return Err(Error::invalid(
                "standby_of",
                "a standby needs journal_dir: promoting without the journal \
                 would serve an empty fleet",
            ));
        }
        if self.standby_of.as_deref() == Some("") {
            return Err(Error::invalid("standby_of", "empty primary address"));
        }
        if self.successor.as_deref() == Some("") {
            return Err(Error::invalid("successor", "empty successor address"));
        }
        Ok(())
    }
}

/// Agent-side configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Coordinator address, e.g. `127.0.0.1:7070`.
    pub connect: String,
    /// Warm-standby coordinator addresses. Reconnect attempts rotate
    /// round-robin over `[connect] + standbys`, so an agent that loses the
    /// primary finds a promoted standby without operator action.
    pub standbys: Vec<String>,
    /// Node name sent in the Hello frame.
    pub node: String,
    /// Applications to run back to back (see `dufp apps`).
    pub queue: Vec<String>,
    /// Tolerated slowdown for the node-local DUFP.
    pub slowdown: Ratio,
    /// RNG seed for the simulated node.
    pub seed: u64,
    /// The ceiling the node enforces while unconnected or degraded — the
    /// safe local static cap ([`DEFAULT_SAFE_CAP`] unless set). The Hello
    /// announces the node's own limits, [`DufpNode::cap_floor`] and
    /// [`DufpNode::pl1`].
    pub safe_cap: Watts,
    /// Wall-clock pause per 200 ms control interval. The simulator runs
    /// much faster than real time; pacing keeps a demo fleet observable
    /// and spreads reports across coordinator epochs. `0` = flat out.
    pub pace: Duration,
    /// Stop after this many control intervals even if the queue has work
    /// left (`None` = run to completion). Used by benchmarks and CI.
    pub max_intervals: Option<u64>,
    /// Connection retry/backoff policy (initial connect and reconnects).
    pub retry: RetryPolicy,
}

impl AgentConfig {
    /// An agent for `connect` running `app`, with the defaults the fleet
    /// tests and the CLI use.
    pub fn new(
        connect: impl Into<String>,
        node: impl Into<String>,
        app: impl Into<String>,
    ) -> Self {
        AgentConfig {
            connect: connect.into(),
            standbys: Vec::new(),
            node: node.into(),
            queue: vec![app.into()],
            slowdown: Ratio::from_percent(10.0),
            seed: 42,
            safe_cap: DEFAULT_SAFE_CAP,
            pace: Duration::ZERO,
            max_intervals: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Rejects configurations no agent can run — empty queues,
    /// zero/negative/NaN caps, a safe cap above the node's PL1 — with a
    /// typed [`Error::InvalidValue`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.connect.is_empty() {
            return Err(Error::invalid("connect", "empty coordinator address"));
        }
        if self.standbys.iter().any(String::is_empty) {
            return Err(Error::invalid("standbys", "empty standby address"));
        }
        if self.node.is_empty() {
            return Err(Error::invalid("node", "empty node name"));
        }
        if self.queue.is_empty() || self.queue.iter().any(String::is_empty) {
            return Err(Error::invalid("queue", "empty application queue"));
        }
        fraction("slowdown", self.slowdown.value())?;
        positive("safe_cap", self.safe_cap.value())?;
        let node_max = DufpNode::pl1();
        if self.safe_cap > node_max {
            return Err(Error::invalid(
                "safe_cap",
                format!(
                    "{} W above node_max {} W",
                    self.safe_cap.value(),
                    node_max.value()
                ),
            ));
        }
        if self.max_intervals == Some(0) {
            return Err(Error::invalid("max_intervals", "zero intervals"));
        }
        Ok(())
    }
}

/// Retry count and backoff for a node agent's coordinator connection
/// (initial connect and reconnects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per candidate coordinator before the agent gives up.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): exponential from
    /// [`RetryPolicy::base_backoff`], capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Like [`RetryPolicy::backoff`], but with deterministic jitter: the
    /// delay is drawn uniformly from `[backoff(attempt)/2, backoff(attempt)]`
    /// by a SplitMix64 stream keyed on `(seed, attempt)`. Two agents with
    /// different seeds desynchronise their reconnect storms against a
    /// recovering coordinator, while any given `(seed, attempt)` pair always
    /// yields the same delay — replayable chaos runs depend on that.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let full = self.backoff(attempt);
        let half = full / 2;
        let span = full.saturating_sub(half);
        if span.is_zero() {
            return full;
        }
        // One SplitMix64 step from a (seed, attempt) state — the same
        // generator the fault-injection DSL uses, so one seed governs the
        // whole adversarial run.
        let mut state = seed.wrapping_add(u64::from(attempt).wrapping_mul(splitmix::GAMMA));
        let frac = splitmix::unit_f64(&mut state);
        (half + span.mul_f64(frac)).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_parse_in_long_and_short_form() {
        for kind in [PolicyKind::StaticSplit, PolicyKind::DemandBased] {
            assert_eq!(PolicyKind::parse(kind.label()).unwrap(), kind);
        }
        assert_eq!(
            PolicyKind::parse("static").unwrap(),
            PolicyKind::StaticSplit
        );
        assert_eq!(
            PolicyKind::parse("demand").unwrap(),
            PolicyKind::DemandBased
        );
        let err = PolicyKind::parse("greedy").unwrap_err().to_string();
        assert!(
            err.contains("greedy") && err.contains("static-split"),
            "{err}"
        );
    }

    #[test]
    fn coordinator_defaults_validate() {
        CoordinatorConfig::new("127.0.0.1:0", Watts(400.0))
            .validate()
            .unwrap();
    }

    #[test]
    fn coordinator_rejects_bad_budgets_naming_the_field() {
        for bad in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            let cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(bad));
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, Error::InvalidValue { what: "budget", .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn coordinator_rejects_floor_above_node_max() {
        let mut cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(400.0));
        cfg.floor = Watts(130.0);
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, Error::InvalidValue { what: "floor", .. }));
    }

    #[test]
    fn coordinator_rejects_degenerate_timings() {
        let mut cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(400.0));
        cfg.epoch = Duration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(400.0));
        cfg.max_epochs = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn coordinator_standby_requires_a_journal() {
        let mut cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(400.0));
        cfg.standby_of = Some("127.0.0.1:7070".into());
        let err = cfg.validate().unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidValue {
                what: "standby_of",
                ..
            }
        ));
        cfg.journal_dir = Some(std::path::PathBuf::from("/tmp/j"));
        cfg.validate().unwrap();
    }

    #[test]
    fn agent_rejects_empty_standby_addresses() {
        let mut cfg = AgentConfig::new("127.0.0.1:7070", "n0", "EP");
        cfg.standbys = vec!["127.0.0.1:7071".into(), String::new()];
        let err = cfg.validate().unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidValue {
                what: "standbys",
                ..
            }
        ));
    }

    #[test]
    fn agent_defaults_validate() {
        AgentConfig::new("127.0.0.1:7070", "n0", "EP")
            .validate()
            .unwrap();
    }

    #[test]
    fn agent_rejects_bad_caps_naming_the_field() {
        for bad in [0.0, -1.0, f64::NAN] {
            let mut cfg = AgentConfig::new("127.0.0.1:7070", "n0", "EP");
            cfg.safe_cap = Watts(bad);
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::InvalidValue {
                        what: "safe_cap",
                        ..
                    }
                ),
                "{bad}: {err:?}"
            );
        }
        let mut cfg = AgentConfig::new("127.0.0.1:7070", "n0", "EP");
        cfg.safe_cap = Watts(130.0); // above the 125 W silicon limit
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn agent_rejects_an_empty_queue() {
        let mut cfg = AgentConfig::new("127.0.0.1:7070", "n0", "EP");
        cfg.queue.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(30), p.max_backoff);
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_full_band() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_secs(2),
            ..RetryPolicy::default()
        };
        for seed in 0..64u64 {
            for attempt in 1..=8u32 {
                let full = p.backoff(attempt);
                let d = p.backoff_jittered(attempt, seed);
                assert!(d >= full / 2, "attempt {attempt} seed {seed}: {d:?} < half");
                assert!(d <= full, "attempt {attempt} seed {seed}: {d:?} > full");
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_per_seed_and_varies_across_seeds() {
        let p = RetryPolicy::default();
        for attempt in 1..=6u32 {
            assert_eq!(
                p.backoff_jittered(attempt, 42),
                p.backoff_jittered(attempt, 42),
                "same (seed, attempt) must replay identically"
            );
        }
        // Across many seeds at a wide band, at least two distinct delays
        // must appear — otherwise there is no jitter at all.
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let delays: std::collections::HashSet<Duration> =
            (0..16u64).map(|s| p.backoff_jittered(4, s)).collect();
        assert!(delays.len() > 1, "jitter collapsed to a single value");
    }

    #[test]
    fn jittered_backoff_never_exceeds_ceiling() {
        let p = RetryPolicy::default();
        for seed in 0..32u64 {
            assert!(p.backoff_jittered(30, seed) <= p.max_backoff);
        }
    }
}
