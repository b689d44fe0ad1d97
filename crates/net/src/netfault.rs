//! Declarative network-fault plans for chaos testing the fleet plane.
//!
//! [`dufp_msr::fault::FaultPlan`] chaos-tests the *actuation* path (MSR
//! reads/writes); this module applies the same rule tokenizer
//! ([`dufp_msr::fault::parse_plan`]) to the *network* path: frames
//! between the coordinator and its agents can be dropped, delayed,
//! duplicated, corrupted or reordered, links can be partitioned, whole
//! agents killed, and agents can be turned byzantine (lying demand
//! reports, replayed frames, heartbeat flapping, grant-ignoring
//! overdraw). A [`NetFaultPlan`] is a seed plus scoped [`NetFaultRule`]s
//! whose schedules are [`FaultWhen`]s, so `--net-fault-plan` composes with
//! `--fault-plan` — one seeded grammar, two failure domains.
//!
//! Command-line syntax (segments by `;`, items by `,`):
//!
//! ```text
//! seed=7;drop,p=0.05;partition,peer=0-1,dir=both,window=10+6;byz-nan,peer=0
//! ```
//!
//! Every rule starts with an op: a transport fault (`drop`, `delay`,
//! `dup`, `corrupt`, `reorder`), a topology fault (`partition`, `kill`),
//! or a byzantine behavior (`byz-inflate`, `byz-nan`, `byz-negative`,
//! `byz-replay`, `byz-flap`, `byz-overdraw`). Items scope it: `peer=N` or
//! `peer=A-B` (agent indices; default all), `dir=up|down|both` (agent →
//! coordinator is *up*; default both), `n=K` (delay length in epochs /
//! extra duplicates / replays, 1 to [`MAX_N`]; default 1), and a schedule
//! (`always`, `p=0.01`, `at=EPOCH`, `window=FROM+COUNT`; default
//! `always`), clocked on the chaos epoch. Plans are fully deterministic
//! given their seed.

use dufp_msr::fault::{parse_plan, parse_range, parse_rule_items, reject, FaultWhen};
use dufp_types::{splitmix, Result};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// The largest `n=` a rule accepts: a delay of this many epochs, or this
/// many extra copies of each frame. The bound keeps a typo'd plan from
/// overflowing epoch arithmetic or queueing billions of duplicates.
pub const MAX_N: u64 = 1000;

/// What a network-fault rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetFaultOp {
    /// Discard matching frames.
    Drop,
    /// Hold matching frames for `n` epochs before delivery.
    Delay,
    /// Deliver matching frames `n` extra times.
    Dup,
    /// Flip one bit of the encoded frame (the CRC must catch it).
    Corrupt,
    /// Swap a matching frame with the one queued behind it.
    Reorder,
    /// Sever the link in the scoped direction(s); frames vanish.
    Partition,
    /// Kill the agent process outright (no Goodbye); it restarts — and
    /// must re-Hello — once the schedule stops matching.
    Kill,
    /// Kill the *primary coordinator* (no farewell frames); peer scoping
    /// is ignored. While the schedule matches the primary is down; a warm
    /// standby (when the chaos fleet runs one) detects the silence,
    /// replays the journal and promotes. If the schedule stops matching,
    /// the old primary resurrects *stale* — exactly the split-brain case
    /// term fencing exists for.
    CoordKill,
    /// Byzantine: report demand at ten times the silicon limit.
    ByzInflate,
    /// Byzantine: report `NaN` watts.
    ByzNan,
    /// Byzantine: report negative watts.
    ByzNegative,
    /// Byzantine: re-send a stale frame (old sequence number) per epoch.
    ByzReplay,
    /// Byzantine: storm heartbeats on odd epochs, go silent on even ones.
    ByzFlap,
    /// Byzantine: ignore grants — consume double the granted ceiling
    /// while reporting compliance.
    ByzOverdraw,
}

impl NetFaultOp {
    /// The op's plan-grammar keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            NetFaultOp::Drop => "drop",
            NetFaultOp::Delay => "delay",
            NetFaultOp::Dup => "dup",
            NetFaultOp::Corrupt => "corrupt",
            NetFaultOp::Reorder => "reorder",
            NetFaultOp::Partition => "partition",
            NetFaultOp::Kill => "kill",
            NetFaultOp::CoordKill => "coord-kill",
            NetFaultOp::ByzInflate => "byz-inflate",
            NetFaultOp::ByzNan => "byz-nan",
            NetFaultOp::ByzNegative => "byz-negative",
            NetFaultOp::ByzReplay => "byz-replay",
            NetFaultOp::ByzFlap => "byz-flap",
            NetFaultOp::ByzOverdraw => "byz-overdraw",
        }
    }

    /// Whether this op describes agent (mis)behavior rather than a
    /// transport or topology fault.
    pub fn is_byzantine(self) -> bool {
        matches!(
            self,
            NetFaultOp::ByzInflate
                | NetFaultOp::ByzNan
                | NetFaultOp::ByzNegative
                | NetFaultOp::ByzReplay
                | NetFaultOp::ByzFlap
                | NetFaultOp::ByzOverdraw
        )
    }
}

/// Which direction of a link a rule scopes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// Agent → coordinator frames (reports, heartbeats, Hello, Goodbye).
    Up,
    /// Coordinator → agent frames (grants, Goodbye).
    Down,
    /// Both directions.
    Both,
}

impl Dir {
    fn covers(self, dir: Dir) -> bool {
        self == Dir::Both || self == dir
    }
}

/// One scoped network-fault rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetFaultRule {
    /// What happens.
    pub op: NetFaultOp,
    /// Restrict to an inclusive agent-index range (`None` = every agent).
    #[serde(default)]
    pub peers: Option<(usize, usize)>,
    /// Which link direction the rule covers (meaningful for transport
    /// faults and partitions; byzantine ops and kills ignore it).
    pub dir: Dir,
    /// Op parameter: delay length in epochs, or extra duplicate count.
    pub n: u64,
    /// The schedule, clocked on the chaos epoch.
    pub when: FaultWhen,
}

impl NetFaultRule {
    fn matches(&self, peer: usize, dir: Dir) -> bool {
        let peer_ok = self.peers.is_none_or(|(lo, hi)| (lo..=hi).contains(&peer));
        peer_ok && self.dir.covers(dir)
    }
}

/// A reproducible adversarial scenario: a seed plus scoped rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetFaultPlan {
    /// Seed for the probabilistic rules: same seed, same failures.
    #[serde(default)]
    pub seed: u64,
    /// The rules; every matching rule is evaluated per frame/epoch.
    #[serde(default)]
    pub rules: Vec<NetFaultRule>,
}

impl NetFaultPlan {
    /// A plan with no rules (a perfectly honest, lossless fleet).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the compact command-line syntax described in the module
    /// docs, through the rule grammar of [`dufp_msr::fault::parse_plan`].
    pub fn parse(text: &str) -> Result<Self> {
        let (seed, rules) = parse_plan(text, "net fault plan", Self::parse_rule)?;
        Ok(NetFaultPlan { seed, rules })
    }

    fn parse_rule(segment: &str) -> std::result::Result<NetFaultRule, String> {
        let (mut peers, mut dir, mut n) = (None, Dir::Both, 1);
        let (op, when, when_item) = parse_rule_items(segment, |item| {
            if let Some(range) = item.strip_prefix("peer=") {
                peers = Some(parse_range(range)?);
            } else if let Some(d) = item.strip_prefix("dir=") {
                dir = match d {
                    "up" => Dir::Up,
                    "down" => Dir::Down,
                    "both" => Dir::Both,
                    _ => return Err("dir wants up|down|both".into()),
                };
            } else if let Some(count) = item.strip_prefix("n=") {
                n = match count.parse() {
                    Ok(count @ 1..=MAX_N) => count,
                    _ => return Err(format!("n wants an integer in 1..={MAX_N}")),
                };
            } else {
                return Ok(false);
            }
            Ok(true)
        })?;
        let op = match op {
            "drop" => NetFaultOp::Drop,
            "delay" => NetFaultOp::Delay,
            "dup" => NetFaultOp::Dup,
            "corrupt" => NetFaultOp::Corrupt,
            "reorder" => NetFaultOp::Reorder,
            "partition" => NetFaultOp::Partition,
            "kill" => NetFaultOp::Kill,
            "coord-kill" => NetFaultOp::CoordKill,
            "byz-inflate" => NetFaultOp::ByzInflate,
            "byz-nan" => NetFaultOp::ByzNan,
            "byz-negative" => NetFaultOp::ByzNegative,
            "byz-replay" => NetFaultOp::ByzReplay,
            "byz-flap" => NetFaultOp::ByzFlap,
            "byz-overdraw" => NetFaultOp::ByzOverdraw,
            _ => {
                return Err(reject(
                    op,
                    "rule must start with a net fault op \
                     (drop|delay|dup|corrupt|reorder|partition|kill|coord-kill|byz-*)",
                ))
            }
        };
        // Topology and byzantine schedules must be epoch-deterministic;
        // a probabilistic partition/kill/byz state would flicker per check.
        let structural = matches!(
            op,
            NetFaultOp::Partition | NetFaultOp::Kill | NetFaultOp::CoordKill
        ) || op.is_byzantine();
        if let (true, FaultWhen::Probability { .. }, Some(item)) = (structural, when, when_item) {
            return Err(reject(
                item,
                format!(
                    "{} rules need an epoch schedule (always/at/window), not p=",
                    op.keyword()
                ),
            ));
        }
        Ok(NetFaultRule {
            op,
            peers,
            dir,
            n,
            when,
        })
    }
}

/// What the transport should do with one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFate {
    /// Discard the frame entirely.
    pub drop: bool,
    /// Hold delivery for this many epochs.
    pub delay_epochs: u64,
    /// Deliver this many extra copies.
    pub duplicates: u64,
    /// Flip one bit of the encoding (CRC must reject it downstream).
    pub corrupt: bool,
    /// Swap with the frame queued behind it.
    pub reorder: bool,
}

/// A compiled, seeded [`NetFaultPlan`] the chaos transport consults.
///
/// Probabilistic draws come from a SplitMix64 stream (same generator the
/// MSR fault injector uses), so a single-threaded chaos loop replays
/// byte-identically from the plan seed.
#[derive(Debug)]
pub struct NetFaultInjector {
    rules: Vec<NetFaultRule>,
    rng: Mutex<u64>,
}

impl NetFaultInjector {
    /// Compiles a plan.
    pub fn new(plan: NetFaultPlan) -> Self {
        NetFaultInjector {
            rules: plan.rules,
            // Offset so seed 0 still produces a scrambled stream.
            rng: Mutex::new(plan.seed ^ splitmix::GAMMA),
        }
    }

    /// The combined transport fate of one frame on `peer`'s link in
    /// direction `dir` at `epoch`. Advances the seeded stream for
    /// probabilistic rules — call in a deterministic order.
    pub fn fate(&self, peer: usize, dir: Dir, epoch: u64) -> FrameFate {
        let mut fate = FrameFate::default();
        let mut rng = self.rng.lock();
        for rule in &self.rules {
            if !rule.matches(peer, dir) {
                continue;
            }
            let fires = match rule.op {
                NetFaultOp::Drop
                | NetFaultOp::Delay
                | NetFaultOp::Dup
                | NetFaultOp::Corrupt
                | NetFaultOp::Reorder => rule.when.fires(epoch, Some(&mut *rng)),
                _ => continue,
            };
            if !fires {
                continue;
            }
            match rule.op {
                NetFaultOp::Drop => fate.drop = true,
                NetFaultOp::Delay => fate.delay_epochs = fate.delay_epochs.max(rule.n),
                NetFaultOp::Dup => fate.duplicates += rule.n,
                NetFaultOp::Corrupt => fate.corrupt = true,
                NetFaultOp::Reorder => fate.reorder = true,
                _ => unreachable!("transport ops filtered above"),
            }
        }
        fate
    }

    /// Whether `peer`'s link is partitioned in `dir` at `epoch`. Pure:
    /// partition schedules are epoch-deterministic (no `p=`).
    pub fn partitioned(&self, peer: usize, dir: Dir, epoch: u64) -> bool {
        self.rules.iter().any(|r| {
            r.op == NetFaultOp::Partition && r.matches(peer, dir) && r.when.fires(epoch, None)
        })
    }

    /// Whether `peer` is killed at `epoch`. Pure.
    pub fn killed(&self, peer: usize, epoch: u64) -> bool {
        self.rules.iter().any(|r| {
            r.op == NetFaultOp::Kill && r.matches(peer, Dir::Both) && r.when.fires(epoch, None)
        })
    }

    /// Whether the primary coordinator is killed at `epoch`. Pure; peer
    /// scoping is ignored (there is one primary).
    pub fn coord_killed(&self, epoch: u64) -> bool {
        self.rules
            .iter()
            .any(|r| r.op == NetFaultOp::CoordKill && r.when.fires(epoch, None))
    }

    /// Whether this plan ever kills the primary (i.e. the chaos fleet
    /// should run a warm standby at all).
    pub fn has_coord_kill(&self) -> bool {
        self.rules.iter().any(|r| r.op == NetFaultOp::CoordKill)
    }

    /// The byzantine behaviors `peer` exhibits at `epoch`, in rule order.
    pub fn byz_ops(&self, peer: usize, epoch: u64) -> Vec<NetFaultOp> {
        self.rules
            .iter()
            .filter(|r| {
                r.op.is_byzantine() && r.matches(peer, Dir::Both) && r.when.fires(epoch, None)
            })
            .map(|r| r.op)
            .collect()
    }

    /// How many stale frames a `byz-replay` rule has `peer` re-send at
    /// `epoch` (the rule's `n`; the largest wins if several match). Zero
    /// when no replay rule is scheduled.
    pub fn byz_replay_count(&self, peer: usize, epoch: u64) -> u64 {
        self.rules
            .iter()
            .filter(|r| {
                r.op == NetFaultOp::ByzReplay
                    && r.matches(peer, Dir::Both)
                    && r.when.fires(epoch, None)
            })
            .map(|r| r.n)
            .max()
            .unwrap_or(0)
    }

    /// Whether any rule marks `peer` byzantine at any point in its life.
    pub fn is_ever_byzantine(&self, peer: usize) -> bool {
        self.rules
            .iter()
            .any(|r| r.op.is_byzantine() && r.matches(peer, Dir::Both))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_a_full_scenario() {
        let plan = NetFaultPlan::parse(
            "seed=7;drop,p=0.05,dir=up;partition,peer=0-1,dir=both,window=10+6;\
             byz-nan,peer=0;delay,n=2,p=0.1;kill,peer=3,window=8+4",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].op, NetFaultOp::Drop);
        assert_eq!(plan.rules[0].dir, Dir::Up);
        assert_eq!(plan.rules[1].op, NetFaultOp::Partition);
        assert_eq!(plan.rules[1].peers, Some((0, 1)));
        assert_eq!(plan.rules[2].op, NetFaultOp::ByzNan);
        assert_eq!(plan.rules[3].n, 2);
        assert_eq!(plan.rules[4].when, FaultWhen::Window { from: 8, count: 4 });
        // And through serde, for --net-fault-plan FILE.json.
        let json = serde_json::to_string(&plan).unwrap();
        let back: NetFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "frob,peer=0",
            "drop,dir=sideways",
            "drop,p=1.5",
            "drop,peer=5-2",
            "delay,n=0",
            "dup,window=3",
            "dup,window=3+0",
            "seed=abc",
            "drop,wat=1",
            "partition,p=0.5", // topology faults must not flicker
            "kill,p=0.1",
            "coord-kill,p=0.2",
            "byz-nan,p=0.9",
        ] {
            assert!(NetFaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn partition_windows_are_pure_and_scoped() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::parse("partition,peer=1,dir=down,window=5+3").unwrap(),
        );
        assert!(!inj.partitioned(1, Dir::Down, 4));
        assert!(inj.partitioned(1, Dir::Down, 5));
        assert!(inj.partitioned(1, Dir::Down, 7));
        assert!(!inj.partitioned(1, Dir::Down, 8));
        assert!(!inj.partitioned(1, Dir::Up, 6), "up direction unscoped");
        assert!(!inj.partitioned(0, Dir::Down, 6), "peer 0 unscoped");
        // A dir=both check is covered by a dir=down rule only for down.
        assert!(!inj.killed(1, 6));
    }

    #[test]
    fn kills_and_byz_ops_follow_their_windows() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::parse("kill,peer=2,window=8+4;byz-inflate,peer=0;byz-replay,peer=0,at=3")
                .unwrap(),
        );
        assert!(inj.killed(2, 8));
        assert!(inj.killed(2, 11));
        assert!(!inj.killed(2, 12));
        assert!(!inj.killed(0, 9));
        assert_eq!(inj.byz_ops(0, 1), vec![NetFaultOp::ByzInflate]);
        assert_eq!(
            inj.byz_ops(0, 3),
            vec![NetFaultOp::ByzInflate, NetFaultOp::ByzReplay]
        );
        assert!(inj.byz_ops(1, 3).is_empty());
        assert!(inj.is_ever_byzantine(0));
        assert!(!inj.is_ever_byzantine(2), "a kill is not byzantine");
    }

    #[test]
    fn coord_kill_windows_are_pure_and_peerless() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::parse("coord-kill,window=15+4;drop,p=0.1").unwrap(),
        );
        assert!(!inj.coord_killed(14));
        assert!(inj.coord_killed(15));
        assert!(inj.coord_killed(18));
        assert!(!inj.coord_killed(19), "schedule over: stale resurrection");
        assert!(inj.has_coord_kill());
        let honest = NetFaultInjector::new(NetFaultPlan::parse("drop,p=0.1").unwrap());
        assert!(!honest.has_coord_kill());
        // A coordinator kill is neither an agent kill nor byzantine.
        assert!(!inj.killed(0, 16));
        assert!(!inj.is_ever_byzantine(0));
    }

    #[test]
    fn probabilistic_fates_are_deterministic_per_seed() {
        let fates = |seed: u64| -> Vec<FrameFate> {
            let plan =
                NetFaultPlan::parse(&format!("seed={seed};drop,p=0.3;corrupt,p=0.1")).unwrap();
            let inj = NetFaultInjector::new(plan);
            (0..200).map(|e| inj.fate(0, Dir::Up, e)).collect()
        };
        let a = fates(9);
        assert_eq!(a, fates(9), "same seed, same fates");
        assert_ne!(a, fates(10), "different seed, different fates");
        let drops = a.iter().filter(|f| f.drop).count();
        assert!((30..=90).contains(&drops), "drop rate plausible: {drops}");
    }

    #[test]
    fn fate_combines_matching_transport_rules() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::parse("delay,n=2,window=1+2;dup,n=3,window=1+1;reorder,at=1").unwrap(),
        );
        let fate = inj.fate(0, Dir::Up, 1);
        assert_eq!(
            fate,
            FrameFate {
                drop: false,
                delay_epochs: 2,
                duplicates: 3,
                corrupt: false,
                reorder: true,
            }
        );
        assert_eq!(inj.fate(0, Dir::Up, 3), FrameFate::default());
    }
}
