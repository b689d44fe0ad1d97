//! The deterministic adversarial fleet soak: seeded chaos scenarios over
//! an in-process fleet, scored into a resilience scorecard.
//!
//! A [`ChaosFleet`] runs the same [`FleetCore`] brain and [`AgentCore`]
//! agents as the TCP shells, over a virtual, epoch-granular transport:
//! every frame an agent or the coordinator sends is an encoded byte
//! buffer in a per-peer queue, and a seeded [`NetFaultInjector`] decides
//! each frame's fate (drop, delay, duplicate, corrupt, reorder) plus link
//! partitions, agent kills and byzantine behaviors. A delivered frame goes
//! to [`FleetCore::ingest`] or [`AgentCore::on_frame`], the dispatch the
//! TCP shells call; the harness keeps only its reaction to the outcome.
//! There is no wall clock, no thread, no socket: epoch `e` *is* `now_ms =
//! e × 1000`, the loop is single-threaded, and every random draw comes
//! from SplitMix64 streams keyed on the run seed — so one seed replays the
//! entire soak, scorecard included, byte-identically.
//!
//! Each scenario run checks the fleet's hard invariants every epoch:
//!
//! * **Conservation** — `Σ granted ≤ budget`, always, under any abuse.
//! * **Honest floors** — no live, non-quarantined honest agent is ever
//!   granted less than its floor.
//! * **Quarantine latency** — a lying agent reaches the quarantine rung
//!   within two epochs of its first effective lie.
//! * **Reclaim latency** — a killed agent's watts return to the pool
//!   within two epochs.
//! * **Safe-cap fallback** — an agent partitioned or disconnected past a
//!   grace period enforces at most its safe local cap, read from the
//!   ceiling its core enforces after the fallback.
//! * **Failover** (DESIGN.md §15) — when the plan kills the *primary
//!   coordinator* (`coord-kill`), a warm standby replays the events the
//!   primary's core journaled (into an in-memory [`FleetJournal`]), must
//!   rebuild its state byte-identically, promotes to a
//!   higher term and re-grants within three epochs; agents fence every
//!   lingering stale-term grant, and a resurrected stale primary ends the
//!   run fenced, never obeyed.
//!
//! The result is one [`ScenarioScore`] per scenario; [`run_matrix`] runs
//! the built-in [`SCENARIOS`] across the shared rayon pool, one
//! single-threaded fleet each, and ranks them. `dufp chaos` is the CLI
//! face; CI fails the build on any conservation or floor violation.

use crate::agent::{AgentCore, AgentInbound};
use crate::config::{fund_floors, CoordinatorConfig};
use crate::core::{EpochStep, FleetCore, Inbound, NodeState};
use crate::fleet_journal::FleetJournal;
use crate::fleet_sim::NodeHello;
use crate::netfault::{Dir, NetFaultInjector, NetFaultOp, NetFaultPlan};
use crate::vet::Trust;
use crate::wire::Frame;
use dufp_msr::fault::{FaultInjector, FaultOp, FaultPlan};
use dufp_msr::registers::MSR_PKG_POWER_LIMIT;
use dufp_telemetry::Telemetry;
use dufp_types::{splitmix, Error, Result, Watts};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;

/// Every chaos node's floor.
const FLOOR: Watts = Watts(65.0);
/// Every chaos node's silicon limit.
const NODE_MAX: Watts = Watts(125.0);
/// The safe local cap a chaos agent enforces while disconnected.
const SAFE_CAP: Watts = Watts(90.0);

/// How a chaos soak is shaped. Defaults match the CI matrix: 8 agents,
/// 40 virtual epochs and a 700 W budget; every node has this module's
/// 65 W `FLOOR`, 125 W `NODE_MAX` and 90 W `SAFE_CAP`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: keys every random stream in the soak.
    pub seed: u64,
    /// Fleet size (agent indices are the plan's `peer=` space).
    pub agents: usize,
    /// Virtual epochs to run (one allocator epoch each).
    pub epochs: u64,
    /// Global fleet budget.
    pub budget: Watts,
    /// Extra network-fault rules merged into every scenario's plan
    /// (`--net-fault-plan`).
    pub extra_net: NetFaultPlan,
    /// Actuation-fault plan (`--fault-plan`): a `write` fault on the cap
    /// register of "cpu" *i* at clock *e* makes agent *i* fail to apply
    /// its grant at epoch *e*.
    pub msr_plan: FaultPlan,
}

impl ChaosConfig {
    /// The default CI-matrix shape under `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            agents: 8,
            epochs: 40,
            budget: Watts(700.0),
            extra_net: NetFaultPlan::none(),
            msr_plan: FaultPlan::none(),
        }
    }

    /// Rejects shapes the soak cannot run.
    pub fn validate(&self) -> Result<()> {
        if self.agents == 0 {
            return Err(Error::invalid("agents", "empty fleet"));
        }
        if self.epochs == 0 {
            return Err(Error::invalid("epochs", "zero epochs"));
        }
        if self.agents > u16::MAX as usize {
            return Err(Error::invalid(
                "agents",
                format!("{} is absurd", self.agents),
            ));
        }
        // Every honest floor must be fundable, or the floor invariant the
        // soak scores is violated by construction. The rest of the
        // budget plausibility rides on the coordinator config validation
        // inside run().
        fund_floors(self.budget, FLOOR * self.agents as f64)
    }
}

/// One built-in adversarial scenario: a name and a net-fault plan over
/// the default 8-agent fleet.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Scenario name (scorecard key).
    pub name: &'static str,
    /// What it proves.
    pub summary: &'static str,
    /// The scenario's net-fault plan (the seed comes from the run).
    pub plan: &'static str,
    /// Oscillate every honest agent's demand floor↔node_max each epoch.
    pub thrash: bool,
}

/// The built-in scenario matrix `dufp chaos` and CI run.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "baseline",
        summary: "honest lossless fleet: the control case",
        plan: "",
        thrash: false,
    },
    Scenario {
        name: "byzantine-minority",
        summary: "three liars (NaN, inflated, overdrawing) among eight",
        plan: "byz-nan,peer=0;byz-inflate,peer=1;byz-overdraw,peer=2",
        thrash: false,
    },
    Scenario {
        name: "cascading-kills",
        summary: "three agents die in a stagger and stay down",
        plan: "kill,peer=0,window=8+40;kill,peer=1,window=12+40;kill,peer=2,window=16+40",
        thrash: false,
    },
    Scenario {
        name: "frame-chaos",
        summary: "lossy wire: drops, corruption, delays, duplicates",
        plan: "drop,p=0.05;corrupt,p=0.05;delay,p=0.1,n=1;dup,p=0.05",
        thrash: false,
    },
    Scenario {
        name: "partition-heal",
        summary: "two agents partitioned for six epochs, then healed",
        plan: "partition,peer=0-1,dir=both,window=10+6",
        thrash: false,
    },
    Scenario {
        name: "replay-storm",
        summary: "two replaying agents behind a duplicating, reordering wire",
        plan: "byz-replay,peer=0-1,n=5;dup,p=0.2;reorder,p=0.2",
        thrash: false,
    },
    Scenario {
        name: "thrashing-demand",
        summary: "every agent slams demand floor-to-max each epoch",
        plan: "",
        thrash: true,
    },
    Scenario {
        name: "coordinator-kill",
        summary: "primary killed mid-run over a delaying wire; standby replays and takes over",
        plan: "coord-kill,window=15+999;delay,p=0.25,n=2",
        thrash: false,
    },
    Scenario {
        name: "takeover-partition",
        summary: "takeover races a partition: two agents dark through the handover",
        plan: "coord-kill,window=15+999;partition,peer=2-3,dir=both,window=14+6",
        thrash: false,
    },
    Scenario {
        name: "stale-primary-return",
        summary: "dead primary resurrects stale after the standby promoted; must end fenced",
        plan: "coord-kill,window=12+6;delay,p=0.2,n=2",
        thrash: false,
    },
];

/// Looks up a built-in scenario by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// One scenario's resilience scorecard line (serialized as JSONL).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScore {
    /// Scenario name.
    pub scenario: String,
    /// Run seed (the whole line is a pure function of it).
    pub seed: u64,
    /// Fleet size.
    pub agents: usize,
    /// Virtual epochs run.
    pub epochs: u64,
    /// Budget served.
    pub budget_w: f64,
    /// `Σ granted ≤ budget` held at every epoch.
    pub conservation_ok: bool,
    /// Epochs where conservation broke (must be 0).
    pub conservation_violations: u64,
    /// Every live, non-quarantined honest agent kept ≥ its floor.
    pub floor_ok: bool,
    /// (agent, epoch) floor violations (must be 0).
    pub floor_violations: u64,
    /// Agents the plan ever turns byzantine.
    pub byz_total: usize,
    /// Byzantine agents that reached quarantine (or eviction).
    pub byz_quarantined: usize,
    /// Slowest lie-to-quarantine latency in epochs (None: no byzantines).
    pub max_quarantine_delay: Option<u64>,
    /// Slowest kill-to-reclaim latency in epochs (None: no kills).
    pub max_time_to_reclaim: Option<u64>,
    /// Slowest partition-heal-to-applied-grant latency in epochs
    /// (None: no partitions).
    pub max_time_to_heal: Option<u64>,
    /// Epochs where a disconnected agent exceeded its safe cap past the
    /// grace period (must be 0).
    pub safe_cap_violations: u64,
    /// Frames the chaos transport discarded (drops + partition losses).
    pub frames_dropped: u64,
    /// Frames the chaos transport bit-flipped.
    pub frames_corrupted: u64,
    /// Frames rejected at decode (CRC/bound failures; corruption caught).
    pub wire_errors: u64,
    /// Nodes the trust ladder evicted.
    pub evictions: u64,
    /// Epochs from the primary-coordinator kill to the first applied
    /// successor-term grant (None: the plan never kills a coordinator;
    /// the full run length when the fleet never recovered).
    #[serde(default)]
    pub takeover_epochs: Option<u64>,
    /// Stale-term grants agents refused to apply — the fence working.
    #[serde(default)]
    pub stale_grants_fenced: u64,
    /// The standby's journal replay rebuilt the dead primary's core
    /// byte-identically (None: no takeover happened).
    #[serde(default)]
    pub replay_matched: Option<bool>,
    /// A resurrected stale primary ended the run fenced; vacuously true
    /// when the plan never resurrects one.
    #[serde(default = "default_true")]
    pub fenced_ok: bool,
    /// 0–100 ranking score (see [`ScenarioScore::score_of`]).
    pub score: f64,
}

fn default_true() -> bool {
    true
}

impl ScenarioScore {
    /// The ranking formula: start at 100; conservation breaks cost 50
    /// each, floor breaks 25, an unquarantined byzantine 10, a safe-cap
    /// violation 5, and slow reclaim (> 2 epochs) or slow heal (> 3
    /// epochs) 5 each; a slow takeover (> 3 epochs) costs 10, a
    /// mismatched journal replay 25, and an unfenced resurrected primary
    /// (split brain) 50; clamped at 0.
    pub fn score_of(&self) -> f64 {
        let mut score = 100.0;
        score -= 50.0 * self.conservation_violations as f64;
        score -= 25.0 * self.floor_violations as f64;
        score -= 10.0 * (self.byz_total.saturating_sub(self.byz_quarantined)) as f64;
        score -= 5.0 * self.safe_cap_violations as f64;
        if self.max_time_to_reclaim.is_some_and(|t| t > 2) {
            score -= 5.0;
        }
        if self.max_time_to_heal.is_some_and(|t| t > 3) {
            score -= 5.0;
        }
        if self.takeover_epochs.is_some_and(|t| t > 3) {
            score -= 10.0;
        }
        if self.replay_matched == Some(false) {
            score -= 25.0;
        }
        if !self.fenced_ok {
            score -= 50.0;
        }
        score.max(0.0)
    }
}

/// A queued frame: the epoch it becomes deliverable, its destination and
/// its bytes. Up-frames name their coordinator, fixed at send time — a
/// frame in flight to a dead coordinator is lost, never silently
/// rerouted; down-frames have one destination, `()`.
type Queued<D> = (u64, D, Vec<u8>);

/// Epochs an agent tolerates without a live coordinator link before it
/// falls back to the safe local cap: the partition stands in for a TCP
/// timeout.
const DISCONNECT_GRACE_EPOCHS: u64 = 2;

/// One simulated agent in the chaos fleet: the shipped [`AgentCore`] plus
/// the harness's demand model, link and metric clocks.
struct SimAgent {
    idx: usize,
    /// What the agent announces: its name, and the fleet's floor and
    /// silicon limit.
    hello: NodeHello,
    rng: u64,
    /// Wandering honest demand in watts.
    demand: f64,
    /// Fencing, grant ordering, sequencing and the safe-cap fallback.
    core: AgentCore,
    alive: bool,
    /// Which coordinator the agent's link points at, chosen at dial time.
    coord: Option<usize>,
    /// Coordinator slot, once a Hello was accepted.
    slot: Option<usize>,
    /// Admission permanently refused (evicted name).
    rejected: bool,
    /// Pending kill start, for the reclaim-latency metric.
    killed_at: Option<u64>,
    /// Epoch the last partition ended, until the next applied grant.
    heal_started: Option<u64>,
    /// First epoch this agent actually sent distorted traffic.
    first_lie: Option<u64>,
    up: Vec<Queued<usize>>,
    down: Vec<Queued<()>>,
}

impl SimAgent {
    fn new(idx: usize, cfg: &ChaosConfig) -> Self {
        let mut rng = cfg
            .seed
            .wrapping_add((idx as u64 + 1).wrapping_mul(splitmix::GAMMA));
        let span = NODE_MAX.value() - FLOOR.value();
        let demand = FLOOR.value() + splitmix::unit_f64(&mut rng) * span;
        SimAgent {
            idx,
            hello: NodeHello {
                name: format!("n{idx}"),
                app: "chaos".to_string(),
                floor: FLOOR,
                node_max: NODE_MAX,
            },
            rng,
            demand,
            core: AgentCore::new(SAFE_CAP, DISCONNECT_GRACE_EPOCHS),
            alive: true,
            coord: None,
            slot: None,
            rejected: false,
            killed_at: None,
            heal_started: None,
            first_lie: None,
            up: Vec::new(),
            down: Vec::new(),
        }
    }

    /// Process-death reset: queues flushed, sequence counters restart.
    fn die(&mut self, epoch: u64) {
        self.alive = false;
        if self.killed_at.is_none() {
            self.killed_at = Some(epoch);
        }
        self.unlink();
        self.up.clear();
        self.down.clear();
    }

    /// The coordinator link closes; the agent re-dials from scratch.
    fn unlink(&mut self) {
        self.coord = None;
        self.slot = None;
    }

    /// A fresh process: a fresh core. It forgets the terms it has seen —
    /// the stale-primary defense for fresh agents is the primary's own
    /// pause self-fencing, not agent memory.
    fn restart(&mut self) {
        self.alive = true;
        self.core = AgentCore::new(SAFE_CAP, DISCONNECT_GRACE_EPOCHS);
    }
}

/// Aggregated chaos-transport tallies.
#[derive(Debug, Default)]
struct Tallies {
    frames_dropped: u64,
    frames_corrupted: u64,
    wire_errors: u64,
    conservation_violations: u64,
    floor_violations: u64,
    safe_cap_violations: u64,
    stale_grants_fenced: u64,
}

/// One coordinator in the chaos fleet: the primary (index 0) or the warm
/// standby (index 1, present only when the plan kills the primary).
struct CoordSim {
    core: FleetCore,
    /// Maps this coordinator's slots back to agent indices.
    slot_owner: Vec<usize>,
    /// Accepting connections and running epochs.
    alive: bool,
}

/// The deterministic in-process chaos fleet. Build one per scenario run;
/// [`ChaosFleet::run`] consumes it and returns the scorecard line.
pub struct ChaosFleet {
    cfg: ChaosConfig,
    coord_cfg: CoordinatorConfig,
    scenario_name: String,
    thrash: bool,
    coords: Vec<CoordSim>,
    net: NetFaultInjector,
    msr: FaultInjector,
    agents: Vec<SimAgent>,
    /// Agent name → index, for reading the names in epoch records.
    agent_index: HashMap<String, usize>,
    /// The primary's core snapshot frozen at the instant of its kill;
    /// the replay must rebuild it byte-identically.
    dead_primary_snapshot: Option<Vec<u8>>,
    kill_epoch: Option<u64>,
    /// First epoch an agent applied a successor-term grant.
    takeover_epoch: Option<u64>,
    replay_matched: Option<bool>,
    promoted: bool,
    tallies: Tallies,
    first_quarantined: Vec<Option<u64>>,
    max_reclaim: Option<u64>,
    max_heal: Option<u64>,
    max_quarantine_delay: Option<u64>,
}

impl ChaosFleet {
    /// Assembles a fleet for one built-in scenario under `cfg`.
    pub fn new(cfg: ChaosConfig, scenario: &Scenario) -> Result<Self> {
        let plan = NetFaultPlan::parse(scenario.plan)?;
        Self::from_plan(cfg, scenario.name, plan, scenario.thrash)
    }

    /// Assembles a fleet for an arbitrary (e.g. user-supplied) fault plan.
    /// The plan and the config's extra rules are merged; the plan seed is
    /// the run seed (scenario plans never carry their own).
    pub fn from_plan(
        cfg: ChaosConfig,
        name: impl Into<String>,
        mut plan: NetFaultPlan,
        thrash: bool,
    ) -> Result<Self> {
        cfg.validate()?;
        plan.seed = cfg.seed;
        plan.rules.extend(cfg.extra_net.rules.iter().copied());
        let mut coord_cfg =
            CoordinatorConfig::new("chaos:virtual", cfg.budget).with_epoch(Duration::from_secs(1));
        coord_cfg.floor = FLOOR;
        coord_cfg.node_max = NODE_MAX;
        coord_cfg.validate()?;
        let mut msr_plan = cfg.msr_plan.clone();
        msr_plan.seed = msr_plan.seed.wrapping_add(cfg.seed);
        let agents: Vec<SimAgent> = (0..cfg.agents).map(|i| SimAgent::new(i, &cfg)).collect();
        let agent_index = agents
            .iter()
            .map(|a| (a.hello.name.clone(), a.idx))
            .collect();
        let net = NetFaultInjector::new(plan);
        // Nothing reads the harness cores' telemetry, so they record none.
        let coord = |alive| CoordSim {
            core: FleetCore::new(&coord_cfg, Telemetry::disabled()),
            slot_owner: Vec::new(),
            alive,
        };
        let mut coords = vec![coord(true)];
        if net.has_coord_kill() {
            // A killable primary self-fences when its virtual clock pauses
            // past 2× the heartbeat timeout — the same arming the TCP
            // coordinator gets when a standby or successor is configured —
            // and journals its inputs for the standby to replay.
            let pause_ms = 2 * coord_cfg.heartbeat_timeout.as_millis() as u64;
            coords[0].core.enable_pause_fencing(pause_ms);
            coords[0].core.attach_journal(FleetJournal::in_memory());
            coords.push(coord(false));
        }
        Ok(ChaosFleet {
            coords,
            net,
            msr: FaultInjector::new(msr_plan),
            agents,
            agent_index,
            dead_primary_snapshot: None,
            kill_epoch: None,
            takeover_epoch: None,
            replay_matched: None,
            promoted: false,
            tallies: Tallies::default(),
            first_quarantined: vec![None; cfg.agents],
            max_reclaim: None,
            max_heal: None,
            max_quarantine_delay: None,
            scenario_name: name.into(),
            thrash,
            cfg,
            coord_cfg,
        })
    }

    /// Runs the soak to completion and scores it.
    pub fn run(mut self) -> ScenarioScore {
        for epoch in 1..=self.cfg.epochs {
            self.step(epoch);
        }
        self.score()
    }

    /// One virtual epoch: coordinator failover events, agent
    /// kills/restarts, agent sends, frame delivery, one allocator epoch
    /// per live coordinator, grant fan-out, invariant checks.
    fn step(&mut self, epoch: u64) {
        // Coordinator topology: primary kill, stale resurrection, and
        // standby promotion one epoch after the kill becomes observable.
        if self.net.coord_killed(epoch) && self.coords[0].alive {
            self.coords[0].alive = false;
            self.kill_epoch.get_or_insert(epoch);
            self.dead_primary_snapshot = self.coords[0].core.snapshot_bytes().ok();
            for a in &mut self.agents {
                if a.coord == Some(0) {
                    a.unlink();
                }
            }
            // Down-queues are NOT flushed: grants already in flight from
            // the dead primary linger, and agents must fence them by term.
        } else if !self.net.coord_killed(epoch) && !self.coords[0].alive {
            // The kill window closed: the old primary resurrects with its
            // stale pre-kill state (a crashed process restarted from a
            // warm cache). Its paused virtual clock must self-fence it
            // before it grants a single watt.
            self.coords[0].alive = true;
        }
        if self.coords.len() > 1 && !self.promoted && self.kill_epoch.is_some_and(|k| epoch > k) {
            self.promote_standby();
        }

        // Topology: kills and restarts.
        for i in 0..self.agents.len() {
            let killed = self.net.killed(i, epoch);
            if killed && self.agents[i].alive {
                self.agents[i].die(epoch);
            } else if !killed && !self.agents[i].alive {
                self.agents[i].restart();
            }
        }

        // Agents act: notice link state, apply queued grants, report.
        for i in 0..self.agents.len() {
            self.agent_step(i, epoch);
        }

        // Deliver up-frames to the coordinator, in agent order. Frames
        // arrive "mid-epoch" so a frame sent in epoch e beats the epoch-e
        // allocator close, matching the TCP plane's report-then-allocate
        // cadence.
        let ingest_ms = epoch * 1000 - 500;
        for i in 0..self.agents.len() {
            let due = drain_due(&mut self.agents[i].up, epoch);
            for (_, dest, bytes) in due {
                if self.coords[dest].alive {
                    self.ingest(i, dest, &bytes, ingest_ms);
                } else {
                    // In flight to a dead coordinator: lost with the host.
                    self.tallies.frames_dropped += 1;
                }
            }
        }

        // One allocator epoch per live coordinator. A fenced core runs a
        // frozen epoch (no grants, no reclaims); each record is checked
        // against the invariants independently, so a stale primary and
        // its successor are both held to Σ granted ≤ budget.
        let mut steps: Vec<(usize, EpochStep)> = Vec::new();
        for c in 0..self.coords.len() {
            if !self.coords[c].alive {
                continue;
            }
            let step = self.coords[c].core.epoch_once(epoch * 1000);
            steps.push((c, step));
        }
        for (c, step) in &steps {
            // Coordinator-side disconnects close the agent's link.
            for &slot in &step.disconnects {
                if let Some(owner) = self.linked_owner(*c, slot) {
                    self.agents[owner].unlink();
                }
            }

            // Grant fan-out through the chaotic down-links.
            for (slot, frame) in &step.grants {
                // A closed link has no owner to deliver to.
                if let Some(owner) = self.linked_owner(*c, *slot) {
                    self.send_down(owner, frame, epoch);
                }
            }

            // Invariants and latency metrics for this epoch.
            self.check_epoch(&step.record, epoch);
        }
    }

    /// Warm-standby takeover: replay the inputs the primary's core
    /// journaled into a fresh core (checkpoint+replay in the TCP plane),
    /// verify the rebuild is byte-identical to the primary's state at the
    /// instant of death, then bump the term and start granting. The
    /// successor's hold-down window keeps every replayed-but-unattached
    /// node's watts reserved, so Σ granted ≤ budget holds *across* the
    /// handover.
    fn promote_standby(&mut self) {
        let mut core = FleetCore::new(&self.coord_cfg, Telemetry::disabled());
        let journal = self.coords[0].core.journal();
        for ev in journal.and_then(FleetJournal::events).unwrap_or_default() {
            ev.apply(&mut core);
        }
        self.replay_matched = match (&self.dead_primary_snapshot, core.snapshot_bytes()) {
            (Some(dead), Ok(rebuilt)) => Some(*dead == rebuilt),
            _ => Some(false),
        };
        core.promote();
        let owners = self.coords[0].slot_owner.clone();
        let standby = &mut self.coords[1];
        standby.core = core;
        standby.slot_owner = owners;
        standby.alive = true;
        self.promoted = true;
    }

    /// The agent whose live link holds coordinator `c`'s `slot`, if any.
    fn linked_owner(&self, c: usize, slot: usize) -> Option<usize> {
        let owner = *self.coords[c].slot_owner.get(slot)?;
        let a = self.agents.get(owner)?;
        (a.coord == Some(c) && a.slot == Some(slot)).then_some(owner)
    }

    /// The coordinator a fresh dial reaches: the first listening (alive,
    /// unfenced) one in address order, as in the agent's standby list.
    fn listener(&self) -> Option<usize> {
        self.coords.iter().position(|c| c.alive && !c.core.fenced())
    }

    /// One agent's actions for `epoch`.
    fn agent_step(&mut self, i: usize, epoch: u64) {
        if !self.agents[i].alive {
            return;
        }
        let up_cut = self.net.partitioned(i, Dir::Up, epoch);
        let down_cut = self.net.partitioned(i, Dir::Down, epoch);
        let partitioned = up_cut || down_cut;

        // A dead or fenced coordinator's sockets are gone: the link drops
        // and the agent re-dials down its standby list. A partition (the
        // stand-in for TCP timeouts) or a closed socket leaves the agent
        // unlinked this epoch; healing a partition starts the heal clock.
        let linked = {
            let a = &mut self.agents[i];
            if let Some(c) = a.coord {
                if !self.coords[c].alive || self.coords[c].core.fenced() {
                    a.unlink();
                }
            }
            if !partitioned
                && a.heal_started.is_none()
                && epoch > 1
                && (self.net.partitioned(i, Dir::Up, epoch - 1)
                    || self.net.partitioned(i, Dir::Down, epoch - 1))
            {
                a.heal_started = Some(epoch);
            }
            !partitioned && a.slot.is_some()
        };

        // Hand deliverable frames to the agent core; the MSR fault plan
        // decides whether this epoch's cap write puts a grant in force.
        let due = drain_due(&mut self.agents[i].down, epoch);
        for (_, (), bytes) in due {
            let Ok(frame) = Frame::decode(&bytes) else {
                self.tallies.wire_errors += 1;
                continue;
            };
            let msr = &self.msr;
            let a = &mut self.agents[i];
            let inbound = a.core.on_frame(frame, |_| {
                !msr.should_fail_at(FaultOp::Write, i, MSR_PKG_POWER_LIMIT, Some(epoch))
            });
            match inbound {
                AgentInbound::Apply {
                    term,
                    committed: true,
                    ..
                } => {
                    if term > 1 && self.takeover_epoch.is_none() {
                        self.takeover_epoch = Some(epoch);
                    }
                    if let Some(healed) = a.heal_started.take() {
                        let delay = epoch.saturating_sub(healed);
                        self.max_heal = Some(self.max_heal.unwrap_or(0).max(delay));
                    }
                }
                AgentInbound::Fenced { .. } => self.tallies.stale_grants_fenced += 1,
                // The actuation failed, so nothing committed; or stale.
                AgentInbound::Apply { .. } | AgentInbound::Stale => {}
                AgentInbound::Goodbye | AgentInbound::Handover(_) => a.unlink(),
                AgentInbound::WrongDirection => self.tallies.wire_errors += 1,
            }
        }

        // Safe-cap fallback after the grace period without a link, scored
        // on the ceiling the core then enforces.
        let core = &mut self.agents[i].core;
        if core.on_link(linked, epoch).is_some() && core.ceiling().value() > SAFE_CAP.value() + 1e-9
        {
            self.tallies.safe_cap_violations += 1;
        }

        // Demand model: seeded wander, or floor↔max thrash.
        {
            let a = &mut self.agents[i];
            let (lo, hi) = (FLOOR.value(), NODE_MAX.value());
            a.demand = if self.thrash {
                if epoch.is_multiple_of(2) {
                    lo
                } else {
                    hi
                }
            } else {
                (a.demand + (splitmix::unit_f64(&mut a.rng) - 0.5) * 20.0).clamp(lo, hi)
            };
        }

        // Outbound traffic. A severed up-link swallows everything sent.
        // Frames are addressed to the agent's coordinator — or, when
        // dialing fresh, to the first listening one (the agent's standby
        // list in address order).
        let byz = self.net.byz_ops(i, epoch);
        if self.agents[i].rejected {
            return;
        }
        let Some(dest) = self.agents[i].coord.or_else(|| self.listener()) else {
            return; // no coordinator listening: connection refused
        };
        if self.agents[i].slot.is_none() && !up_cut {
            let a = &mut self.agents[i];
            a.coord = Some(dest);
            let hello = a.core.hello(&a.hello);
            self.send_up(i, &hello, epoch, up_cut, dest);
        }

        // The demand report (possibly distorted).
        let flapping = byz.contains(&NetFaultOp::ByzFlap);
        let silent_flap = flapping && epoch.is_multiple_of(2);
        if !silent_flap {
            let a = &mut self.agents[i];
            let honest_ceiling = a.core.ceiling();
            let honest_consumption = Watts(a.demand.min(honest_ceiling.value()));
            let granted = a.core.granted();
            // The core builds the honest report; a byzantine agent then
            // rewrites its watts.
            let mut report = a.core.report(honest_ceiling, honest_consumption, true);
            let Frame::DemandReport {
                seq,
                ceiling: c,
                consumption: k,
                ..
            } = &mut report
            else {
                unreachable!("AgentCore::report builds a DemandReport");
            };
            let seq = *seq;
            let mut lied = false;
            let ten_x = NODE_MAX * 10.0;
            for op in &byz {
                match op {
                    NetFaultOp::ByzInflate => {
                        (*c, *k) = (ten_x, ten_x);
                        lied = true;
                    }
                    NetFaultOp::ByzNan => {
                        *k = Watts(f64::NAN);
                        lied = true;
                    }
                    NetFaultOp::ByzNegative => {
                        *k = Watts(-42.0);
                        lied = true;
                    }
                    NetFaultOp::ByzOverdraw => {
                        // Claim compliance with the grant while reporting a
                        // consumption that overdraws it — kept inside the
                        // plausibility envelope so only the overdraw rule
                        // can catch it.
                        if let Some(g) = granted {
                            *c = g;
                            *k = Watts((2.0 * g.value()).min(NODE_MAX.value() * 1.2));
                            lied = true;
                        }
                    }
                    _ => {}
                }
            }
            if lied {
                a.first_lie.get_or_insert(epoch);
            }
            self.send_up(i, &report, epoch, up_cut, dest);

            // Replayed stale frames, beyond what reordering could excuse.
            if byz.contains(&NetFaultOp::ByzReplay) && seq > 1 {
                self.agents[i].first_lie.get_or_insert(epoch);
                let stale_seq = seq.saturating_sub(3);
                let n = self.net.byz_replay_count(i, epoch).max(1);
                for _ in 0..n {
                    let stale = Frame::DemandReport {
                        seq: stale_seq,
                        ceiling: honest_ceiling,
                        consumption: honest_consumption,
                        active: true,
                    };
                    self.send_up(i, &stale, epoch, up_cut, dest);
                }
            }
        }

        // Heartbeats: one per epoch, or a storm on flapping epochs.
        let heartbeats = if flapping && !silent_flap { 40 } else { 1 };
        if !silent_flap {
            for _ in 0..heartbeats {
                let hb = self.agents[i].core.heartbeat();
                self.send_up(i, &hb, epoch, up_cut, dest);
            }
        }
    }

    /// Queues one up-frame through the chaos transport, addressed to
    /// coordinator `dest`.
    fn send_up(&mut self, i: usize, frame: &Frame, epoch: u64, up_cut: bool, dest: usize) {
        let (wire, queue) = ((&self.net, &mut self.tallies), &mut self.agents[i].up);
        transmit(wire, queue, (i, Dir::Up, up_cut), (epoch, 0), dest, frame);
    }

    /// Queues one down-frame (grant/Goodbye) through the chaos transport.
    /// A grant sent during epoch e is applicable from e+1: the TCP plane's
    /// agents also see grants one reporting beat later.
    fn send_down(&mut self, i: usize, frame: &Frame, epoch: u64) {
        let cut = self.net.partitioned(i, Dir::Down, epoch);
        let wire = (&self.net, &mut self.tallies);
        let queue = &mut self.agents[i].down;
        transmit(wire, queue, (i, Dir::Down, cut), (epoch, 1), (), frame);
    }

    /// Feeds one delivered up-frame into coordinator `c`'s core through
    /// [`FleetCore::ingest`], the dispatch the TCP connection handler
    /// runs, and links or unlinks the agent by the outcome.
    fn ingest(&mut self, i: usize, c: usize, bytes: &[u8], now_ms: u64) {
        let Ok(frame) = Frame::decode(bytes) else {
            self.tallies.wire_errors += 1;
            return;
        };
        let a = &mut self.agents[i];
        // A frame from an agent whose link moved on has no slot here.
        let link = if a.coord == Some(c) { a.slot } else { None };
        match self.coords[c].core.ingest(link, frame, now_ms) {
            Inbound::Admitted(slot) => {
                a.slot = Some(slot);
                a.coord = Some(c);
                let owners = &mut self.coords[c].slot_owner;
                if owners.len() <= slot {
                    owners.resize(slot + 1, usize::MAX);
                }
                owners[slot] = i;
            }
            Inbound::Refused(Error::Fenced { .. }) => {
                // Soft refusal: this coordinator is superseded. The agent
                // re-dials and finds the live successor next epoch — it is
                // not blacklisted.
                a.coord = None;
            }
            Inbound::Refused(_) => {
                // Blacklisted (evicted) or implausible: the connection is
                // refused, permanently.
                a.rejected = true;
                a.coord = None;
            }
            Inbound::Departed => a.unlink(),
            Inbound::WrongDirection => self.tallies.wire_errors += 1,
            _ => {}
        }
    }

    /// Epoch-close invariant checks and latency metrics.
    fn check_epoch(&mut self, record: &crate::core::EpochRecord, epoch: u64) {
        // Conservation: absolute, every epoch.
        if record.total_granted > self.cfg.budget.value() + 1e-6 {
            self.tallies.conservation_violations += 1;
        }

        // Honest floors: every live, non-quarantined honest agent that
        // appears in the grant table keeps at least its floor.
        for (name, watts) in &record.granted {
            if record.quarantined.contains(name) {
                continue;
            }
            let Some(&i) = self.agent_index.get(name) else {
                continue;
            };
            if self.net.is_ever_byzantine(i) {
                continue;
            }
            if *watts < FLOOR.value() - 1e-6 {
                self.tallies.floor_violations += 1;
            }
        }

        // Reclaim latency: a killed agent's name showing up in this
        // epoch's reclaims resolves its pending kill clock.
        for name in &record.reclaimed {
            let Some(&i) = self.agent_index.get(name) else {
                continue;
            };
            if let Some(killed_at) = self.agents[i].killed_at.take() {
                let delay = epoch.saturating_sub(killed_at);
                self.max_reclaim = Some(self.max_reclaim.unwrap_or(0).max(delay));
            }
        }

        // Quarantine latency, measured from the first effective lie.
        for name in record.quarantined.iter().chain(&record.evicted) {
            let Some(&i) = self.agent_index.get(name) else {
                continue;
            };
            if self.first_quarantined[i].is_some() {
                continue;
            }
            self.first_quarantined[i] = Some(epoch);
            if let Some(lie) = self.agents[i].first_lie {
                let delay = epoch.saturating_sub(lie) + 1;
                self.max_quarantine_delay = Some(self.max_quarantine_delay.unwrap_or(0).max(delay));
            }
        }
    }

    /// Final scorecard for the completed soak.
    fn score(self) -> ScenarioScore {
        let byz_total = (0..self.cfg.agents)
            .filter(|&i| self.net.is_ever_byzantine(i))
            .count();
        let byz_quarantined = (0..self.cfg.agents)
            .filter(|&i| self.net.is_ever_byzantine(i) && self.first_quarantined[i].is_some())
            .count();
        let authoritative = if self.promoted {
            &self.coords[1]
        } else {
            &self.coords[0]
        };
        let evictions = authoritative
            .core
            .views()
            .iter()
            .filter(|v| v.state == NodeState::Evicted || v.trust == Trust::Evicted)
            .count() as u64;
        // A takeover that never completed (no successor-term grant ever
        // applied) scores as the full run length, not as "no kill".
        let takeover_epochs = self.kill_epoch.map(|k| {
            self.takeover_epoch
                .map(|t| t.saturating_sub(k))
                .unwrap_or(self.cfg.epochs)
        });
        // A resurrected stale primary must have ended the run fenced; a
        // primary that stayed dead passes vacuously.
        let fenced_ok = if self.kill_epoch.is_some() && self.coords[0].alive {
            self.coords[0].core.fenced()
        } else {
            true
        };
        let mut card = ScenarioScore {
            scenario: self.scenario_name,
            seed: self.cfg.seed,
            agents: self.cfg.agents,
            epochs: self.cfg.epochs,
            budget_w: self.cfg.budget.value(),
            conservation_ok: self.tallies.conservation_violations == 0,
            conservation_violations: self.tallies.conservation_violations,
            floor_ok: self.tallies.floor_violations == 0,
            floor_violations: self.tallies.floor_violations,
            byz_total,
            byz_quarantined,
            max_quarantine_delay: self.max_quarantine_delay,
            max_time_to_reclaim: self.max_reclaim,
            max_time_to_heal: self.max_heal,
            safe_cap_violations: self.tallies.safe_cap_violations,
            frames_dropped: self.tallies.frames_dropped,
            frames_corrupted: self.tallies.frames_corrupted,
            wire_errors: self.tallies.wire_errors,
            evictions,
            takeover_epochs,
            stale_grants_fenced: self.tallies.stale_grants_fenced,
            replay_matched: self.replay_matched,
            fenced_ok,
            score: 0.0,
        };
        card.score = card.score_of();
        card
    }
}

/// Runs one named scenario (built-in) under `cfg`.
pub fn run_scenario(cfg: &ChaosConfig, name: &str) -> Result<ScenarioScore> {
    let sc = scenario(name).ok_or_else(|| {
        Error::invalid(
            "scenario",
            format!(
                "unknown scenario {name}; known: {}",
                SCENARIOS
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
    })?;
    Ok(ChaosFleet::new(cfg.clone(), sc)?.run())
}

/// Runs the full built-in matrix under `cfg` and ranks the scorecard.
///
/// The scenarios are independent, so they fan out across the shared
/// rayon pool (all available cores; inline on one core or inside another
/// pool's worker). Each still runs single-threaded on its own
/// [`ChaosFleet`], and the pool returns the cards in input order, so the
/// ranked scorecard does not depend on the pool's width.
pub fn run_matrix(cfg: &ChaosConfig) -> Result<Vec<ScenarioScore>> {
    cfg.validate()?;
    let mut cards = SCENARIOS
        .par_iter()
        .map(|sc| Ok(ChaosFleet::new(cfg.clone(), sc)?.run()))
        .collect::<Result<Vec<_>>>()?;
    rank(&mut cards);
    Ok(cards)
}

/// Orders a scorecard best score first, name as the tiebreak.
fn rank(cards: &mut [ScenarioScore]) {
    cards.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.scenario.cmp(&b.scenario))
    });
}

/// One frame through the chaos transport, either direction: a cut link
/// or a drop loses it; corruption flips a bit; the survivors are queued
/// `1 + duplicates` times, deliverable `lag + delay` epochs after
/// `epoch`, and a reorder swaps the last two queued frames. The fate is
/// drawn only for an uncut link.
fn transmit<D: Copy>(
    (net, tallies): (&NetFaultInjector, &mut Tallies),
    queue: &mut Vec<Queued<D>>,
    (i, dir, cut): (usize, Dir, bool),
    (epoch, lag): (u64, u64),
    dest: D,
    frame: &Frame,
) {
    if cut {
        tallies.frames_dropped += 1;
        return;
    }
    let fate = net.fate(i, dir, epoch);
    if fate.drop {
        tallies.frames_dropped += 1;
        return;
    }
    let mut bytes = frame.encode();
    if fate.corrupt {
        corrupt(&mut bytes);
        tallies.frames_corrupted += 1;
    }
    let deliver = epoch.saturating_add(lag).saturating_add(fate.delay_epochs);
    for _ in 0..fate.duplicates {
        queue.push((deliver, dest, bytes.clone()));
    }
    queue.push((deliver, dest, bytes));
    if fate.reorder && queue.len() >= 2 {
        let n = queue.len();
        queue.swap(n - 1, n - 2);
    }
}

/// Pops every queued frame due at `epoch`, preserving queue order; a
/// queue with nothing due is left as it is, without allocating.
fn drain_due<D>(queue: &mut Vec<Queued<D>>, epoch: u64) -> Vec<Queued<D>> {
    let due = |q: &Queued<D>| q.0 <= epoch;
    if !queue.iter().any(due) {
        return Vec::new();
    }
    let (now, later) = std::mem::take(queue).into_iter().partition(due);
    *queue = later;
    now
}

/// Deterministic single-bit corruption; the frame CRC must catch it.
fn corrupt(bytes: &mut [u8]) {
    if let Some(last) = bytes.last_mut() {
        *last ^= 0x40;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_scenario_conserves_and_keeps_honest_floors() {
        let cards = run_matrix(&ChaosConfig::new(42)).unwrap();
        assert_eq!(cards.len(), SCENARIOS.len());
        for card in &cards {
            assert!(card.conservation_ok, "{}: {card:?}", card.scenario);
            assert!(card.floor_ok, "{}: {card:?}", card.scenario);
            assert_eq!(card.safe_cap_violations, 0, "{}", card.scenario);
        }
    }

    #[test]
    fn byzantine_agents_are_quarantined_within_two_epochs() {
        for name in ["byzantine-minority", "replay-storm"] {
            let card = run_scenario(&ChaosConfig::new(42), name).unwrap();
            assert!(card.byz_total > 0, "{name}");
            assert_eq!(card.byz_quarantined, card.byz_total, "{name}: {card:?}");
            assert!(
                card.max_quarantine_delay.is_some_and(|d| d <= 2),
                "{name}: {card:?}"
            );
        }
    }

    #[test]
    fn kills_reclaim_within_two_epochs_and_partitions_heal() {
        let card = run_scenario(&ChaosConfig::new(42), "cascading-kills").unwrap();
        assert!(card.max_time_to_reclaim.is_some_and(|t| t <= 2), "{card:?}");
        let card = run_scenario(&ChaosConfig::new(42), "partition-heal").unwrap();
        assert!(card.max_time_to_heal.is_some_and(|t| t <= 3), "{card:?}");
    }

    #[test]
    fn the_same_seed_replays_an_identical_scorecard() {
        let a = run_matrix(&ChaosConfig::new(7)).unwrap();
        let b = run_matrix(&ChaosConfig::new(7)).unwrap();
        assert_eq!(a, b);
        let c = run_matrix(&ChaosConfig::new(8)).unwrap();
        assert_ne!(a, c, "different seed should change some tallies");
    }

    #[test]
    fn the_chaos_matrix_does_not_depend_on_the_pool_width() {
        let fleet = ChaosConfig {
            agents: 64,
            epochs: 60,
            budget: Watts(5600.0),
            ..ChaosConfig::new(7)
        };
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for cfg in [ChaosConfig::new(42), fleet] {
            let serial = one.install(|| run_matrix(&cfg)).unwrap();
            let pooled = run_matrix(&cfg).unwrap();
            let mut single: Vec<_> = SCENARIOS
                .iter()
                .map(|sc| run_scenario(&cfg, sc.name).unwrap())
                .collect();
            rank(&mut single);
            assert_eq!(serial.len(), SCENARIOS.len());
            assert_eq!(pooled, serial, "{} agents", cfg.agents);
            assert_eq!(single, serial, "{} agents", cfg.agents);
        }
    }

    #[test]
    fn corrupted_frames_are_caught_by_the_crc_never_ingested() {
        let card = run_scenario(&ChaosConfig::new(42), "frame-chaos").unwrap();
        assert!(card.frames_corrupted > 0, "{card:?}");
        assert!(
            card.wire_errors >= card.frames_corrupted,
            "every corruption must surface as a wire error: {card:?}"
        );
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }

    #[test]
    fn a_flapping_agent_is_rate_limited_but_never_quarantined() {
        let cfg = ChaosConfig::new(42);
        let sc = Scenario {
            name: "flap-test",
            summary: "",
            plan: "byz-flap,peer=0",
            thrash: false,
        };
        let fleet = ChaosFleet::new(cfg, &sc).unwrap();
        let card = fleet.run();
        // Flapping is obnoxious but honest: rate limiting absorbs the
        // storms, silence stays inside the heartbeat timeout, and the
        // trust ladder never moves.
        assert_eq!(card.byz_quarantined, 0, "{card:?}");
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }

    #[test]
    fn unknown_scenarios_are_a_typed_error() {
        let err = run_scenario(&ChaosConfig::new(1), "nope").unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn coordinator_kill_promotes_the_standby_within_three_epochs() {
        let card = run_scenario(&ChaosConfig::new(42), "coordinator-kill").unwrap();
        assert_eq!(card.replay_matched, Some(true), "{card:?}");
        assert!(card.takeover_epochs.is_some_and(|t| t <= 3), "{card:?}");
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
        assert_eq!(card.score, 100.0, "{card:?}");
    }

    #[test]
    fn takeover_under_partition_still_conserves() {
        let card = run_scenario(&ChaosConfig::new(42), "takeover-partition").unwrap();
        assert!(card.takeover_epochs.is_some_and(|t| t <= 3), "{card:?}");
        assert!(card.conservation_ok, "{card:?}");
        assert_eq!(card.safe_cap_violations, 0, "{card:?}");
    }

    #[test]
    fn a_resurrected_stale_primary_ends_the_run_fenced() {
        let card = run_scenario(&ChaosConfig::new(42), "stale-primary-return").unwrap();
        assert!(card.fenced_ok, "{card:?}");
        assert_eq!(card.replay_matched, Some(true), "{card:?}");
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }

    #[test]
    fn msr_fault_plan_composes_agents_miss_grant_applications() {
        // Agent 0's cap writes fail for the whole run: it can never apply
        // a grant, so it keeps enforcing its safe cap. The fleet must
        // still conserve and keep floors.
        let mut cfg = ChaosConfig::new(42);
        cfg.msr_plan = dufp_msr::fault::FaultPlan::parse("write,reg=cap,cpu=0,always").unwrap();
        let sc = scenario("baseline").unwrap();
        let card = ChaosFleet::new(cfg, sc).unwrap().run();
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }

    #[test]
    fn a_budget_below_the_honest_floors_is_rejected_naming_budget() {
        // 11 agents × 65 W floors = 715 W > the default 700 W budget.
        let mut cfg = ChaosConfig::new(42);
        cfg.agents = 11;
        match cfg.validate() {
            Err(Error::InvalidValue { what, detail }) => {
                assert_eq!(what, "budget");
                assert!(detail.contains("715"), "{detail}");
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
        assert!(run_matrix(&cfg).is_err());
        cfg.budget = Watts(715.0);
        cfg.validate().unwrap();
    }

    /// Runs the baseline scenario with `plan` merged in, for the `n=` bound
    /// regressions below.
    fn baseline_with(plan: &str) -> ScenarioScore {
        let mut cfg = ChaosConfig::new(42);
        cfg.epochs = 8;
        cfg.extra_net = NetFaultPlan::parse(plan).unwrap();
        run_scenario(&cfg, "baseline").unwrap()
    }

    #[test]
    fn delay_n_is_bounded_and_the_largest_delay_runs() {
        // Unbounded, this n overflowed the delivery-epoch addition.
        let err = NetFaultPlan::parse("delay,n=18446744073709551615,at=3").unwrap_err();
        assert!(
            err.to_string().contains("`n=18446744073709551615`"),
            "{err}"
        );
        let max = crate::netfault::MAX_N;
        let card = baseline_with(&format!("delay,n={max},at=3"));
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }

    #[test]
    fn dup_n_is_bounded_and_the_largest_dup_runs() {
        // Unbounded, this n queued four billion copies of one frame.
        let err = NetFaultPlan::parse("dup,n=4000000000,at=3").unwrap_err();
        assert!(err.to_string().contains("`n=4000000000`"), "{err}");
        let max = crate::netfault::MAX_N;
        let card = baseline_with(&format!("dup,n={max},at=3"));
        assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    }
}
