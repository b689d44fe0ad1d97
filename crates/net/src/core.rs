//! The transport-independent fleet brain.
//!
//! [`FleetCore`] is everything the coordinator does *between* sockets:
//! admission, frame vetting ([`crate::vet`]), failure detection, watt
//! reclamation, the allocator epoch and the conservation guard. It runs
//! on a caller-supplied virtual clock (`now_ms`), so the same hardened
//! logic drives both the wall-clock TCP [`crate::Coordinator`] and the
//! deterministic in-process chaos fleet ([`crate::chaos`]) — a byzantine
//! defense proven under the chaos harness is, by construction, the one
//! the real wire runs.
//!
//! Invariants enforced here (DESIGN.md §12, §14):
//!
//! * **Conservation** — `Σ granted ≤ budget` at every epoch, via a
//!   floor-preserving scale-down: when the policy oversubscribes, only
//!   the above-floor portions shrink, so honest nodes keep their floors
//!   unless the floors alone exceed the budget.
//! * **Quarantine ladder** — misbehaving nodes walk `Suspect →
//!   Quarantined` (capped at their floor, demand ignored) `→ Evicted`
//!   (watts reclaimed, name blacklisted for the rest of the run).
//! * **Replay/veto/rate defense** — see [`crate::vet`]; every defense
//!   emits a typed telemetry Reason and a counter.

use crate::config::CoordinatorConfig;
use crate::fleet_journal::{FleetEvent, FleetJournal};
use crate::vet::{FrameVerdict, NodeVet, Trust, VetConfig};
use crate::wire::{Frame, GrantKind};
use dufp_cluster::allocator::{AllocatorPolicy, NodeObservation};
use dufp_telemetry::{Actuator, Counter, DecisionEvent, Reason, Telemetry};
use dufp_types::{Error, Result, Watts};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Epochs a freshly promoted coordinator keeps replayed-but-unattached
/// nodes *pinned*: their last granted watts stay reserved (off the top of
/// the budget, like quarantine floors) and they are exempt from failure
/// detection, so the budget the dead primary already handed out cannot be
/// double-spent before the agents holding it re-attach or fall back to
/// their safe caps. After the hold, ordinary heartbeat-timeout reclaim
/// resumes. Two epochs matches the agents' disconnect grace window.
pub const HANDOVER_HOLD_EPOCHS: u64 = 2;

/// Where a node is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Connected and reporting.
    Live,
    /// Sent Goodbye; its watts were (or will be) reclaimed.
    Departed,
    /// Missed heartbeats past the timeout; watts reclaimed.
    Dead,
    /// Thrown out by the quarantine ladder; watts reclaimed and its name
    /// refused readmission for the rest of the run.
    Evicted,
}

/// One allocator epoch, as recorded in the outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Milliseconds since the coordinator started serving.
    pub at_ms: u64,
    /// Ceilings granted this epoch, one per live node: `(name, watts)`.
    pub granted: Vec<(String, f64)>,
    /// Sum of all live grants (must never exceed the budget).
    pub total_granted: f64,
    /// Live nodes at the end of the epoch.
    pub live: usize,
    /// Nodes declared dead or departed *this* epoch.
    pub reclaimed: Vec<String>,
    /// Watts returned to the pool by this epoch's reclaims.
    pub reclaimed_watts: f64,
    /// Live nodes currently held in quarantine (capped at their floors).
    #[serde(default)]
    pub quarantined: Vec<String>,
    /// Nodes evicted by the trust ladder *this* epoch.
    #[serde(default)]
    pub evicted: Vec<String>,
}

/// One node in the core registry.
struct CoreNode {
    name: String,
    app: String,
    floor: Watts,
    node_max: Watts,
    state: NodeState,
    last_seen_ms: u64,
    /// Latest accepted demand report: (ceiling the agent enforces,
    /// consumption, still has work).
    report: Option<(Watts, Watts, bool)>,
    /// Last ceiling granted by the allocator (ZERO before the first
    /// grant — the agent self-enforces its safe cap until then).
    granted: Watts,
    /// Whether the reclaim for a non-Live node already ran.
    reclaimed: bool,
    vet: NodeVet,
    /// The coordination term under which this node last spoke to us.
    /// After a takeover, slots replayed from the journal still carry the
    /// old term — they are "stale" until the agent re-attaches (which
    /// creates a fresh slot and releases this one).
    attached_term: u64,
}

/// What one core epoch asks the transport layer to do.
#[derive(Debug)]
pub struct EpochStep {
    /// The epoch's outcome record.
    pub record: EpochRecord,
    /// Grant frames to deliver, as `(slot, frame)` pairs.
    pub grants: Vec<(usize, Frame)>,
    /// Slots whose connections should be torn down (died or evicted this
    /// epoch).
    pub disconnects: Vec<usize>,
}

/// Snapshot of one node for outcome summaries.
#[derive(Debug, Clone)]
pub struct CoreNodeView {
    /// Node name from its Hello.
    pub name: String,
    /// Application queue it announced.
    pub app: String,
    /// Lifecycle state.
    pub state: NodeState,
    /// Trust ladder rung.
    pub trust: Trust,
    /// Last granted ceiling.
    pub granted: Watts,
}

/// Serialized form of one registry slot (private fields; the snapshot is
/// an opaque recovery artifact, not an API).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NodeSnap {
    name: String,
    app: String,
    floor_w: f64,
    node_max_w: f64,
    state: NodeState,
    last_seen_ms: u64,
    report: Option<(f64, f64, bool)>,
    granted_w: f64,
    reclaimed: bool,
    vet: NodeVet,
    attached_term: u64,
}

/// A complete, deterministic serialization of the core's mutable state —
/// the checkpoint payload for the fleet journal. Two cores that ingested
/// the same input events produce byte-identical snapshots (the blacklist
/// is emitted sorted), which is how the crash-equivalence tests prove a
/// replayed standby matches its dead primary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreSnapshot {
    /// Epochs run so far.
    pub epoch: u64,
    /// Coordination term (fencing token).
    pub term: u64,
    /// The higher term this core is fenced by, if any.
    pub fenced_by: Option<u64>,
    /// Last epoch (inclusive) of the post-takeover hold-down window.
    pub hold_until_epoch: u64,
    /// Virtual-clock time of the most recent epoch tick.
    pub last_epoch_ms: Option<u64>,
    blacklist: Vec<String>,
    nodes: Vec<NodeSnap>,
}

/// The counters a [`FleetCore`] bumps. Each is resolved from the
/// telemetry registry once, on its first bump, so the per-frame cost is
/// one atomic add and a snapshot still lists only counters that counted.
#[derive(Debug, Clone, Copy)]
enum Count {
    Reports,
    Heartbeats,
    GrantsIssued,
    DuplicateFrames,
    ReplaysRejected,
    RateLimited,
    DemandVetoes,
    BudgetReclaims,
    Evictions,
    Quarantines,
    AdmissionRejects,
    TermFences,
    Takeovers,
    JournalErrors,
}

impl Count {
    /// How many counters there are (`JournalErrors` is the last).
    const N: usize = Count::JournalErrors as usize + 1;

    /// The counter's telemetry name.
    fn name(self) -> &'static str {
        match self {
            Count::Reports => "reports_total",
            Count::Heartbeats => "heartbeats_total",
            Count::GrantsIssued => "grants_issued_total",
            Count::DuplicateFrames => "duplicate_frames_total",
            Count::ReplaysRejected => "replays_rejected_total",
            Count::RateLimited => "rate_limited_total",
            Count::DemandVetoes => "demand_vetoes_total",
            Count::BudgetReclaims => "budget_reclaims_total",
            Count::Evictions => "evictions_total",
            Count::Quarantines => "quarantines_total",
            Count::AdmissionRejects => "admission_rejects_total",
            Count::TermFences => "term_fences_total",
            Count::Takeovers => "takeovers_total",
            Count::JournalErrors => "journal_errors_total",
        }
    }
}

/// The transport-independent coordinator brain. See the module docs.
pub struct FleetCore {
    budget: Watts,
    heartbeat_timeout_ms: u64,
    vet_cfg: VetConfig,
    policy: Box<dyn AllocatorPolicy>,
    nodes: Vec<CoreNode>,
    blacklist: HashSet<String>,
    epoch: u64,
    tel: Telemetry,
    /// `tel`'s counters, indexed by [`Count`], resolved on first use.
    counters: [OnceLock<Arc<Counter>>; Count::N],
    /// Monotonic coordination term; grants carry it and agents apply
    /// grants in `(term, epoch)` lexicographic order.
    term: u64,
    /// `Some(t)` once a higher term `t` was observed (or presumed, via
    /// pause detection): this core stops granting permanently.
    fenced_by: Option<u64>,
    /// Last epoch (inclusive) of the post-takeover hold-down window.
    hold_until_epoch: u64,
    /// Virtual-clock time of the most recent epoch tick.
    last_epoch_ms: Option<u64>,
    /// When set, an epoch arriving more than this many ms after the
    /// previous one self-fences the core: it was paused long enough for a
    /// standby to have taken over (enable only when one is configured).
    pause_fence_ms: Option<u64>,
    /// Durable input-event log; `None` runs the core unjournaled.
    journal: Option<FleetJournal>,
}

impl FleetCore {
    /// Builds a core from a validated coordinator configuration. The
    /// `listen` field is ignored — transport is the caller's business.
    pub fn new(cfg: &CoordinatorConfig, tel: Telemetry) -> Self {
        let policy = cfg.policy.allocator(cfg.floor, cfg.node_max);
        FleetCore::with_policy(cfg, policy, tel)
    }

    /// [`FleetCore::new`] running `policy` in place of `cfg.policy`.
    pub fn with_policy(
        cfg: &CoordinatorConfig,
        policy: Box<dyn AllocatorPolicy>,
        tel: Telemetry,
    ) -> Self {
        FleetCore {
            budget: cfg.budget,
            heartbeat_timeout_ms: cfg.heartbeat_timeout.as_millis() as u64,
            vet_cfg: cfg.vet,
            policy,
            nodes: Vec::new(),
            blacklist: HashSet::new(),
            epoch: 0,
            tel,
            counters: [const { OnceLock::new() }; Count::N],
            term: 1,
            fenced_by: None,
            hold_until_epoch: 0,
            last_epoch_ms: None,
            pause_fence_ms: None,
            journal: None,
        }
    }

    /// Rebuilds a core from a recovery snapshot. `cfg` supplies the
    /// non-serialized parts (policy, budget, vetting tunables) and must
    /// match the configuration the snapshotting coordinator ran with.
    pub fn from_snapshot(cfg: &CoordinatorConfig, snap: CoreSnapshot, tel: Telemetry) -> Self {
        let mut core = FleetCore::new(cfg, tel);
        core.epoch = snap.epoch;
        core.term = snap.term;
        core.fenced_by = snap.fenced_by;
        core.hold_until_epoch = snap.hold_until_epoch;
        core.last_epoch_ms = snap.last_epoch_ms;
        core.blacklist = snap.blacklist.into_iter().collect();
        core.nodes = snap
            .nodes
            .into_iter()
            .map(|s| CoreNode {
                name: s.name,
                app: s.app,
                floor: Watts(s.floor_w),
                node_max: Watts(s.node_max_w),
                state: s.state,
                last_seen_ms: s.last_seen_ms,
                report: s.report.map(|(c, k, a)| (Watts(c), Watts(k), a)),
                granted: Watts(s.granted_w),
                reclaimed: s.reclaimed,
                vet: s.vet,
                attached_term: s.attached_term,
            })
            .collect();
        core
    }

    /// A deterministic serialization of the mutable state (see
    /// [`CoreSnapshot`]).
    pub fn snapshot(&self) -> CoreSnapshot {
        let mut blacklist: Vec<String> = self.blacklist.iter().cloned().collect();
        blacklist.sort();
        CoreSnapshot {
            epoch: self.epoch,
            term: self.term,
            fenced_by: self.fenced_by,
            hold_until_epoch: self.hold_until_epoch,
            last_epoch_ms: self.last_epoch_ms,
            blacklist,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeSnap {
                    name: n.name.clone(),
                    app: n.app.clone(),
                    floor_w: n.floor.value(),
                    node_max_w: n.node_max.value(),
                    state: n.state,
                    last_seen_ms: n.last_seen_ms,
                    report: n.report.map(|(c, k, a)| (c.value(), k.value(), a)),
                    granted_w: n.granted.value(),
                    reclaimed: n.reclaimed,
                    vet: n.vet.clone(),
                    attached_term: n.attached_term,
                })
                .collect(),
        }
    }

    /// [`FleetCore::snapshot`] as canonical bytes — the checkpoint payload
    /// and the crash-equivalence comparison key.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(&self.snapshot())
            .map_err(|e| Error::Corruption(format!("core snapshot encode failed: {e}")))
    }

    /// Attaches the durable input-event journal. Every subsequent
    /// admission, ingested frame, epoch tick and term transition is
    /// appended before it mutates state; checkpoints follow the journal's
    /// cadence. Attach only *after* replay — a core must not re-journal
    /// its own recovery.
    pub fn attach_journal(&mut self, journal: FleetJournal) {
        self.journal = Some(journal);
    }

    /// The events an attached in-memory journal
    /// ([`FleetJournal::in_memory`]) kept, in order; `None` without one.
    pub fn journaled_events(&self) -> Option<&[FleetEvent]> {
        self.journal.as_ref()?.events()
    }

    /// Enables pause self-fencing (see the `pause_fence_ms` field). Call
    /// when a standby or successor is configured: a coordinator stalled
    /// past `threshold_ms` must assume it was superseded.
    pub fn enable_pause_fencing(&mut self, threshold_ms: u64) {
        self.pause_fence_ms = Some(threshold_ms);
    }

    /// The current coordination term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Whether this core has permanently stopped granting because a
    /// higher term was observed (or presumed via pause detection).
    pub fn fenced(&self) -> bool {
        self.fenced_by.is_some()
    }

    /// Notes a term a peer announced (Hello/Heartbeat). A term above ours
    /// proves a successor took over: the core fences itself and the call
    /// — like every call while fenced — returns [`Error::Fenced`].
    pub fn observe_term(&mut self, peer_term: u64) -> Result<()> {
        if peer_term > self.term {
            self.force_fence(peer_term);
        }
        match self.fenced_by {
            Some(theirs) => Err(Error::Fenced {
                ours: self.term,
                theirs,
            }),
            None => Ok(()),
        }
    }

    /// Fences the core by `term` (idempotent; keeps the highest fencing
    /// term seen). Public so journal replay can reproduce it.
    pub fn force_fence(&mut self, term: u64) {
        if self.fenced_by.is_some_and(|t| term <= t) {
            return;
        }
        self.journal_event(&FleetEvent::Fence { term });
        self.fenced_by = Some(term);
        self.count(Count::TermFences);
        self.record(
            0,
            self.last_epoch_ms.unwrap_or(0),
            self.term as f64,
            term as f64,
            Reason::TermFenced,
        );
    }

    /// Takes over as primary: bumps the term past everything seen so far,
    /// clears any fence, and opens the hold-down window
    /// ([`HANDOVER_HOLD_EPOCHS`]) during which replayed-but-unattached
    /// nodes stay pinned. Must be called after journal replay and before
    /// the first grant.
    pub fn promote(&mut self) {
        let next = self.fenced_by.unwrap_or(self.term).max(self.term) + 1;
        self.promote_to(next);
    }

    /// Takes over at an explicit term. Public so journal replay can
    /// reproduce a recorded [`FleetEvent::TermBump`] exactly.
    pub fn promote_to(&mut self, term: u64) {
        let old = self.term;
        self.term = term;
        self.fenced_by = None; // clear before journaling: a fenced core's journal is closed
        self.hold_until_epoch = self.epoch + HANDOVER_HOLD_EPOCHS;
        self.journal_event(&FleetEvent::TermBump { term });
        self.count(Count::Takeovers);
        self.record(
            0,
            self.last_epoch_ms.unwrap_or(0),
            old as f64,
            term as f64,
            Reason::TookOver,
        );
    }

    fn journal_event(&mut self, ev: &FleetEvent) {
        // A fenced core's journal stream ends at its Fence record (written
        // by `force_fence` before the flag flips): the successor owns the
        // log now, and a superseded primary must not interleave with it.
        if self.fenced_by.is_some() {
            return;
        }
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if j.record(ev).is_err() {
            // A full disk must not kill the fleet; the failure is counted
            // and the core keeps serving (recovery fidelity degrades).
            self.count(Count::JournalErrors);
        }
    }

    /// The allocator policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The global budget being served.
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Epochs run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes ever admitted (any state).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Snapshot of every node for outcome summaries.
    pub fn views(&self) -> Vec<CoreNodeView> {
        self.nodes
            .iter()
            .map(|n| CoreNodeView {
                name: n.name.clone(),
                app: n.app.clone(),
                state: n.state,
                trust: n.vet.trust(),
                granted: n.granted,
            })
            .collect()
    }

    /// The trust rung of a slot (slots are stable for a run's lifetime).
    pub fn trust(&self, slot: usize) -> Option<Trust> {
        self.nodes.get(slot).map(|n| n.vet.trust())
    }

    /// Admits a node from its Hello, returning its slot. Refuses the
    /// same typed validation the configs use — non-finite or non-positive
    /// floors, a floor above the silicon limit — plus the eviction
    /// blacklist: an evicted name never gets back in.
    pub fn admit(
        &mut self,
        name: String,
        app: String,
        floor: Watts,
        node_max: Watts,
        now_ms: u64,
    ) -> Result<usize> {
        if let Some(theirs) = self.fenced_by {
            self.count(Count::AdmissionRejects);
            return Err(Error::Fenced {
                ours: self.term,
                theirs,
            });
        }
        if !floor.value().is_finite()
            || floor.value() <= 0.0
            || !node_max.value().is_finite()
            || floor > node_max
        {
            self.count(Count::AdmissionRejects);
            return Err(Error::invalid(
                "hello",
                format!(
                    "implausible floor {} W / node_max {} W",
                    floor.value(),
                    node_max.value()
                ),
            ));
        }
        if self.blacklist.contains(&name) {
            self.count(Count::AdmissionRejects);
            return Err(Error::Precondition(format!(
                "node {name} was evicted; readmission refused"
            )));
        }
        self.journal_event(&FleetEvent::Admit {
            name: name.clone(),
            app: app.clone(),
            floor_w: floor.value(),
            node_max_w: node_max.value(),
            now_ms,
        });
        // A re-admitted name releases its stale-term predecessor: the
        // agent has provably moved to the current term, so the pinned
        // watts the old slot held can return to the pool next epoch.
        let term = self.term;
        for n in &mut self.nodes {
            if n.state == NodeState::Live && n.attached_term < term && n.name == name {
                n.state = NodeState::Departed;
            }
        }
        self.nodes.push(CoreNode {
            name,
            app,
            floor,
            node_max,
            state: NodeState::Live,
            last_seen_ms: now_ms,
            report: None,
            granted: Watts::ZERO,
            reclaimed: false,
            vet: NodeVet::new(),
            attached_term: term,
        });
        Ok(self.nodes.len() - 1)
    }

    /// Ingests a demand report. Returns what the vetting layer decided;
    /// only [`FrameVerdict::Accepted`] frames update the registry. A
    /// fenced core refuses every report ([`FrameVerdict::Vetoed`]), as it
    /// refuses admission: its registry is frozen for the successor.
    pub fn on_report(
        &mut self,
        slot: usize,
        seq: u64,
        ceiling: Watts,
        consumption: Watts,
        active: bool,
        now_ms: u64,
    ) -> FrameVerdict {
        if self.fenced() || !self.slot_is_live(slot) {
            return FrameVerdict::Vetoed;
        }
        // Journal before vetting: rejected frames still move sequence
        // cursors and strike flags, so replay must ingest them too.
        self.journal_event(&FleetEvent::Report {
            slot,
            seq,
            ceiling_w: ceiling.value(),
            consumption_w: consumption.value(),
            active,
            now_ms,
        });
        let term = self.term;
        let n = &mut self.nodes[slot];
        n.attached_term = term;
        let granted = n.granted;
        let node_max = n.node_max;
        let verdict =
            n.vet
                .check_report(&self.vet_cfg, seq, ceiling, consumption, node_max, granted);
        match verdict {
            FrameVerdict::Accepted => {
                n.last_seen_ms = now_ms;
                n.report = Some((ceiling, consumption, active));
                self.count(Count::Reports);
            }
            FrameVerdict::Duplicate => {
                // A lossy path duplicated the frame; the node is alive.
                n.last_seen_ms = now_ms;
                self.count(Count::DuplicateFrames);
            }
            FrameVerdict::Replay => {
                n.last_seen_ms = now_ms;
                let last = n.vet.last_report_seq();
                self.count(Count::ReplaysRejected);
                self.record(
                    slot,
                    now_ms,
                    seq as f64,
                    last as f64,
                    Reason::ReplayRejected,
                );
            }
            FrameVerdict::RateLimited => {
                // Rate limiting throttles the allocator's inputs, not the
                // liveness detector: a storming node is still visibly
                // alive, so the heartbeat clock resets even though the
                // frame's content is dropped unprocessed.
                self.nodes[slot].last_seen_ms = now_ms;
                self.count(Count::RateLimited);
                // One event per node per epoch, not one per dropped frame
                // — a storm must not flood the telemetry buffer.
                if self.nodes[slot].vet.just_hit_report_limit(&self.vet_cfg) {
                    let max = f64::from(self.vet_cfg.max_reports_per_epoch);
                    self.record(slot, now_ms, max + 1.0, max, Reason::RateLimited);
                }
            }
            FrameVerdict::Vetoed => {
                n.last_seen_ms = now_ms;
                self.count(Count::DemandVetoes);
                let shown = if consumption.value().is_finite() {
                    consumption.value()
                } else {
                    0.0
                };
                self.record(slot, now_ms, shown, 0.0, Reason::DemandVetoed);
            }
        }
        verdict
    }

    /// Ingests a heartbeat.
    pub fn on_heartbeat(&mut self, slot: usize, seq: u64, now_ms: u64) -> FrameVerdict {
        if !self.slot_is_live(slot) {
            return FrameVerdict::Vetoed;
        }
        self.journal_event(&FleetEvent::Heartbeat { slot, seq, now_ms });
        let term = self.term;
        let n = &mut self.nodes[slot];
        n.attached_term = term;
        let verdict = n.vet.check_heartbeat(&self.vet_cfg, seq);
        match verdict {
            FrameVerdict::RateLimited => {
                // As in `on_report`: the storm is dropped, but the node
                // has proven it is alive.
                n.last_seen_ms = now_ms;
                self.count(Count::RateLimited);
            }
            FrameVerdict::Replay => {
                n.last_seen_ms = now_ms;
                self.count(Count::ReplaysRejected);
            }
            _ => {
                n.last_seen_ms = now_ms;
                self.count(Count::Heartbeats);
            }
        }
        verdict
    }

    /// Marks a node cleanly departed.
    pub fn on_goodbye(&mut self, slot: usize) {
        if self.slot_is_live(slot) {
            self.journal_event(&FleetEvent::Goodbye { slot });
            self.nodes[slot].state = NodeState::Departed;
        }
    }

    fn slot_is_live(&self, slot: usize) -> bool {
        self.nodes
            .get(slot)
            .is_some_and(|n| n.state == NodeState::Live)
    }

    /// One allocator epoch on the virtual clock: close the vetting epoch
    /// (trust transitions), detect dead nodes, reclaim watts, allocate
    /// under the conservation guard, and emit the grant frames for the
    /// transport to deliver. Deterministic given the registry state.
    pub fn epoch_once(&mut self, now_ms: u64) -> EpochStep {
        // Pause self-fencing, checked (and journaled) *before* the epoch
        // tick so replay reproduces the fence at the same point: a
        // coordinator that stalled past the threshold must assume its
        // standby promoted itself in the gap, and a fenced epoch must not
        // reallocate anything.
        if let (Some(threshold), Some(prev)) = (self.pause_fence_ms, self.last_epoch_ms) {
            if self.fenced_by.is_none() && now_ms.saturating_sub(prev) > threshold {
                let presumed = self.term + 1;
                self.force_fence(presumed);
            }
        }
        self.journal_event(&FleetEvent::Epoch { now_ms });
        self.last_epoch_ms = Some(now_ms);
        self.epoch += 1;
        if self.fenced_by.is_some() {
            let step = self.frozen_epoch(now_ms);
            self.maybe_checkpoint();
            return step;
        }
        let mut disconnects = Vec::new();
        let mut evicted_now = Vec::new();

        // Post-takeover hold-down: slots replayed from the journal whose
        // agents have not re-attached under the new term keep their watts
        // reserved and are exempt from failure detection until the window
        // closes. See [`HANDOVER_HOLD_EPOCHS`].
        let hold_active = self.epoch <= self.hold_until_epoch;
        let is_pinned = |n: &CoreNode, term: u64| {
            hold_active && n.state == NodeState::Live && n.attached_term < term
        };

        // Trust ladder transitions from the epoch's strike flags.
        for i in 0..self.nodes.len() {
            if self.nodes[i].state != NodeState::Live {
                continue;
            }
            let vet_cfg = self.vet_cfg;
            if let Some((old, new)) = self.nodes[i].vet.finalize_epoch(&vet_cfg) {
                let reason = if new == Trust::Evicted {
                    Reason::Evicted
                } else {
                    Reason::Quarantined
                };
                self.record(
                    i,
                    now_ms,
                    old.ordinal() as f64,
                    new.ordinal() as f64,
                    reason,
                );
                if new == Trust::Evicted {
                    let name = self.nodes[i].name.clone();
                    self.blacklist.insert(name.clone());
                    evicted_now.push(name);
                    self.nodes[i].state = NodeState::Evicted;
                    disconnects.push(i);
                    self.count(Count::Evictions);
                } else if new == Trust::Quarantined {
                    self.count(Count::Quarantines);
                }
            }
        }

        // Failure detection + reclaim.
        let mut reclaimed = Vec::new();
        let mut reclaimed_watts = 0.0;
        for i in 0..self.nodes.len() {
            let stale = {
                let n = &self.nodes[i];
                n.state == NodeState::Live
                    && !is_pinned(n, self.term)
                    && now_ms.saturating_sub(n.last_seen_ms) > self.heartbeat_timeout_ms
            };
            if stale {
                self.nodes[i].state = NodeState::Dead;
                disconnects.push(i);
            }
            let n = &self.nodes[i];
            if n.state != NodeState::Live && !n.reclaimed {
                let had = n.granted.value();
                let name = n.name.clone();
                self.nodes[i].reclaimed = true;
                self.nodes[i].granted = Watts::ZERO;
                reclaimed.push(name);
                reclaimed_watts += had;
                self.count(Count::BudgetReclaims);
                self.record(i, now_ms, had, 0.0, Reason::BudgetReclaim);
            }
        }

        // Split the live fleet: quarantined nodes are pinned at their
        // floors and their (untrusted) demand is excluded from the policy;
        // hold-down-pinned nodes keep their replayed grants off the top.
        let mut policy_slots = Vec::new();
        let mut quarantined_slots = Vec::new();
        let mut pinned_slots = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.state != NodeState::Live {
                continue;
            }
            if is_pinned(n, self.term) {
                pinned_slots.push(i);
            } else if n.vet.trust() >= Trust::Quarantined {
                quarantined_slots.push(i);
            } else {
                policy_slots.push(i);
            }
        }
        let quarantined_names: Vec<String> = quarantined_slots
            .iter()
            .map(|&i| self.nodes[i].name.clone())
            .collect();

        // Quarantined floors and hold-down-pinned grants come off the top
        // of the budget (scaled down if even those oversubscribe it —
        // conservation is absolute).
        let mut quar_ceilings: Vec<f64> = quarantined_slots
            .iter()
            .map(|&i| self.nodes[i].floor.value())
            .collect();
        let mut pinned_ceilings: Vec<f64> = pinned_slots
            .iter()
            .map(|&i| self.nodes[i].granted.value())
            .collect();
        let reserved: f64 = quar_ceilings.iter().chain(pinned_ceilings.iter()).sum();
        if reserved > self.budget.value() && reserved > 0.0 {
            let scale = self.budget.value() / reserved;
            for w in quar_ceilings.iter_mut().chain(pinned_ceilings.iter_mut()) {
                *w *= scale;
            }
        }
        let reserved: f64 = quar_ceilings.iter().chain(pinned_ceilings.iter()).sum();
        let remaining = (self.budget.value() - reserved).max(0.0);

        // Policy allocation over the trusted observations. A node that has
        // not reported yet is an idle consumer at its floor, so it is
        // funded (and counted against the budget) from its first epoch.
        let observations: Vec<NodeObservation> = policy_slots
            .iter()
            .map(|&i| {
                let n = &self.nodes[i];
                match n.report {
                    Some((ceiling, consumption, active)) => NodeObservation {
                        ceiling,
                        consumption,
                        active,
                    },
                    None => NodeObservation {
                        ceiling: n.granted.max(n.floor),
                        consumption: Watts::ZERO,
                        active: true,
                    },
                }
            })
            .collect();
        let mut ceilings: Vec<f64> = self
            .policy
            .allocate(Watts(remaining), &observations)
            .into_iter()
            .map(|w| w.value())
            .collect();
        let floors: Vec<f64> = policy_slots
            .iter()
            .map(|&i| self.nodes[i].floor.value())
            .collect();
        // The policy sees one fleet-wide floor; a node that announced a
        // higher one would clamp a lower grant back up to it and push the
        // enforced total over the budget, so raise to each node's own.
        for (c, f) in ceilings.iter_mut().zip(&floors) {
            *c = c.max(*f);
        }
        fit_into_budget(remaining, &floors, &mut ceilings);

        // Push grants; only changed ceilings produce frames.
        let mut grants = Vec::new();
        let mut granted = Vec::new();
        let mut total_granted = 0.0;
        let all_slots = policy_slots
            .iter()
            .copied()
            .zip(ceilings)
            .chain(quarantined_slots.iter().copied().zip(quar_ceilings))
            .chain(pinned_slots.iter().copied().zip(pinned_ceilings));
        let mut per_slot: Vec<(usize, f64)> = all_slots.collect();
        per_slot.sort_by_key(|&(slot, _)| slot); // stable, transport-friendly order
        for (i, ceiling) in per_slot {
            let n = &mut self.nodes[i];
            // Watts above the node's announced silicon limit are unusable
            // there; keep them in the pool instead of granting them.
            let ceiling = Watts(ceiling).min(n.node_max);
            let old = n.granted;
            let kind = if ceiling >= old {
                GrantKind::Raise
            } else {
                GrantKind::Shrink
            };
            if (ceiling - old).abs() > Watts(1e-9) {
                grants.push((
                    i,
                    Frame::BudgetGrant {
                        epoch: self.epoch,
                        ceiling,
                        kind,
                        term: self.term,
                    },
                ));
                let reason = match kind {
                    GrantKind::Raise => Reason::BudgetGrant,
                    GrantKind::Shrink => Reason::BudgetShrink,
                };
                let (o, c) = (old.value(), ceiling.value());
                n.granted = ceiling;
                self.count(Count::GrantsIssued);
                self.record(i, now_ms, o, c, reason);
            }
            let n = &self.nodes[i];
            granted.push((n.name.clone(), n.granted.value()));
            total_granted += n.granted.value();
        }

        let live = self
            .nodes
            .iter()
            .filter(|n| n.state == NodeState::Live)
            .count();
        let step = EpochStep {
            record: EpochRecord {
                epoch: self.epoch,
                at_ms: now_ms,
                granted,
                total_granted,
                live,
                reclaimed,
                reclaimed_watts,
                quarantined: quarantined_names,
                evicted: evicted_now,
            },
            grants,
            disconnects,
        };
        self.maybe_checkpoint();
        step
    }

    /// The epoch produced while fenced: a frozen view of the registry.
    /// No grants, no reclaims, no trust transitions — a fenced core must
    /// not reallocate watts a successor is already re-granting.
    fn frozen_epoch(&self, now_ms: u64) -> EpochStep {
        let mut granted = Vec::new();
        let mut total_granted = 0.0;
        let mut live = 0;
        for n in &self.nodes {
            if n.state == NodeState::Live {
                live += 1;
                granted.push((n.name.clone(), n.granted.value()));
                total_granted += n.granted.value();
            }
        }
        EpochStep {
            record: EpochRecord {
                epoch: self.epoch,
                at_ms: now_ms,
                granted,
                total_granted,
                live,
                reclaimed: Vec::new(),
                reclaimed_watts: 0.0,
                quarantined: Vec::new(),
                evicted: Vec::new(),
            },
            grants: Vec::new(),
            disconnects: Vec::new(),
        }
    }

    /// Writes a checkpoint when the journal's cadence calls for one.
    fn maybe_checkpoint(&mut self) {
        let Some(mut j) = self.journal.take_if(|j| j.due_for_checkpoint()) else {
            return;
        };
        let sealed = self.snapshot_bytes().and_then(|b| j.checkpoint(&b));
        if sealed.is_err() {
            self.count(Count::JournalErrors);
        }
        self.journal = Some(j);
    }

    fn count(&self, c: Count) {
        self.counters[c as usize]
            .get_or_init(|| self.tel.counter(c.name()))
            .inc();
    }

    fn record(&self, slot: usize, now_ms: u64, old: f64, new: f64, reason: Reason) {
        let event = fleet_event(self.epoch, now_ms, slot, old, new, reason);
        self.tel.record_decision(event);
    }

    /// Whether every node that ever joined has left (any non-Live state).
    pub fn drained(&self) -> bool {
        !self.nodes.is_empty() && self.nodes.iter().all(|n| n.state != NodeState::Live)
    }
}

/// A node's budget-actuator decision at interval `tick`, stamped with
/// the fleet's virtual clock.
pub fn fleet_event(
    tick: u64,
    now_ms: u64,
    node: usize,
    old: f64,
    new: f64,
    why: Reason,
) -> DecisionEvent {
    DecisionEvent {
        at_us: now_ms.saturating_mul(1000),
        socket: node as u16,
        ..DecisionEvent::new(tick, Actuator::Budget, old, new, why)
    }
}

/// Floor-preserving conservation guard: scales `want` into `budget` by
/// shrinking only the above-floor portions; falls back to a proportional
/// scale of the floors themselves only when the floors alone exceed the
/// budget. No-op when the total already fits.
fn fit_into_budget(budget: f64, floors: &[f64], want: &mut [f64]) {
    let total: f64 = want.iter().sum();
    if total <= budget {
        return;
    }
    let floor_sum: f64 = floors.iter().sum();
    if floor_sum >= budget {
        if floor_sum > 0.0 {
            let scale = budget / floor_sum;
            for (w, f) in want.iter_mut().zip(floors) {
                *w = f * scale;
            }
        }
        return;
    }
    let above: f64 = want.iter().zip(floors).map(|(w, f)| (w - f).max(0.0)).sum();
    if above <= 0.0 {
        return;
    }
    let scale = (budget - floor_sum) / above;
    for (w, f) in want.iter_mut().zip(floors) {
        *w = f + (*w - f).max(0.0) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use std::time::Duration;

    fn cfg(budget: f64) -> CoordinatorConfig {
        CoordinatorConfig::new("virtual", Watts(budget)).with_epoch(Duration::from_millis(1000))
    }

    fn core(budget: f64) -> FleetCore {
        FleetCore::new(&cfg(budget), Telemetry::enabled())
    }

    fn admit(core: &mut FleetCore, name: &str) -> usize {
        core.admit(name.into(), "EP".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap()
    }

    #[test]
    fn a_1024_agent_snapshot_round_trips_byte_identical() {
        // About 400 KB of JSON: the checkpoint a standby decodes before it
        // can take over a fleet this size.
        let budget = 1024.0 * 100.0;
        let mut core = core(budget);
        for i in 0..1024u32 {
            let slot = admit(&mut core, &format!("node-{i:04}"));
            let ceiling = if i % 7 == 0 {
                f64::NAN
            } else {
                60.0 + f64::from(i % 50) * 1.3
            };
            let consumption = Watts(55.0 + f64::from(i) * 0.01);
            core.on_report(slot, 1, Watts(ceiling), consumption, i % 3 != 0, 500);
        }
        core.epoch_once(1000);
        let bytes = core.snapshot_bytes().unwrap();
        assert!(bytes.len() > 350_000, "{} bytes", bytes.len());
        let snap: CoreSnapshot = serde_json::from_slice(&bytes).unwrap();
        let back = FleetCore::from_snapshot(&cfg(budget), snap, Telemetry::enabled());
        assert!(back.snapshot_bytes().unwrap() == bytes);
    }

    #[test]
    fn nan_demand_cannot_poison_the_allocator() {
        // Regression: before vetting, a NaN consumption propagated into
        // DemandBased's arithmetic and produced NaN ceilings fleet-wide.
        let mut core = core(300.0);
        let a = admit(&mut core, "honest");
        let b = admit(&mut core, "liar");
        core.on_report(a, 1, Watts(90.0), Watts(85.0), true, 500);
        core.on_report(b, 1, Watts(f64::NAN), Watts(f64::NAN), true, 500);
        let step = core.epoch_once(1000);
        assert!(
            step.record.total_granted.is_finite(),
            "{}",
            step.record.total_granted
        );
        for (name, w) in &step.record.granted {
            assert!(w.is_finite() && *w >= 0.0, "{name}: {w}");
        }
        assert!(step.record.total_granted <= 300.0 + 1e-6);
    }

    #[test]
    fn byzantine_node_is_quarantined_within_two_epochs_and_floored() {
        let mut core = core(300.0);
        let honest = admit(&mut core, "honest");
        let liar = admit(&mut core, "liar");
        for epoch in 1..=2u64 {
            core.on_report(
                honest,
                epoch,
                Watts(90.0),
                Watts(88.0),
                true,
                epoch * 1000 - 500,
            );
            core.on_report(
                liar,
                epoch,
                Watts(f64::NAN),
                Watts(-1.0),
                true,
                epoch * 1000 - 500,
            );
            core.epoch_once(epoch * 1000);
        }
        assert_eq!(core.trust(liar), Some(Trust::Quarantined));
        // Next epoch the quarantined node is pinned at its floor.
        core.on_report(honest, 3, Watts(90.0), Watts(88.0), true, 2500);
        core.on_report(liar, 3, Watts(f64::NAN), Watts(999.0), true, 2500);
        let step = core.epoch_once(3000);
        assert!(step.record.quarantined.contains(&"liar".to_string()));
        let liar_grant = step
            .record
            .granted
            .iter()
            .find(|(n, _)| n == "liar")
            .map(|(_, w)| *w)
            .unwrap();
        assert!((liar_grant - 65.0).abs() < 1e-6, "{liar_grant}");
        assert!(step.record.total_granted <= 300.0 + 1e-6);
    }

    #[test]
    fn persistent_byzantine_node_is_evicted_and_blacklisted() {
        let mut core = core(300.0);
        let liar = admit(&mut core, "liar");
        let mut evicted_epoch = None;
        for epoch in 1..=10u64 {
            core.on_report(
                liar,
                epoch,
                Watts(f64::NAN),
                Watts(0.0),
                true,
                epoch * 1000 - 1,
            );
            let step = core.epoch_once(epoch * 1000);
            if step.record.evicted.contains(&"liar".to_string()) {
                evicted_epoch = Some((epoch, step));
                break;
            }
        }
        let (epoch, step) = evicted_epoch.expect("persistent byzantine must be evicted");
        assert_eq!(epoch, 6, "one strike per epoch, evict_after=6");
        assert!(step.disconnects.contains(&liar));
        // The watts it held went back to the pool...
        assert!(step.record.reclaimed.contains(&"liar".to_string()));
        // ...and readmission under the same name is refused.
        let err = core
            .admit("liar".into(), "EP".into(), Watts(65.0), Watts(125.0), 7000)
            .unwrap_err();
        assert!(err.to_string().contains("evicted"), "{err}");
    }

    #[test]
    fn conservation_holds_when_floors_oversubscribe_the_budget() {
        let mut core = core(100.0); // two nodes × 65 W floor = 130 > 100
        let a = admit(&mut core, "a");
        let b = admit(&mut core, "b");
        core.on_report(a, 1, Watts(90.0), Watts(89.0), true, 500);
        core.on_report(b, 1, Watts(90.0), Watts(89.0), true, 500);
        let step = core.epoch_once(1000);
        assert!(
            step.record.total_granted <= 100.0 + 1e-6,
            "{}",
            step.record.total_granted
        );
    }

    #[test]
    fn every_grant_honours_its_own_nodes_floor() {
        // Static split halves 180 W into 90 + 90, below the GPU node's
        // 100 W floor; the grants must respect both floors and the budget.
        let mut cfg = cfg(180.0);
        cfg.policy = PolicyKind::StaticSplit;
        let mut core = FleetCore::new(&cfg, Telemetry::disabled());
        let cpu = core
            .admit("cpu".into(), "EP".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap();
        let gpu = core
            .admit("gpu".into(), "EP".into(), Watts(100.0), Watts(300.0), 0)
            .unwrap();
        for epoch in 1..=3u64 {
            for slot in [cpu, gpu] {
                let at = epoch * 1000 - 500;
                core.on_report(slot, epoch, Watts(90.0), Watts(89.0), true, at);
            }
            let step = core.epoch_once(epoch * 1000);
            let grant = |name: &str| {
                step.record
                    .granted
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, w)| *w)
                    .unwrap()
            };
            assert!(grant("cpu") >= 65.0 - 1e-9, "cpu granted {}", grant("cpu"));
            assert!(grant("gpu") >= 100.0 - 1e-9, "gpu granted {}", grant("gpu"));
            assert!(
                step.record.total_granted <= 180.0 + 1e-6,
                "{}",
                step.record.total_granted
            );
        }
    }

    #[test]
    fn floor_preserving_guard_shrinks_only_above_floor_portions() {
        let floors = [65.0, 65.0, 65.0];
        let mut want = [125.0, 125.0, 65.0];
        fit_into_budget(250.0, &floors, &mut want);
        let total: f64 = want.iter().sum();
        assert!((total - 250.0).abs() < 1e-9, "{total}");
        for (w, f) in want.iter().zip(floors) {
            assert!(*w >= f - 1e-9, "{w} below floor {f}");
        }
        assert!((want[2] - 65.0).abs() < 1e-9, "floor-rider untouched");
    }

    #[test]
    fn stale_nodes_die_and_their_watts_return() {
        let mut core = core(300.0);
        let a = admit(&mut core, "a");
        let b = admit(&mut core, "b");
        core.on_report(a, 1, Watts(90.0), Watts(85.0), true, 500);
        core.on_report(b, 1, Watts(90.0), Watts(85.0), true, 500);
        core.epoch_once(1000);
        // Only `a` keeps reporting; `b` goes silent past 1.5 s.
        core.on_report(a, 2, Watts(90.0), Watts(85.0), true, 1500);
        core.epoch_once(2000);
        core.on_report(a, 3, Watts(90.0), Watts(85.0), true, 2500);
        let step = core.epoch_once(3000);
        assert!(step.record.reclaimed.contains(&"b".to_string()));
        assert!(step.record.reclaimed_watts > 0.0);
        assert_eq!(step.record.live, 1);
    }

    #[test]
    fn admission_rejects_implausible_hellos() {
        let mut core = core(300.0);
        for (floor, max) in [
            (f64::NAN, 125.0),
            (0.0, 125.0),
            (-10.0, 125.0),
            (65.0, f64::NAN),
            (130.0, 125.0),
        ] {
            assert!(
                core.admit("x".into(), "EP".into(), Watts(floor), Watts(max), 0)
                    .is_err(),
                "floor={floor} max={max}"
            );
        }
        assert_eq!(core.node_count(), 0);
    }

    #[test]
    fn observing_a_higher_term_fences_grants_and_admissions() {
        let mut core = core(300.0);
        let a = admit(&mut core, "a");
        core.on_report(a, 1, Watts(90.0), Watts(85.0), true, 500);
        core.epoch_once(1000);
        assert_eq!(core.term(), 1);
        assert!(!core.fenced());

        let err = core.observe_term(2).unwrap_err();
        assert!(
            matches!(err, Error::Fenced { ours: 1, theirs: 2 }),
            "{err:?}"
        );
        assert!(core.fenced());

        // Fenced epochs issue no frames and reclaim nothing, ever.
        let step = core.epoch_once(60_000);
        assert!(step.grants.is_empty());
        assert!(step.record.reclaimed.is_empty(), "no reclaim while fenced");
        // Fenced admission is a soft refusal, typed so transports can
        // close the listener rather than blacklist the node.
        let err = core
            .admit("b".into(), "EP".into(), Watts(65.0), Watts(125.0), 1500)
            .unwrap_err();
        assert!(matches!(err, Error::Fenced { .. }), "{err:?}");
        // Equal or lower peer terms never unfence.
        assert!(core.observe_term(1).is_err());
    }

    #[test]
    fn a_fenced_core_refuses_reports_and_changes_no_view() {
        let mut core = core(300.0);
        let a = admit(&mut core, "a");
        core.on_report(a, 1, Watts(90.0), Watts(85.0), true, 500);
        core.epoch_once(1000);
        assert!(core.observe_term(2).is_err());
        let before = core.snapshot_bytes().unwrap();
        let verdict = core.on_report(a, 2, Watts(120.0), Watts(118.0), true, 1500);
        assert_eq!(verdict, FrameVerdict::Vetoed);
        assert_eq!(core.snapshot_bytes().unwrap(), before, "registry moved");
    }

    #[test]
    fn pause_fencing_trips_only_past_the_threshold() {
        let mut core = core(300.0);
        core.enable_pause_fencing(3000);
        admit(&mut core, "a");
        core.epoch_once(1000);
        core.epoch_once(2000);
        assert!(!core.fenced(), "normal cadence must not self-fence");
        core.epoch_once(9000); // 7 s gap > 3 s threshold
        assert!(core.fenced(), "a long stall presumes a takeover");
        assert!(core.epoch_once(10_000).grants.is_empty());
    }

    #[test]
    fn promotion_pins_stale_slots_then_reclaims_them_after_the_hold() {
        let mut core = core(300.0);
        let a = admit(&mut core, "a");
        let b = admit(&mut core, "b");
        core.on_report(a, 1, Watts(120.0), Watts(110.0), true, 500);
        core.on_report(b, 1, Watts(120.0), Watts(110.0), true, 500);
        let step = core.epoch_once(1000);
        let granted_before = step.record.total_granted;
        assert!(granted_before > 0.0);

        // Takeover: both slots are stale (attached under term 1).
        core.promote();
        assert_eq!(core.term(), 2);

        // Only `a` re-attaches; its stale slot is released on readmission.
        let a2 = core
            .admit("a".into(), "EP".into(), Watts(65.0), Watts(125.0), 1500)
            .unwrap();
        core.on_report(a2, 1, Watts(90.0), Watts(85.0), true, 1600);

        // Hold epoch 1: b's stale grant stays pinned (reserved), so the
        // pool a2 can draw from is budget - pinned, never double-spent.
        let step = core.epoch_once(2000);
        let b_held = step
            .record
            .granted
            .iter()
            .find(|(n, _)| n == "b")
            .map(|(_, w)| *w)
            .unwrap_or(0.0);
        assert!(b_held > 0.0, "stale slot must stay funded during the hold");
        assert!(step.record.total_granted <= 300.0 + 1e-6);
        assert!(
            !step.record.reclaimed.contains(&"b".to_string()),
            "pinned slots are exempt from failure detection"
        );

        // After the hold window, the silent stale slot dies and its watts
        // return to the pool.
        let mut reclaimed_b = false;
        for e in 3..=6u64 {
            core.on_report(a2, e, Watts(90.0), Watts(85.0), true, e * 1000 - 500);
            let step = core.epoch_once(e * 1000);
            assert!(step.record.total_granted <= 300.0 + 1e-6);
            reclaimed_b |= step.record.reclaimed.contains(&"b".to_string());
        }
        assert!(reclaimed_b, "stale slot must be reclaimed after the hold");
    }

    #[test]
    fn snapshots_are_deterministic_and_round_trip() {
        let build = || {
            let mut c = core(300.0);
            let a = admit(&mut c, "a");
            let b = admit(&mut c, "b");
            c.on_report(a, 1, Watts(90.0), Watts(85.0), true, 500);
            c.on_report(b, 1, Watts(f64::NAN), Watts(-1.0), true, 500);
            c.epoch_once(1000);
            c
        };
        let x = build();
        let y = build();
        assert_eq!(
            x.snapshot_bytes().unwrap(),
            y.snapshot_bytes().unwrap(),
            "same inputs, same bytes"
        );
        let restored = FleetCore::from_snapshot(&cfg(300.0), x.snapshot(), Telemetry::enabled());
        assert_eq!(
            restored.snapshot_bytes().unwrap(),
            x.snapshot_bytes().unwrap()
        );
        assert_eq!(restored.epoch(), x.epoch());
        assert_eq!(restored.term(), x.term());
    }
}
