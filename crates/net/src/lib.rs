//! `dufp-net`: the networked fleet control plane.
//!
//! `dufp-cluster` holds the budget allocation policies and the budgeted
//! DUFP node ([`dufp_cluster::DufpNode`]); this crate runs them over a
//! real network boundary and in process. A [`Coordinator`] owns the global
//! power budget and runs an [`dufp_cluster::allocator::AllocatorPolicy`]
//! over live demand reports; each [`Agent`] runs a `DufpNode`, whose
//! [`dufp_cluster::budget::BudgetedCapper`] enforces the granted ceiling.
//! Both sides keep their decisions in transport-free state machines —
//! [`FleetCore`] for the coordinator, [`AgentCore`] for the agent — which
//! the TCP shells and the [`chaos`] fleet share, frame dispatch included:
//! each hands every frame to [`FleetCore::ingest`] or
//! [`AgentCore::on_frame`] and reacts only to the outcome. [`FleetSim`] is the
//! in-process fleet loop over `FleetCore` without a transport: the DUFP
//! cluster ([`run_cluster`]), the CPU+GPU node ([`run_hetero`]) and the
//! scenario engine are its models.
//!
//! Layering:
//!
//! ```text
//!   Coordinator ── epoch: detect dead → reclaim → allocate → grant
//!        │  ▲
//!  grants│  │demand reports / heartbeats        (wire: versioned,
//!        ▼  │                                    length-prefixed,
//!      Agent ── DUFP @200 ms under BudgetedCapper    CRC-protected)
//! ```
//!
//! Design invariants (DESIGN.md §12):
//!
//! * **Conservation** — the sum of granted ceilings never exceeds the
//!   global budget, at every epoch, even when floors oversubscribe it.
//! * **Reclamation** — a node that goes silent past the heartbeat timeout
//!   (default 1.5 allocator epochs) is declared dead and its watts return
//!   to the pool within two epochs of the failure.
//! * **Agent autonomy** — an agent outlives its coordinator: on
//!   connection loss [`AgentCore`] forfeits the grant and enforces
//!   `min(ceiling, safe_cap)` — losing its grantor never raises an
//!   agent's power — and the agent keeps running its jobs; on exit a
//!   [`dufp_control::SafeStateGuard`] restores platform defaults.
//! * **No trust in the wire** — every frame is CRC-checked and bounded
//!   (global and per-frame-type payload limits); a malformed frame drops
//!   the connection, never panics the process.
//! * **No trust in the agents** — every ingested frame passes demand
//!   vetting ([`vet`]): plausibility envelope, sequence monotonicity with
//!   replay rejection, per-epoch rate limits. Persistent misbehavior
//!   walks a quarantine ladder (suspect → capped at floor → evicted with
//!   watts reclaimed), so a byzantine minority cannot starve honest
//!   nodes or poison the allocator.
//! * **Determinism under chaos** — the coordinator brain ([`FleetCore`])
//!   is transport-independent and runs on a virtual clock; the [`chaos`]
//!   harness drives it through seeded adversarial scenarios
//!   ([`netfault`]) whose scorecards replay byte-identically per seed.
//! * **Coordinator high availability** (DESIGN.md §15) — the core's input
//!   events are journaled ([`fleet_journal`]) with periodic checkpoints,
//!   so a restarted or warm-standby coordinator rebuilds byte-identical
//!   state by checkpoint+replay; a monotonic coordination *term* carried
//!   in `Hello`/`BudgetGrant`/`Heartbeat` fences stale primaries, and a
//!   post-takeover hold-down keeps Σgranted ≤ budget *across* the
//!   handover window — a stale primary plus its successor can never
//!   double-spend the budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod chaos;
pub mod cluster;
pub mod config;
pub mod coordinator;
pub mod core;
pub mod fleet_journal;
pub mod fleet_sim;
pub mod hetero;
pub mod netfault;
pub mod vet;
pub mod wire;

pub use agent::{Agent, AgentCore, AgentInbound, AgentOutcome};
pub use chaos::{ChaosConfig, ChaosFleet, ScenarioScore, SCENARIOS};
pub use cluster::{run_cluster, ClusterConfig, ClusterOutcome, NodeOutcome, NodeSpec};
pub use config::{AgentConfig, CoordinatorConfig, PolicyKind};
pub use coordinator::{
    run_standby, Coordinator, FleetOutcome, NodeSummary, STANDBY_PROBE_FAILURES,
};
pub use core::{
    fleet_event, CoreNodeView, CoreSnapshot, EpochRecord, EpochStep, FleetCore, Inbound, NodeState,
    HANDOVER_HOLD_EPOCHS,
};
pub use fleet_journal::{
    journal_present, recover, FleetEvent, FleetJournal, Recovered, DEFAULT_FLEET_CHECKPOINT_EVERY,
};
pub use fleet_sim::{FleetModel, FleetPlan, FleetSim, FleetStats, NodeHello};
pub use hetero::{run_hetero, HeteroConfig, HeteroOutcome};
pub use netfault::{Dir, NetFaultInjector, NetFaultOp, NetFaultPlan, NetFaultRule};
pub use vet::{FrameVerdict, NodeVet, Trust};
pub use wire::{Frame, FrameType, GrantKind, VERSION};
