//! Coordinator failover: takeover latency and journal replay throughput.
//!
//! * **Takeover latency**: allocator epochs between the primary dying
//!   and the promoted standby's first applied higher-term grant, over the
//!   deterministic chaos scenarios at seed 42, so the figure is
//!   reproducible and network-free.
//! * **Replay throughput**: how fast `recover()` rebuilds a core from a
//!   durable journal of about 50 000 events from 8 agents, which bounds
//!   how stale a standby can let itself get before the takeover grace
//!   window is at risk.
//!
//! Gates: each scenario holds conservation and the honest floors, and the
//! replayed core is byte-identical to the live one.

use super::{BenchResult, Measured};
use dufp_journal::TestDir;
use dufp_net::chaos::{run_scenario, ChaosConfig};
use dufp_net::{recover, CoordinatorConfig, FleetCore, FleetJournal};
use dufp_telemetry::Telemetry;
use dufp_types::Watts;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;
const EVENTS: u64 = 50_000;
const AGENTS: usize = 8;

#[derive(Debug, Serialize)]
struct TakeoverBench {
    scenario: &'static str,
    epochs: u64,
    elapsed_ms: f64,
    takeover_epochs: Option<u64>,
    replay_matched: Option<bool>,
    stale_grants_fenced: u64,
    score: f64,
}

#[derive(Debug, Serialize)]
struct ReplayBench {
    agents: usize,
    events_journaled: u64,
    journal_head: u64,
    events_replayed: u64,
    recover_ms: f64,
    events_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    seed: u64,
    takeover: Vec<TakeoverBench>,
    replay: ReplayBench,
}

fn bench_takeover(cfg: &ChaosConfig, name: &'static str) -> BenchResult<TakeoverBench> {
    let started = Instant::now();
    let card = run_scenario(cfg, name)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    if !(card.conservation_ok && card.floor_ok) {
        return Err(format!("bench scenario must hold its invariants: {card:?}").into());
    }
    eprintln!(
        "  {name:<20} takeover in {:?} epochs (score {:.0}, {} stale grants fenced)",
        card.takeover_epochs, card.score, card.stale_grants_fenced
    );
    Ok(TakeoverBench {
        scenario: name,
        epochs: cfg.epochs,
        elapsed_ms,
        takeover_epochs: card.takeover_epochs,
        replay_matched: card.replay_matched,
        stale_grants_fenced: card.stale_grants_fenced,
        score: card.score,
    })
}

/// Journals `EVENTS` fleet events through a live core, then times a cold
/// `recover()` with checkpointing effectively disabled, so recovery
/// replays the full log: the worst case the takeover grace window must
/// absorb.
fn bench_replay() -> BenchResult<ReplayBench> {
    let dir = TestDir::new("failover-bench-replay");
    let cfg = CoordinatorConfig::new("virtual", Watts(100.0 + 150.0 * AGENTS as f64));
    let mut core = FleetCore::new(&cfg, Telemetry::enabled());
    core.attach_journal(FleetJournal::create(dir.path())?.with_checkpoint_every(u64::MAX));

    let mut now_ms = 1_000u64;
    let slots = (0..AGENTS)
        .map(|i| {
            core.admit(
                format!("n{i}"),
                "EP".into(),
                Watts(65.0),
                Watts(125.0),
                now_ms,
            )
        })
        .collect::<Result<Vec<usize>, _>>()?;
    let mut seq = 0u64;
    let mut journaled = AGENTS as u64;
    while journaled < EVENTS {
        seq += 1;
        now_ms += 50;
        for &slot in &slots {
            core.on_report(slot, seq, Watts(120.0), Watts(95.0), true, now_ms);
            journaled += 1;
        }
        core.epoch_once(now_ms);
        journaled += 1;
    }

    eprintln!("  replaying {journaled} journaled events for {AGENTS} agents...");
    let started = Instant::now();
    let recovered = recover(dir.path(), &cfg, Telemetry::enabled())?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    if recovered.events_replayed != journaled {
        return Err(format!(
            "replayed {} of {journaled} events: checkpoints were meant to be disabled",
            recovered.events_replayed
        )
        .into());
    }
    if recovered.core.snapshot_bytes()? != core.snapshot_bytes()? {
        return Err("bench replay must be byte-identical to the live core".into());
    }
    Ok(ReplayBench {
        agents: AGENTS,
        events_journaled: journaled,
        journal_head: recovered.journal_head,
        events_replayed: recovered.events_replayed,
        recover_ms,
        events_per_sec: recovered.events_replayed as f64 / (recover_ms / 1e3).max(1e-9),
    })
}

pub(super) fn run() -> BenchResult<Measured> {
    let cfg = ChaosConfig::new(SEED);
    eprintln!("failover: takeover scenarios at seed {SEED}...");
    let report = Report {
        seed: SEED,
        takeover: vec![
            bench_takeover(&cfg, "coordinator-kill")?,
            bench_takeover(&cfg, "takeover-partition")?,
        ],
        replay: bench_replay()?,
    };
    Measured::new(&report, Vec::new())
}
