//! Coordinator high-availability tests: a real primary/standby pair over
//! loopback sharing a durable fleet journal, plus crash-equivalence
//! properties for the journal itself.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! * killing the primary and binding a standby on the shared journal
//!   promotes it to a **higher term** and restores non-safe-cap grants
//!   within three epochs,
//! * a recovered core is **byte-identical** to the crashed primary's for
//!   *arbitrary* event schedules and checkpoint cadences,
//! * `Σ granted ≤ budget` holds at every epoch **across** the handover,
//!   for arbitrary kill/partition schedules.

use dufp_journal::TestDir;
use dufp_net::chaos::{ChaosConfig, ChaosFleet};
use dufp_net::{
    recover, Agent, AgentConfig, AgentOutcome, Coordinator, CoordinatorConfig, FleetCore,
    FleetJournal, NetFaultPlan,
};
use dufp_telemetry::{Reason, Telemetry};
use dufp_types::Watts;
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: f64 = 300.0;
const SAFE_CAP: f64 = 90.0;

/// Spawns an agent that knows about the standby address up front and is
/// configured with the patient retry ladder the CLI uses for failover:
/// the reconnect loop must outlive the window in which the standby
/// notices the primary died and replays the journal.
fn spawn_failover_agent(
    addr: &str,
    standby: &str,
    name: &str,
    crash: Arc<AtomicBool>,
) -> std::thread::JoinHandle<AgentOutcome> {
    let mut cfg = AgentConfig::new(addr, name, "EP");
    cfg.safe_cap = Watts(SAFE_CAP);
    cfg.pace = Duration::from_millis(5);
    cfg.max_intervals = Some(4000);
    cfg.standbys = vec![standby.to_string()];
    cfg.retry.max_retries = 60;
    cfg.retry.base_backoff = Duration::from_millis(10);
    cfg.retry.max_backoff = Duration::from_millis(60);
    let agent = Agent::new(cfg).expect("valid agent config");
    let agent = agent.with_crash_switch(crash);
    std::thread::spawn(move || agent.run().expect("agent run never errors"))
}

/// Polls `cond` until it holds or `timeout` passes.
fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// A journaled coordinator config on `listen` with a short epoch so the
/// test crosses several allocation rounds quickly.
fn journaled(listen: &str, dir: &TestDir) -> CoordinatorConfig {
    let mut cfg =
        CoordinatorConfig::new(listen, Watts(BUDGET)).with_epoch(Duration::from_millis(100));
    cfg.journal_dir = Some(dir.path().to_path_buf());
    cfg
}

#[test]
fn killed_primary_hands_over_to_a_journal_replaying_standby() {
    let dir = TestDir::new("failover-itest");

    // Reserve an address for the standby so the agents can be told about
    // it before the standby even exists (mirrors static fleet config).
    let standby_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("reserve standby port");
        let addr = probe.local_addr().expect("reserved addr").to_string();
        drop(probe);
        addr
    };

    let mut primary = Coordinator::bind(journaled("127.0.0.1:0", &dir)).expect("bind primary");
    assert_eq!(primary.term(), 1, "a fresh journal starts at term 1");
    let primary_addr = primary.local_addr().expect("primary addr").to_string();

    let switches: Vec<Arc<AtomicBool>> = (0..2).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let handles: Vec<_> = ["n0", "n1"]
        .iter()
        .zip(&switches)
        .map(|(name, crash)| {
            spawn_failover_agent(&primary_addr, &standby_addr, name, Arc::clone(crash))
        })
        .collect();

    assert!(
        wait_for(|| primary.node_count() == 2, Duration::from_secs(10)),
        "both agents should register with the primary, saw {}",
        primary.node_count()
    );

    // Two funded epochs under term 1, journaled as they happen.
    let r1 = primary.epoch_once();
    assert_eq!(r1.live, 2);
    assert!(r1.total_granted <= BUDGET + 1e-6, "term-1 epoch 1: {r1:?}");
    std::thread::sleep(Duration::from_millis(60));
    let r2 = primary.epoch_once();
    assert!(r2.total_granted <= BUDGET + 1e-6, "term-1 epoch 2: {r2:?}");

    // SIGKILL stand-in: the primary dies without a Goodbye or Handover.
    primary.abort();

    // Takeover: a standby binds the reserved address over the same
    // journal. Recovery replays the fleet and bumps the fencing term.
    let mut standby = Coordinator::bind(journaled(&standby_addr, &dir)).expect("bind standby");
    assert_eq!(standby.term(), 2, "takeover must bump the fencing term");
    assert!(
        standby.node_count() >= 2,
        "journal replay must rebuild the crashed primary's fleet, saw {}",
        standby.node_count()
    );

    // Within three epochs of the takeover both agents must hold real
    // grants again (not their local safe cap), and no epoch may
    // overcommit: the handover hold-down keeps replayed-but-unattached
    // slots' watts reserved, so Σ granted ≤ budget holds throughout.
    let mut regranted_at = None;
    for step in 1u64..=6 {
        std::thread::sleep(Duration::from_millis(80));
        let r = standby.epoch_once();
        assert!(
            r.total_granted <= BUDGET + 1e-6,
            "term-2 step {step} overcommitted across the handover: {r:?}"
        );
        let both_funded = ["n0", "n1"]
            .iter()
            .all(|n| r.granted.iter().any(|(g, w)| g == *n && *w > 0.0));
        if both_funded && regranted_at.is_none() {
            regranted_at = Some(step);
        }
    }
    assert!(
        regranted_at.is_some_and(|e| e <= 3),
        "grants not restored within three epochs of takeover: {regranted_at:?}"
    );

    for s in &switches {
        s.store(true, Ordering::Relaxed);
    }
    let outcomes: Vec<AgentOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for o in &outcomes {
        assert_eq!(
            o.max_term, 2,
            "{} must have applied a term-2 grant: {o:?}",
            o.node
        );
    }

    let outcome = standby.finish();
    assert!(
        outcome
            .telemetry
            .decisions
            .iter()
            .any(|d| d.reason == Reason::TookOver),
        "the takeover must be visible in the decision trace"
    );
    for epoch in &outcome.epochs {
        assert!(
            epoch.total_granted <= BUDGET + 1e-6,
            "conservation violated at term-2 epoch {}: {epoch:?}",
            epoch.epoch
        );
    }
}

// ---------------------------------------------------------------------
// Crash-equivalence properties (satellite: proptest over arbitrary
// kill-tick / partition / standby schedules).
// ---------------------------------------------------------------------

/// A short chaos soak, matching the adversarial suite's cadence.
fn short(seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(seed);
    cfg.epochs = 20;
    cfg
}

/// One core entry-point call in a generated journal schedule.
#[derive(Debug, Clone)]
enum Op {
    Admit(u8),
    Report {
        slot: u8,
        seq: u64,
        ceiling: f64,
        consumption: f64,
        active: bool,
    },
    Heartbeat {
        slot: u8,
        seq: u64,
    },
    Goodbye(u8),
    Epoch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Admit),
        (any::<u8>(), 0u64..100, 10.0f64..200.0, 0.0f64..200.0, any::<bool>()).prop_map(
            |(slot, seq, ceiling, consumption, active)| Op::Report {
                slot,
                seq,
                ceiling,
                consumption,
                active,
            }
        ),
        (any::<u8>(), 0u64..100).prop_map(|(slot, seq)| Op::Heartbeat { slot, seq }),
        any::<u8>().prop_map(Op::Goodbye),
        3 => Just(Op::Epoch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash equivalence: for any schedule of admissions, reports,
    /// heartbeats, goodbyes and epoch ticks — and any checkpoint cadence
    /// — recovering from the journal rebuilds a core byte-identical to
    /// the one that wrote it.
    #[test]
    fn any_journal_schedule_recovers_byte_identical(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        checkpoint_every in 1u64..20,
    ) {
        let dir = TestDir::new("failover-replay-prop");
        let cfg = CoordinatorConfig::new("virtual", Watts(BUDGET));
        let mut core = FleetCore::new(&cfg, Telemetry::enabled());
        core.attach_journal(
            FleetJournal::create(dir.path())
                .expect("create journal")
                .with_checkpoint_every(checkpoint_every),
        );

        let mut now_ms = 1_000u64;
        let mut slots: Vec<usize> = Vec::new();
        for op in &ops {
            now_ms += 50;
            match op {
                Op::Admit(i) => {
                    if let Ok(slot) = core.admit(
                        format!("n{i}"),
                        "EP".into(),
                        Watts(65.0),
                        Watts(125.0),
                        now_ms,
                    ) {
                        slots.push(slot);
                    }
                }
                Op::Report { slot, seq, ceiling, consumption, active } => {
                    if !slots.is_empty() {
                        let s = slots[*slot as usize % slots.len()];
                        core.on_report(
                            s,
                            *seq,
                            Watts(*ceiling),
                            Watts(*consumption),
                            *active,
                            now_ms,
                        );
                    }
                }
                Op::Heartbeat { slot, seq } => {
                    if !slots.is_empty() {
                        let s = slots[*slot as usize % slots.len()];
                        core.on_heartbeat(s, *seq, now_ms);
                    }
                }
                Op::Goodbye(slot) => {
                    if !slots.is_empty() {
                        let s = slots[*slot as usize % slots.len()];
                        core.on_goodbye(s);
                    }
                }
                Op::Epoch => {
                    core.epoch_once(now_ms);
                }
            }
        }

        let live = core.snapshot_bytes().expect("snapshot live core");
        let recovered = recover(dir.path(), &cfg, Telemetry::enabled())
            .expect("recover from journal");
        let replayed = recovered.core.snapshot_bytes().expect("snapshot replayed core");
        prop_assert_eq!(
            live,
            replayed,
            "checkpoint+replay diverged from the live core (cadence {}, {} ops)",
            checkpoint_every,
            ops.len()
        );
    }

    /// Split-brain safety: no kill tick, resurrection window, partition
    /// or delay schedule lets any coordinator incarnation overcommit the
    /// budget, un-fence a stale primary, or promote a diverged replica.
    #[test]
    fn no_kill_or_partition_schedule_breaks_handover_invariants(
        seed in 0u64..10_000,
        kill in (4u64..16, 1u64..999),
        part in (2u64..14, 0u64..8),
        delay in any::<bool>(),
    ) {
        let mut segments = vec![format!("coord-kill,window={}+{}", kill.0, kill.1)];
        if part.1 > 0 {
            segments.push(format!(
                "partition,peer=2-3,dir=both,window={}+{}",
                part.0, part.1
            ));
        }
        if delay {
            segments.push("delay,p=0.2,n=2".to_string());
        }
        let plan_text = segments.join(";");
        let plan = NetFaultPlan::parse(&plan_text).expect("generated plan parses");
        let fleet = ChaosFleet::from_plan(short(seed), "failover-prop", plan, false)
            .expect("valid chaos config");
        let card = fleet.run();
        prop_assert!(
            card.conservation_ok,
            "Σ granted ≤ budget broke across handover under `{}` seed {}: {:?}",
            plan_text, seed, card
        );
        prop_assert!(
            card.fenced_ok,
            "a resurrected stale primary was not fenced under `{}` seed {}: {:?}",
            plan_text, seed, card
        );
        prop_assert!(
            card.replay_matched != Some(false),
            "journal replay diverged from the crashed primary under `{}` seed {}: {:?}",
            plan_text, seed, card
        );
        prop_assert_eq!(
            card.safe_cap_violations,
            0,
            "an agent exceeded a grant under `{}` seed {}: {:?}",
            plan_text, seed, card
        );
    }
}
