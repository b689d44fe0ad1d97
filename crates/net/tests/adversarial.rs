//! Adversarial property tests for the fleet plane: for *arbitrary*
//! seeded combinations of byzantine behaviors, kills and partitions, the
//! coordinator's hard invariants must hold —
//!
//! * `Σ granted ≤ budget` at every epoch (conservation),
//! * no live, honest, non-quarantined agent below its floor,
//! * the same seed replays a byte-identical scorecard,
//!
//! — plus targeted regressions: NaN demand at the ingestion boundary,
//! quarantine latency, and the deterministic bounded reconnect backoff
//! agents use when the coordinator vanishes. The agent side is checked on
//! the shipped [`AgentCore`] under arbitrary grant, handover and link
//! interleavings.

use dufp_control::RetryPolicy;
use dufp_net::chaos::{run_matrix, run_scenario, ChaosConfig, ChaosFleet};
use dufp_net::{
    AgentCore, AgentInbound, CoordinatorConfig, FleetCore, Frame, GrantKind, NetFaultPlan,
};
use dufp_telemetry::Telemetry;
use dufp_types::Watts;
use proptest::prelude::*;

/// A short soak (fewer epochs than the CLI default) to keep the property
/// suite fast while still crossing every schedule in the generated plans.
fn short(seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(seed);
    cfg.epochs = 20;
    cfg
}

const BYZ_OPS: [&str; 5] = [
    "byz-nan",
    "byz-inflate",
    "byz-negative",
    "byz-overdraw",
    "byz-replay,n=5",
];

/// Builds a plan string from generated adversity: each byzantine index
/// picks an op for one agent, plus optional kill and partition windows.
fn plan_of(byz: &[usize], kill: Option<(u64, u64)>, part: Option<(u64, u64)>) -> String {
    let mut segments: Vec<String> = byz
        .iter()
        .enumerate()
        .map(|(agent, op_idx)| format!("{},peer={agent}", BYZ_OPS[op_idx % BYZ_OPS.len()]))
        .collect();
    if let Some((from, count)) = kill {
        segments.push(format!("kill,peer=3,window={from}+{count}"));
    }
    if let Some((from, count)) = part {
        segments.push(format!("partition,peer=4-5,dir=both,window={from}+{count}"));
    }
    segments.join(";")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load-bearing property: no byzantine minority, kill schedule or
    /// partition window breaks conservation or starves an honest agent.
    #[test]
    fn no_adversary_breaks_conservation_or_honest_floors(
        seed in 0u64..10_000,
        byz in proptest::collection::vec(0usize..BYZ_OPS.len(), 0..3),
        kill in (2u64..12, 0u64..20),   // count 0 = no kill schedule
        part in (2u64..12, 0u64..8),    // count 0 = no partition
    ) {
        let plan_text = plan_of(
            &byz,
            (kill.1 > 0).then_some(kill),
            (part.1 > 0).then_some(part),
        );
        let plan = NetFaultPlan::parse(&plan_text).expect("generated plan parses");
        let fleet = ChaosFleet::from_plan(short(seed), "prop", plan, false)
            .expect("valid chaos config");
        let card = fleet.run();
        prop_assert!(
            card.conservation_ok,
            "conservation broke under `{plan_text}` seed {seed}: {card:?}"
        );
        prop_assert!(
            card.floor_ok,
            "an honest floor broke under `{plan_text}` seed {seed}: {card:?}"
        );
        prop_assert_eq!(card.safe_cap_violations, 0);
    }

    /// Determinism: one seed, one scorecard — byte-identical through
    /// serde, which is exactly what the CI double-run compares.
    #[test]
    fn the_scorecard_is_a_pure_function_of_the_seed(seed in 0u64..10_000) {
        let a = run_scenario(&short(seed), "byzantine-minority").unwrap();
        let b = run_scenario(&short(seed), "byzantine-minority").unwrap();
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// The deterministic reconnect backoff agents use: bounded within
    /// [backoff/2, backoff], capped, and reproducible per (seed, attempt).
    #[test]
    fn reconnect_backoff_is_bounded_and_deterministic(
        seed in 0u64..1_000_000,
        attempt in 1u32..20,
    ) {
        let policy = RetryPolicy::default();
        let full = policy.backoff(attempt);
        let jittered = policy.backoff_jittered(attempt, seed);
        prop_assert!(jittered <= full, "{jittered:?} > {full:?}");
        prop_assert!(jittered >= full / 2, "{jittered:?} < {:?}", full / 2);
        prop_assert_eq!(jittered, policy.backoff_jittered(attempt, seed));
        // Different attempts under the same seed de-synchronize.
        let other = policy.backoff_jittered(attempt + 1, seed);
        prop_assert!(other <= policy.backoff(attempt + 1));
    }
}

/// One input to an agent core: a delivered grant (whose actuation may
/// fail), a `Handover`, or the link going up or down.
#[derive(Debug, Clone)]
enum AgentInput {
    Grant {
        term: u64,
        epoch: u64,
        ceiling: f64,
        actuated: bool,
    },
    Handover(u64),
    Link(bool),
}

fn agent_input() -> impl Strategy<Value = AgentInput> {
    prop_oneof![
        4 => (0u64..4, 0u64..6, 40.0f64..140.0, 0u8..5).prop_map(
            |(term, epoch, ceiling, fail)| AgentInput::Grant {
                term,
                epoch,
                ceiling,
                actuated: fail != 0,
            }
        ),
        1 => (0u64..5).prop_map(AgentInput::Handover),
        2 => any::<bool>().prop_map(AgentInput::Link),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The agent core under any interleaving of grants, handovers and link
    /// events, one tick each: commits strictly climb in `(term, epoch)`
    /// and never come from below the highest term seen, the ceiling is the
    /// greatest committed grant's (clamped only by the fallback), and past
    /// the grace without a link the ceiling is at most the safe cap.
    #[test]
    fn the_agent_core_obeys_only_the_newest_grant_and_never_exceeds_its_safe_cap_unlinked(
        grace in 0u64..4,
        inputs in proptest::collection::vec(agent_input(), 0..64),
    ) {
        let safe = Watts(90.0);
        let mut core = AgentCore::new(safe, grace);
        // A fresh core has committed nothing newer than (0, 0).
        let mut best = (0u64, 0u64);
        let mut ceiling = safe;
        let (mut up, mut down_since) = (false, None);
        for (now, input) in inputs.iter().enumerate() {
            let now = now as u64;
            match *input {
                AgentInput::Grant { term, epoch, ceiling: c, actuated } => {
                    let seen = core.max_term();
                    let frame = Frame::BudgetGrant {
                        epoch,
                        ceiling: Watts(c),
                        kind: GrantKind::Raise,
                        term,
                    };
                    let inbound = core.on_frame(frame, |_| actuated);
                    if term < seen {
                        prop_assert_eq!(inbound, AgentInbound::Fenced { term, epoch, seen });
                    } else if (term, epoch) <= best {
                        prop_assert_eq!(inbound, AgentInbound::Stale);
                    } else {
                        let apply = AgentInbound::Apply {
                            term,
                            epoch,
                            ceiling: Watts(c),
                            kind: GrantKind::Raise,
                            committed: actuated,
                        };
                        prop_assert_eq!(inbound, apply);
                        if actuated {
                            best = (term, epoch);
                            ceiling = Watts(c);
                        }
                    }
                }
                AgentInput::Handover(term) => {
                    let frame = Frame::Handover { successor: "s:2".into(), term };
                    let inbound = core.on_frame(frame, |_| unreachable!("nothing to actuate"));
                    prop_assert_eq!(inbound, AgentInbound::Handover("s:2".into()));
                }
                AgentInput::Link(link) => up = link,
            }
            down_since = if up { None } else { down_since.or(Some(now)) };
            if core.on_link(up, now).is_some() {
                ceiling = if ceiling > safe { safe } else { ceiling };
            }
            prop_assert_eq!(core.ceiling(), ceiling);
            if down_since.is_some_and(|since| now - since >= grace) {
                prop_assert!(core.ceiling() <= safe, "{:?} past the grace", core.ceiling());
                prop_assert_eq!(core.granted(), None);
            }
        }
    }
}

/// Fragments of the network fault-rule grammar for token-soup plans.
const PLAN_FRAGMENTS: &[&str] = &[
    ";",
    ";",
    ",",
    ",",
    " ",
    "=",
    "-",
    "+",
    "seed=",
    "drop",
    "delay",
    "dup",
    "corrupt",
    "reorder",
    "partition",
    "kill",
    "coord-kill",
    "byz-nan",
    "byz-replay",
    "write",
    "peer=",
    "dir=",
    "up",
    "down",
    "sideways",
    "n=",
    "p=",
    "at=",
    "window=",
    "always",
    "reg=",
    "0",
    "1",
    "3",
    "0.5",
    "1.5",
    "1000",
    "1001",
    "4000000000",
    "18446744073709551615",
    "x",
    "é",
    "`",
];

/// Every rejection is a typed `net fault plan` error that names the
/// `;`-segment or `,`-item it rejected.
fn check_plan(text: &str) -> Result<(), String> {
    let Err(err) = NetFaultPlan::parse(text) else {
        return Ok(());
    };
    let dufp_types::Error::InvalidValue { what, detail } = err else {
        return Err(format!("not a typed plan error: {err:?}"));
    };
    prop_assert_eq!(what, "net fault plan");
    let mut named = text.split(';').flat_map(|segment| {
        std::iter::once(segment.trim()).chain(segment.split(',').map(str::trim))
    });
    prop_assert!(
        named.any(|item| detail.starts_with(&format!("`{item}`: "))),
        "error names no item of {:?}: {}",
        text,
        detail
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_net_fault_plan_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..128)
    ) {
        check_plan(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn net_fault_plan_token_soup_errors_name_the_rejected_item(
        picks in prop::collection::vec(0..PLAN_FRAGMENTS.len(), 0..24)
    ) {
        let text: String = picks.iter().map(|&i| PLAN_FRAGMENTS[i]).collect();
        check_plan(&text)?;
    }
}

/// The full matrix replays byte-identically — the CI contract, verified
/// here without spawning the CLI.
#[test]
fn the_full_matrix_replays_byte_identically() {
    let a = run_matrix(&short(42)).unwrap();
    let b = run_matrix(&short(42)).unwrap();
    let to_jsonl = |cards: &[dufp_net::ScenarioScore]| {
        cards
            .iter()
            .map(|c| serde_json::to_string(c).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(to_jsonl(&a), to_jsonl(&b));
}

/// Regression (ingestion boundary): NaN and negative demand reach
/// `FleetCore::on_report` and must be vetoed — never propagated into the
/// allocator's observations.
#[test]
fn nan_and_negative_demand_are_vetoed_at_ingestion() {
    let cfg = CoordinatorConfig::new("virtual", Watts(300.0));
    let mut core = FleetCore::new(&cfg, Telemetry::enabled());
    let liar = core
        .admit("liar".into(), "EP".into(), Watts(65.0), Watts(125.0), 100)
        .unwrap();
    let honest = core
        .admit("honest".into(), "EP".into(), Watts(65.0), Watts(125.0), 100)
        .unwrap();
    for (epoch, poison) in [(1u64, f64::NAN), (2, -500.0), (3, f64::INFINITY)] {
        let now = epoch * 1000;
        core.on_report(liar, epoch, Watts(125.0), Watts(poison), true, now - 500);
        core.on_report(honest, epoch, Watts(90.0), Watts(80.0), true, now - 500);
        let step = core.epoch_once(now);
        assert!(
            step.record.total_granted.is_finite(),
            "poison {poison} leaked: {:?}",
            step.record
        );
        assert!(
            step.record.total_granted <= 300.0 + 1e-6,
            "conservation broke on poison {poison}: {:?}",
            step.record
        );
        let honest_grant = step
            .record
            .granted
            .iter()
            .find(|(n, _)| n == "honest")
            .map(|(_, w)| *w)
            .expect("honest node funded");
        assert!(
            honest_grant >= 65.0 - 1e-6,
            "honest starved: {honest_grant}"
        );
    }
}

/// Quarantine latency at the integration level: every byzantine agent in
/// the built-in byzantine scenario is quarantined within two epochs of
/// its first lie, and the honest majority never pays for it.
#[test]
fn byzantine_minority_is_contained_within_two_epochs() {
    let card = run_scenario(&ChaosConfig::new(1234), "byzantine-minority").unwrap();
    assert_eq!(card.byz_total, 3, "{card:?}");
    assert_eq!(card.byz_quarantined, 3, "{card:?}");
    assert!(
        card.max_quarantine_delay.is_some_and(|d| d <= 2),
        "{card:?}"
    );
    assert!(card.conservation_ok && card.floor_ok, "{card:?}");
    assert_eq!(
        card.score, 100.0,
        "containment must not cost score: {card:?}"
    );
}
