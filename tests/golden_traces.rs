//! Golden-trace regression tests.
//!
//! Each golden file under `tests/golden/` is the full decision trace
//! (JSON Lines, byte-exact) of one controller on the noise-free simulator
//! running the checked-in `golden-mini` workload — the paper's
//! memory-bound/compute-bound alternation in miniature. Any change to
//! controller logic, event schema or serialization shows up here as a
//! byte diff.
//!
//! To bless new behavior after an intentional change:
//!
//! ```text
//! DUFP_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! then review the regenerated files like any other diff.

use dufp::{run_once, ControllerKind, Engine, ExperimentSpec};
use dufp_msr::FaultPlan;
use dufp_sim::SimConfig;
use dufp_telemetry::{read_jsonl, write_jsonl, Actuator, DecisionEvent, Reason};
use dufp_types::Ratio;
use std::path::{Path, PathBuf};

/// The (policy, slowdown) matrix the goldens pin down: every dynamic
/// controller the paper evaluates (plus the §VII DUFP-F extension), at a
/// tight and a loose tolerance.
const CASES: [(&str, f64); 8] = [
    ("duf", 5.0),
    ("duf", 20.0),
    ("dufp", 5.0),
    ("dufp", 20.0),
    ("dufpf", 5.0),
    ("dufpf", 20.0),
    ("dnpc", 5.0),
    ("dnpc", 20.0),
];

/// A golden under an active fault plan: scheduled cap-register write
/// faults plus random write failures, so the resilience stack's retry and
/// degradation decisions are pinned byte-exactly too.
const FAULT_CASE: (&str, f64, &str) = (
    "dufp",
    10.0,
    "seed=42;write,p=0.01;write,reg=cap,cpu=0-15,window=200+5000",
);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path(policy: &str, slowdown_pct: f64) -> PathBuf {
    golden_dir().join(format!("{policy}_{slowdown_pct:.0}.jsonl"))
}

fn controller(policy: &str, slowdown_pct: f64) -> ControllerKind {
    let slowdown = Ratio::from_percent(slowdown_pct);
    match policy {
        "duf" => ControllerKind::Duf { slowdown },
        "dufp" => ControllerKind::Dufp { slowdown },
        "dufpf" => ControllerKind::DufpF { slowdown },
        "dnpc" => ControllerKind::Dnpc { slowdown },
        other => panic!("no golden case for {other}"),
    }
}

/// Runs one golden case under `engine` and serializes its decision trace
/// exactly as the goldens were written.
fn trace_bytes(policy: &str, slowdown_pct: f64, plan: Option<&str>, engine: Engine) -> Vec<u8> {
    let spec = ExperimentSpec {
        sim: SimConfig::deterministic(1),
        app: golden_dir()
            .join("workload.json")
            .to_string_lossy()
            .into_owned(),
        controller: controller(policy, slowdown_pct),
        trace: None,
        interval_ms: None,
        telemetry: true,
        fault_plan: plan.map(|p| FaultPlan::parse(p).expect("valid plan")),
        engine,
    };
    let r = run_once(&spec, 1).expect("golden run");
    let report = r.telemetry.expect("telemetry was enabled");
    assert_eq!(report.dropped, 0, "golden trace must be lossless");
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &report.decisions).expect("serialize trace");
    buf
}

/// Every golden case: the fixed (policy, slowdown) matrix plus the
/// fault-plan case, with its golden file path.
fn all_cases() -> Vec<(&'static str, f64, Option<&'static str>, PathBuf)> {
    let mut cases: Vec<_> = CASES
        .iter()
        .map(|&(p, s)| (p, s, None, golden_path(p, s)))
        .collect();
    let (p, s, plan) = FAULT_CASE;
    cases.push((
        p,
        s,
        Some(plan),
        golden_dir().join(format!("{p}_fault_{s:.0}.jsonl")),
    ));
    cases
}

#[test]
fn decision_traces_match_goldens() {
    let regen = std::env::var_os("DUFP_REGEN_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for (policy, slowdown, plan, path) in all_cases() {
        // The golden files are engine-independent: the batched event
        // engine (the default) and the per-tick oracle must both
        // reproduce them byte-for-byte. Regeneration always writes the
        // oracle's bytes.
        let oracle = trace_bytes(policy, slowdown, plan, Engine::Tick);
        let event = trace_bytes(policy, slowdown, plan, Engine::Event);
        assert!(
            !oracle.is_empty(),
            "{policy}@{slowdown}% produced no decisions"
        );
        assert_eq!(
            oracle, event,
            "{policy}@{slowdown}% (plan {plan:?}): event engine trace diverged from the tick oracle"
        );
        if regen {
            std::fs::write(&path, &oracle).expect("write golden");
            continue;
        }
        let want = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with DUFP_REGEN_GOLDEN=1 to create it",
                path.display()
            )
        });
        if oracle != want {
            let first_diff = oracle
                .iter()
                .zip(want.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| oracle.len().min(want.len()));
            let line = want[..first_diff.min(want.len())]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1;
            mismatches.push(format!(
                "{policy}@{slowdown}%: {} bytes vs {} golden, first diff at byte {first_diff} (line {line})",
                oracle.len(),
                want.len()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "decision traces drifted from tests/golden/ — if intentional, regenerate with \
         DUFP_REGEN_GOLDEN=1 and review the diff:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn goldens_parse_and_show_each_controllers_signature() {
    for (policy, slowdown, _plan, path) in all_cases() {
        let text = std::fs::read(&path).expect("golden present");
        let events: Vec<DecisionEvent> =
            read_jsonl(text.as_slice()).expect("golden parses as decision events");
        assert!(!events.is_empty(), "{policy}@{slowdown}% golden is empty");
        // The end-of-run safe-state restore touches every knob regardless
        // of controller; only live decisions define a policy's signature.
        let live: Vec<_> = events
            .iter()
            .filter(|e| e.reason != Reason::SafeStateRestore)
            .collect();
        let touches_uncore = live.iter().any(|e| e.actuator == Actuator::Uncore);
        let touches_cap = live
            .iter()
            .any(|e| matches!(e.actuator, Actuator::PowerCap | Actuator::PowerCapShort));
        match policy {
            // DUF is uncore-only by construction.
            "duf" => {
                assert!(touches_uncore, "DUF never touched the uncore");
                assert!(!touches_cap, "DUF must not actuate power caps");
            }
            // DUFP drives both knobs.
            "dufp" => {
                assert!(touches_uncore, "DUFP never touched the uncore");
                assert!(touches_cap, "DUFP should actuate power caps");
            }
            // DUFP-F adds direct core-frequency management on top.
            "dufpf" => {
                assert!(touches_uncore, "DUFP-F never touched the uncore");
                assert!(
                    live.iter().any(|e| e.actuator == Actuator::CoreFreq),
                    "DUFP-F should manage core frequency directly"
                );
            }
            // The DNPC baseline steers through the power cap alone.
            _ => assert!(touches_cap, "DNPC should actuate power caps"),
        }
    }
}
