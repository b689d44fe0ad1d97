//! Differential harness: the batched event engine vs the per-tick oracle.
//!
//! ISSUE-10's headline contract is that `--engine event` is a pure
//! optimization: every observable — decision traces at controller wakes,
//! final energy/FLOPS counters, fault-injector RNG positions, journal
//! bytes — must be bit-identical to `--engine tick`, which stays in the
//! tree as the permanent oracle. The tests here state that contract at
//! three layers, each on the 1-socket sweep machine and on the paper's
//! 4-socket YETI:
//!
//! 1. **Runner level** — random (seed × policy × slowdown × fault plan ×
//!    app × socket count) points produce byte-identical decision traces
//!    and result bits under both engines.
//! 2. **Simulator level** — a `Machine` advanced in arbitrary batches,
//!    with an armed fault plan and live MSR traffic between batches,
//!    matches the per-tick loop on every socket's counters and on
//!    injector state, and tick-scheduled rules (`at=`, `window=`) fire at
//!    the exact tick even when that tick sits inside a fast-forwarded
//!    span.
//! 3. **Crash/resume** — a `crash,at=<random tick>` plan under the event
//!    engine, resumed from its journal, reproduces the uninterrupted
//!    tick-engine reference bit-for-bit (journal bytes included).

use dufp::{
    resume, run_journaled, run_once, ControllerKind, Engine, ExperimentSpec, JournalOptions,
    RunResult,
};
use dufp_counters::Telemetry;
use dufp_journal::read_records;
use dufp_msr::registers::{IA32_APERF, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT};
use dufp_msr::{FaultPlan, MsrIo};
use dufp_sim::{Machine, SimConfig};
use dufp_telemetry::write_jsonl;
use dufp_types::{Ratio, SocketId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const POLICIES: [&str; 4] = ["duf", "dufp", "dufpf", "dnpc"];
const SLOWDOWNS: [f64; 3] = [5.0, 10.0, 20.0];
const APPS: [&str; 2] = ["EP", "CG"];
/// The socket counts every layer covers: the sweep shape and the paper's
/// 4-socket YETI.
const SOCKETS: [u16; 2] = [1, 4];

/// The noisy machine with `sockets` packages: per-tick RNG draws active.
fn machine_config(sockets: u16, seed: u64) -> SimConfig {
    match sockets {
        1 => SimConfig::yeti_single_socket(seed),
        4 => SimConfig::yeti(seed),
        other => panic!("no differential machine with {other} sockets"),
    }
}

/// The CPU range of the last socket: a fault rule on a 4-socket machine
/// then targets a non-zero socket.
fn last_socket_cpus(sockets: u16) -> String {
    let first = (u32::from(sockets) - 1) * 16;
    format!("{first}-{}", first + 15)
}

fn controller(policy: &str, slowdown_pct: f64) -> ControllerKind {
    let slowdown = Ratio::from_percent(slowdown_pct);
    match policy {
        "duf" => ControllerKind::Duf { slowdown },
        "dufp" => ControllerKind::Dufp { slowdown },
        "dufpf" => ControllerKind::DufpF { slowdown },
        "dnpc" => ControllerKind::Dnpc { slowdown },
        other => panic!("no differential case for {other}"),
    }
}

fn spec(
    engine: Engine,
    sockets: u16,
    app: &str,
    policy: &str,
    slowdown_pct: f64,
    plan: Option<&str>,
) -> ExperimentSpec {
    ExperimentSpec {
        sim: machine_config(sockets, 0),
        app: app.into(),
        controller: controller(policy, slowdown_pct),
        trace: None,
        interval_ms: None,
        telemetry: true,
        fault_plan: plan.map(|p| FaultPlan::parse(p).expect("valid plan")),
        engine,
    }
}

/// Runs one spec and returns the result plus its decision trace, in the
/// exact bytes the golden files use.
fn run_traced(spec: &ExperimentSpec, seed: u64) -> (RunResult, Vec<u8>) {
    let r = run_once(spec, seed).expect("run completes");
    let report = r.telemetry.clone().expect("telemetry was enabled");
    assert_eq!(report.dropped, 0, "trace must be lossless");
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &report.decisions).expect("serialize trace");
    (r, buf)
}

fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(
        a.exec_time.value().to_bits(),
        b.exec_time.value().to_bits(),
        "exec time diverged: {} vs {}",
        a.exec_time.value(),
        b.exec_time.value()
    );
    assert_eq!(
        a.pkg_energy.value().to_bits(),
        b.pkg_energy.value().to_bits()
    );
    assert_eq!(
        a.dram_energy.value().to_bits(),
        b.dram_energy.value().to_bits()
    );
}

/// A self-cleaning journal directory.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "dufp-engine-diff-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create test dir");
        TestDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Layer 1: runner-level trace equivalence.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random grid points: both engines produce byte-identical decision
    /// traces and result bits, with and without fault plans.
    #[test]
    fn engines_agree_on_traces_and_totals(
        seed in 0u64..1_000,
        policy_idx in 0usize..POLICIES.len(),
        slow_idx in 0usize..SLOWDOWNS.len(),
        app_idx in 0usize..APPS.len(),
        plan_sel in 0usize..3,
        sockets_idx in 0usize..SOCKETS.len(),
    ) {
        let sockets = SOCKETS[sockets_idx];
        let plans = [
            None,
            Some(format!("seed={seed};write,p=0.01;read,p=0.002")),
            Some(format!(
                "seed={seed};write,reg=cap,cpu={},window=200+5000;sample,p=0.002",
                last_socket_cpus(sockets)
            )),
        ];
        let plan = plans[plan_sel].as_deref();
        let policy = POLICIES[policy_idx];
        let slowdown = SLOWDOWNS[slow_idx];
        let app = APPS[app_idx];

        let tick = spec(Engine::Tick, sockets, app, policy, slowdown, plan);
        let event = spec(Engine::Event, sockets, app, policy, slowdown, plan);
        let (rt, trace_tick) = run_traced(&tick, seed);
        let (re, trace_event) = run_traced(&event, seed);

        prop_assert!(!trace_tick.is_empty(), "{policy}@{slowdown}% produced no decisions");
        prop_assert_eq!(trace_tick, trace_event,
            "decision traces diverged for {}@{}% on {} with {} socket(s) (plan {:?})",
            policy, slowdown, app, sockets, plan);
        assert_same_result(&rt, &re);
    }
}

// ---------------------------------------------------------------------------
// Layer 2: simulator-level counter + injector equivalence.
// ---------------------------------------------------------------------------

fn machine_with(sockets: u16, plan: Option<&str>, seed: u64) -> Machine {
    let cfg = machine_config(sockets, seed);
    let ctx = dufp_workloads::MaterializeCtx::from_arch(&cfg.arch);
    let workload = dufp_workloads::apps::by_name("EP", &ctx).expect("EP materializes");
    let m = Machine::new(cfg);
    m.load_all(&workload);
    if let Some(p) = plan {
        m.inject_faults(FaultPlan::parse(p).expect("valid plan"));
    }
    m
}

/// The MSR traffic a control interval generates on every socket's lead
/// CPU, issued identically to both machines; returns a digest of outcomes
/// so faults that fire must fire on both.
fn msr_round(m: &Machine, step: u64) -> Vec<Result<u64, String>> {
    let mut out = Vec::new();
    for cpu in (0..m.cpu_count()).step_by(16) {
        out.push(
            m.read(cpu, MSR_PKG_ENERGY_STATUS)
                .map_err(|e| e.to_string()),
        );
        out.push(m.read(cpu, IA32_APERF).map_err(|e| e.to_string()));
        // Write-back of the current cap: state-neutral, but it walks the
        // injector's write-rule matchers and RNG exactly like a real
        // actuation.
        match m.read(cpu, MSR_PKG_POWER_LIMIT) {
            Ok(v) => out.push(
                m.write(cpu, MSR_PKG_POWER_LIMIT, v)
                    .map(|()| step)
                    .map_err(|e| e.to_string()),
            ),
            Err(e) => out.push(Err(e.to_string())),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A machine advanced in arbitrary batch sizes, with fault rules and
    /// MSR traffic between batches, matches the per-tick loop: same
    /// counter bits on every socket, same MSR outcomes, same injector RNG
    /// position and per-rule hit counts after every round.
    #[test]
    fn batched_advance_matches_tick_loop_on_counters_and_injector_state(
        seed in 0u64..200,
        batch in 50u64..400,
        rounds in 3u64..12,
        plan_sel in 0usize..3,
        sockets_idx in 0usize..SOCKETS.len(),
    ) {
        let sockets = SOCKETS[sockets_idx];
        let at = batch * 2; // a tick-scheduled rule inside the span
        let plans = [
            None,
            Some(format!("seed={seed};write,p=0.05;read,p=0.02")),
            Some(format!(
                "seed={seed};write,reg=cap,cpu={},window={at}+{batch};sample,at={at}",
                last_socket_cpus(sockets)
            )),
        ];
        let plan = plans[plan_sel].as_deref();

        let a = machine_with(sockets, plan, seed); // per-tick oracle
        let b = machine_with(sockets, plan, seed); // batched fast path

        for round in 0..rounds {
            for _ in 0..batch {
                a.tick();
            }
            let advanced = b.advance(batch);
            prop_assert_eq!(advanced, batch, "batch cut short before completion");
            prop_assert_eq!(a.now().0, b.now().0, "clocks diverged");

            let ra = msr_round(&a, round);
            let rb = msr_round(&b, round);
            prop_assert_eq!(ra, rb, "MSR outcomes diverged at round {}", round);
            prop_assert_eq!(
                a.injector_snapshot(),
                b.injector_snapshot(),
                "injector RNG position / hit counters diverged at round {}",
                round
            );
        }

        for s in 0..sockets {
            let sa = a.sample(SocketId(s)).expect("sample oracle");
            let sb = b.sample(SocketId(s)).expect("sample fast path");
            prop_assert_eq!(sa.flops.to_bits(), sb.flops.to_bits(), "socket {}", s);
            prop_assert_eq!(sa.bytes.to_bits(), sb.bytes.to_bits(), "socket {}", s);
            prop_assert_eq!(sa.pkg_energy.value().to_bits(), sb.pkg_energy.value().to_bits(),
                "socket {}", s);
            prop_assert_eq!(sa.dram_energy.value().to_bits(), sb.dram_energy.value().to_bits(),
                "socket {}", s);
        }
    }
}

/// Tick-scheduled fault rules fire at the *exact* tick even when that tick
/// is interior to a fast-forwarded batch: an access on the scheduled tick
/// trips the rule on both engines, and a one-tick window strictly inside
/// a batch (where no access can land) fires on neither.
#[test]
fn scheduled_rules_fire_at_exact_ticks_across_batches() {
    let plan = |w: u64| format!("seed=9;write,reg=cap,cpu=0-15,window={w}+1");
    // Window [400, 401): both engines reach tick 400 at a batch boundary,
    // so the write-back there must fail identically.
    for boundary in [true, false] {
        let w = if boundary { 400 } else { 337 };
        let a = machine_with(1, Some(&plan(w)), 3);
        let b = machine_with(1, Some(&plan(w)), 3);
        for _ in 0..400 {
            a.tick();
        }
        assert_eq!(b.advance(400), 400);
        let v = a.read(0, MSR_PKG_POWER_LIMIT).expect("cap readable");
        let wa = a.write(0, MSR_PKG_POWER_LIMIT, v);
        let wb = b.write(0, MSR_PKG_POWER_LIMIT, v);
        assert_eq!(
            wa.is_err(),
            boundary,
            "window {w}+1 at tick 400: expected fire={boundary}"
        );
        assert_eq!(wa.is_err(), wb.is_err(), "engines disagree on window {w}+1");
        assert_eq!(a.injector_snapshot(), b.injector_snapshot());
    }
}

// ---------------------------------------------------------------------------
// Layer 3: crash-at-random-tick resume equivalence across engines.
// ---------------------------------------------------------------------------

proptest! {
    // Journaled runs write real files; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// `crash,at=<random tick>` under the event engine (so the crash tick
    /// is routinely interior to a fast-forward batch), resumed from its
    /// journal, must reproduce the uninterrupted tick-engine reference —
    /// result bits and journal records both.
    #[test]
    fn event_engine_crash_resume_matches_tick_reference(
        seed in 0u64..100,
        crash_at in 500u64..9_000,
        fault_sel in 0usize..2,
        sockets_idx in 0usize..SOCKETS.len(),
    ) {
        let sockets = SOCKETS[sockets_idx];
        let base = (fault_sel == 1).then(|| format!("seed={seed};write,p=0.01"));
        let crash_plan = match &base {
            Some(b) => format!("{b};crash,at={crash_at}"),
            None => format!("crash,at={crash_at}"),
        };

        let reference = spec(Engine::Tick, sockets, "EP", "dufp", 10.0, base.as_deref());
        let dir_a = TestDir::new("ref");
        let ra = run_journaled(&reference, seed, &JournalOptions::new(dir_a.path()))
            .expect("reference run completes");

        let crashed = spec(Engine::Event, sockets, "EP", "dufp", 10.0, Some(&crash_plan));
        let dir_b = TestDir::new("crash");
        match run_journaled(&crashed, seed, &JournalOptions::new(dir_b.path())) {
            // Crash tick beyond completion: the run finishes; it must
            // already match the reference.
            Ok(rb) => assert_same_result(&ra, &rb),
            Err(err) => {
                prop_assert!(err.to_string().contains("crash at tick"), "{}", err);
                let rb = resume(dir_b.path()).expect("resume completes the run");
                assert_same_result(&ra, &rb);
            }
        }
        let rec_a = read_records(dir_a.path()).expect("read reference journal");
        let rec_b = read_records(dir_b.path()).expect("read resumed journal");
        prop_assert!(!rec_a.truncated && !rec_b.truncated);
        prop_assert_eq!(
            rec_a.records,
            rec_b.records,
            "event-engine resumed journal differs from the tick-engine reference"
        );
    }
}

/// The crash barrier regression: a crash tick that is *not* an interval
/// boundary (interior to the event engine's fast-forward window) aborts
/// both engines with the same message and identical journal prefixes.
#[test]
fn crash_inside_a_fast_forward_window_fires_at_the_exact_tick() {
    let seed = 11;
    // 200 ticks per control interval; 4321 is mid-interval.
    let plan = "crash,at=4321";
    let mut msgs = Vec::new();
    let mut records = Vec::new();
    for engine in [Engine::Tick, Engine::Event] {
        let s = spec(engine, 1, "EP", "dufp", 10.0, Some(plan));
        let dir = TestDir::new("mid");
        let err = run_journaled(&s, seed, &JournalOptions::new(dir.path()))
            .expect_err("crash rule must abort the run");
        msgs.push(err.to_string());
        records.push(read_records(dir.path()).expect("journal readable").records);
    }
    assert!(msgs[0].contains("crash at tick 4321"), "{}", msgs[0]);
    assert_eq!(msgs[0], msgs[1], "engines report different crash points");
    assert_eq!(
        records[0], records[1],
        "journal prefixes diverged before the crash tick"
    );
}
