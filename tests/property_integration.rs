//! Cross-crate property tests: random-but-valid workloads and
//! configurations must never break the controllers' invariants, and
//! arbitrary input text must never panic the sweep-grid, scenario-spec or
//! fault-plan parsers.

use dufp_control::{Actuators, ControlConfig, Controller, Duf, Dufp};
use dufp_counters::{Sampler, Telemetry};
use dufp_rapl::MsrRapl;
use dufp_sim::{Machine, SimConfig};
use dufp_types::{toml, Error, Ratio, SocketId};
use dufp_workloads::synthetic::{GeneratorConfig, WorkloadGenerator};
use dufp_workloads::MaterializeCtx;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs a synthetic workload under a controller, checking actuator bounds
/// every interval; returns (exec seconds, nominal seconds).
fn run_synthetic(seed: u64, slowdown_pct: f64, use_dufp: bool) -> (f64, f64) {
    let mut sim = SimConfig::deterministic(seed);
    sim.noise = dufp_sim::NoiseConfig::default();
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);

    let mut generator = WorkloadGenerator::new(
        seed,
        GeneratorConfig {
            min_phases: 2,
            max_phases: 8,
            phase_seconds: (0.3, 2.0),
        },
    );
    let workload = generator.generate(&ctx).unwrap();
    let nominal = workload.nominal_duration(&ctx).value();

    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&workload);
    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(slowdown_pct)).unwrap();
    let capper =
        Arc::new(MsrRapl::new(Arc::clone(&machine), 1, arch.cores_per_socket as usize).unwrap());
    let mut act =
        dufp_control::HwActuators::new(Arc::clone(&machine), capper, SocketId(0), 0, cfg.clone())
            .unwrap();
    let mut controller: Box<dyn Controller> = if use_dufp {
        Box::new(Dufp::new(cfg.clone()))
    } else {
        Box::new(Duf::new(cfg.clone()))
    };
    let mut sampler = Sampler::new();
    sampler.sample(machine.as_ref(), SocketId(0)).unwrap();

    let ticks = cfg.interval.as_micros() / machine.config().tick.as_micros();
    let max_intervals = (nominal * 10.0 / 0.2) as usize + 500;
    let mut intervals = 0;
    while !machine.done() {
        for _ in 0..ticks {
            machine.tick();
            if machine.done() {
                break;
            }
        }
        if let Some(m) = sampler.sample(machine.as_ref(), SocketId(0)).unwrap() {
            controller.on_interval(&m, &mut act).unwrap();
        }
        // Invariants: actuators always inside their legal ranges.
        let u = act.uncore();
        assert!(u >= cfg.uncore_min && u <= cfg.uncore_max, "uncore {u:?}");
        let cap = act.cap_long();
        assert!(
            cap >= cfg.cap_floor && cap <= act.cap_defaults().1,
            "cap {cap:?}"
        );
        assert!(act.cap_short() >= act.cap_long(), "short < long");
        intervals += 1;
        assert!(
            intervals < max_intervals,
            "workload stuck: {intervals} intervals for nominal {nominal}s"
        );
    }
    (machine.now().as_seconds().value(), nominal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dufp_never_leaves_actuator_bounds_and_always_terminates(
        seed in 0u64..1_000,
        slowdown in prop::sample::select(vec![0.0, 5.0, 10.0, 20.0]),
    ) {
        let (t, nominal) = run_synthetic(seed, slowdown, true);
        // Even a pathological phase mix must stay within 2x nominal
        // (the tolerance is at most 20 %; the rest is transients).
        prop_assert!(t < nominal * 2.0, "{t}s vs nominal {nominal}s");
    }

    #[test]
    fn duf_never_leaves_actuator_bounds_and_always_terminates(
        seed in 0u64..1_000,
        slowdown in prop::sample::select(vec![0.0, 10.0]),
    ) {
        let (t, nominal) = run_synthetic(seed, slowdown, false);
        prop_assert!(t < nominal * 2.0, "{t}s vs nominal {nominal}s");
    }

    #[test]
    fn simulation_is_bit_deterministic(seed in 0u64..500) {
        let a = run_synthetic(seed, 10.0, true);
        let b = run_synthetic(seed, 10.0, true);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn soak_ten_simulated_minutes_of_phase_thrash() {
    // A long phase-rich run: DUFP must stay stable (no wedged actuators,
    // no drift in the cap range, bounded actuation rate) over 10 simulated
    // minutes of continuous phase alternation.
    let mut sim = SimConfig::yeti_single_socket(123);
    sim.noise = dufp_sim::NoiseConfig::default();
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);
    // 150 alternating compute/memory rounds ≈ 600 s nominal.
    let body = [
        dufp_workloads::PhaseSpec {
            name: "c".into(),
            seconds_at_default: 2.5,
            oi: 6.0,
            boundness: dufp_workloads::Boundness::ComputeBound { mem_frac: 0.4 },
            core_util: 0.85,
            overlap_penalty: 0.1,
        },
        dufp_workloads::PhaseSpec {
            name: "m".into(),
            seconds_at_default: 1.5,
            oi: 0.2,
            boundness: dufp_workloads::Boundness::MemoryBound { headroom: 1.3 },
            core_util: 0.5,
            overlap_penalty: 0.05,
        },
    ];
    let specs = dufp_workloads::spec::repeat(&body, 150);
    let workload = dufp_workloads::Workload::from_specs("soak", &specs, &ctx).unwrap();
    let nominal = workload.nominal_duration(&ctx).value();

    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&workload);
    machine.enable_trace(SocketId(0), 200).unwrap();
    let cfg = ControlConfig::from_arch(&arch, Ratio::from_percent(10.0)).unwrap();
    let capper =
        Arc::new(MsrRapl::new(Arc::clone(&machine), 1, arch.cores_per_socket as usize).unwrap());
    let mut act =
        dufp_control::HwActuators::new(Arc::clone(&machine), capper, SocketId(0), 0, cfg.clone())
            .unwrap();
    let mut controller = Dufp::new(cfg.clone());
    let mut sampler = Sampler::new();
    sampler.sample(machine.as_ref(), SocketId(0)).unwrap();
    let ticks = cfg.interval.as_micros() / machine.config().tick.as_micros();
    while !machine.done() {
        for _ in 0..ticks {
            machine.tick();
        }
        if let Some(m) = sampler.sample(machine.as_ref(), SocketId(0)).unwrap() {
            controller.on_interval(&m, &mut act).unwrap();
        }
    }
    let t = machine.now().as_seconds().value();
    assert!(
        t < nominal * 1.12,
        "soak run drifted: {t:.1}s vs nominal {nominal:.1}s"
    );
    let trace = machine.take_trace(SocketId(0)).unwrap().unwrap();
    // The controller must still be actuating at the end (not wedged) and
    // not thrashing (bounded writes per interval).
    let cap_writes = trace.cap_transitions();
    let intervals = (t / 0.2) as usize;
    assert!(
        cap_writes > 50,
        "cap never moved in a 10-minute phase thrash"
    );
    assert!(
        cap_writes < intervals,
        "more cap writes ({cap_writes}) than intervals ({intervals})"
    );
}

#[test]
fn telemetry_counters_are_monotonic_under_control() {
    let sim = SimConfig::yeti_single_socket(5);
    let arch = sim.arch.clone();
    let ctx = MaterializeCtx::from_arch(&arch);
    let machine = Arc::new(Machine::new(sim));
    machine.load_all(&dufp_workloads::apps::cg(&ctx).unwrap());

    let mut prev = machine.sample(SocketId(0)).unwrap();
    for _ in 0..200 {
        for _ in 0..50 {
            machine.tick();
        }
        let cur = machine.sample(SocketId(0)).unwrap();
        assert!(cur.flops >= prev.flops);
        assert!(cur.bytes >= prev.bytes);
        assert!(cur.pkg_energy >= prev.pkg_energy);
        assert!(cur.dram_energy >= prev.dram_energy);
        assert!(cur.at > prev.at);
        prev = cur;
    }
}

/// Fragments of the TOML-subset grammar, glued at random into token soup
/// that reaches deeper into the parsers than random bytes do.
const TOML_FRAGMENTS: &[&str] = &[
    "\n",
    "\n",
    "\n",
    " ",
    "=",
    " = ",
    "\"",
    "[",
    "]",
    ",",
    "#",
    "\r\n",
    "[scenario]",
    "[arrival]",
    "[machine.",
    "[node.",
    "[grid]",
    "apps",
    "policies",
    "seeds",
    "sockets",
    "interval_ms",
    "epoch_intervals",
    "name",
    "budget_w",
    "duration_s",
    "fault_plan",
    "machine",
    "tenants",
    "weights",
    "kind",
    "model",
    "engine",
    "\"CG\"",
    "\"dufp\"",
    "\"gpu-hbm\"",
    "\"tick\"",
    "\"seed=1;write,p=2\"",
    "[\"EP\"]",
    "[1, 2]",
    "[]",
    "0",
    "1",
    "5",
    "200",
    "200.9",
    "-1",
    "1e30",
    "nan",
    "inf",
    "4294967296",
    "x",
    "é",
];

/// The reader's line/key contract: a syntax or value error (detail
/// `line N: ...`) names line N of `text` and that line's key, `[section]`
/// or, for a malformed line, its text; any other error is a semantic one
/// that `semantic` must accept as naming its field.
fn check_toml_error(
    text: &str,
    err: Error,
    file: &str,
    semantic: impl Fn(&str, &str) -> bool,
) -> Result<(), String> {
    let Error::InvalidValue { what, detail } = err else {
        return Err(format!("not a typed field error: {err:?}"));
    };
    let Some(rest) = detail.strip_prefix("line ") else {
        prop_assert!(semantic(what, &detail), "unnamed field: {what}: {detail}");
        return Ok(());
    };
    prop_assert_eq!(what, file);
    let n: usize = rest.split(':').next().unwrap_or("").parse().unwrap_or(0);
    let line = text.lines().nth(n.wrapping_sub(1));
    prop_assert!(line.is_some(), "line {} is not in the input: {}", n, detail);
    let line = toml::strip_comment(line.unwrap_or("")).trim();
    let named = match line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
        Some(header) => format!("[{}]", header.trim()),
        None => match line.split_once('=') {
            Some((key, _)) if !key.trim().is_empty() => key.trim().to_string(),
            _ => line.to_string(),
        },
    };
    prop_assert!(
        detail.starts_with(&format!("line {n}: {named}: ")),
        "error does not name `{}`: {}",
        named,
        detail
    );
    Ok(())
}

const GRID_KEYS: &[&str] = &[
    "apps",
    "policies",
    "slowdowns_pct",
    "seeds",
    "sockets",
    "fault_plan",
];

fn check_toml_inputs(text: &str) -> Result<(), String> {
    if let Err(e) = dufp::parse_grid(text) {
        check_toml_error(text, e, "grid", |what, _| GRID_KEYS.contains(&what))?;
    }
    if let Err(e) = dufp_scenario::ScenarioSpec::from_toml(text) {
        check_toml_error(text, e, "scenario", |what, detail| {
            what == "scenario"
                && ["scenario", "arrival", "machine", "node"]
                    .iter()
                    .any(|section| detail.starts_with(section))
        })?;
    }
    Ok(())
}

/// Fragments of the fault-rule grammar, MSR and network ops alike.
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
    "read",
    "write",
    "sample",
    "crash",
    "any",
    "drop",
    "delay",
    "dup",
    "partition",
    "kill",
    "byz-nan",
    "coord-kill",
    "reg=",
    "cap",
    "0x611",
    "nope",
    "cpu=",
    "peer=",
    "dir=",
    "up",
    "both",
    "n=",
    "p=",
    "at=",
    "window=",
    "always",
    "0",
    "1",
    "3",
    "0.5",
    "1.5",
    "1000",
    "1001",
    "18446744073709551615",
    "99999999999999999999",
    "x",
    "é",
    "`",
];

/// Every rejection names the `;`-segment or `,`-item it rejected.
fn check_plan_error(text: &str, err: Error, plan: &str) -> Result<(), String> {
    let Error::InvalidValue { what, detail } = err else {
        return Err(format!("not a typed plan error: {err:?}"));
    };
    prop_assert_eq!(what, plan);
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
    fn arbitrary_bytes_never_panic_the_toml_readers(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        check_toml_inputs(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn toml_token_soup_errors_name_their_line_and_key(
        picks in prop::collection::vec(0..TOML_FRAGMENTS.len(), 0..48)
    ) {
        let text: String = picks.iter().map(|&i| TOML_FRAGMENTS[i]).collect();
        check_toml_inputs(&text)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_fault_plan_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..128)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = dufp_msr::FaultPlan::parse(&text) {
            check_plan_error(&text, e, "fault plan")?;
        }
    }

    #[test]
    fn fault_plan_token_soup_errors_name_the_rejected_item(
        picks in prop::collection::vec(0..PLAN_FRAGMENTS.len(), 0..24)
    ) {
        let text: String = picks.iter().map(|&i| PLAN_FRAGMENTS[i]).collect();
        if let Err(e) = dufp_msr::FaultPlan::parse(&text) {
            check_plan_error(&text, e, "fault plan")?;
        }
    }
}
