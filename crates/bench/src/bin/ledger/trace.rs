//! The traced run (`--trace 1`): serial, and separate from the timed run.
//! It runs every layer through the mirrors and the benchmark's own fleet
//! loop, so every traced run reports every per-layer metric. The sweep
//! layers replay a sub-grid of the workload's own grid (`paper-node`'s for
//! the non-sweep workloads); the scenario, fleet, wire, allocator and
//! journal layers run the `datacenter` and `fleet-failover` inputs of the
//! same seed. A layer's self share is its span time over its mirror's
//! total time, so one mirror's shares add up to at most 100 %;
//! `scenario.unattributed_pct` is the share of the shipped `run_one`'s
//! time that the mirrored spans do not cover.

use crate::fleet::{self, ClosedLoop, Probe};
use crate::gen::{self, DatacenterSize, Rng, SweepShape, Workload};
use crate::mirror::{self, NodeResult, RunnerProbe, ScenarioProbe};
use crate::stats::{median, ns_since, pct, percentile, Report};
use crate::{scenario, sweep, Scratch};
use dufp::{run_once, run_sweep, Engine};
use dufp_cluster::allocator::{AllocatorPolicy, DemandBased, NodeObservation, StaticSplit};
use dufp_journal::{read_records, FsyncPolicy, JournalWriter};
use dufp_net::{recover, FleetCore, FleetEvent, FleetJournal};
use dufp_telemetry::Telemetry;
use dufp_types::Watts;
use dufp_workloads::{apps, MaterializeCtx};
use std::hint::black_box;
use std::time::Instant;

/// How much the traced run replays. Every timing set the full size
/// produces holds at least 1000 samples (so a p99 has ten beyond it),
/// except the per-run scenario and read-path medians.
#[derive(Debug, Clone)]
pub struct TraceSize {
    /// Minimum sweep jobs replayed through the runner mirror.
    pub sweep_jobs: usize,
    /// Replaces the sweep grid's applications (small test runs).
    pub sweep_apps: Option<&'static [&'static str]>,
    /// Every n-th mirrored job also runs under the tick oracle.
    pub tick_every: usize,
    /// Every n-th mirrored job also runs with telemetry on.
    pub telemetry_every: usize,
    pub materialize_reps: usize,
    pub datacenter: DatacenterSize,
    pub core_epochs: u64,
    pub alloc_nodes: [usize; 3],
    pub alloc_reps: usize,
    pub appends: usize,
    pub checkpoints: usize,
    pub journal_events: u64,
    pub reads: usize,
}

impl TraceSize {
    pub fn full() -> Self {
        TraceSize {
            sweep_jobs: 1000,
            sweep_apps: None,
            tick_every: 32,
            telemetry_every: 8,
            materialize_reps: 10,
            datacenter: DatacenterSize {
                arrival_seeds: 1,
                ..DatacenterSize::of(1.0)
            },
            core_epochs: 1000,
            alloc_nodes: [60, 256, 4096],
            alloc_reps: 1000,
            appends: 1000,
            checkpoints: 1000,
            journal_events: 30_000,
            reads: 10,
        }
    }
}

pub fn run(
    w: Workload,
    seed: u64,
    size: &TraceSize,
    scratch: &Scratch,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    runner_layers(w, seed, size, workers, report)?;
    scenario_layers(seed, size, report)?;
    fleet_layers(seed, size, scratch, report)
}

fn same_bits(a: &NodeResult, b: &NodeResult) -> bool {
    a.exec_time.value().to_bits() == b.exec_time.value().to_bits()
        && a.pkg_energy.value().to_bits() == b.pkg_energy.value().to_bits()
        && a.dram_energy.value().to_bits() == b.dram_energy.value().to_bits()
}

/// Runner, simulator, sampler, controller, actuation, workload and
/// telemetry layers, over a sub-grid of the workload's sweep.
fn runner_layers(
    w: Workload,
    seed: u64,
    size: &TraceSize,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let home = match w {
        Workload::FastControl => w,
        _ => Workload::PaperNode,
    };
    let mut shape = SweepShape::of(home, 1.0);
    if let Some(apps) = size.sweep_apps {
        shape.apps = apps;
    }
    shape.seeds = size.sweep_jobs.div_ceil(shape.jobs() / shape.seeds);
    let slices = sweep::setup(seed, &shape)?;
    report.context("trace.sweep_grid", home.name());

    let ctx = MaterializeCtx::from_arch(&slices[0].jobs[0][0].spec.sim.arch);
    let mut materialize = Vec::new();
    for _ in 0..size.materialize_reps {
        for app in shape.apps {
            let t = Instant::now();
            black_box(apps::by_name(app, &ctx).map_err(|e| e.to_string())?);
            materialize.push(ns_since(t));
        }
    }
    report.metric(
        "workloads.materialize_ms",
        percentile(&materialize, 0.5) / 1e6,
        "ms",
    );

    let jobs: Vec<_> = slices
        .iter()
        .flat_map(|s| s.jobs.iter().flatten())
        .collect();
    let mut probe = RunnerProbe::default();
    let mut run_ns = Vec::with_capacity(jobs.len());
    let mut mirror_ns = 0u64;
    let mut real = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t = Instant::now();
        let r = run_once(&job.spec, job.seed).map_err(|e| e.to_string())?;
        run_ns.push(ns_since(t));
        let want = NodeResult {
            exec_time: r.exec_time,
            pkg_energy: r.pkg_energy,
            dram_energy: r.dram_energy,
        };
        let t = Instant::now();
        let got = mirror::run_once(&job.spec, job.seed, &job.policy, &mut probe);
        mirror_ns += ns_since(t);
        report.check(got.as_ref().is_ok_and(|g| same_bits(g, &want)), || {
            format!(
                "runner mirror diverges from run_once on {} {} seed {}: {got:?} vs {want:?}",
                job.app,
                job.spec.controller.label(),
                job.seed
            )
        });
        real.push(want);
    }
    report.context("trace.runner_jobs", jobs.len());

    // The tick oracle against the event engine on the same jobs: physics
    // time per tick under each, and the oracle must agree bit for bit.
    let (mut oracle, mut event) = (RunnerProbe::default(), RunnerProbe::default());
    for (job, want) in jobs.iter().zip(&real).step_by(size.tick_every) {
        mirror::run_once(&job.spec, job.seed, &job.policy, &mut event)
            .map_err(|e| e.to_string())?;
        let mut spec = job.spec.clone();
        spec.engine = Engine::Tick;
        let got = mirror::run_once(&spec, job.seed, &job.policy, &mut oracle);
        report.check(got.as_ref().is_ok_and(|g| same_bits(g, want)), || {
            format!(
                "tick oracle diverges from run_once on {} seed {}",
                job.app, job.seed
            )
        });
    }

    // Telemetry on against off, back to back on the same jobs.
    let (mut on_ns, mut off_ns) = (0u64, 0u64);
    for job in jobs.iter().step_by(size.telemetry_every) {
        let t = Instant::now();
        run_once(&job.spec, job.seed).map_err(|e| e.to_string())?;
        off_ns += ns_since(t);
        let mut spec = job.spec.clone();
        spec.telemetry = true;
        let t = Instant::now();
        run_once(&spec, job.seed).map_err(|e| e.to_string())?;
        on_ns += ns_since(t);
    }

    // The same sub-grid on the sweep pool, for the pool's busy share.
    let t = Instant::now();
    for g in slices.iter().flat_map(|s| &s.grids) {
        run_sweep(g, workers).map_err(|e| e.to_string())?;
    }
    let pool_ns = ns_since(t);

    let real_ns: u64 = run_ns.iter().sum();
    let advance_per_tick = probe.advance_ns as f64 / probe.advanced_ticks as f64;
    let sample_ns: u64 = probe.sample_ns.iter().sum();
    let control_ns: u64 = probe.on_interval_ns.values().flatten().sum();
    let actuate_ns: u64 = probe.actuate_ns.iter().sum();
    report.attempt(jobs.len() as u64);
    report.p50_p99("runner.run_once_ms", &run_ns, 1e-6, "ms");
    report.metric(
        "runner.pool_busy_pct",
        100.0 * real_ns as f64 / (workers as f64 * pool_ns as f64),
        "%",
    );
    report.metric(
        "runner.trace_overhead_pct",
        (mirror_ns as f64 / real_ns as f64 - 1.0) * 100.0,
        "%",
    );
    report.metric("sim.advance_ns_per_tick", advance_per_tick, "ns");
    report.metric(
        "sim.advance_self_pct",
        pct(probe.advance_ns, mirror_ns),
        "%",
    );
    report.metric(
        "sim.ticks_per_advance",
        probe.advanced_ticks as f64 / probe.advance_calls as f64,
        "count",
    );
    report.metric(
        "sim.event_speedup_x",
        (oracle.tick_ns as f64 / oracle.ticks as f64)
            / (event.advance_ns as f64 / event.advanced_ticks as f64),
        "x",
    );
    report.p50_p99("sampler.sample_ns", &probe.sample_ns, 1.0, "ns");
    report.metric("sampler.self_pct", pct(sample_ns, mirror_ns), "%");
    for policy in gen::POLICIES {
        let samples = probe
            .on_interval_ns
            .get(policy)
            .map_or(&[][..], Vec::as_slice);
        report.p50_p99(
            &format!("control.on_interval_ns.{policy}"),
            samples,
            1.0,
            "ns",
        );
    }
    report.metric("control.self_pct", pct(control_ns, mirror_ns), "%");
    report.metric(
        "control.watchdog_trips",
        probe.watchdog_trips as f64,
        "count",
    );
    report.p50_p99("actuate.call_ns", &probe.actuate_ns, 1.0, "ns");
    report.metric(
        "actuate.calls_per_interval",
        probe.actuate_ns.len() as f64 / probe.intervals as f64,
        "count",
    );
    report.metric("actuate.errors", probe.actuate_errors as f64, "count");
    report.metric("actuate.self_pct", pct(actuate_ns, mirror_ns), "%");
    report.metric(
        "telemetry.enabled_overhead_pct",
        (on_ns as f64 / off_ns as f64 - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// Scenario engine, arrival model and shared-socket physics, over the
/// `datacenter` spec under every budget regime.
fn scenario_layers(seed: u64, size: &TraceSize, report: &mut Report) -> Result<(), String> {
    let (spec, arrival_seeds) = scenario::setup(seed, &size.datacenter)?;
    let arrival = arrival_seeds[0];
    let mut probe = ScenarioProbe::default();
    let (mut run_ns, mut mirror_ns) = (Vec::new(), 0u64);
    for policy in scenario::POLICIES {
        let t = Instant::now();
        let want = dufp_scenario::run_one(&spec, arrival, policy)
            .map_err(|e| e.to_string())?
            .row;
        run_ns.push(ns_since(t));
        let t = Instant::now();
        let got = mirror::run_one(&spec, arrival, policy, &mut probe).map_err(|e| e.to_string())?;
        mirror_ns += ns_since(t);
        report.check(
            got.fleet_energy_j.to_bits() == want.fleet_energy_j.to_bits()
                && got.grants == want.grants
                && got.shrinks == want.shrinks
                && got.conservation_ok == want.conservation_ok,
            || {
                format!(
                    "scenario mirror diverges from run_one under {}: {got:?}",
                    policy.label()
                )
            },
        );
    }
    report.attempt(run_ns.len() as u64);
    let real_ns: u64 = run_ns.iter().sum();
    let step_ns: u64 = probe.step_ns.iter().sum();
    report.metric(
        "scenario.run_one_ms.p50",
        percentile(&run_ns, 0.5) / 1e6,
        "ms",
    );
    report.context("scenario.run_one_ms.samples", run_ns.len());
    report.p50_p99("scenario.interval_us", &probe.interval_ns, 1e-3, "us");
    report.metric(
        "scenario.arrival_self_pct",
        pct(probe.arrival_ns, mirror_ns),
        "%",
    );
    report.metric(
        "scenario.unattributed_pct",
        100.0 - pct(probe.arrival_ns + step_ns + probe.core_ns, real_ns),
        "%",
    );
    report.p50_p99("shared.step_ns", &probe.step_ns, 1.0, "ns");
    report.metric("shared.step_self_pct", pct(step_ns, mirror_ns), "%");
    Ok(())
}

/// Fleet core, wire codec, allocators and journal.
fn fleet_layers(
    seed: u64,
    size: &TraceSize,
    scratch: &Scratch,
    report: &mut Report,
) -> Result<(), String> {
    let mut small = Probe::new(seed);
    let mut lp = ClosedLoop::new(
        &fleet::coordinator_config(60),
        &gen::journal_plan(seed, 60, 0),
        None,
    )?;
    for _ in 0..size.core_epochs {
        lp.step(Some(&mut small))?;
    }
    let plan = gen::journal_plan(seed, 256, size.journal_events);
    let mut probe = Probe::new(seed);
    let mut lp = ClosedLoop::new(&fleet::coordinator_config(256), &plan, None)?;
    for _ in 0..size.core_epochs {
        lp.step(Some(&mut probe))?;
    }
    report.attempt(2 * size.core_epochs);
    report.p50_p99("core.on_report_ns", &probe.on_report_ns, 1.0, "ns");
    report.p50_p99("core.epoch_once_us.60", &small.epoch_ns, 1e-3, "us");
    report.p50_p99("core.epoch_once_us.256", &probe.epoch_ns, 1e-3, "us");
    report.metric("wire.encode_ns", percentile(&probe.encode_ns, 0.5), "ns");
    report.metric("wire.decode_ns", percentile(&probe.decode_ns, 0.5), "ns");
    let (rejects, corrupted) = (
        probe.rejects + small.rejects,
        probe.corrupted + small.corrupted,
    );
    report.metric("wire.rejects", rejects as f64, "count");
    report.check(rejects == corrupted, || {
        format!(
            "{} of {corrupted} corrupted frames decoded",
            corrupted - rejects
        )
    });

    allocators(seed, size, report);
    journal_layers(size, scratch, &lp.core, &plan, report)
}

/// `AllocatorPolicy::allocate` at each fleet size, on seeded observations.
fn allocators(seed: u64, size: &TraceSize, report: &mut Report) {
    let mut rng = Rng::new(seed, "allocator-observations");
    for n in size.alloc_nodes {
        let obs: Vec<NodeObservation> = (0..n)
            .map(|_| {
                let ceiling = rng.range(65.0, 125.0);
                NodeObservation {
                    ceiling: Watts(ceiling),
                    consumption: Watts(ceiling * rng.range(0.6, 1.0)),
                    active: rng.below(10) != 0,
                }
            })
            .collect();
        let budget = Watts(gen::FLEET_BUDGET_PER_AGENT_W * n as f64);
        let policies: [(&str, Box<dyn AllocatorPolicy>); 2] = [
            ("static-split", Box::new(StaticSplit)),
            (
                "demand-based",
                Box::new(DemandBased {
                    floor: Watts(65.0),
                    node_max: Watts(125.0),
                    ..DemandBased::default()
                }),
            ),
        ];
        for (name, mut policy) in policies {
            let mut ns = Vec::with_capacity(size.alloc_reps);
            for _ in 0..size.alloc_reps {
                let t = Instant::now();
                black_box(policy.allocate(budget, black_box(&obs)));
                ns.push(ns_since(t));
            }
            let key = format!("alloc.allocate_ns.{name}.{n}");
            report.metric(&key, percentile(&ns, 0.5), "ns");
            report.context(format!("{key}.samples"), ns.len());
        }
    }
}

/// Journal write path (append under each fsync policy, checkpoints, a
/// journaled fleet) and read path (`read_records`, replay, `recover`).
fn journal_layers(
    size: &TraceSize,
    scratch: &Scratch,
    core: &FleetCore,
    plan: &gen::JournalPlan,
    report: &mut Report,
) -> Result<(), String> {
    let err = |e: dufp_types::Error| e.to_string();
    let record = FleetEvent::Report {
        slot: 0,
        seq: 1,
        ceiling_w: 105.0,
        consumption_w: 98.5,
        active: true,
        now_ms: 500,
    }
    .encode()
    .map_err(err)?;
    for (name, policy) in [
        ("always", FsyncPolicy::Always),
        ("every8", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ] {
        let mut writer = JournalWriter::create(&scratch.fresh(name), policy).map_err(err)?;
        let mut ns = Vec::with_capacity(size.appends);
        for _ in 0..size.appends {
            let t = Instant::now();
            writer.append(&record).map_err(err)?;
            ns.push(ns_since(t));
        }
        report.p50_p99(&format!("journal.append_us.{name}"), &ns, 1e-3, "us");
    }

    let mut journal = FleetJournal::create(&scratch.fresh("checkpoints")).map_err(err)?;
    let mut ns = Vec::with_capacity(size.checkpoints);
    for _ in 0..size.checkpoints {
        let t = Instant::now();
        let bytes = core.snapshot_bytes().map_err(err)?;
        journal.checkpoint(&bytes).map_err(err)?;
        ns.push(ns_since(t));
    }
    report.metric(
        "journal.checkpoint_ms.p50",
        percentile(&ns, 0.5) / 1e6,
        "ms",
    );
    report.context("journal.checkpoint_ms.samples", ns.len());

    let dir = scratch.fresh("journal");
    let t = Instant::now();
    let mut lp = fleet::journaled_fleet(&dir, plan)?;
    fleet::journal_until(&mut lp, plan.events)?;
    let journal_s = t.elapsed().as_secs_f64();
    report.metric("journal.events_per_s", lp.events as f64 / journal_s, "1/s");
    let live = lp.core.snapshot_bytes().map_err(err)?;

    let cfg = fleet::coordinator_config(plan.demand.len());
    let (mut read_ns, mut recover_ns) = (Vec::new(), Vec::new());
    let (mut records, mut recovered) = (Vec::new(), Vec::new());
    for _ in 0..size.reads {
        let t = Instant::now();
        records = read_records(&dir).map_err(err)?.records;
        read_ns.push(ns_since(t));
        let t = Instant::now();
        let rec = recover(&dir, &cfg, Telemetry::disabled()).map_err(err)?;
        recover_ns.push(ns_since(t));
        recovered = rec.core.snapshot_bytes().map_err(err)?;
        report.check(recovered == live, || {
            "recover() did not rebuild the live core".into()
        });
    }
    // The replay mirror: every record decoded and applied to a fresh core.
    let mut replayed = FleetCore::new(&cfg, Telemetry::disabled());
    let t = Instant::now();
    for r in &records {
        FleetEvent::decode(r).map_err(err)?.apply(&mut replayed);
    }
    let replay_ns = ns_since(t);
    report.check(replayed.snapshot_bytes().map_err(err)? == recovered, || {
        "full replay does not match recover()'s core".into()
    });
    let median_s = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>());
    report.metric("journal.read_records_ms", median_s(&read_ns) * 1e3, "ms");
    report.metric(
        "journal.replay_ns_per_event",
        replay_ns as f64 / records.len() as f64,
        "ns",
    );
    report.metric(
        "journal.recover_records_per_s",
        records.len() as f64 / median_s(&recover_ns),
        "1/s",
    );
    report.context("journal.records", records.len());
    Ok(())
}
