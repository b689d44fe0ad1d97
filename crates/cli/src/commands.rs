//! Subcommand implementations.

use crate::args::{
    AgentCmd, ChaosCmd, CoordinateCmd, JournalCmd, RecordSpec, ResumeCmd, RunSpec, ScenarioCmd,
    SweepCmd, TraceCmd,
};
use crate::plot::{chart, Series};
use dufp::{
    run_journaled, run_once, run_repeated, ControllerKind, ExperimentSpec, JournalOptions,
    TraceSpec,
};
use dufp_journal::list_checkpoints;
use dufp_msr::FaultPlan;
use dufp_telemetry::{read_jsonl, write_jsonl, Actuator, DecisionEvent, Reason};
use dufp_types::ArchSpec;
use dufp_types::SocketId;
use dufp_workloads::{apps, MaterializeCtx};
use std::fmt::Write as _;

/// Resolves the simulated platform for a run: the YETI default or a JSON
/// machine description (`dufp machine-template` emits an editable one).
fn resolve_sim(spec: &RunSpec) -> Result<dufp_sim::SimConfig, String> {
    let mut sim = match &spec.machine {
        None => dufp_sim::SimConfig::yeti(spec.seed),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("machine file {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("machine file {path}: {e}"))?
        }
    };
    sim.arch.sockets = spec.sockets;
    sim.seed = spec.seed;
    sim.validate().map_err(|e| match &spec.machine {
        Some(path) => format!("machine file {path}: {e}"),
        None => e.to_string(),
    })?;
    Ok(sim)
}

/// The experiment `spec` describes: untraced, telemetry off.
fn experiment(spec: &RunSpec) -> Result<ExperimentSpec, String> {
    Ok(ExperimentSpec {
        sim: resolve_sim(spec)?,
        app: spec.app.clone(),
        controller: spec.controller,
        trace: None,
        interval_ms: None,
        telemetry: false,
        fault_plan: spec
            .fault_plan
            .as_deref()
            .map(|arg| load_plan(arg, "fault plan", FaultPlan::parse))
            .transpose()?,
        engine: spec.engine,
    })
}

/// Loads a fault plan from a JSON file (when `arg` ends in `.json`) or
/// from an inline DSL string that `parse` reads, like
/// `seed=42;write,reg=cap,p=0.01`. Errors start with `what`.
fn load_plan<P: serde::Deserialize, E: std::fmt::Display>(
    arg: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Result<P, E>,
) -> Result<P, String> {
    if arg.ends_with(".json") {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("{what} {arg}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{what} {arg}: {e}"))
    } else {
        parse(arg).map_err(|e| format!("{what}: {e}"))
    }
}

/// `dufp machine-template` — the default platform as editable JSON.
pub fn machine_template() -> String {
    serde_json::to_string_pretty(&dufp_sim::SimConfig::yeti(42))
        .expect("SimConfig always serializes")
}

/// `dufp run <APP> ...`
pub fn run_app(spec: &RunSpec) -> Result<String, String> {
    if spec.trace_out.is_some() && spec.runs != 1 {
        return Err("--trace-out records a single run; use --runs 1".into());
    }
    if spec.journal_dir.is_some() && spec.runs != 1 {
        return Err("--journal-dir journals a single run; use --runs 1".into());
    }
    let mut exp = experiment(spec)?;
    // A chaos run needs telemetry: the degradation/restore events are the
    // observable record of how the run survived its faults.
    let faulted = exp.fault_plan.is_some();
    exp.telemetry = spec.trace_out.is_some() || faulted;

    if spec.runs == 1 {
        let mut r = match &spec.journal_dir {
            Some(dir) => {
                let mut opts = JournalOptions::new(dir);
                opts.fsync = spec.fsync.unwrap_or(opts.fsync);
                run_journaled(&exp, spec.seed, &opts)
            }
            None => run_once(&exp, spec.seed),
        }
        .map_err(|e| e.to_string())?;
        let mut trace_note = String::new();
        let mut resilience_note = String::new();
        // The trace goes to the file; keep stdout (human or JSON)
        // unchanged apart from a one-line pointer.
        let report = if spec.trace_out.is_some() || (faulted && !spec.json) {
            r.telemetry.take()
        } else {
            None
        };
        if let Some(path) = &spec.trace_out {
            let report = report.as_ref().ok_or("telemetry report missing")?;
            write_events(path, &report.decisions)?;
            trace_note = format!(
                "  decision trace : {:>10} events -> {path} ({} dropped)\n",
                report.decisions.len(),
                report.dropped
            );
        }
        if faulted {
            if let Some(report) = &report {
                let count = |name: &str| {
                    report
                        .metrics
                        .counters
                        .iter()
                        .find(|c| c.name == name)
                        .map(|c| c.value)
                        .unwrap_or(0)
                };
                resilience_note = format!(
                    "  resilience     : {} actuation retries, {} degradations, {} watchdog resets, {} sample failures\n",
                    count("actuation_retries_total"),
                    count("degradations_total"),
                    count("watchdog_resets_total"),
                    count("sample_failures_total"),
                );
            }
        }
        if spec.json {
            return serde_json::to_string_pretty(&r).map_err(|e| e.to_string());
        }
        let mut out = String::new();
        writeln!(out, "{} under {}", spec.app, spec.controller.label()).unwrap();
        writeln!(out, "  execution time : {:>10.2} s", r.exec_time.value()).unwrap();
        writeln!(
            out,
            "  package power  : {:>10.2} W",
            r.avg_pkg_power.value()
        )
        .unwrap();
        writeln!(
            out,
            "  DRAM power     : {:>10.2} W",
            r.avg_dram_power.value()
        )
        .unwrap();
        writeln!(
            out,
            "  total energy   : {:>10.1} J",
            r.total_energy().value()
        )
        .unwrap();
        out.push_str(&trace_note);
        out.push_str(&resilience_note);
        if let Some(dir) = &spec.journal_dir {
            writeln!(out, "  journal        : sealed in {dir}").unwrap();
        }
        Ok(out)
    } else {
        let r = run_repeated(&exp, spec.runs, spec.seed).map_err(|e| e.to_string())?;
        if spec.json {
            return serde_json::to_string_pretty(&r).map_err(|e| e.to_string());
        }
        let mut out = String::new();
        writeln!(
            out,
            "{} under {} — {} runs, trimmed mean of {} (paper protocol)",
            spec.app,
            spec.controller.label(),
            spec.runs,
            r.exec_time.n
        )
        .unwrap();
        let line = |name: &str, s: &dufp::Summary, unit: &str| {
            format!(
                "  {name:<15}: {:>10.2} {unit}  [{:.2} .. {:.2}]",
                s.mean, s.min, s.max
            )
        };
        writeln!(out, "{}", line("execution time", &r.exec_time, "s")).unwrap();
        writeln!(out, "{}", line("package power", &r.pkg_power, "W")).unwrap();
        writeln!(out, "{}", line("DRAM power", &r.dram_power, "W")).unwrap();
        writeln!(out, "{}", line("total energy", &r.total_energy, "J")).unwrap();
        Ok(out)
    }
}

/// `dufp resume <DIR>` — finish a crashed journaled run.
pub fn resume(cmd: &ResumeCmd) -> Result<String, String> {
    let dir = std::path::Path::new(&cmd.dir);
    let summary = dufp::summarize(dir).map_err(|e| format!("journal {}: {e}", cmd.dir))?;
    let (replayed, meta) = (summary.intervals.len(), summary.meta.clone());
    let r = (summary.resume()).map_err(|e| format!("journal {}: {e}", cmd.dir))?;
    if cmd.json {
        return serde_json::to_string_pretty(&r).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    writeln!(
        out,
        "resumed {} under {} from {} journaled interval(s)",
        meta.spec.app,
        meta.spec.controller.label(),
        replayed,
    )
    .unwrap();
    writeln!(out, "  execution time : {:>10.2} s", r.exec_time.value()).unwrap();
    writeln!(
        out,
        "  package power  : {:>10.2} W",
        r.avg_pkg_power.value()
    )
    .unwrap();
    writeln!(
        out,
        "  total energy   : {:>10.1} J",
        r.total_energy().value()
    )
    .unwrap();
    writeln!(out, "  journal        : sealed in {}", cmd.dir).unwrap();
    Ok(out)
}

/// `dufp journal <DIR>` — inspect a journal directory without running.
pub fn journal(cmd: &JournalCmd) -> Result<String, String> {
    let dir = std::path::Path::new(&cmd.dir);
    let summary = dufp::summarize(dir).map_err(|e| format!("journal {}: {e}", cmd.dir))?;
    let checkpoints = list_checkpoints(dir).map_err(|e| format!("journal {}: {e}", cmd.dir))?;
    let meta = &summary.meta;
    let mut out = String::new();
    writeln!(out, "journal {}", cmd.dir).unwrap();
    writeln!(
        out,
        "  experiment     : {} under {} ({} socket(s), seed {})",
        meta.spec.app,
        meta.spec.controller.label(),
        meta.spec.sim.arch.sockets,
        meta.seed,
    )
    .unwrap();
    writeln!(out, "  intervals      : {:>10}", summary.intervals.len()).unwrap();
    let cps: Vec<String> = checkpoints.iter().map(|(seq, _)| seq.to_string()).collect();
    writeln!(
        out,
        "  checkpoints    : {:>10}  [{}]",
        checkpoints.len(),
        cps.join(", "),
    )
    .unwrap();
    writeln!(
        out,
        "  status         : {}",
        match (summary.complete, summary.truncated) {
            (true, _) => "complete (sealed)",
            (false, true) => "crashed (torn tail dropped) — resumable with `dufp resume`",
            (false, false) => "crashed or in progress — resumable with `dufp resume`",
        }
    )
    .unwrap();
    Ok(out)
}

/// `dufp timeline <APP> ...` — one traced run rendered as ASCII charts.
pub fn timeline(spec: &RunSpec) -> Result<String, String> {
    let exp = ExperimentSpec {
        trace: Some(TraceSpec {
            socket: SocketId(0),
            stride: 100, // one point per 100 ms
        }),
        ..experiment(spec)?
    };
    let r = run_once(&exp, spec.seed).map_err(|e| e.to_string())?;
    let trace = r.trace.as_ref().ok_or("trace missing")?;

    let pick = |f: &dyn Fn(&dufp_sim::TracePoint) -> f64| -> Vec<f64> {
        trace.points.iter().map(f).collect()
    };
    let mut out = String::new();
    writeln!(
        out,
        "{} under {} — socket 0, {:.1} s ({} samples)\n",
        spec.app,
        spec.controller.label(),
        r.exec_time.value(),
        trace.points.len()
    )
    .unwrap();
    out.push_str(&chart(
        "core & uncore frequency (GHz)",
        &[
            Series {
                label: "core".into(),
                glyph: '*',
                values: pick(&|p| p.core_freq.as_ghz()),
            },
            Series {
                label: "uncore".into(),
                glyph: 'u',
                values: pick(&|p| p.uncore_freq.as_ghz()),
            },
        ],
        72,
        10,
    ));
    out.push('\n');
    out.push_str(&chart(
        "package power vs programmed cap (W)",
        &[
            Series {
                label: "power".into(),
                glyph: '*',
                values: pick(&|p| p.pkg_power.value()),
            },
            Series {
                label: "PL1 cap".into(),
                glyph: '-',
                values: pick(&|p| p.pl1.value()),
            },
        ],
        72,
        10,
    ));
    writeln!(
        out,
        "\navg core {:.2} GHz | avg package {:.1} W | total energy {:.0} J",
        trace
            .avg_core_freq()
            .map(|f| f.as_ghz())
            .unwrap_or(f64::NAN),
        trace.avg_pkg_power().map(|p| p.value()).unwrap_or(f64::NAN),
        r.total_energy().value(),
    )
    .unwrap();
    writeln!(
        out,
        "actuations: {} cap writes, {} uncore writes",
        trace.cap_transitions(),
        trace.uncore_transitions()
    )
    .unwrap();
    let residency = |label: &str, items: Vec<(f64, f64)>| {
        let top: Vec<String> = items
            .iter()
            .rev()
            .take(4)
            .map(|(v, f)| format!("{v:.1}:{:.0}%", f * 100.0))
            .collect();
        format!("{label} residency (top levels): {}", top.join("  "))
    };
    writeln!(
        out,
        "{}",
        residency(
            "cap (W)",
            trace
                .cap_residency()
                .iter()
                .map(|(w, f)| (w.value(), *f))
                .collect()
        )
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        residency(
            "uncore (GHz)",
            trace
                .uncore_residency()
                .iter()
                .map(|(h, f)| (h.as_ghz(), *f))
                .collect()
        )
    )
    .unwrap();
    Ok(out)
}

fn fmt_actuator_value(actuator: Actuator, v: f64) -> String {
    match actuator {
        Actuator::Uncore | Actuator::CoreFreq => format!("{:.2} GHz", v / 1e9),
        Actuator::PowerCap | Actuator::PowerCapShort | Actuator::Budget => format!("{v:.0} W"),
        Actuator::Journal => format!("{v:.0} intervals"),
    }
}

/// `dufp trace <FILE.jsonl> [--summary]` — inspect a decision trace.
pub fn trace(cmd: &TraceCmd) -> Result<String, String> {
    let f = std::fs::File::open(&cmd.file).map_err(|e| format!("trace file {}: {e}", cmd.file))?;
    let events: Vec<DecisionEvent> = read_jsonl(std::io::BufReader::new(f))
        .map_err(|e| format!("trace file {}: {e}", cmd.file))?;

    let mut out = String::new();
    if cmd.summary {
        writeln!(out, "{}: {} decision events", cmd.file, events.len()).unwrap();
        writeln!(out, "\nby reason:").unwrap();
        for r in Reason::ALL {
            let n = events.iter().filter(|e| e.reason == r).count();
            writeln!(out, "  {:<20} {n:>6}", r.to_string()).unwrap();
        }
        writeln!(out, "\nby actuator:").unwrap();
        for a in [
            Actuator::Uncore,
            Actuator::PowerCap,
            Actuator::PowerCapShort,
            Actuator::CoreFreq,
            Actuator::Journal,
            Actuator::Budget,
        ] {
            let n = events.iter().filter(|e| e.actuator == a).count();
            writeln!(out, "  {:<20} {n:>6}", a.to_string()).unwrap();
        }
        let by_reason = |r: Reason| events.iter().filter(|e| e.reason == r).count();
        writeln!(
            out,
            "\nresilience: {} actuation retries, {} degradations, {} watchdog resets, {} safe-state restores",
            by_reason(Reason::ActuationRetry),
            by_reason(Reason::Degraded),
            by_reason(Reason::WatchdogReset),
            by_reason(Reason::SafeStateRestore),
        )
        .unwrap();
        let sockets: std::collections::BTreeSet<u16> = events.iter().map(|e| e.socket).collect();
        let phases: std::collections::BTreeSet<(u16, u64)> =
            events.iter().map(|e| (e.socket, e.phase)).collect();
        writeln!(
            out,
            "\n{} socket(s), {} phase change(s) observed",
            sockets.len(),
            phases.len().saturating_sub(sockets.len())
        )
        .unwrap();
    } else {
        for e in &events {
            let ratio = e
                .flops_ratio
                .map(|r| format!(" flops={:>3.0}%", r * 100.0))
                .unwrap_or_default();
            let class = e
                .oi_class
                .as_deref()
                .map(|c| format!(" [{c}]"))
                .unwrap_or_default();
            writeln!(
                out,
                "tick {:>5}  s{}  p{:<3} {:<14} {:>9} -> {:<9} {}{ratio}{class}",
                e.tick,
                e.socket,
                e.phase,
                e.actuator.to_string(),
                fmt_actuator_value(e.actuator, e.old),
                fmt_actuator_value(e.actuator, e.new),
                e.reason,
            )
            .unwrap();
        }
        writeln!(
            out,
            "{} events (use --summary for per-reason counts)",
            events.len()
        )
        .unwrap();
    }
    Ok(out)
}

/// `dufp record <APP> --out FILE.json` — capture a workload spec.
pub fn record(spec: &RecordSpec) -> Result<String, String> {
    let sim = dufp_sim::SimConfig::yeti_single_socket(spec.seed);
    let file = dufp::record_workload(&sim, &spec.app, &dufp_workloads::SegmentConfig::default())
        .map_err(|e| e.to_string())?;
    file.save(&spec.out).map_err(|e| e.to_string())?;
    let ctx = dufp_workloads::MaterializeCtx::from_arch(&sim.arch);
    let w = file.materialize(&ctx).map_err(|e| e.to_string())?;
    Ok(format!(
        "captured {} as {} — {} phases, ≈{:.1} s at the default configuration\nreplay with: dufp run {} --controller dufp --slowdown 10\n",
        spec.app,
        spec.out,
        file.phases.len(),
        w.nominal_duration(&ctx).value(),
        spec.out,
    ))
}

/// `dufp plan <APP>` — the §V-H recommendation: the tolerance with the best
/// power savings and no energy loss.
pub fn plan(spec: &RunSpec) -> Result<String, String> {
    use dufp::{ratios_vs_default, run_repeated, Ratios};
    let runs = spec.runs.max(3);
    let plain = experiment(spec)?;
    let exp = |controller| ExperimentSpec {
        controller,
        ..plain.clone()
    };
    let base =
        run_repeated(&exp(ControllerKind::Default), runs, spec.seed).map_err(|e| e.to_string())?;

    let mut out = String::new();
    writeln!(
        out,
        "planning {} — DUFP tolerance sweep, {} runs each\n",
        spec.app, runs
    )
    .unwrap();
    writeln!(
        out,
        "| tolerance | overhead | power savings | energy savings |"
    )
    .unwrap();
    writeln!(
        out,
        "|-----------|----------|---------------|----------------|"
    )
    .unwrap();
    let mut table: Vec<(f64, Ratios)> = Vec::new();
    for pct in [0.0, 5.0, 10.0, 20.0] {
        let r = run_repeated(
            &exp(ControllerKind::Dufp {
                slowdown: dufp_types::Ratio::from_percent(pct),
            }),
            runs,
            spec.seed,
        )
        .map_err(|e| e.to_string())?;
        let ratios = ratios_vs_default(&base, &r);
        writeln!(
            out,
            "| {pct:>6.0} %  | {:+6.2} % | {:+9.2} %    | {:+9.2} %     |",
            ratios.overhead_pct, ratios.pkg_power_savings_pct, ratios.energy_savings_pct
        )
        .unwrap();
        table.push((pct, ratios));
    }
    match table
        .iter()
        .filter(|(_, r)| r.energy_savings_pct >= 0.0)
        .max_by(|a, b| a.1.pkg_power_savings_pct.total_cmp(&b.1.pkg_power_savings_pct))
    {
        Some((pct, r)) => writeln!(
            out,
            "\nrecommendation: {pct:.0} % tolerated slowdown — {:+.2} % power at {:+.2} % energy (\"power savings with no energy loss\", §V-H)",
            r.pkg_power_savings_pct, r.energy_savings_pct
        )
        .unwrap(),
        None => writeln!(out, "\nno energy-neutral tolerance found").unwrap(),
    }
    Ok(out)
}

/// `dufp sweep ...` — expand a grid, run it on a worker pool, write JSONL.
pub fn sweep(cmd: &SweepCmd) -> Result<String, String> {
    let mut grid = match &cmd.grid {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("grid file {path}: {e}"))?;
            dufp::parse_grid(&text).map_err(|e| format!("grid file {path}: {e}"))?
        }
        None => dufp::SweepGrid::paper(),
    };
    if let Some(engine) = cmd.engine {
        grid.engine = engine;
    }
    let jobs = cmd.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    let out = dufp::run_sweep(&grid, jobs).map_err(|e| e.to_string())?;
    let bytes = dufp::sweep::to_jsonl_bytes(&out.rows).map_err(|e| e.to_string())?;
    std::fs::write(&cmd.out, &bytes).map_err(|e| format!("write {}: {e}", cmd.out))?;

    if cmd.json {
        let out_path = serde_json::to_string(&cmd.out).map_err(|e| e.to_string())?;
        return Ok(format!(
            "{{\"jobs\":{},\"workers_requested\":{},\"workers_observed\":{},\"elapsed_s\":{},\"jobs_per_sec\":{},\"out\":{}}}",
            out.rows.len(),
            out.workers_requested,
            out.workers_observed,
            out.elapsed_s,
            out.jobs_per_sec(),
            out_path
        ));
    }
    let mut text = String::new();
    writeln!(
        text,
        "sweep: {} jobs ({} apps × {} policies × {} slowdowns × {} seeds)",
        out.rows.len(),
        grid.apps.len(),
        grid.policies.len(),
        grid.slowdowns_pct.len(),
        grid.seeds.len()
    )
    .unwrap();
    writeln!(
        text,
        "workers: {} requested, {} observed",
        out.workers_requested, out.workers_observed
    )
    .unwrap();
    writeln!(
        text,
        "elapsed: {:.2} s ({:.1} jobs/s)",
        out.elapsed_s,
        out.jobs_per_sec()
    )
    .unwrap();
    writeln!(text, "wrote {} rows to {}", out.rows.len(), cmd.out).unwrap();
    Ok(text)
}

/// `dufp platform`
pub fn platform() -> String {
    let arch = ArchSpec::yeti();
    format!(
        "{arch}\n\
         | cores | uncore frequency (GHz) | long term (W) | short term (W) |\n\
         |-------|------------------------|---------------|----------------|\n\
         {}\n\
         monitoring interval 200 ms, uncore step {:.0} MHz, cap step {:.0} W, \
         cap floor {:.0} W\n",
        arch.table1_row(),
        arch.uncore_freq_step.as_mhz(),
        arch.cap_step.value(),
        arch.cap_floor.value(),
    )
}

/// `dufp apps`
pub fn apps() -> String {
    let ctx = MaterializeCtx::from_arch(&ArchSpec::yeti());
    let mut out = String::from("modeled applications (phase-graph models, see dufp-workloads):\n");
    for w in apps::all(&ctx).expect("builtin apps") {
        writeln!(
            out,
            "  {:<7} {:>3} phases, ≈{:>5.1} s at the default configuration",
            w.name,
            w.phases.len(),
            w.nominal_duration(&ctx).value()
        )
        .unwrap();
    }
    out.push_str("reference kernels (roofline extremes):\n");
    for w in [
        apps::stream(&ctx).expect("stream"),
        apps::dgemm(&ctx).expect("dgemm"),
        apps::pointer_chase(&ctx).expect("chase"),
    ] {
        writeln!(
            out,
            "  {:<7} {:>3} phase,  ≈{:>5.1} s at the default configuration",
            w.name,
            w.phases.len(),
            w.nominal_duration(&ctx).value()
        )
        .unwrap();
    }
    out
}

/// `dufp probe` — reports which real-hardware access paths exist.
pub fn probe() -> String {
    let mut out = String::new();
    let msr = std::path::Path::new("/dev/cpu/0/msr").exists();
    let powercap = std::path::Path::new("/sys/class/powercap/intel-rapl:0").exists();
    writeln!(
        out,
        "MSR device files (/dev/cpu/N/msr) : {}",
        if msr { "present" } else { "absent" }
    )
    .unwrap();
    writeln!(
        out,
        "powercap sysfs (intel-rapl zones)  : {}",
        if powercap { "present" } else { "absent" }
    )
    .unwrap();
    if msr && powercap {
        writeln!(
            out,
            "bare-metal deployment possible: dufp_msr::LinuxMsr + dufp_rapl::SysfsRapl"
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "no hardware access — experiments run on the calibrated simulator \
             (dufp_sim::Machine), which exposes the same MsrIo/Telemetry interfaces"
        )
        .unwrap();
    }
    out
}

/// Writes decision events to `path` as JSON Lines.
fn write_events(path: &str, events: &[DecisionEvent]) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    write_jsonl(std::io::BufWriter::new(f), events).map_err(|e| format!("{path}: {e}"))
}

/// Writes a fleet process's decision trace to `trace_out`, if given, and
/// returns the report line pointing at it.
fn write_trace(trace_out: Option<&str>, decisions: &[DecisionEvent]) -> Result<String, String> {
    let Some(path) = trace_out else {
        return Ok(String::new());
    };
    write_events(path, decisions)?;
    Ok(format!(
        "  decision trace : {:>10} events -> {path}\n",
        decisions.len()
    ))
}

/// `dufp coordinate --listen ADDR --budget-w W ...` — serve a fleet budget.
pub fn coordinate(cmd: &CoordinateCmd) -> Result<String, String> {
    let outcome = match &cmd.config.standby_of {
        Some(primary) => {
            eprintln!("dufp coordinate: standby for {primary} (promotes on primary silence)");
            dufp_net::run_standby(cmd.config.clone()).map_err(|e| e.to_string())?
        }
        None => {
            let coord =
                dufp_net::Coordinator::bind(cmd.config.clone()).map_err(|e| e.to_string())?;
            let addr = coord.local_addr().map_err(|e| e.to_string())?;
            eprintln!(
                "dufp coordinate: serving {} W on {addr} (term {})",
                cmd.config.budget.value(),
                coord.term()
            );
            coord.run().map_err(|e| e.to_string())?
        }
    };

    let trace_note = write_trace(cmd.trace_out.as_deref(), &outcome.telemetry.decisions)?;
    if cmd.json {
        return serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    writeln!(
        out,
        "fleet of {} node(s) under {} — {} W budget, {} epoch(s)",
        outcome.nodes.len(),
        outcome.policy,
        outcome.budget,
        outcome.epochs.len()
    )
    .unwrap();
    for n in &outcome.nodes {
        writeln!(
            out,
            "  {:<12} {:<8} {:>8.1} W final  {:?}",
            n.name, n.app, n.final_ceiling, n.state
        )
        .unwrap();
    }
    let peak = outcome
        .epochs
        .iter()
        .map(|e| e.total_granted)
        .fold(0.0f64, f64::max);
    let reclaims: usize = outcome.epochs.iter().map(|e| e.reclaimed.len()).sum();
    writeln!(
        out,
        "  peak granted   : {peak:>10.1} W (budget {:.1} W)",
        outcome.budget
    )
    .unwrap();
    writeln!(out, "  reclaims       : {reclaims:>10}").unwrap();
    out.push_str(&trace_note);
    Ok(out)
}

/// `dufp agent --connect ADDR --node NAME ...` — run a fleet node.
pub fn agent(cmd: &AgentCmd) -> Result<String, String> {
    let agent = dufp_net::Agent::new(cmd.config.clone()).map_err(|e| e.to_string())?;
    let outcome = agent.run().map_err(|e| e.to_string())?;

    let trace_note = write_trace(cmd.trace_out.as_deref(), &outcome.telemetry.decisions)?;
    if cmd.json {
        return serde_json::to_string_pretty(&outcome).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    writeln!(
        out,
        "{} ran {} under fleet control{}",
        outcome.node,
        outcome.app,
        if outcome.completed {
            ""
        } else {
            " (stopped early)"
        }
    )
    .unwrap();
    if let Some(t) = outcome.exec_time {
        writeln!(out, "  execution time : {:>10.2} s", t.value()).unwrap();
    }
    writeln!(
        out,
        "  package power  : {:>10.2} W",
        outcome.avg_power.value()
    )
    .unwrap();
    writeln!(
        out,
        "  final ceiling  : {:>10.1} W",
        outcome.final_ceiling.value()
    )
    .unwrap();
    writeln!(
        out,
        "  fleet link     : {} report(s) sent, {} grant(s) applied, {} degradation(s)",
        outcome.reports_sent, outcome.grants_applied, outcome.degradations
    )
    .unwrap();
    out.push_str(&trace_note);
    Ok(out)
}

/// `dufp chaos ...` — the deterministic adversarial fleet soak: seeded
/// network chaos and byzantine agents over an in-process fleet, scored
/// into a resilience scorecard. Errors (nonzero exit) if any scenario
/// breaks budget conservation or an honest agent's floor.
pub fn chaos(cmd: &ChaosCmd) -> Result<String, String> {
    let mut cfg = cmd.config.clone();
    if let Some(arg) = &cmd.net_fault_plan {
        cfg.extra_net = load_plan(arg, "net fault plan", dufp_net::NetFaultPlan::parse)?;
    }
    if let Some(arg) = &cmd.fault_plan {
        cfg.msr_plan = load_plan(arg, "fault plan", FaultPlan::parse)?;
    }

    let cards = match &cmd.scenario {
        Some(name) => vec![dufp_net::chaos::run_scenario(&cfg, name).map_err(|e| e.to_string())?],
        None => dufp_net::chaos::run_matrix(&cfg).map_err(|e| e.to_string())?,
    };

    // The scorecard is JSONL: one line per scenario, ranked best-first.
    // Serialization lives here (not in dufp-net) so the wire crate keeps
    // serde_json as a dev-only dependency.
    let mut jsonl = String::new();
    for card in &cards {
        let line = serde_json::to_string(card).map_err(|e| e.to_string())?;
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    let mut out_note = String::new();
    if let Some(path) = &cmd.out {
        std::fs::write(path, &jsonl).map_err(|e| format!("scorecard {path}: {e}"))?;
        out_note = format!("scorecard: {} line(s) written to {path}\n", cards.len());
    }

    let output = if cmd.json {
        jsonl
    } else {
        let mut out = String::new();
        writeln!(
            out,
            "resilience scorecard — seed {}, {} agent(s), {} epoch(s), {:.0} W budget",
            cfg.seed,
            cfg.agents,
            cfg.epochs,
            cfg.budget.value()
        )
        .unwrap();
        writeln!(
            out,
            "  {:>5}  {:<20} {:>9} {:>7} {:>8} {:>9} {:>7} {:>6}",
            "score", "scenario", "conserve", "floors", "byz q/n", "dropped", "corrupt", "evict"
        )
        .unwrap();
        for c in &cards {
            writeln!(
                out,
                "  {:>5.0}  {:<20} {:>9} {:>7} {:>8} {:>9} {:>7} {:>6}",
                c.score,
                c.scenario,
                if c.conservation_ok { "ok" } else { "BROKEN" },
                if c.floor_ok { "ok" } else { "BROKEN" },
                format!("{}/{}", c.byz_quarantined, c.byz_total),
                c.frames_dropped,
                c.frames_corrupted,
                c.evictions,
            )
            .unwrap();
        }
        out.push_str(&out_note);
        out
    };

    let broken: Vec<&str> = cards
        .iter()
        .filter(|c| !c.conservation_ok || !c.floor_ok)
        .map(|c| c.scenario.as_str())
        .collect();
    if broken.is_empty() {
        Ok(output)
    } else {
        Err(format!(
            "{output}chaos: resilience violations in: {}",
            broken.join(", ")
        ))
    }
}

/// `dufp scenario ...` — run a trace-driven datacenter scenario: a
/// heterogeneous co-tenant fleet under an arrival model and a global
/// power budget, scored per policy against the uncapped baseline. Errors
/// (nonzero exit) if any run breaks per-tenant energy conservation.
pub fn scenario(cmd: &ScenarioCmd) -> Result<String, String> {
    if cmd.print_example {
        return Ok(dufp_scenario::EXAMPLE_TOML.to_string());
    }

    let spec = match &cmd.spec {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("spec {path}: {e}"))?;
            dufp_scenario::ScenarioSpec::from_toml(&text)
                .map_err(|e| format!("spec {path}: {e}"))?
        }
        None => dufp_scenario::ScenarioSpec::example(),
    };
    let jobs = cmd
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));

    let rows =
        dufp_scenario::run_rows(&spec, cmd.seed, &cmd.policies, jobs).map_err(|e| e.to_string())?;
    let jsonl = dufp_scenario::to_jsonl_bytes(&rows).map_err(|e| e.to_string())?;
    let jsonl = String::from_utf8(jsonl).map_err(|e| e.to_string())?;

    let mut notes = String::new();
    if let Some(path) = &cmd.out {
        std::fs::write(path, &jsonl).map_err(|e| format!("scorecard {path}: {e}"))?;
        writeln!(notes, "scorecard: {} line(s) written to {path}", rows.len()).unwrap();
    }
    if let Some(path) = &cmd.trace_out {
        let run =
            dufp_scenario::run_one(&spec, cmd.seed, cmd.policies[0]).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(path).map_err(|e| format!("trace {path}: {e}"))?;
        write_jsonl(std::io::BufWriter::new(file), &run.events)
            .map_err(|e| format!("trace {path}: {e}"))?;
        writeln!(
            notes,
            "trace: {} event(s) for policy {} written to {path}",
            run.events.len(),
            cmd.policies[0].label()
        )
        .unwrap();
    }

    let output = if cmd.json {
        jsonl
    } else {
        let mut out = String::new();
        writeln!(
            out,
            "scenario {} — seed {}, {} node(s), {} tenant(s), {:.0} W budget, {:.0} s",
            spec.name,
            cmd.seed,
            spec.nodes.len(),
            spec.tenant_count(),
            spec.budget_w,
            spec.duration_s
        )
        .unwrap();
        writeln!(
            out,
            "  {:<14} {:>12} {:>8} {:>10} {:>7} {:>7} {:>9}",
            "policy", "energy kJ", "saved%", "SLO-viol%", "grants", "shrinks", "conserve"
        )
        .unwrap();
        for r in &rows {
            writeln!(
                out,
                "  {:<14} {:>12.1} {:>8.2} {:>10.2} {:>7} {:>7} {:>9}",
                r.policy,
                r.fleet_energy_j / 1000.0,
                r.energy_saved_pct,
                r.slo_violation_pct,
                r.grants,
                r.shrinks,
                if r.conservation_ok { "ok" } else { "BROKEN" },
            )
            .unwrap();
        }
        out.push_str(&notes);
        out
    };

    let broken: Vec<&str> = rows
        .iter()
        .filter(|r| !r.conservation_ok)
        .map(|r| r.policy.as_str())
        .collect();
    if broken.is_empty() {
        Ok(output)
    } else {
        Err(format!(
            "{output}scenario: energy-conservation violations under: {}",
            broken.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp::Engine;
    use dufp_types::Ratio;

    #[test]
    fn chaos_runs_deterministically_and_flags_scenarios() {
        let cmd = ChaosCmd {
            config: dufp_net::ChaosConfig {
                agents: 4,
                epochs: 10,
                budget: dufp_types::Watts(400.0),
                ..dufp_net::ChaosConfig::new(5)
            },
            scenario: Some("baseline".into()),
            net_fault_plan: None,
            fault_plan: None,
            out: None,
            json: true,
        };
        let a = chaos(&cmd).expect("baseline must pass");
        let b = chaos(&cmd).expect("baseline must pass");
        assert_eq!(a, b, "same seed, same scorecard bytes");
        assert!(a.contains("\"scenario\":\"baseline\""), "{a}");

        let unknown = ChaosCmd {
            scenario: Some("nope".into()),
            ..cmd
        };
        let err = chaos(&unknown).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn scenario_runs_deterministically_and_prints_example() {
        let cmd = ScenarioCmd {
            spec: None,
            seed: 5,
            policies: vec![
                dufp_scenario::PolicyChoice::Uncapped,
                dufp_scenario::PolicyChoice::DemandBased,
            ],
            jobs: Some(2),
            out: None,
            trace_out: None,
            json: true,
            print_example: false,
        };
        let a = scenario(&cmd).expect("example scenario must pass");
        let b = scenario(&cmd).expect("example scenario must pass");
        assert_eq!(a, b, "same seed, same scorecard bytes");
        assert!(a.contains("\"policy\":\"demand-based\""), "{a}");
        assert!(a.contains("\"conservation_ok\":true"), "{a}");

        let example = scenario(&ScenarioCmd {
            print_example: true,
            ..cmd.clone()
        })
        .unwrap();
        assert_eq!(example, dufp_scenario::EXAMPLE_TOML);

        // An unknown policy never reaches the engine: the parser rejects it.
        let argv = ["scenario", "--policies", "nope"].map(String::from);
        let bad = crate::Command::parse(&argv).unwrap_err();
        assert!(bad.contains("nope"), "{bad}");
    }

    fn spec(app: &str, runs: usize) -> RunSpec {
        RunSpec {
            app: app.into(),
            controller: ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
            sockets: 1,
            runs,
            seed: 3,
            json: false,
            machine: None,
            trace_out: None,
            fault_plan: None,
            journal_dir: None,
            fsync: None,
            engine: Engine::default(),
        }
    }

    #[test]
    fn single_run_renders_summary() {
        let out = run_app(&spec("EP", 1)).unwrap();
        assert!(out.contains("EP under DUFP@10%"), "{out}");
        assert!(out.contains("execution time"));
        assert!(out.contains("package power"));
    }

    #[test]
    fn repeated_run_renders_error_bars() {
        let out = run_app(&spec("EP", 3)).unwrap();
        assert!(out.contains("3 runs"));
        assert!(out.contains(".."), "error bars expected: {out}");
    }

    #[test]
    fn json_output_is_parseable() {
        let mut s = spec("EP", 1);
        s.json = true;
        let out = run_app(&s).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["exec_time"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn unknown_app_is_a_clean_error() {
        let err = run_app(&spec("NOT_AN_APP", 1)).unwrap_err();
        assert!(err.contains("NOT_AN_APP"), "{err}");
    }

    #[test]
    fn timeline_renders_charts() {
        let out = timeline(&spec("CG", 1)).unwrap();
        assert!(out.contains("core & uncore frequency"), "{out}");
        assert!(out.contains("package power vs programmed cap"));
        assert!(out.contains("avg core"));
    }

    #[test]
    fn json_workload_file_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("dufp-cli-wl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.json");
        std::fs::write(
            &path,
            r#"{
                "name": "toy",
                "phases": [{
                    "name": "stream", "seconds_at_default": 3.0, "oi": 0.05,
                    "boundness": { "MemoryBound": { "headroom": 1.5 } },
                    "core_util": 0.5, "overlap_penalty": 0.0
                }],
                "repeat": 2
            }"#,
        )
        .unwrap();
        let out = run_app(&spec(path.to_str().unwrap(), 1)).unwrap();
        assert!(out.contains("under DUFP"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn machine_template_round_trips_through_a_run() {
        let dir = std::env::temp_dir().join(format!("dufp-machine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("machine.json");
        // Edit the template: a smaller 95 W PL1 platform.
        let mut sim: dufp_sim::SimConfig = serde_json::from_str(&machine_template()).unwrap();
        sim.arch.pl1_default = dufp_types::Watts(95.0);
        sim.arch.name = "custom-95w".into();
        std::fs::write(&path, serde_json::to_string(&sim).unwrap()).unwrap();

        let mut s = spec("EP", 1);
        s.machine = Some(path.to_str().unwrap().to_string());
        s.json = true;
        let out = run_app(&s).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        // EP must be held under the custom 95 W PL1.
        let pkg = v["avg_pkg_power"].as_f64().unwrap();
        assert!(pkg < 97.0, "custom PL1 not honored: {pkg} W");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_machine_file_is_a_clean_error() {
        let mut s = spec("EP", 1);
        s.machine = Some("/nonexistent/machine.json".into());
        assert!(run_app(&s).unwrap_err().contains("machine file"));
    }

    #[test]
    fn trace_out_then_trace_summary_round_trips() {
        let dir = std::env::temp_dir().join(format!("dufp-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cg.jsonl");

        let mut s = spec("CG", 1);
        s.trace_out = Some(path.to_str().unwrap().to_string());
        let out = run_app(&s).unwrap();
        assert!(out.contains("decision trace"), "{out}");

        // Every line of the file is a decision event carrying a reason.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty(), "DUFP on CG must actuate");
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["reason"].as_str().is_some(), "reason missing: {line}");
            assert!(v["actuator"].as_str().is_some(), "actuator missing: {line}");
        }

        let listing = trace(&TraceCmd {
            file: path.to_str().unwrap().to_string(),
            summary: false,
        })
        .unwrap();
        assert!(listing.contains("tick"), "{listing}");

        let summary = trace(&TraceCmd {
            file: path.to_str().unwrap().to_string(),
            summary: true,
        })
        .unwrap();
        assert!(summary.contains("by reason:"), "{summary}");
        assert!(summary.contains("phase-reset"), "{summary}");
        assert!(summary.contains("by actuator:"), "{summary}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_run_survives_and_reports_resilience() {
        let dir = std::env::temp_dir().join(format!("dufp-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.jsonl");

        let mut s = spec("EP", 1);
        s.fault_plan = Some("seed=42;write,p=0.01;write,reg=cap,cpu=0-15,window=200+5000".into());
        s.trace_out = Some(path.to_str().unwrap().to_string());
        let out = run_app(&s).unwrap();
        assert!(out.contains("resilience"), "{out}");
        assert!(out.contains("degradations"), "{out}");

        let summary = trace(&TraceCmd {
            file: path.to_str().unwrap().to_string(),
            summary: true,
        })
        .unwrap();
        assert!(summary.contains("resilience:"), "{summary}");
        assert!(summary.contains("degraded"), "{summary}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_fault_plan_is_a_clean_error() {
        let mut s = spec("EP", 1);
        s.fault_plan = Some("seed=nope".into());
        assert!(run_app(&s).unwrap_err().contains("fault plan"));
    }

    #[test]
    fn journaled_run_inspects_seals_and_refuses_rerun() {
        let dir = std::env::temp_dir().join(format!("dufp-cli-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = spec("EP", 1);
        s.journal_dir = Some(dir.to_str().unwrap().to_string());
        let out = run_app(&s).unwrap();
        assert!(out.contains("journal"), "{out}");

        let inspect = journal(&JournalCmd {
            dir: dir.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(inspect.contains("EP under DUFP@10%"), "{inspect}");
        assert!(inspect.contains("complete (sealed)"), "{inspect}");
        assert!(inspect.contains("checkpoints"), "{inspect}");

        // A sealed journal has nothing to resume.
        let err = resume(&ResumeCmd {
            dir: dir.to_str().unwrap().into(),
            json: false,
        })
        .unwrap_err();
        assert!(err.contains("completed run"), "{err}");

        // And a second run must not clobber it.
        let err = run_app(&s).unwrap_err();
        assert!(err.contains("already contains segments"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspecting_a_torn_journal_changes_no_byte() {
        let dir = dufp_journal::TestDir::new("cli-torn");
        let mut s = spec("EP", 1);
        s.journal_dir = Some(dir.path().to_str().unwrap().to_string());
        s.fault_plan = Some("crash,at=7001".into());
        assert!(run_app(&s).unwrap_err().contains("crash at tick"));
        let (_, seg) = dufp_journal::segment_paths(dir.path())
            .unwrap()
            .pop()
            .unwrap();
        let mut torn = std::fs::read(&seg).unwrap();
        torn.extend_from_slice(b"torn");
        std::fs::write(&seg, torn).unwrap();
        let files = || {
            let mut all: Vec<_> = (std::fs::read_dir(dir.path()).unwrap())
                .map(|e| e.unwrap().path())
                .map(|p| (p.clone(), std::fs::read(p).unwrap()))
                .collect();
            all.sort();
            all
        };
        let before = files();
        let cmd = JournalCmd {
            dir: dir.path().to_str().unwrap().into(),
        };
        let inspect = journal(&cmd).unwrap();
        assert!(inspect.contains("torn tail dropped"), "{inspect}");
        assert!(files() == before, "inspection must not seal the tail");
    }

    #[test]
    fn journal_dir_with_repeats_is_rejected() {
        let mut s = spec("EP", 3);
        s.journal_dir = Some("/tmp/never-created".into());
        assert!(run_app(&s).unwrap_err().contains("--runs 1"));
    }

    #[test]
    fn journal_inspect_on_missing_dir_is_a_clean_error() {
        let err = journal(&JournalCmd {
            dir: "/nonexistent/journal".into(),
        })
        .unwrap_err();
        assert!(err.contains("journal"), "{err}");
        let err = resume(&ResumeCmd {
            dir: "/nonexistent/journal".into(),
            json: false,
        })
        .unwrap_err();
        assert!(err.contains("journal"), "{err}");
    }

    #[test]
    fn trace_out_with_repeats_is_rejected() {
        let mut s = spec("EP", 3);
        s.trace_out = Some("/tmp/never-written.jsonl".into());
        assert!(run_app(&s).unwrap_err().contains("--runs 1"));
    }

    #[test]
    fn trace_on_missing_file_is_a_clean_error() {
        let err = trace(&TraceCmd {
            file: "/nonexistent/x.jsonl".into(),
            summary: true,
        })
        .unwrap_err();
        assert!(err.contains("trace file"), "{err}");
    }

    #[test]
    fn sweep_runs_a_grid_file_end_to_end() {
        let dir = std::env::temp_dir().join(format!("dufp-cli-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid_path = dir.join("grid.toml");
        std::fs::write(
            &grid_path,
            "apps = [\"EP\"]\npolicies = [\"duf\", \"dufp\"]\nslowdowns_pct = [10]\nseeds = [1, 2]\n",
        )
        .unwrap();
        let out_path = dir.join("rows.jsonl");
        let out = sweep(&SweepCmd {
            grid: Some(grid_path.to_str().unwrap().into()),
            paper: false,
            jobs: Some(2),
            out: out_path.to_str().unwrap().into(),
            json: false,
            engine: None,
        })
        .unwrap();
        assert!(out.contains("4 jobs"), "{out}");
        assert!(out.contains("workers: 2 requested"), "{out}");

        let text = std::fs::read_to_string(&out_path).unwrap();
        let rows: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row["index"].as_u64().unwrap() as usize, i);
            assert!(row["exec_time_s"].as_f64().unwrap() > 0.0);
        }
        assert_eq!(rows[0]["label"].as_str().unwrap(), "DUF@10%");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_json_summary_reports_workers() {
        let dir = std::env::temp_dir().join(format!("dufp-cli-sweepjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid_path = dir.join("grid.toml");
        std::fs::write(
            &grid_path,
            "apps = [\"EP\"]\npolicies = [\"dufp\"]\nslowdowns_pct = [5]\nseeds = [1]\n",
        )
        .unwrap();
        let out_path = dir.join("rows.jsonl");
        let out = sweep(&SweepCmd {
            grid: Some(grid_path.to_str().unwrap().into()),
            paper: false,
            jobs: Some(1),
            out: out_path.to_str().unwrap().into(),
            json: true,
            engine: None,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["jobs"].as_u64(), Some(1));
        assert_eq!(v["workers_requested"].as_u64(), Some(1));
        assert!(v["elapsed_s"].as_f64().unwrap() > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_bad_grid_file_is_a_clean_error() {
        let err = sweep(&SweepCmd {
            grid: Some("/nonexistent/grid.toml".into()),
            paper: false,
            jobs: Some(1),
            out: "/tmp/never-written.jsonl".into(),
            json: false,
            engine: None,
        })
        .unwrap_err();
        assert!(err.contains("grid file"), "{err}");
    }

    #[test]
    fn platform_prints_table1() {
        let out = platform();
        assert!(out.contains("| 64 | [1.2-2.4] | 125 | 150 |"));
    }

    #[test]
    fn apps_lists_all_ten_plus_kernels() {
        let out = apps();
        for name in [
            "BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS", "STREAM", "DGEMM",
            "CHASE",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn probe_reports_something() {
        let out = probe();
        assert!(out.contains("MSR device files"));
    }
}
