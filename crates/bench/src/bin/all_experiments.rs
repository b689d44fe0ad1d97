//! Regenerates every table and figure in the paper's evaluation, then the
//! extension studies, and writes the paper-vs-measured record to
//! `EXPERIMENTS.md`.
//!
//! Usage: `all_experiments [--runs N] [--sockets N] [--seed S] [--out PATH] [--csv DIR]`
//!
//! The paper's protocol is 10 runs × 4 sockets; the default here matches.
//! Smoke-test with `--runs 2 --sockets 1`. `--runs` and `--sockets` shape
//! Figs. 1–5 only; the extension studies follow `--seed` alone. `--csv`
//! also writes the Fig. 5 frequency traces as CSV. The output depends
//! only on the arguments, never on the core count, so CI regenerates
//! `EXPERIMENTS.md` and fails if it differs from the committed file.

use dufp::{
    ratios_vs_default, run_sweep, summarize_runs, Engine, Ratios, RepeatedResult, SweepGrid,
    SweepRow,
};
use dufp_bench::cli::{exit_usage, parse_experiments, ExperimentsArgs, EXPERIMENTS_USAGE};
use dufp_bench::fig1::{run_fig1, Fig1Results};
use dufp_bench::fig2;
use dufp_bench::fig5::{run_fig5, trace_csv, trace_section};
use dufp_bench::paper::claims;
use dufp_bench::report::{fmt_pct, markdown_table};
use dufp_bench::studies;
use dufp_types::{ArchSpec, Result};
use dufp_workloads::apps;
use std::collections::HashMap;
use std::fmt::Write as _;

/// How far a DUFP run may exceed its tolerated slowdown and still count as
/// "respected": the paper's own error bars are up to 2 %, and it counts
/// sub-percent excesses at 0 % tolerance as respected.
const RESPECT_MARGIN_PCT: f64 = 0.75;

/// The paper's evaluated tolerated-slowdown grid (percent).
const SLOWDOWNS: [f64; 4] = [0.0, 5.0, 10.0, 20.0];

/// One controller at one slowdown.
struct Variant {
    slowdown_pct: f64,
    result: RepeatedResult,
    ratios: Ratios,
}

/// Everything measured for one application.
struct AppSweep {
    app: &'static str,
    default_run: RepeatedResult,
    duf: Vec<Variant>,
    dufp: Vec<Variant>,
}

/// Runs the Fig. 3/4 grid through `run_sweep` on every core: each app at
/// the default configuration on seeds `seed + i·7919`, then DUF and DUFP at
/// every slowdown on seeds `(seed ^ 0xABCD) + i·7919`. Each configuration's
/// `runs` rows are summarized with the paper's trimmed protocol.
fn sweep(runs: usize, sockets: u16, seed: u64) -> Result<Vec<AppSweep>> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows = |policies: &[&str], slowdowns_pct: &[f64], base: u64| {
        let grid = SweepGrid {
            apps: apps::NAMES.map(String::from).to_vec(),
            policies: policies.iter().map(|p| p.to_string()).collect(),
            slowdowns_pct: slowdowns_pct.to_vec(),
            seeds: (0..runs as u64)
                .map(|i| base.wrapping_add(i * 7919))
                .collect(),
            sockets,
            interval_ms: None,
            fault_plan: None,
            machine: None,
            engine: Engine::default(),
        };
        run_sweep(&grid, workers).map(|out| out.rows)
    };
    let defaults = rows(&["default"], &[0.0], seed)?;
    let variants = rows(&["duf", "dufp"], &SLOWDOWNS, seed ^ 0xABCD)?;
    let summary = |rows: &[SweepRow]| summarize_runs(rows.iter().map(SweepRow::sample));
    let per_app = runs * 2 * SLOWDOWNS.len();
    Ok(apps::NAMES
        .iter()
        .zip(defaults.chunks(runs).zip(variants.chunks(per_app)))
        .map(|(&app, (default_rows, variant_rows))| {
            let default_run = summary(default_rows);
            let variant = |rows: &[SweepRow]| {
                let result = summary(rows);
                Variant {
                    slowdown_pct: rows[0].slowdown_pct,
                    ratios: ratios_vs_default(&default_run, &result),
                    result,
                }
            };
            let (duf, dufp) = variant_rows.split_at(per_app / 2);
            AppSweep {
                app,
                default_run,
                duf: duf.chunks(runs).map(variant).collect(),
                dufp: dufp.chunks(runs).map(variant).collect(),
            }
        })
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_experiments(&args)
        .unwrap_or_else(|e| exit_usage("all_experiments", &e, EXPERIMENTS_USAGE));
    if let Err(e) = regenerate(&args) {
        eprintln!("all_experiments: {e}");
        std::process::exit(1);
    }
}

fn regenerate(args: &ExperimentsArgs) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let ExperimentsArgs {
        runs,
        sockets,
        seed,
        ..
    } = *args;
    eprintln!(
        "all_experiments: {} apps x 4 slowdowns x (DUF, DUFP) x {runs} runs on {sockets} socket(s)...",
        apps::NAMES.len(),
    );
    let sweeps = sweep(runs, sockets, seed)?;
    eprintln!("all_experiments: fig1 motivation runs...");
    let fig1 = run_fig1(sockets, seed)?;
    eprintln!("all_experiments: fig5 traces...");
    let (duf_trace, dufp_trace) = run_fig5(sockets, seed)?;

    let measured = measure_claims(
        &sweeps,
        &fig1,
        duf_trace.avg_core_ghz,
        dufp_trace.avg_core_ghz,
    );

    let mut md = String::new();
    let arch = ArchSpec::yeti();
    writeln!(md, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        md,
        "Regenerated by `cargo run --release -p dufp-bench --bin all_experiments` \
         with `--runs {}` `--sockets {}` `--seed {}` on the calibrated Skylake-SP \
         socket simulator (see DESIGN.md §2 for the substitution rationale).\n",
        runs, sockets, seed
    )
    .unwrap();
    writeln!(
        md,
        "Absolute agreement with the paper's YETI testbed is not expected — the \
 substrate is a calibrated simulator. What must hold is the *shape*: who \
         wins, in which direction, by roughly what factor, and where the \
         crossovers (energy losses at 20 %) fall.\n"
    )
    .unwrap();

    // ---- headline claims ----
    writeln!(md, "## Headline claims\n").unwrap();
    let rows: Vec<Vec<String>> = claims()
        .iter()
        .map(|c| {
            let m = measured.get(c.id).copied();
            vec![
                c.artifact.to_string(),
                c.description.to_string(),
                format!("{:.2}", c.paper),
                m.map(|v| format!("{v:.2}")).unwrap_or_else(|| "—".into()),
            ]
        })
        .collect();
    md.push_str(&markdown_table(
        &["artifact", "claim", "paper", "measured"],
        &rows,
    ));
    writeln!(
        md,
        "\nReading the table: the Fig 3/4/5 rows land close in absolute terms because they compare controller against controller on the same substrate. The Fig 1a/1b rows compare against the *power budget* and inherit the simulator's scale — the simulated CG consumes ≈0.91 of the budget at default where the real node sat ≈0.98, so every          \"% of budget\" saving shifts down by roughly that gap; the ordering (100 W saves more than 110 W, both cost time, partial capping is free) is what the motivation experiment establishes and it holds."
    )
    .unwrap();

    // ---- Table I ----
    writeln!(md, "\n## Table I — architecture characteristics\n").unwrap();
    writeln!(
        md,
        "| cores | uncore frequency (GHz) | long term (W) | short term (W) |"
    )
    .unwrap();
    writeln!(
        md,
        "|-------|------------------------|---------------|----------------|"
    )
    .unwrap();
    writeln!(md, "{}", arch.table1_row()).unwrap();

    // ---- Fig 1 ----
    writeln!(md, "\n## Fig 1 — power capping on CG (motivation)\n").unwrap();
    let rows: Vec<Vec<String>> = fig1
        .whole_run
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.time_ratio),
                format!("{:.3}", r.power_over_budget),
                format!("{:.3}", r.window_power_over_budget),
            ]
        })
        .chain(fig1.windowed.iter().map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.time_ratio),
                format!("{:.3}", r.power_over_budget),
                format!("{:.3}", r.window_power_over_budget),
            ]
        }))
        .collect();
    md.push_str(&markdown_table(
        &[
            "series",
            "time / default",
            "power / budget",
            "first-phase power / budget",
        ],
        &rows,
    ));

    // ---- Fig 2 ----
    md.push_str(&fig2::decision_section());

    // ---- Fig 3 panels + Fig 4 ----
    panel(
        &mut md,
        &sweeps,
        "Fig 3a — execution time overhead (%)",
        |v| v.ratios.overhead_pct,
    );
    panel(
        &mut md,
        &sweeps,
        "Fig 3b — package power savings (%)",
        |v| v.ratios.pkg_power_savings_pct,
    );
    panel(
        &mut md,
        &sweeps,
        "Fig 3c — package+DRAM energy savings (%)",
        |v| v.ratios.energy_savings_pct,
    );
    panel(&mut md, &sweeps, "Fig 4 — DRAM power savings (%)", |v| {
        v.ratios.dram_power_savings_pct
    });

    md.push_str(&trace_section(&duf_trace, &dufp_trace));

    // ---- measurement stability (paper §V: error bars < 2 % mostly) ----
    let mut spreads: Vec<f64> = Vec::new();
    for s_ in &sweeps {
        spreads.push(s_.default_run.exec_time.relative_spread());
        for v in s_.duf.iter().chain(s_.dufp.iter()) {
            spreads.push(v.result.exec_time.relative_spread());
        }
    }
    let over2: usize = spreads.iter().filter(|s| **s > 0.02).count();
    let worst = spreads.iter().copied().fold(0.0f64, f64::max);
    writeln!(
        md,
        "\n## Measurement stability\n\nExecution-time spread (min-max over runs, relative to the mean): {over2}/{} configurations exceed 2 %, worst {:.2} % (paper §V: \"difference is lower than 2 % for most of the configurations, while very few applications see a variation over 3 %\").",
        spreads.len(),
        worst * 100.0
    )
    .unwrap();

    // ---- respect summary ----
    let (respected, total, excess, who) = respect_stats(&sweeps);
    writeln!(
        md,
        "\n## Slowdown-respect summary (Fig 3a)\n\n\
         DUFP respects the tolerated slowdown (within a {RESPECT_MARGIN_PCT} % \
         measurement margin) in **{respected}/{total}** configurations \
         (paper: 34/40). Largest excess beyond tolerance: **{excess:.2} %** on \
         {who} (paper: 3.17 % on LAMMPS @ 20 %)."
    )
    .unwrap();

    // ---- extension studies ----
    eprintln!("all_experiments: extension studies...");
    writeln!(
        md,
        "\n## Extension studies\n\n\
         The sections below answer the questions the paper raises beyond its \
         evaluation (§III, §V-A, §V-F, §V-G, §VI, §VII). They follow `--seed` \
         alone: their runs, sockets, slowdown, budget, skew, application and \
         cap are fixed in `dufp_bench::studies`, and DUFP vs DNPC and DUFP vs \
         DUFP-F run on fixed seeds."
    )
    .unwrap();
    md.push_str(&studies::sections(seed)?);

    std::fs::write(&args.out, &md)?;
    eprintln!("all_experiments: wrote {}", args.out);
    if let Some(dir) = &args.csv {
        std::fs::create_dir_all(dir)?;
        for t in [&duf_trace, &dufp_trace] {
            let path = format!("{dir}/fig5_{}.csv", t.label.replace(['@', '%'], "_"));
            std::fs::write(&path, trace_csv(t))?;
            eprintln!("all_experiments: wrote {path}");
        }
    }
    println!("{md}");
    Ok(())
}

fn panel(md: &mut String, sweeps: &[AppSweep], title: &str, metric: impl Fn(&Variant) -> f64) {
    writeln!(md, "\n## {title}\n").unwrap();
    let header = [
        "app", "DUF@0", "DUFP@0", "DUF@5", "DUFP@5", "DUF@10", "DUFP@10", "DUF@20", "DUFP@20",
    ];
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            let mut row = vec![s.app.to_string()];
            for i in 0..4 {
                row.push(fmt_pct(metric(&s.duf[i])));
                row.push(fmt_pct(metric(&s.dufp[i])));
            }
            row
        })
        .collect();
    md.push_str(&markdown_table(&header, &rows));
}

fn respect_stats(sweeps: &[AppSweep]) -> (usize, usize, f64, String) {
    let mut respected = 0;
    let mut total = 0;
    let mut max_excess = f64::MIN;
    let mut who = String::from("-");
    for s in sweeps {
        for v in &s.dufp {
            total += 1;
            let excess = v.ratios.overhead_pct - v.slowdown_pct;
            if excess <= RESPECT_MARGIN_PCT {
                respected += 1;
            }
            if excess > max_excess {
                max_excess = excess;
                who = format!("{} @ {:.0}%", s.app, v.slowdown_pct);
            }
        }
    }
    (respected, total, max_excess.max(0.0), who)
}

fn measure_claims(
    sweeps: &[AppSweep],
    fig1: &Fig1Results,
    duf_ghz: f64,
    dufp_ghz: f64,
) -> HashMap<&'static str, f64> {
    let mut m = HashMap::new();
    let app = |name: &str| sweeps.iter().find(|s| s.app == name).expect("app swept");
    let at = |name: &str, pct: f64, dufp: bool| {
        let s = app(name);
        let list = if dufp { &s.dufp } else { &s.duf };
        list.iter()
            .find(|v| (v.slowdown_pct - pct).abs() < 1e-9)
            .expect("slowdown swept")
    };

    // Fig 1a: extra power savings (of budget) vs the UFS series; overheads.
    let ufs = &fig1.whole_run[1];
    let cap110 = &fig1.whole_run[2];
    let cap100 = &fig1.whole_run[3];
    m.insert(
        "fig1a.cg.cap110.power",
        (ufs.power_over_budget - cap110.power_over_budget) * 100.0,
    );
    m.insert(
        "fig1a.cg.cap110.overhead",
        (cap110.time_ratio - 1.0) * 100.0,
    );
    m.insert(
        "fig1a.cg.cap100.power",
        (ufs.power_over_budget - cap100.power_over_budget) * 100.0,
    );
    m.insert(
        "fig1a.cg.cap100.overhead",
        (cap100.time_ratio - 1.0) * 100.0,
    );

    // Fig 1b: first-phase power reduction (of budget).
    let base_window = fig1.whole_run[0].window_power_over_budget;
    m.insert(
        "fig1b.cg.cap110.phase_power",
        (base_window - fig1.windowed[0].window_power_over_budget) * 100.0,
    );
    m.insert(
        "fig1b.cg.cap100.phase_power",
        (base_window - fig1.windowed[1].window_power_over_budget) * 100.0,
    );
    // Fig 1c: worst total-time change under partial capping.
    m.insert(
        "fig1c.cg.partial_cap.overhead",
        fig1.windowed
            .iter()
            .map(|w| (w.time_ratio - 1.0) * 100.0)
            .fold(f64::MIN, f64::max),
    );

    // Fig 3a.
    let (respected, _, excess, _) = respect_stats(sweeps);
    m.insert("fig3a.respected", respected as f64);
    m.insert("fig3a.max_excess", excess);

    // Fig 3b.
    m.insert(
        "fig3b.ep.best",
        app("EP")
            .dufp
            .iter()
            .map(|v| v.ratios.pkg_power_savings_pct)
            .fold(f64::MIN, f64::max),
    );
    m.insert(
        "fig3b.cg.duf20",
        at("CG", 20.0, false).ratios.pkg_power_savings_pct,
    );
    m.insert(
        "fig3b.cg.dufp20",
        at("CG", 20.0, true).ratios.pkg_power_savings_pct,
    );
    m.insert(
        "fig3b.cg.dufp10",
        at("CG", 10.0, true).ratios.pkg_power_savings_pct,
    );
    m.insert(
        "fig3b.bt.duf20",
        at("BT", 20.0, false).ratios.pkg_power_savings_pct,
    );
    m.insert(
        "fig3b.bt.dufp20",
        at("BT", 20.0, true).ratios.pkg_power_savings_pct,
    );

    // Fig 3c / Fig 4.
    m.insert(
        "fig3c.cg.dufp10.energy",
        at("CG", 10.0, true).ratios.energy_savings_pct,
    );
    m.insert(
        "fig4.cg.dufp20.dram",
        at("CG", 20.0, true).ratios.dram_power_savings_pct,
    );
    m.insert(
        "fig4.ua.dufp20.dram",
        at("UA", 20.0, true).ratios.dram_power_savings_pct,
    );

    // Fig 5.
    m.insert("fig5.cg.duf10.freq", duf_ghz);
    m.insert("fig5.cg.dufp10.freq", dufp_ghz);
    m
}
