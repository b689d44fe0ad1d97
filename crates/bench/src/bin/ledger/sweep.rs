//! The sweep workloads (`paper-node`, `fast-control`): the paper's
//! evaluation grid through `run_sweep`, scored against `default` with the
//! same job seed, then spot-checked against the tick oracle.

use crate::gen::{self, Rng, SweepShape};
use crate::stats::{mean, Report};
use crate::timed::{report_section, timed_setups, Timed};
use dufp::{parse_grid, run_once, run_sweep, trimmed, Engine, SweepGrid, SweepJob, SweepRow};
use dufp_workloads::{cache, MaterializeCtx};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Overhead margin the paper allows for measurement noise when judging
/// whether DUFP respected its tolerated slowdown (Fig. 3a, §V).
pub const RESPECT_MARGIN_PP: f64 = 0.75;

/// The paper's headline rows this workload can reproduce: Fig. 3b package
/// power, Fig. 3c energy and Fig. 4 DRAM power. `None` as the slowdown
/// means the best value over the tolerated slowdowns.
const HEADLINE: [(&str, &str, &str, Option<u32>, Field); 9] = [
    ("fig3b.ep.best", "EP", "dufp", None, Field::PkgPower),
    ("fig3b.cg.duf20", "CG", "duf", Some(20), Field::PkgPower),
    ("fig3b.cg.dufp20", "CG", "dufp", Some(20), Field::PkgPower),
    ("fig3b.cg.dufp10", "CG", "dufp", Some(10), Field::PkgPower),
    ("fig3b.bt.duf20", "BT", "duf", Some(20), Field::PkgPower),
    ("fig3b.bt.dufp20", "BT", "dufp", Some(20), Field::PkgPower),
    (
        "fig3c.cg.dufp10.energy",
        "CG",
        "dufp",
        Some(10),
        Field::Energy,
    ),
    (
        "fig4.cg.dufp20.dram",
        "CG",
        "dufp",
        Some(20),
        Field::DramPower,
    ),
    (
        "fig4.ua.dufp20.dram",
        "UA",
        "dufp",
        Some(20),
        Field::DramPower,
    ),
];

#[derive(Debug, Clone, Copy)]
enum Field {
    PkgPower,
    DramPower,
    Energy,
}

impl Field {
    fn of(self, r: &SweepRow) -> f64 {
        match self {
            Field::PkgPower => r.avg_pkg_power_w,
            Field::DramPower => r.avg_dram_power_w,
            Field::Energy => r.pkg_energy_j + r.dram_energy_j,
        }
    }
}

/// One job seed's share of both grids — the `default` baseline and the
/// dynamic policies — expanded: the unit the timed section runs and times.
pub struct Slice {
    pub grids: [SweepGrid; 2],
    pub jobs: [Vec<SweepJob>; 2],
}

/// Generates the grid files, parses them, expands one slice per job seed,
/// and materializes every application's phase table from a cold cache.
pub fn setup(seed: u64, shape: &SweepShape) -> Result<Vec<Slice>, String> {
    let inputs = gen::sweep_inputs(seed, shape);
    let baseline = parse_grid(&inputs.baseline_toml).map_err(|e| e.to_string())?;
    let policies = parse_grid(&inputs.policies_toml).map_err(|e| e.to_string())?;
    let slices = baseline
        .seeds
        .iter()
        .map(|&s| {
            let grids = [&baseline, &policies].map(|g| SweepGrid {
                seeds: vec![s],
                ..g.clone()
            });
            let jobs = [grids[0].expand(), grids[1].expand()];
            let [b, p] = jobs;
            Ok(Slice {
                jobs: [b.map_err(|e| e.to_string())?, p.map_err(|e| e.to_string())?],
                grids,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    cache::clear();
    let ctx = MaterializeCtx::from_arch(&slices[0].jobs[0][0].spec.sim.arch);
    for app in shape.apps {
        cache::shared_by_name(app, &ctx).map_err(|e| e.to_string())?;
    }
    Ok(slices)
}

/// Runs one sweep workload end to end, with its output checks.
pub fn run(
    seed: u64,
    shape: &SweepShape,
    seconds: f64,
    workers: usize,
    setup_reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    let slices = timed_setups(setup_reps, report, || setup(seed, shape))?;

    // Past the last slice the loop starts again from the first; the rows
    // of a repeat are the same as the first pass's, so only those are kept.
    let mut rows = Vec::with_capacity(slices.len());
    let mut timed = Timed::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for slice in slices.iter().cycle() {
        if !timed.before(deadline) {
            break;
        }
        let r = timed.sample(|| {
            let [b, p] = [&slice.grids[0], &slice.grids[1]].map(|g| run_sweep(g, workers));
            let r = [
                b.map_err(|e| e.to_string())?.rows,
                p.map_err(|e| e.to_string())?.rows,
            ];
            Ok(((r[0].len() + r[1].len()) as u64, r))
        })?;
        if rows.len() < slices.len() {
            rows.push(r);
        }
    }
    report_section(&timed, report);

    let baseline: Vec<SweepRow> = rows.iter().flat_map(|r| r[0].iter().cloned()).collect();
    let policies: Vec<SweepRow> = rows.iter().flat_map(|r| r[1].iter().cloned()).collect();
    let scored = score(&baseline, &policies);
    report.detail("dufp.pkg_power_saved_pct", scored.power_saved_pct, "%");
    report.detail("dufp.energy_saved_pct", scored.energy_saved_pct, "%");
    report.detail("dufp.slowdown_respected_pct", scored.respected_pct, "%");
    report.context("dufp_runs", scored.dufp_runs);
    // The headline rows were measured under the paper's protocol only.
    if shape.sockets == 4 && shape.interval_ms.is_none() {
        let err = paper_abs_err_pp(&baseline, &policies);
        report.detail("paper_abs_err_pp", err, "pp");
    }

    check_against_tick_oracle(seed, &slices[..rows.len()], &rows, workers, report)
}

/// DUFP against `default` with the same application and job seed.
pub struct Scored {
    pub power_saved_pct: f64,
    pub energy_saved_pct: f64,
    pub respected_pct: f64,
    pub dufp_runs: usize,
}

pub fn score(baseline: &[SweepRow], policies: &[SweepRow]) -> Scored {
    let defaults: HashMap<(&str, u64), &SweepRow> = baseline
        .iter()
        .map(|r| ((r.app.as_str(), r.seed), r))
        .collect();
    let (mut power, mut energy, mut respected) = (Vec::new(), Vec::new(), 0usize);
    for r in policies.iter().filter(|r| r.policy == "dufp") {
        let d = defaults[&(r.app.as_str(), r.seed)];
        let overhead_pct = (r.exec_time_s / d.exec_time_s - 1.0) * 100.0;
        if overhead_pct <= r.slowdown_pct + RESPECT_MARGIN_PP {
            respected += 1;
        }
        power.push((1.0 - r.avg_pkg_power_w / d.avg_pkg_power_w) * 100.0);
        let total = |x: &SweepRow| x.pkg_energy_j + x.dram_energy_j;
        energy.push((1.0 - total(r) / total(d)) * 100.0);
    }
    Scored {
        power_saved_pct: mean(&power),
        energy_saved_pct: mean(&energy),
        respected_pct: 100.0 * respected as f64 / power.len().max(1) as f64,
        dufp_runs: power.len(),
    }
}

/// Mean |measured − paper| over the headline rows, in percentage points,
/// with the paper's protocol: trimmed means over the seeds of each
/// configuration, compared against `default` on the same seeds. The
/// simulator was calibrated on these numbers, so this is an in-sample
/// error.
pub fn paper_abs_err_pp(baseline: &[SweepRow], policies: &[SweepRow]) -> f64 {
    let claims = dufp_bench::paper::claims();
    let trimmed_mean = |rows: &mut dyn Iterator<Item = &SweepRow>, f: Field| {
        let values: Vec<f64> = rows.map(|r| f.of(r)).collect();
        if values.is_empty() {
            f64::NAN
        } else {
            trimmed(&values).mean
        }
    };
    let mut errors = Vec::new();
    for (id, app, policy, slowdown, field) in HEADLINE {
        let paper = claims
            .iter()
            .find(|c| c.id == id)
            .map(|c| c.paper)
            .unwrap_or(f64::NAN);
        let base = trimmed_mean(&mut baseline.iter().filter(|r| r.app == app), field);
        let saving = |sd: u32| {
            let v = trimmed_mean(
                &mut policies.iter().filter(|r| {
                    r.app == app && r.policy == policy && r.slowdown_pct == f64::from(sd)
                }),
                field,
            );
            (1.0 - v / base) * 100.0
        };
        let measured = match slowdown {
            Some(sd) => saving(sd),
            None => gen::SLOWDOWNS_PCT
                .iter()
                .map(|&sd| saving(sd))
                .fold(f64::MIN, f64::max),
        };
        if measured.is_finite() && paper.is_finite() {
            errors.push((measured - paper).abs());
        }
    }
    mean(&errors)
}

/// Where a job sits: `(slice, grid, job index)`.
type JobAt = (usize, usize, usize);

/// A seeded 1-in-16 sample of the jobs, at least one per grid × app ×
/// policy.
pub fn tick_sample(seed: u64, slices: &[Slice]) -> Vec<JobAt> {
    let mut rng = Rng::new(seed, "tick-sample");
    let mut groups: BTreeMap<(usize, &str, &str), Vec<JobAt>> = BTreeMap::new();
    for (k, slice) in slices.iter().enumerate() {
        for (g, jobs) in slice.jobs.iter().enumerate() {
            for j in jobs {
                let key = (g, j.app.as_str(), j.policy.as_str());
                groups.entry(key).or_default().push((k, g, j.index));
            }
        }
    }
    let mut picked = Vec::new();
    for mut members in groups.into_values() {
        for k in 0..members.len().div_ceil(16) {
            let pick = k + rng.below(members.len() - k);
            members.swap(k, pick);
            picked.push(members[k]);
        }
    }
    picked.sort_unstable();
    picked
}

/// The row `run_sweep` would emit for `job`, run under the tick oracle.
fn tick_row(job: &SweepJob) -> Result<SweepRow, String> {
    let mut spec = job.spec.clone();
    spec.engine = Engine::Tick;
    let r = run_once(&spec, job.seed).map_err(|e| e.to_string())?;
    Ok(SweepRow {
        index: job.index,
        app: job.app.clone(),
        policy: job.policy.clone(),
        label: spec.controller.label(),
        slowdown_pct: job.slowdown_pct,
        seed: job.seed,
        exec_time_s: r.exec_time.value(),
        avg_pkg_power_w: r.avg_pkg_power.value(),
        avg_dram_power_w: r.avg_dram_power.value(),
        pkg_energy_j: r.pkg_energy.value(),
        dram_energy_j: r.dram_energy.value(),
    })
}

/// Re-runs the sample under the per-tick oracle and requires each row's
/// JSON to be byte-identical to the timed sweep's.
fn check_against_tick_oracle(
    seed: u64,
    slices: &[Slice],
    rows: &[[Vec<SweepRow>; 2]],
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let sample = tick_sample(seed, slices);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    let verdicts: Vec<Result<(), String>> = pool.install(|| {
        sample
            .into_par_iter()
            .map(|(k, g, i)| {
                let oracle = tick_row(&slices[k].jobs[g][i])?;
                let want = serde_json::to_string(&rows[k][g][i]).map_err(|e| e.to_string())?;
                let got = serde_json::to_string(&oracle).map_err(|e| e.to_string())?;
                if got == want {
                    Ok(())
                } else {
                    Err(format!("tick oracle diverges: {got} vs {want}"))
                }
            })
            .collect()
    });
    report.context("tick_checked_jobs", verdicts.len());
    for v in verdicts {
        report.check(v.is_ok(), || v.err().unwrap_or_default());
    }
    Ok(())
}
