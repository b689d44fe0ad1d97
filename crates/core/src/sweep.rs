//! The parallel batched sweep engine.
//!
//! The paper's evaluation (Figs. 5–9) is a grid of (application ×
//! policy × tolerated slowdown × seed) experiments. [`SweepGrid`] describes
//! such a grid declaratively, [`SweepGrid::expand`] turns it into
//! independent [`SweepJob`]s in a fixed *grid order*, and [`run_sweep`]
//! executes them on a work-stealing pool, merging results back into grid
//! order regardless of how the scheduler interleaved them.
//!
//! ## Determinism contract
//!
//! The output of a sweep is a pure function of the grid: every job's RNG
//! streams derive from its grid coordinates (its `seed` dimension value,
//! split per socket inside the simulator), never from scheduling, thread
//! identity or wall-clock time; rows are emitted in expansion order
//! (application-major, then policy, slowdown, seed). `run_sweep` with
//! `jobs = N` therefore serializes byte-identically to `jobs = 1` — the
//! property the serial-equivalence suite pins down.
//!
//! ## Grid files
//!
//! Grids are flat `key = value` files in the suite's TOML subset
//! ([`dufp_types::toml`]), parsed by [`parse_grid`] — see the README's
//! "Running paper-scale sweeps" section for an example.

use crate::runner::{run_once, ControllerKind, Engine, ExperimentSpec};
use dufp_msr::FaultPlan;
use dufp_sim::SimConfig;
use dufp_types::toml::{self, Line};
use dufp_types::{Error, Ratio, Result, Watts};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Mutex;

/// Declarative description of a sweep: the cross product of every
/// dimension, expanded in field order (apps outermost, seeds innermost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Applications: modeled names (`CG`) or workload-spec paths (`x.json`).
    pub apps: Vec<String>,
    /// Policies: `default`, `duf`, `dufp`, `dufpf`, `dnpc` or `cap:<W>`.
    pub policies: Vec<String>,
    /// Tolerated slowdowns in percent, applied to every slowdown-driven
    /// policy (ignored by `default` and `cap:<W>`).
    pub slowdowns_pct: Vec<f64>,
    /// Seeds; each seeds one run's RNG streams. Keeping the same seed
    /// across policies gives the paper's paired-comparison protocol.
    pub seeds: Vec<u64>,
    /// Sockets simulated per job.
    pub sockets: u16,
    /// Monitoring-interval override in milliseconds (`None` = 200 ms).
    pub interval_ms: Option<u64>,
    /// Optional fault plan (inline DSL) armed in every job.
    pub fault_plan: Option<String>,
    /// Optional machine description: a path to a `SimConfig` JSON file
    /// (`dufp machine-template` emits one). `None` = the paper's YETI node.
    pub machine: Option<String>,
    /// Stepping engine for every job: the fast path (default) or the
    /// per-tick oracle. Either way the rows are byte-identical — `tick`
    /// exists for differential runs and benchmarking the speedup.
    #[serde(default)]
    pub engine: Engine,
}

impl SweepGrid {
    /// The paper-scale evaluation grid: the four dynamic policies at five
    /// tolerated slowdowns, eight seeds each, on CG (the application that
    /// exercises every controller branch), one socket per job.
    pub fn paper() -> Self {
        SweepGrid {
            apps: vec!["CG".into()],
            policies: vec!["duf".into(), "dufp".into(), "dufpf".into(), "dnpc".into()],
            slowdowns_pct: vec![0.0, 5.0, 10.0, 15.0, 20.0],
            seeds: (1..=8).collect(),
            sockets: 1,
            interval_ms: None,
            fault_plan: None,
            machine: None,
            engine: Engine::default(),
        }
    }

    /// Rejects empty dimensions, out-of-range slowdowns, unknown policies
    /// and unparsable fault plans with a typed error naming the field.
    pub fn validate(&self) -> Result<()> {
        if self.apps.is_empty() {
            return Err(Error::invalid("apps", "at least one application"));
        }
        if self.policies.is_empty() {
            return Err(Error::invalid("policies", "at least one policy"));
        }
        if self.slowdowns_pct.is_empty() {
            return Err(Error::invalid("slowdowns_pct", "at least one slowdown"));
        }
        if self.seeds.is_empty() {
            return Err(Error::invalid("seeds", "at least one seed"));
        }
        if self.sockets == 0 {
            return Err(Error::invalid("sockets", "need at least one socket"));
        }
        for s in &self.slowdowns_pct {
            if !s.is_finite() || !(0.0..100.0).contains(s) {
                return Err(Error::invalid(
                    "slowdowns_pct",
                    format!("{s} outside [0, 100)"),
                ));
            }
        }
        for p in &self.policies {
            policy_kind(p, 0.0)?;
        }
        if let Some(plan) = &self.fault_plan {
            FaultPlan::parse(plan).map_err(|e| Error::invalid("fault_plan", e.to_string()))?;
        }
        Ok(())
    }

    /// Number of jobs the grid expands to.
    pub fn len(&self) -> usize {
        self.apps.len() * self.policies.len() * self.slowdowns_pct.len() * self.seeds.len()
    }

    /// Whether the grid expands to no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into jobs in grid order: application-major, then
    /// policy, slowdown, seed. Job indices are their output positions.
    pub fn expand(&self) -> Result<Vec<SweepJob>> {
        self.validate()?;
        let base_sim = match &self.machine {
            None => SimConfig::yeti(0),
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(Error::Io)?;
                serde_json::from_str(&text)
                    .map_err(|e| Error::invalid("machine", format!("{path}: {e}")))?
            }
        };
        let fault_plan = match &self.fault_plan {
            Some(plan) => Some(
                FaultPlan::parse(plan).map_err(|e| Error::invalid("fault_plan", e.to_string()))?,
            ),
            None => None,
        };
        let mut sim = base_sim;
        sim.arch.sockets = self.sockets;
        sim.validate()?;

        let mut jobs = Vec::with_capacity(self.len());
        for app in &self.apps {
            for policy in &self.policies {
                for &slowdown_pct in &self.slowdowns_pct {
                    for &seed in &self.seeds {
                        let controller = policy_kind(policy, slowdown_pct)?;
                        jobs.push(SweepJob {
                            index: jobs.len(),
                            app: app.clone(),
                            policy: policy.clone(),
                            slowdown_pct,
                            seed,
                            spec: ExperimentSpec {
                                sim: sim.clone(),
                                app: app.clone(),
                                controller,
                                trace: None,
                                interval_ms: self.interval_ms,
                                telemetry: false,
                                fault_plan: fault_plan.clone(),
                                engine: self.engine,
                            },
                        });
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Maps a controller name (`default`, `duf`, `dufp`, `dufpf`/`dufp-f`,
/// `dnpc` or `cap:<W>`) plus a tolerated slowdown to a [`ControllerKind`]:
/// the one grammar for sweep-grid `policies` and `dufp run --controller`.
pub fn policy_kind(policy: &str, slowdown_pct: f64) -> Result<ControllerKind> {
    let slowdown = Ratio::from_percent(slowdown_pct);
    match policy {
        "default" => Ok(ControllerKind::Default),
        "duf" => Ok(ControllerKind::Duf { slowdown }),
        "dufp" => Ok(ControllerKind::Dufp { slowdown }),
        "dufpf" | "dufp-f" => Ok(ControllerKind::DufpF { slowdown }),
        "dnpc" => Ok(ControllerKind::Dnpc { slowdown }),
        other => match other.strip_prefix("cap:") {
            Some(w) => {
                let watts: f64 = w
                    .parse()
                    .map_err(|_| Error::invalid("policies", format!("bad cap value {w}")))?;
                if !(1.0..=1000.0).contains(&watts) {
                    return Err(Error::invalid(
                        "policies",
                        format!("cap {watts} W outside a sane range"),
                    ));
                }
                Ok(ControllerKind::StaticCap { cap: Watts(watts) })
            }
            None => Err(Error::invalid(
                "policies",
                format!("unknown controller {other} (default|duf|dufp|dufpf|dnpc|cap:<W>)"),
            )),
        },
    }
}

/// One expanded grid point: the coordinates plus the ready-to-run spec.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Output position (grid order).
    pub index: usize,
    /// Application dimension value.
    pub app: String,
    /// Policy dimension value (CLI syntax).
    pub policy: String,
    /// Slowdown dimension value, percent.
    pub slowdown_pct: f64,
    /// Seed dimension value; the job's RNG streams derive from it alone.
    pub seed: u64,
    /// The fully-specified experiment.
    pub spec: ExperimentSpec,
}

/// One result row: the job's grid coordinates plus its measurements.
/// Serialized as one JSON line; a sweep's JSONL output is these rows in
/// grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Output position (grid order).
    pub index: usize,
    /// Application.
    pub app: String,
    /// Policy (CLI syntax, e.g. `dufp`).
    pub policy: String,
    /// Controller label as in the paper's legends, e.g. `DUFP@10%`.
    pub label: String,
    /// Tolerated slowdown, percent.
    pub slowdown_pct: f64,
    /// Seed.
    pub seed: u64,
    /// Execution time, seconds.
    pub exec_time_s: f64,
    /// Node-average package power, watts.
    pub avg_pkg_power_w: f64,
    /// Node-average DRAM power, watts.
    pub avg_dram_power_w: f64,
    /// Package energy, joules.
    pub pkg_energy_j: f64,
    /// DRAM energy, joules.
    pub dram_energy_j: f64,
}

impl SweepRow {
    /// The row's measurements in [`summarize_runs`](crate::summarize_runs)
    /// order: execution time, package power, DRAM power, package + DRAM
    /// energy.
    pub fn sample(&self) -> [f64; 4] {
        [
            self.exec_time_s,
            self.avg_pkg_power_w,
            self.avg_dram_power_w,
            self.pkg_energy_j + self.dram_energy_j,
        ]
    }
}

/// Everything a finished sweep reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutput {
    /// Result rows in grid order.
    pub rows: Vec<SweepRow>,
    /// Worker count the pool was built with.
    pub workers_requested: usize,
    /// Distinct OS threads that actually executed jobs.
    pub workers_observed: usize,
    /// Wall-clock time of the parallel section, seconds.
    pub elapsed_s: f64,
}

impl SweepOutput {
    /// Jobs completed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.rows.len() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Runs every job of `grid` on a pool of `jobs` workers and returns the
/// rows in grid order. `jobs = 1` is the serial reference; any `jobs`
/// produces byte-identical [`dufp_telemetry::write_jsonl`] output (see
/// the module-level determinism contract).
pub fn run_sweep(grid: &SweepGrid, jobs: usize) -> Result<SweepOutput> {
    if jobs == 0 {
        return Err(Error::invalid("jobs", "need at least one worker"));
    }
    let expanded = grid.expand()?;
    let total = expanded.len();
    let observed: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    let started = std::time::Instant::now();
    let rows = on_pool(jobs, expanded, |job| {
        observed
            .lock()
            .expect("thread-id set poisoned")
            .insert(std::thread::current().id());
        let r = run_once(&job.spec, job.seed)?;
        Ok(SweepRow {
            index: job.index,
            app: job.app,
            label: job.spec.controller.label(),
            policy: job.policy,
            slowdown_pct: job.slowdown_pct,
            seed: job.seed,
            exec_time_s: r.exec_time.value(),
            avg_pkg_power_w: r.avg_pkg_power.value(),
            avg_dram_power_w: r.avg_dram_power.value(),
            pkg_energy_j: r.pkg_energy.value(),
            dram_energy_j: r.dram_energy.value(),
        })
    })?;
    let elapsed_s = started.elapsed().as_secs_f64();
    // The merge-order guard: whatever the scheduling, output is grid order.
    for (i, row) in rows.iter().enumerate() {
        if row.index != i {
            return Err(Error::Precondition(format!(
                "sweep merge broke grid order: row {i} carries index {}",
                row.index
            )));
        }
    }
    debug_assert_eq!(rows.len(), total);
    let workers_observed = observed.lock().expect("thread-id set poisoned").len();
    Ok(SweepOutput {
        rows,
        workers_requested: jobs,
        workers_observed,
        elapsed_s,
    })
}

/// Runs `work` over `items` on a pool of `width` workers, returning the
/// outputs in input order, or the first error in input order.
fn on_pool<T: Send, U: Send>(
    width: usize,
    items: Vec<T>,
    work: impl Fn(T) -> Result<U> + Sync,
) -> Result<Vec<U>> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .map_err(|e| Error::Precondition(format!("thread pool: {e}")))?;
    pool.install(|| items.into_par_iter().map(work).collect())
}

/// Parses a grid file written in the supported TOML subset
/// ([`dufp_types::toml`]): flat `key = value` lines, no sections. Unknown
/// keys, malformed lines and invalid values are rejected with the line
/// number and key (an invalid value the file left unset has no line).
pub fn parse_grid(text: &str) -> Result<SweepGrid> {
    let mut grid = SweepGrid {
        apps: Vec::new(),
        policies: Vec::new(),
        slowdowns_pct: Vec::new(),
        seeds: Vec::new(),
        sockets: 1,
        interval_ms: None,
        fault_plan: None,
        machine: None,
        engine: Engine::default(),
    };
    toml::read(text, "grid", |line| {
        let Line::Pair { key, value } = line else {
            return Err("tables are not supported; use flat key = value".into());
        };
        match key {
            "apps" => grid.apps = toml::string_array(value)?,
            "policies" => grid.policies = toml::string_array(value)?,
            "slowdowns_pct" => grid.slowdowns_pct = toml::number_array(value)?,
            "seeds" => grid.seeds = toml::integer_array(value)?,
            "sockets" => grid.sockets = toml::integer(value)?,
            "interval_ms" => grid.interval_ms = Some(toml::integer(value)?),
            "fault_plan" => grid.fault_plan = Some(toml::string(value)?),
            "machine" => grid.machine = Some(toml::string(value)?),
            "engine" => {
                grid.engine = Engine::parse(&toml::string(value)?).map_err(|e| e.to_string())?;
            }
            _ => return Err("unknown key".into()),
        }
        Ok(())
    })?;
    grid.validate().map_err(|e| match e {
        Error::InvalidValue { what, detail } => match toml::line_of(text, what) {
            Some(n) => Error::invalid("grid", format!("line {n}: {what}: {detail}")),
            None => Error::InvalidValue { what, detail },
        },
        e => e,
    })?;
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_telemetry::write_jsonl;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            apps: vec!["EP".into()],
            policies: vec!["dufp".into(), "duf".into()],
            slowdowns_pct: vec![10.0],
            seeds: vec![1, 2],
            sockets: 1,
            interval_ms: None,
            fault_plan: None,
            machine: None,
            engine: Engine::default(),
        }
    }

    #[test]
    fn expansion_is_grid_ordered_and_complete() {
        let jobs = tiny_grid().expand().unwrap();
        assert_eq!(jobs.len(), 4);
        let coords: Vec<(String, u64)> = jobs.iter().map(|j| (j.policy.clone(), j.seed)).collect();
        assert_eq!(
            coords,
            vec![
                ("dufp".into(), 1),
                ("dufp".into(), 2),
                ("duf".into(), 1),
                ("duf".into(), 2)
            ]
        );
        assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
    }

    #[test]
    fn paper_grid_has_the_acceptance_shape() {
        let g = SweepGrid::paper();
        assert_eq!(g.policies.len(), 4);
        assert_eq!(g.slowdowns_pct.len(), 5);
        assert_eq!(g.seeds.len(), 8);
        assert_eq!(g.len(), 160);
        g.validate().unwrap();
    }

    #[test]
    fn bad_grids_are_rejected_with_the_offending_field() {
        let check = |mutate: &dyn Fn(&mut SweepGrid), field: &str| {
            let mut g = tiny_grid();
            mutate(&mut g);
            let err = g.validate().unwrap_err().to_string();
            assert!(err.contains(field), "expected {field} in: {err}");
        };
        check(&|g| g.apps.clear(), "apps");
        check(&|g| g.policies.clear(), "policies");
        check(&|g| g.policies = vec!["magic".into()], "policies");
        check(&|g| g.slowdowns_pct = vec![150.0], "slowdowns_pct");
        check(&|g| g.seeds.clear(), "seeds");
        check(&|g| g.sockets = 0, "sockets");
        check(&|g| g.fault_plan = Some("seed=nope".into()), "fault_plan");
    }

    #[test]
    fn policy_kind_matches_cli_names() {
        assert_eq!(
            policy_kind("dufp", 10.0).unwrap(),
            ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0)
            }
        );
        assert_eq!(
            policy_kind("default", 5.0).unwrap(),
            ControllerKind::Default
        );
        assert_eq!(
            policy_kind("cap:100", 0.0).unwrap(),
            ControllerKind::StaticCap { cap: Watts(100.0) }
        );
        assert!(policy_kind("cap:0", 0.0).is_err());
        assert!(policy_kind("magic", 0.0).is_err());
    }

    #[test]
    fn toml_subset_round_trips_a_full_grid() {
        let g = parse_grid(
            r#"
            # paper-style grid
            apps = ["CG", "EP"]   # two applications
            policies = ["duf", "dufp", "cap:100"]
            slowdowns_pct = [0, 5.0, 10]
            seeds = [1, 2, 3]
            sockets = 2
            interval_ms = 200
            fault_plan = "seed=7;write,p=0.001"
            "#,
        )
        .unwrap();
        assert_eq!(g.apps, vec!["CG", "EP"]);
        assert_eq!(g.policies.len(), 3);
        assert_eq!(g.slowdowns_pct, vec![0.0, 5.0, 10.0]);
        assert_eq!(g.seeds, vec![1, 2, 3]);
        assert_eq!(g.sockets, 2);
        assert_eq!(g.interval_ms, Some(200));
        assert_eq!(g.fault_plan.as_deref(), Some("seed=7;write,p=0.001"));
        assert_eq!(g.len(), 54);
    }

    #[test]
    fn toml_subset_rejects_malformed_input_with_line_numbers() {
        for (text, want) in [
            ("apps = [\"CG\"]\nnot a line", "line 2"),
            ("frobnicate = 3", "unknown key"),
            ("[grid]\napps = [\"CG\"]", "tables are not supported"),
            ("apps = \"CG\"", "array"),
            ("seeds = [1.5]", "integer"),
            ("apps = [CG]", "double-quoted"),
            ("sockets = many", "line 1: sockets"),
            ("interval_ms = 200.9", "line 1: interval_ms"),
            ("seeds = [18446744073709551616]", "line 1: seeds"),
            ("seeds = [1.0]", "line 1: seeds"),
            ("seeds = [1e3]", "line 1: seeds"),
        ] {
            let err = parse_grid(text).unwrap_err().to_string();
            assert!(err.contains(want), "{text:?} → {err}");
        }
        // 2^53 + 1 has no f64 twin: seeds must parse as integers, exactly.
        let exact = "apps = [\"EP\"]\npolicies = [\"dufp\"]\nslowdowns_pct = [5]\nseeds = [9007199254740993]";
        let g = parse_grid(exact).unwrap();
        assert_eq!(g.seeds, vec![9_007_199_254_740_993]);
    }

    #[test]
    fn invalid_values_name_the_line_that_set_them() {
        let base = "apps = [\"EP\"]\npolicies = [\"dufp\"]\nslowdowns_pct = [5]\nseeds = [1]\n";
        let err = parse_grid(&format!("{base}sockets = 0\n")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid value for grid: line 5: sockets: need at least one socket"
        );
        let err = parse_grid(&base.replace("[5]", "[5, 100]")).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 3: slowdowns_pct: 100 outside"),
            "{err}"
        );
        // A value the file never set has no line to name.
        let err = parse_grid("apps = [\"EP\"]\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid value for policies: at least one policy"
        );
    }

    #[test]
    fn comments_are_stripped_outside_strings_only() {
        let g = parse_grid(
            "apps = [\"EP\"]\npolicies = [\"dufp\"]\nslowdowns_pct = [5]\nseeds = [1]\nfault_plan = \"seed=1;write,p=0.5\" # a plan\n",
        )
        .unwrap();
        assert_eq!(g.fault_plan.as_deref(), Some("seed=1;write,p=0.5"));
    }

    #[test]
    fn sweep_runs_and_merges_in_grid_order() {
        let out = run_sweep(&tiny_grid(), 2).unwrap();
        assert_eq!(out.rows.len(), 4);
        assert!(out.rows.iter().enumerate().all(|(i, r)| r.index == i));
        assert_eq!(out.workers_requested, 2);
        assert!(out.rows.iter().all(|r| r.exec_time_s > 0.0));
        assert!(out.rows.iter().all(|r| r.avg_pkg_power_w > 0.0));
        assert_eq!(out.rows[0].label, "DUFP@10%");
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(run_sweep(&tiny_grid(), 0).is_err());
    }

    #[test]
    fn unknown_app_fails_the_whole_sweep_cleanly() {
        let mut g = tiny_grid();
        g.apps = vec!["NOT_AN_APP".into()];
        assert!(run_sweep(&g, 2).is_err());
    }

    #[test]
    fn jobs_spread_across_observed_worker_threads() {
        // What the sweep decides is the pool its jobs run on: --jobs 2
        // must run every job under a 2-wide pool, read inside the job.
        // That such a pool spreads work over 2 OS threads, even on one
        // core, is the rayon shim's own rendezvous test; how many threads
        // a run happens to use depends on job length and scheduling.
        let widths = on_pool(2, vec![(); 4], |()| Ok(rayon::current_num_threads())).unwrap();
        assert_eq!(
            widths,
            vec![2; 4],
            "jobs ran under a pool of the wrong width"
        );
        assert_eq!(run_sweep(&tiny_grid(), 2).unwrap().workers_requested, 2);
    }

    #[test]
    fn jsonl_bytes_are_identical_for_serial_and_parallel_runs() {
        let g = tiny_grid();
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        write_jsonl(&mut serial, &run_sweep(&g, 1).unwrap().rows).unwrap();
        write_jsonl(&mut parallel, &run_sweep(&g, 4).unwrap().rows).unwrap();
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel);
    }

    /// The paper pipeline summarizes `run_sweep` rows; on the same seeds
    /// that must equal `run_repeated` on a directly built spec, bit for bit.
    #[test]
    fn sweep_rows_summarize_exactly_like_run_repeated() {
        let (runs, base) = (4u64, 3u64);
        let slowdown = Ratio::from_percent(10.0);
        for (policy, slowdown_pct, controller) in [
            ("default", 0.0, ControllerKind::Default),
            ("dufp", 10.0, ControllerKind::Dufp { slowdown }),
        ] {
            let grid = SweepGrid {
                apps: vec!["EP".into()],
                policies: vec![policy.into()],
                slowdowns_pct: vec![slowdown_pct],
                seeds: (0..runs).map(|i| base + i * 7919).collect(),
                ..tiny_grid()
            };
            let rows = run_sweep(&grid, 2).unwrap().rows;
            let spec = ExperimentSpec {
                sim: SimConfig::yeti_single_socket(base),
                app: "EP".into(),
                controller,
                trace: None,
                interval_ms: None,
                telemetry: false,
                fault_plan: None,
                engine: Engine::default(),
            };
            let direct = crate::run_repeated(&spec, runs as usize, base).unwrap();
            let swept = crate::summarize_runs(rows.iter().map(SweepRow::sample));
            assert_eq!(swept, direct, "{policy}");
        }
    }
}
