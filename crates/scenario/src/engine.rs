//! The scenario engine: a virtual-clock fleet run producing a scorecard.
//!
//! One run wires three existing layers together without any transport:
//!
//! * each node is a [`dufp_sim::SharedSocketSim`] built from its machine
//!   class, co-scheduling its tenants' weight-scaled phase tables,
//! * the arrival model ([`crate::LoadProfile`]) modulates every node's
//!   offered load over virtual time,
//! * [`dufp_net::FleetSim`] runs the fleet as a [`dufp_net::FleetModel`]
//!   and plays coordinator on the same virtual clock with a real
//!   [`dufp_net::FleetCore`]: nodes report demand each allocator epoch,
//!   the core runs its allocator policy ([`dufp_net::PolicyKind`])
//!   against the global budget and its grants move the nodes' RAPL
//!   ceilings.
//!
//! Everything is a pure function of `(spec, seed, policy)`: the scorecard
//! JSON — and the decision trace — are byte-identical across reruns and
//! across `--jobs 1` vs `--jobs N`.

use crate::arrival::{intensity_band, LoadProfile};
use crate::spec::ScenarioSpec;
use dufp_cluster::allocator::NodeObservation;
use dufp_net::{fleet_event, FleetModel, FleetPlan, FleetSim, FleetStats, NodeHello, PolicyKind};
use dufp_sim::SharedSocketSim;
use dufp_telemetry::{DecisionEvent, Gauge, Reason, Telemetry};
use dufp_types::{Error, Result, Seconds, Watts};
use dufp_workloads::cache;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Physics sub-steps per control interval (finer than the 200 ms control
/// cadence so cap-enforcer dynamics stay smooth).
const SUBSTEPS: u32 = 5;

/// Which fleet budget regime a scenario run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyChoice {
    /// No coordinator: every node runs at PL1 (the comparison baseline).
    Uncapped,
    /// [`PolicyKind::StaticSplit`] under the global budget.
    StaticSplit,
    /// [`PolicyKind::DemandBased`] under the global budget.
    DemandBased,
}

impl PolicyChoice {
    /// Scorecard label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyChoice::Uncapped => "uncapped",
            PolicyChoice::StaticSplit => "static-split",
            PolicyChoice::DemandBased => "demand-based",
        }
    }

    /// The allocator policy to run, `None` for the uncapped baseline.
    pub fn kind(self) -> Option<PolicyKind> {
        match self {
            PolicyChoice::Uncapped => None,
            PolicyChoice::StaticSplit => Some(PolicyKind::StaticSplit),
            PolicyChoice::DemandBased => Some(PolicyKind::DemandBased),
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "uncapped" => Ok(PolicyChoice::Uncapped),
            "static-split" | "static" => Ok(PolicyChoice::StaticSplit),
            "demand-based" | "demand" => Ok(PolicyChoice::DemandBased),
            other => Err(Error::invalid(
                "policy",
                format!(
                    "unknown policy {other:?} (expected uncapped, static-split or demand-based)"
                ),
            )),
        }
    }
}

/// Per-tenant slice of a node's scorecard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantScore {
    /// Tenant (application) name.
    pub tenant: String,
    /// Package energy attributed to this tenant (J).
    pub energy_j: f64,
    /// FLOPs served.
    pub flops: f64,
    /// Work units offered by the arrival process.
    pub offered_units: f64,
    /// Work units served.
    pub served_units: f64,
    /// Tenant-intervals over the backlog threshold.
    pub slo_violations: u64,
}

/// Per-node slice of the scorecard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeScore {
    /// Node id from the spec.
    pub node: String,
    /// Machine-class id the node instantiates.
    pub machine: String,
    /// Package energy over the run (J).
    pub energy_j: f64,
    /// DRAM energy over the run (J, measurement-only).
    pub dram_energy_j: f64,
    /// Mean package power (W).
    pub avg_power_w: f64,
    /// Sum of the node's tenants' violations.
    pub slo_violations: u64,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantScore>,
}

/// The fleet-wide outcome of one `(spec, seed, policy)` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScorecardRow {
    /// Scenario name.
    pub scenario: String,
    /// Allocator policy label (`uncapped`, `static-split`, `demand-based`).
    pub policy: String,
    /// Seed the run replayed.
    pub seed: u64,
    /// Global fleet budget (W).
    pub budget_w: f64,
    /// Virtual duration (s).
    pub duration_s: f64,
    /// Control intervals executed.
    pub intervals: u64,
    /// Fleet package energy (J).
    pub fleet_energy_j: f64,
    /// Package energy of the uncapped baseline run (J).
    pub baseline_energy_j: f64,
    /// Energy saved vs. the uncapped baseline (%; positive = saved).
    pub energy_saved_pct: f64,
    /// Tenant-intervals over the backlog threshold.
    pub slo_violations: u64,
    /// Total tenant-intervals (the denominator).
    pub slo_total: u64,
    /// `slo_violations / slo_total` (%).
    pub slo_violation_pct: f64,
    /// The baseline's violation count (capping is judged on the delta).
    pub baseline_slo_violations: u64,
    /// Budget-grant raises delivered.
    pub grants: u64,
    /// Budget-grant shrinks delivered.
    pub shrinks: u64,
    /// True iff every step's per-tenant energy summed exactly to the
    /// socket energy (bit-exact attribution invariant).
    pub conservation_ok: bool,
    /// Per-node breakdown.
    pub nodes: Vec<NodeScore>,
}

/// A finished run: the scorecard plus its decision trace.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scorecard (baseline fields are filled by [`run_rows`]).
    pub row: ScorecardRow,
    /// Decision events in emission order (intensity shifts, SLO
    /// violations, budget grants).
    pub events: Vec<DecisionEvent>,
}

/// Runs one `(spec, seed, policy)` scenario to completion.
///
/// The spec must already be validated ([`ScenarioSpec::validate`]); this
/// revalidates defensively so a hand-built spec cannot bypass the typed
/// field errors.
pub fn run_one(spec: &ScenarioSpec, seed: u64, policy: PolicyChoice) -> Result<RunResult> {
    spec.validate()?;
    let tel = Telemetry::enabled();
    let plan = fleet_plan(spec, policy);
    let fleet = ScenarioFleet::new(spec, seed, plan.policy.is_some(), &tel)?;
    let mut sim = FleetSim::new(fleet, plan, tel.clone())?;
    let stats = sim.run()?;
    Ok(RunResult {
        row: sim.into_model().scorecard(seed, policy, stats),
        events: tel.drain_events(),
    })
}

/// The [`FleetSim`] plan of one `(spec, policy)` run.
fn fleet_plan(spec: &ScenarioSpec, policy: PolicyChoice) -> FleetPlan {
    FleetPlan {
        budget: Watts(spec.budget_w),
        policy: policy.kind(),
        interval_ms: spec.interval_ms,
        epoch_intervals: u64::from(spec.epoch_intervals),
    }
}

/// A node's gauges, resolved once at construction so the interval loop
/// only calls `.set()` and never touches the registry's name map.
struct NodeGauges {
    /// `scenario.node{i}.intensity`.
    intensity: Arc<Gauge>,
    /// `scenario.node{i}.tenant{j}.backlog_s`, by slot.
    backlog_s: Vec<Arc<Gauge>>,
    /// `scenario.node{i}.tenant{j}.energy_j`, by slot.
    energy_j: Vec<Arc<Gauge>>,
}

impl NodeGauges {
    fn new(tel: &Telemetry, node: usize, tenants: usize) -> Self {
        let tenant =
            |j: usize, metric: &str| tel.gauge(&format!("scenario.node{node}.tenant{j}.{metric}"));
        NodeGauges {
            intensity: tel.gauge(&format!("scenario.node{node}.intensity")),
            backlog_s: (0..tenants).map(|j| tenant(j, "backlog_s")).collect(),
            energy_j: (0..tenants).map(|j| tenant(j, "energy_j")).collect(),
        }
    }
}

/// One scenario node: its shared socket and its accounting.
struct Node {
    sim: SharedSocketSim,
    /// Machine-class id.
    machine: String,
    /// Current intensity band (`u8::MAX` before the first).
    band: u8,
    epoch_energy: f64,
    energy: f64,
    dram: f64,
    /// SLO violations per tenant.
    viol: Vec<u64>,
    gauges: NodeGauges,
}

/// The scenario's co-tenant fleet under [`FleetSim`]: shared-socket
/// physics, arrivals and SLO accounting.
struct ScenarioFleet<'a> {
    spec: &'a ScenarioSpec,
    profile: LoadProfile,
    nodes: Vec<Node>,
    intervals: u64,
    /// Interval length (s).
    dt: f64,
    conservation_ok: bool,
}

impl<'a> ScenarioFleet<'a> {
    /// One shared socket per node, tenants weight-scaled, with its gauges
    /// resolved on `tel`. Capped nodes start at their class floor (an
    /// agent enforces its floor until the first grant).
    fn new(spec: &'a ScenarioSpec, seed: u64, capped: bool, tel: &Telemetry) -> Result<Self> {
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        for (i, node) in spec.nodes.iter().enumerate() {
            let class = spec
                .class_of(node)
                .expect("validated spec resolves machines");
            let ctx = class.materialize_ctx();
            let weights = ScenarioSpec::weights_of(node);
            let mut tenants = Vec::with_capacity(node.tenants.len());
            for (app, w) in node.tenants.iter().zip(&weights) {
                let table = cache::shared_by_name(app, &ctx)?;
                tenants.push((app.clone(), Arc::new(table.scaled(*w)?)));
            }
            let mut sim = SharedSocketSim::new(class.shared_cfg(), tenants)?;
            if capped {
                sim.set_ceiling(sim.cfg().cap_floor);
            }
            nodes.push(Node {
                sim,
                machine: class.id.clone(),
                band: u8::MAX,
                epoch_energy: 0.0,
                energy: 0.0,
                dram: 0.0,
                viol: vec![0; node.tenants.len()],
                gauges: NodeGauges::new(tel, i, node.tenants.len()),
            });
        }
        let dt = spec.interval_ms as f64 / 1000.0;
        Ok(ScenarioFleet {
            spec,
            profile: LoadProfile::new(&spec.arrival, seed, spec.duration_s),
            nodes,
            intervals: (spec.duration_s / dt).ceil() as u64,
            dt,
            conservation_ok: true,
        })
    }

    /// The run's scorecard (baseline fields are filled by [`run_rows`]).
    fn scorecard(self, seed: u64, policy: PolicyChoice, stats: FleetStats) -> ScorecardRow {
        let spec = self.spec;
        let nodes: Vec<NodeScore> = (spec.nodes.iter().zip(self.nodes))
            .map(|(node, n)| NodeScore {
                node: node.id.clone(),
                machine: n.machine,
                energy_j: n.energy,
                dram_energy_j: n.dram,
                avg_power_w: n.energy / spec.duration_s.max(1e-9),
                slo_violations: n.viol.iter().sum(),
                tenants: (node.tenants.iter().zip(&n.viol).enumerate())
                    .map(|(j, (app, &slo_violations))| {
                        let acct = n.sim.account(j);
                        TenantScore {
                            tenant: app.clone(),
                            energy_j: acct.energy_j,
                            flops: acct.flops,
                            offered_units: acct.offered_units,
                            served_units: acct.served_units,
                            slo_violations,
                        }
                    })
                    .collect(),
            })
            .collect();
        let fleet_energy_j: f64 = nodes.iter().map(|n| n.energy_j).sum();
        let slo_violations: u64 = nodes.iter().map(|n| n.slo_violations).sum();
        let slo_total = stats.intervals * spec.tenant_count() as u64;
        ScorecardRow {
            scenario: spec.name.clone(),
            policy: policy.label().to_string(),
            seed,
            budget_w: spec.budget_w,
            duration_s: spec.duration_s,
            intervals: stats.intervals,
            fleet_energy_j,
            baseline_energy_j: fleet_energy_j,
            energy_saved_pct: 0.0,
            slo_violations,
            slo_total,
            slo_violation_pct: 100.0 * slo_violations as f64 / (slo_total as f64).max(1.0),
            baseline_slo_violations: slo_violations,
            grants: stats.raises,
            shrinks: stats.shrinks,
            conservation_ok: self.conservation_ok,
            nodes,
        }
    }
}

impl FleetModel for ScenarioFleet<'_> {
    fn hellos(&self) -> Vec<NodeHello> {
        (self.spec.nodes.iter().zip(&self.nodes))
            .map(|(node, n)| NodeHello {
                name: node.id.clone(),
                app: node.tenants.join("+"),
                floor: n.sim.cfg().cap_floor,
                node_max: n.sim.cfg().pl1,
            })
            .collect()
    }

    fn finished(&self, tick: u64) -> bool {
        tick >= self.intervals
    }

    /// Three fleet-wide passes, in this order: arrivals, physics, SLO.
    fn interval(&mut self, tick: u64, tel: &Telemetry) -> Result<()> {
        let spec = self.spec;
        let t = tick as f64 * self.dt;
        let now_ms = tick * spec.interval_ms;
        let event = |i, old, new, why| fleet_event(tick, now_ms, i, old, new, why);

        // Arrival model → per-node offered load (+ IntensityShift events).
        for (i, n) in self.nodes.iter_mut().enumerate() {
            let v = self
                .profile
                .intensity(t, i as f64 * spec.arrival.node_stagger_s);
            let band = intensity_band(v);
            if n.band != band {
                if n.band != u8::MAX {
                    let (old, new) = (f64::from(n.band), f64::from(band));
                    tel.record_decision(event(i, old, new, Reason::IntensityShift));
                }
                n.band = band;
            }
            for j in 0..n.sim.tenant_count() {
                n.sim.set_intensity(j, v);
            }
            n.gauges.intensity.set(v);
        }

        // Physics: every node takes `SUBSTEPS` full steps. The step reuses
        // its socket's scratch buffers and caches, so it allocates only
        // the attribution vector it returns.
        let sub_dt = Seconds(self.dt / f64::from(SUBSTEPS));
        for n in &mut self.nodes {
            for _ in 0..SUBSTEPS {
                let step = n.sim.step(sub_dt);
                let attributed: f64 = step.tenant_energy_j.iter().sum();
                self.conservation_ok &= attributed == step.pkg_energy_j;
                n.energy += step.pkg_energy_j;
                n.dram += step.dram_energy_j;
                n.epoch_energy += step.pkg_energy_j;
            }
        }

        // SLO bookkeeping.
        for (i, n) in self.nodes.iter_mut().enumerate() {
            for (j, viol) in n.viol.iter_mut().enumerate() {
                let backlog = n.sim.backlog_seconds(j);
                n.gauges.backlog_s[j].set(backlog);
                n.gauges.energy_j[j].set(n.sim.account(j).energy_j);
                if backlog > spec.slo_backlog_s {
                    *viol += 1;
                    let slo = spec.slo_backlog_s;
                    tel.record_decision(event(i, backlog, slo, Reason::SloViolation));
                }
            }
        }
        Ok(())
    }

    fn reports(&mut self) -> Result<Vec<NodeObservation>> {
        let epoch_s = self.dt * f64::from(self.spec.epoch_intervals);
        let report = |n: &mut Node| NodeObservation {
            ceiling: n.sim.ceiling(),
            consumption: Watts(std::mem::take(&mut n.epoch_energy) / epoch_s),
            active: n.sim.has_backlog(),
        };
        Ok(self.nodes.iter_mut().map(report).collect())
    }

    fn grant(&mut self, node: usize, ceiling: Watts) -> Result<Watts> {
        let sim = &mut self.nodes[node].sim;
        let old = sim.ceiling();
        sim.set_ceiling(ceiling);
        Ok(old)
    }
}

/// Runs the uncapped baseline plus every requested policy, in a bounded
/// rayon pool, and returns scorecard rows in the requested order with the
/// baseline comparison filled in. Deterministic: rows are merged by index,
/// so `jobs = 1` and `jobs = N` produce byte-identical output.
pub fn run_rows(
    spec: &ScenarioSpec,
    seed: u64,
    policies: &[PolicyChoice],
    jobs: usize,
) -> Result<Vec<ScorecardRow>> {
    if jobs == 0 {
        return Err(Error::invalid("jobs", "must be >= 1"));
    }
    if policies.is_empty() {
        return Err(Error::invalid("policies", "need at least one policy"));
    }
    spec.validate()?;

    // The baseline runs first, serially: every row is scored against it.
    let baseline = run_one(spec, seed, PolicyChoice::Uncapped)?;

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build()
        .map_err(|e| Error::invalid("jobs", e.to_string()))?;
    let indexed: Vec<(usize, PolicyChoice)> = policies.iter().copied().enumerate().collect();
    let mut results: Vec<(usize, ScorecardRow)> = pool.install(|| {
        use rayon::prelude::*;
        indexed
            .into_par_iter()
            .map(|(idx, policy)| {
                let row = if policy == PolicyChoice::Uncapped {
                    baseline.row.clone()
                } else {
                    run_one(spec, seed, policy)?.row
                };
                Ok((idx, row))
            })
            .collect::<Result<Vec<_>>>()
    })?;
    results.sort_by_key(|(idx, _)| *idx);

    let mut rows = Vec::with_capacity(results.len());
    for (idx, mut row) in results {
        debug_assert_eq!(idx, rows.len(), "index-ordered merge");
        row.baseline_energy_j = baseline.row.fleet_energy_j;
        row.baseline_slo_violations = baseline.row.slo_violations;
        row.energy_saved_pct = if baseline.row.fleet_energy_j > 0.0 {
            100.0 * (baseline.row.fleet_energy_j - row.fleet_energy_j) / baseline.row.fleet_energy_j
        } else {
            0.0
        };
        rows.push(row);
    }
    Ok(rows)
}

/// Serializes rows as JSON Lines — the byte-identity unit the CLI, the
/// golden test and CI's double-run `cmp` all compare.
pub fn to_jsonl_bytes(rows: &[ScorecardRow]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for row in rows {
        let line =
            serde_json::to_string(row).map_err(|e| Error::invalid("scorecard", e.to_string()))?;
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_telemetry::Actuator;

    fn mini() -> ScenarioSpec {
        ScenarioSpec::mini()
    }

    #[test]
    fn run_one_is_finite_and_conserves() {
        let r = run_one(&mini(), 42, PolicyChoice::DemandBased).unwrap();
        assert!(r.row.fleet_energy_j.is_finite() && r.row.fleet_energy_j > 0.0);
        assert!(r.row.conservation_ok, "exact attribution must hold");
        assert_eq!(r.row.intervals, 120);
        assert_eq!(r.row.slo_total, 120 * 3);
        assert!(!r.events.is_empty(), "intensity shifts must be traced");
    }

    #[test]
    fn capped_policies_save_energy_vs_baseline() {
        let rows = run_rows(
            &mini(),
            7,
            &[PolicyChoice::Uncapped, PolicyChoice::DemandBased],
            1,
        )
        .unwrap();
        assert_eq!(rows[0].policy, "uncapped");
        assert_eq!(rows[0].energy_saved_pct, 0.0);
        assert!(
            rows[1].energy_saved_pct > 0.0,
            "budget {} W must save energy: {:?}",
            rows[1].budget_w,
            rows[1].energy_saved_pct
        );
    }

    #[test]
    fn rows_are_byte_identical_across_jobs() {
        let policies = [
            PolicyChoice::Uncapped,
            PolicyChoice::StaticSplit,
            PolicyChoice::DemandBased,
        ];
        let a = to_jsonl_bytes(&run_rows(&mini(), 3, &policies, 1).unwrap()).unwrap();
        let b = to_jsonl_bytes(&run_rows(&mini(), 3, &policies, 4).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = [PolicyChoice::DemandBased];
        let a = to_jsonl_bytes(&run_rows(&mini(), 1, &p, 1).unwrap()).unwrap();
        let b = to_jsonl_bytes(&run_rows(&mini(), 2, &p, 1).unwrap()).unwrap();
        assert_ne!(a, b, "bursty arrivals must make seeds observable");
    }

    #[test]
    fn grants_flow_under_capped_policies() {
        let r = run_one(&mini(), 11, PolicyChoice::DemandBased).unwrap();
        assert!(r.row.grants > 0, "the allocator must grant at least once");
        assert!(r
            .events
            .iter()
            .any(|e| e.reason == Reason::BudgetGrant && e.actuator == Actuator::Budget));
    }

    #[test]
    fn node_gauges_track_the_run() {
        let (spec, seed, policy) = (mini(), 42, PolicyChoice::DemandBased);
        let tel = Telemetry::enabled();
        let fleet = ScenarioFleet::new(&spec, seed, true, &tel).unwrap();
        let mut sim = FleetSim::new(fleet, fleet_plan(&spec, policy), tel.clone()).unwrap();
        let stats = sim.run().unwrap();
        let fleet = sim.into_model();
        // The last interval's intensity and the final backlogs.
        let t_last = (fleet.intervals - 1) as f64 * fleet.dt;
        let want: Vec<(f64, Vec<f64>)> = (fleet.nodes.iter().enumerate())
            .map(|(i, n)| {
                let stagger = i as f64 * spec.arrival.node_stagger_s;
                let backlogs = (0..n.sim.tenant_count())
                    .map(|j| n.sim.backlog_seconds(j))
                    .collect();
                (fleet.profile.intensity(t_last, stagger), backlogs)
            })
            .collect();
        let row = fleet.scorecard(seed, policy, stats);

        let snap = tel.metrics_snapshot();
        let gauge = |name: String| {
            let g = snap.gauges.iter().find(|g| g.name == name);
            g.unwrap_or_else(|| panic!("missing gauge {name}")).value
        };
        for (i, (node, (intensity, backlogs))) in row.nodes.iter().zip(&want).enumerate() {
            assert_eq!(gauge(format!("scenario.node{i}.intensity")), *intensity);
            for (j, (t, backlog)) in node.tenants.iter().zip(backlogs).enumerate() {
                let energy = gauge(format!("scenario.node{i}.tenant{j}.energy_j"));
                assert_eq!(energy, t.energy_j, "node{i}.tenant{j}");
                assert!(t.energy_j > 0.0);
                let b = gauge(format!("scenario.node{i}.tenant{j}.backlog_s"));
                assert_eq!(b, *backlog, "node{i}.tenant{j}");
            }
        }
        let scenario_gauges = snap
            .gauges
            .iter()
            .filter(|g| g.name.starts_with("scenario."));
        assert_eq!(
            scenario_gauges.count(),
            row.nodes.len() + 2 * spec.tenant_count()
        );
    }

    #[test]
    fn zero_jobs_rejected() {
        assert!(run_rows(&mini(), 1, &[PolicyChoice::Uncapped], 0).is_err());
    }
}
