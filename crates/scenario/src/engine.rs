//! The scenario engine: a virtual-clock fleet run producing a scorecard.
//!
//! One run wires three existing layers together without any transport:
//!
//! * each node is a [`dufp_sim::SharedSocketSim`] built from its machine
//!   class, co-scheduling its tenants' weight-scaled phase tables,
//! * the arrival model ([`crate::LoadProfile`]) modulates every node's
//!   offered load over virtual time,
//! * a [`dufp_net::FleetCore`] plays coordinator on the same virtual
//!   clock: nodes report demand each allocator epoch, the core runs its
//!   real allocator policy ([`dufp_net::PolicyKind`]) against the global
//!   budget and its grants move the nodes' RAPL ceilings.
//!
//! Everything is a pure function of `(spec, seed, policy)`: the scorecard
//! JSON — and the decision trace — are byte-identical across reruns and
//! across `--jobs 1` vs `--jobs N`.

use crate::arrival::{intensity_band, LoadProfile};
use crate::spec::ScenarioSpec;
use dufp_net::{CoordinatorConfig, FleetCore, Frame, GrantKind, PolicyKind};
use dufp_sim::SharedSocketSim;
use dufp_telemetry::{Actuator, DecisionEvent, Reason, Telemetry};
use dufp_types::{Error, Result, Seconds, Watts};
use dufp_workloads::cache;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

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
    let dt = spec.interval_ms as f64 / 1000.0;
    let intervals = (spec.duration_s / dt).ceil() as u64;
    let sub_dt = Seconds(dt / f64::from(SUBSTEPS));

    // Build the fleet: one shared socket per node, tenants weight-scaled.
    let mut sims: Vec<SharedSocketSim> = Vec::with_capacity(spec.nodes.len());
    let mut machines: Vec<String> = Vec::with_capacity(spec.nodes.len());
    for node in &spec.nodes {
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
        sims.push(SharedSocketSim::new(class.shared_cfg(), tenants)?);
        machines.push(class.id.clone());
    }

    // The coordinator, when the policy caps at all. Nodes start at their
    // class floor (an agent enforces its floor until the first grant).
    let mut core = match policy.kind() {
        None => None,
        Some(kind) => {
            let mut cfg = CoordinatorConfig::new("scenario:virtual", Watts(spec.budget_w))
                .with_epoch(Duration::from_millis(
                    spec.interval_ms * u64::from(spec.epoch_intervals),
                ));
            cfg.policy = kind;
            cfg.floor = Watts(
                sims.iter()
                    .map(|s| s.cfg().cap_floor.value())
                    .fold(f64::INFINITY, f64::min),
            );
            cfg.node_max = Watts(sims.iter().map(|s| s.cfg().pl1.value()).fold(0.0, f64::max));
            cfg.validate()?;
            let mut core = FleetCore::new(&cfg, Telemetry::disabled());
            for (i, (node, sim)) in spec.nodes.iter().zip(&mut sims).enumerate() {
                let floor = sim.cfg().cap_floor;
                let pl1 = sim.cfg().pl1;
                let slot = core.admit(node.id.clone(), node.tenants.join("+"), floor, pl1, 0)?;
                debug_assert_eq!(slot, i, "slots are admission-ordered");
                sim.set_ceiling(floor);
            }
            Some(core)
        }
    };

    let profile = LoadProfile::new(&spec.arrival, seed, spec.duration_s);
    let mut bands: Vec<u8> = vec![u8::MAX; spec.nodes.len()];
    let mut epoch_energy: Vec<f64> = vec![0.0; spec.nodes.len()];
    let mut node_energy: Vec<f64> = vec![0.0; spec.nodes.len()];
    let mut node_dram: Vec<f64> = vec![0.0; spec.nodes.len()];
    let mut tenant_viol: Vec<Vec<u64>> = spec
        .nodes
        .iter()
        .map(|n| vec![0u64; n.tenants.len()])
        .collect();
    let mut grants = 0u64;
    let mut shrinks = 0u64;
    let mut conservation_ok = true;

    for tick in 0..intervals {
        let t = tick as f64 * dt;
        let now_ms = tick * spec.interval_ms;

        // Arrival model → per-node offered load (+ IntensityShift events).
        for (i, sim) in sims.iter_mut().enumerate() {
            let v = profile.intensity(t, i as f64 * spec.arrival.node_stagger_s);
            let band = intensity_band(v);
            if bands[i] != band {
                if bands[i] != u8::MAX {
                    tel.record_decision(event(
                        tick,
                        now_ms,
                        i,
                        f64::from(bands[i]),
                        f64::from(band),
                        Reason::IntensityShift,
                    ));
                }
                bands[i] = band;
            }
            for j in 0..sim.tenant_count() {
                sim.set_intensity(j, v);
            }
            tel.gauge(&format!("scenario.node{i}.intensity")).set(v);
        }

        // Physics. `step_fast` self-gates: it fast-forwards through cached
        // idle fixed points and falls back to the full (oracle) step the
        // moment any tenant has backlog or offered load, so the scenario
        // trace is bit-identical to per-step evaluation either way.
        for (i, sim) in sims.iter_mut().enumerate() {
            for _ in 0..SUBSTEPS {
                let step = sim.step_fast(sub_dt);
                let attributed: f64 = step.tenant_energy_j.iter().sum();
                conservation_ok &= attributed == step.pkg_energy_j;
                node_energy[i] += step.pkg_energy_j;
                node_dram[i] += step.dram_energy_j;
                epoch_energy[i] += step.pkg_energy_j;
            }
        }

        // SLO bookkeeping.
        for (i, sim) in sims.iter().enumerate() {
            for (j, viol) in tenant_viol[i].iter_mut().enumerate() {
                let backlog = sim.backlog_seconds(j);
                tel.gauge(&format!("scenario.node{i}.tenant{j}.backlog_s"))
                    .set(backlog);
                tel.gauge(&format!("scenario.node{i}.tenant{j}.energy_j"))
                    .set(sim.account(j).energy_j);
                if backlog > spec.slo_backlog_s {
                    *viol += 1;
                    tel.record_decision(event(
                        tick,
                        now_ms,
                        i,
                        backlog,
                        spec.slo_backlog_s,
                        Reason::SloViolation,
                    ));
                }
            }
        }

        // Allocator epoch: demand reports in, budget grants out.
        if let Some(core) = core.as_mut() {
            if (tick + 1) % u64::from(spec.epoch_intervals) == 0 {
                let epoch_s = dt * f64::from(spec.epoch_intervals);
                for (i, sim) in sims.iter().enumerate() {
                    let avg = Watts(epoch_energy[i] / epoch_s);
                    core.on_report(i, tick, sim.ceiling(), avg, sim.has_backlog(), now_ms);
                    epoch_energy[i] = 0.0;
                }
                let step = core.epoch_once(now_ms);
                for (slot, frame) in step.grants {
                    if let Frame::BudgetGrant { ceiling, kind, .. } = frame {
                        let old = sims[slot].ceiling();
                        sims[slot].set_ceiling(ceiling);
                        match kind {
                            GrantKind::Raise => grants += 1,
                            GrantKind::Shrink => shrinks += 1,
                        }
                        tel.record_decision(event(
                            tick,
                            now_ms,
                            slot,
                            old.value(),
                            ceiling.value(),
                            Reason::BudgetGrant,
                        ));
                    }
                }
            }
        }
    }

    // Assemble the scorecard.
    let mut nodes = Vec::with_capacity(spec.nodes.len());
    for (i, (node, sim)) in spec.nodes.iter().zip(&sims).enumerate() {
        let mut tenants = Vec::with_capacity(node.tenants.len());
        for (j, app) in node.tenants.iter().enumerate() {
            let acct = sim.account(j);
            tenants.push(TenantScore {
                tenant: app.clone(),
                energy_j: acct.energy_j,
                flops: acct.flops,
                offered_units: acct.offered_units,
                served_units: acct.served_units,
                slo_violations: tenant_viol[i][j],
            });
        }
        nodes.push(NodeScore {
            node: node.id.clone(),
            machine: machines[i].clone(),
            energy_j: node_energy[i],
            dram_energy_j: node_dram[i],
            avg_power_w: node_energy[i] / spec.duration_s.max(1e-9),
            slo_violations: tenant_viol[i].iter().sum(),
            tenants,
        });
    }
    let fleet_energy_j: f64 = node_energy.iter().sum();
    let slo_violations: u64 = nodes.iter().map(|n| n.slo_violations).sum();
    let slo_total = intervals * spec.tenant_count() as u64;
    let row = ScorecardRow {
        scenario: spec.name.clone(),
        policy: policy.label().to_string(),
        seed,
        budget_w: spec.budget_w,
        duration_s: spec.duration_s,
        intervals,
        fleet_energy_j,
        baseline_energy_j: fleet_energy_j,
        energy_saved_pct: 0.0,
        slo_violations,
        slo_total,
        slo_violation_pct: 100.0 * slo_violations as f64 / (slo_total as f64).max(1.0),
        baseline_slo_violations: slo_violations,
        grants,
        shrinks,
        conservation_ok,
        nodes,
    };
    Ok(RunResult {
        row,
        events: tel.drain_events(),
    })
}

/// A node's budget decision at `tick`, stamped with the scenario clock.
fn event(tick: u64, now_ms: u64, node: usize, old: f64, new: f64, reason: Reason) -> DecisionEvent {
    DecisionEvent {
        at_us: now_ms * 1000,
        socket: node as u16,
        ..DecisionEvent::new(tick, Actuator::Budget, old, new, reason)
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
    fn zero_jobs_rejected() {
        assert!(run_rows(&mini(), 1, &[PolicyChoice::Uncapped], 0).is_err());
    }
}
