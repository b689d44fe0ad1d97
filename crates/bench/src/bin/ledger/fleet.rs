//! The `fleet-failover` workload: the chaos matrix at fleet scale, a
//! journaled coordinator serving a closed-loop fleet, and cold recoveries
//! of its journal. No socket physics runs here.

use crate::gen::{self, AgentDemand, FleetSize, JournalPlan, Rng};
use crate::stats::{ns_since, Report};
use crate::timed::{report_section, timed_setups, Timed};
use dufp_net::chaos::run_matrix;
use dufp_net::{recover, CoordinatorConfig, FleetCore, FleetJournal, Frame};
use dufp_telemetry::Telemetry;
use dufp_types::Watts;
use std::path::Path;
use std::time::{Duration, Instant};

/// The coordinator configuration of a journaled fleet of `agents`: the
/// CLI defaults (demand-based, 1 s epochs, 65 W floor, 125 W node max)
/// over the scaled chaos budget.
pub fn coordinator_config(agents: usize) -> CoordinatorConfig {
    CoordinatorConfig::new(
        "ledger:virtual",
        Watts(gen::FLEET_BUDGET_PER_AGENT_W * agents as f64),
    )
}

/// Per-layer timings a traced closed loop collects. When present, every
/// report and grant also crosses the wire codec.
pub struct Probe {
    pub on_report_ns: Vec<u64>,
    pub epoch_ns: Vec<u64>,
    /// Per-frame encode and decode time, averaged over each epoch's batch.
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    /// Corrupted frame copies the decoder refused, out of `corrupted`.
    pub rejects: u64,
    pub corrupted: u64,
    rng: Rng,
}

impl Probe {
    pub fn new(seed: u64) -> Self {
        Probe {
            on_report_ns: Vec::new(),
            epoch_ns: Vec::new(),
            encode_ns: Vec::new(),
            decode_ns: Vec::new(),
            rejects: 0,
            corrupted: 0,
            rng: Rng::new(seed, "wire-corruption"),
        }
    }

    /// Flips one byte of a copy of every sixteenth frame (seeded) and counts
    /// how many the decoder refuses.
    fn corrupt_some(&mut self, frames: &[Vec<u8>]) {
        for f in frames {
            if self.rng.below(16) == 0 {
                let mut bad = f.clone();
                let at = self.rng.below(bad.len());
                bad[at] ^= 1 << self.rng.below(8);
                self.corrupted += 1;
                if Frame::decode(&bad).is_err() {
                    self.rejects += 1;
                }
            }
        }
    }
}

/// A fleet of honest agents following their demand curves under the
/// coordinator's grants: each epoch every agent reports its ceiling and
/// its consumption (demand clipped to the ceiling), then the core
/// allocates and the grants move the ceilings.
pub struct ClosedLoop {
    pub core: FleetCore,
    demand: Vec<AgentDemand>,
    ceilings: Vec<f64>,
    floor: f64,
    node_max: f64,
    pub epoch: u64,
    /// Core input events so far (admissions, reports, epoch ticks) — the
    /// journal's record count when one is attached.
    pub events: u64,
    pub demanded_j: f64,
    pub consumed_j: f64,
}

impl ClosedLoop {
    pub fn new(
        cfg: &CoordinatorConfig,
        plan: &JournalPlan,
        journal: Option<FleetJournal>,
    ) -> Result<Self, String> {
        let mut core = FleetCore::new(cfg, Telemetry::disabled());
        if let Some(j) = journal {
            core.attach_journal(j);
        }
        for i in 0..plan.demand.len() {
            let slot = core
                .admit(format!("a{i:03}"), "EP".into(), cfg.floor, cfg.node_max, 0)
                .map_err(|e| e.to_string())?;
            if slot != i {
                return Err(format!("agent {i} admitted into slot {slot}"));
            }
        }
        Ok(ClosedLoop {
            core,
            demand: plan.demand.clone(),
            ceilings: vec![cfg.floor.value(); plan.demand.len()],
            floor: cfg.floor.value(),
            node_max: cfg.node_max.value(),
            epoch: 0,
            events: plan.demand.len() as u64,
            demanded_j: 0.0,
            consumed_j: 0.0,
        })
    }

    /// One virtual second: reports at mid-epoch, then the allocator epoch.
    pub fn step(&mut self, mut probe: Option<&mut Probe>) -> Result<(), String> {
        self.epoch += 1;
        let now_ms = self.epoch * 1000;
        let mut reports = Vec::with_capacity(self.demand.len());
        for (i, d) in self.demand.iter().enumerate() {
            let want = d.at(self.epoch, self.floor, self.node_max);
            let used = want.min(self.ceilings[i]);
            self.demanded_j += want;
            self.consumed_j += used;
            reports.push(Frame::DemandReport {
                seq: self.epoch,
                ceiling: Watts(self.ceilings[i]),
                consumption: Watts(used),
                active: true,
            });
        }
        let reports = match probe.as_deref_mut() {
            Some(p) => through_wire(p, &reports)?,
            None => reports,
        };
        for (slot, frame) in reports.into_iter().enumerate() {
            let Frame::DemandReport {
                seq,
                ceiling,
                consumption,
                active,
            } = frame
            else {
                return Err(format!("agent {slot} sent a non-report frame"));
            };
            let t = Instant::now();
            self.core
                .on_report(slot, seq, ceiling, consumption, active, now_ms - 500);
            if let Some(p) = probe.as_deref_mut() {
                p.on_report_ns.push(ns_since(t));
            }
        }
        let t = Instant::now();
        let step = self.core.epoch_once(now_ms);
        if let Some(p) = probe.as_deref_mut() {
            p.epoch_ns.push(ns_since(t));
        }
        self.events += self.demand.len() as u64 + 1;
        let (slots, grants): (Vec<usize>, Vec<Frame>) = step.grants.into_iter().unzip();
        let grants = match probe {
            Some(p) => through_wire(p, &grants)?,
            None => grants,
        };
        for (slot, frame) in slots.into_iter().zip(grants) {
            if let Frame::BudgetGrant { ceiling, .. } = frame {
                self.ceilings[slot] = ceiling.value();
            }
        }
        Ok(())
    }
}

/// Encodes and decodes `frames` as the TCP plane would, timing both.
fn through_wire(p: &mut Probe, frames: &[Frame]) -> Result<Vec<Frame>, String> {
    if frames.is_empty() {
        return Ok(Vec::new());
    }
    let n = frames.len() as u64;
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    p.encode_ns.push(ns_since(t) / n);
    p.corrupt_some(&bytes);
    let t = Instant::now();
    let decoded = bytes
        .iter()
        .map(|b| Frame::decode(b))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("wire round trip failed: {e}"))?;
    p.decode_ns.push(ns_since(t) / n);
    Ok(decoded)
}

/// Runs a journaled closed loop until `events` core inputs are on disk.
pub fn journal_until(lp: &mut ClosedLoop, events: u64) -> Result<(), String> {
    while lp.events < events {
        lp.step(None)?;
    }
    Ok(())
}

/// A fresh journaled fleet in `dir`, agents admitted.
pub fn journaled_fleet(dir: &Path, plan: &JournalPlan) -> Result<ClosedLoop, String> {
    let journal = FleetJournal::create(dir).map_err(|e| e.to_string())?;
    ClosedLoop::new(&coordinator_config(plan.demand.len()), plan, Some(journal))
}

/// Runs the workload in rounds: the chaos matrix under the round's seed, a
/// journaled fleet writing its events into a fresh journal, then a cold
/// `recover()` of that journal. A round's operations are its allocator
/// epochs.
pub fn run(
    seed: u64,
    size: &FleetSize,
    seconds: f64,
    scratch: &crate::Scratch,
    setup_reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = timed_setups(setup_reps, report, || {
        let inputs = gen::fleet_inputs(seed, size);
        for cfg in &inputs.chaos {
            cfg.validate().map_err(|e| e.to_string())?;
        }
        Ok(inputs)
    })?;

    // Rounds past the last chaos seed start again from the first; only the
    // first pass's cards and fleets are scored, every round is checked.
    let cfg = coordinator_config(inputs.journal.demand.len());
    let mut cards = Vec::new();
    let mut loops = Vec::with_capacity(inputs.chaos.len());
    let (mut chaos_s, mut journal_s, mut recover_s) = (0.0, 0.0, 0.0);
    let (mut chaos_epochs, mut events, mut recovered) = (0u64, 0u64, 0u64);
    let mut timed = Timed::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (k, chaos) in inputs.chaos.iter().cycle().enumerate() {
        if !timed.before(deadline) {
            break;
        }
        let dir = scratch.fresh("fleet-journal");
        let (matrix, lp, rec) = timed.sample(|| {
            let step = Instant::now();
            let matrix = run_matrix(chaos).map_err(|e| e.to_string())?;
            chaos_s += step.elapsed().as_secs_f64();
            let step = Instant::now();
            let mut lp = journaled_fleet(&dir, &inputs.journal)?;
            journal_until(&mut lp, inputs.journal.events)?;
            journal_s += step.elapsed().as_secs_f64();
            let step = Instant::now();
            let rec = recover(&dir, &cfg, Telemetry::disabled()).map_err(|e| e.to_string())?;
            recover_s += step.elapsed().as_secs_f64();
            let epochs = matrix.iter().map(|c| c.epochs).sum::<u64>();
            Ok((epochs + lp.epoch, (matrix, lp, rec)))
        })?;
        let same = rec.core.snapshot_bytes().map_err(|e| e.to_string())?
            == lp.core.snapshot_bytes().map_err(|e| e.to_string())?;
        report.check(same, || "recover() did not rebuild the live core".into());
        let _ = std::fs::remove_dir_all(&dir);
        recovered += rec.journal_head;
        chaos_epochs += matrix.iter().map(|c| c.epochs).sum::<u64>();
        events += lp.events;
        if k < inputs.chaos.len() {
            cards.extend(matrix);
            loops.push(lp);
        }
    }
    report_section(&timed, report);

    let demanded: f64 = loops.iter().map(|lp| lp.demanded_j).sum();
    let consumed: f64 = loops.iter().map(|lp| lp.consumed_j).sum();
    report.context("journal_events", events);
    report.detail(
        "fleet.demand_clipped_pct",
        (1.0 - consumed / demanded) * 100.0,
        "%",
    );
    let min_score = cards.iter().map(|c| c.score).fold(f64::INFINITY, f64::min);
    report.detail("fleet.min_score", min_score, "%");
    report.detail(
        "fleet.chaos_epochs_per_s",
        chaos_epochs as f64 / chaos_s,
        "1/s",
    );
    report.detail(
        "failover.journal_events_per_s",
        events as f64 / journal_s,
        "1/s",
    );
    report.detail(
        "failover.recover_records_per_s",
        recovered as f64 / recover_s,
        "1/s",
    );
    match cards.iter().filter_map(|c| c.takeover_epochs).max() {
        Some(t) => report.detail("fleet.takeover_epochs_max", t as f64, "count"),
        None => report.context("fleet.takeover_epochs_max", "none"),
    }

    for c in &cards {
        report.check(
            c.conservation_ok
                && c.floor_ok
                && c.fenced_ok
                && c.safe_cap_violations == 0
                && c.replay_matched != Some(false),
            || format!("chaos scenario {} broke an invariant: {c:?}", c.scenario),
        );
    }
    Ok(())
}
