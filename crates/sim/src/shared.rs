//! Co-tenant socket sharing: several phase graphs on one package.
//!
//! The paper's testbed runs one application per machine; a production
//! fleet co-schedules tenants on shared sockets. This module simulates one
//! package executing N tenants at once, each an independent
//! [`dufp_workloads::Workload`] phase table driven by an *offered load*
//! (work units arriving per second) rather than a fixed batch:
//!
//! 1. arrivals accrue into a per-tenant backlog (`intensity ×` the phase's
//!    design-point service rate),
//! 2. the cores are split evenly across tenants with backlog; achievable
//!    bandwidth ([`dufp_model::BandwidthModel`]) is partitioned
//!    proportionally to each tenant's roofline demand,
//! 3. each tenant progresses its current phase at the resulting rate and
//!    cycles through its phase table forever (a service loop, not a batch),
//! 4. package power is integrated once for the socket and *attributed* to
//!    tenants by their share of the step's FLOPs and bytes, with the
//!    remainder assigned to the last active tenant so that
//!    `Σ tenant energy == socket energy` holds exactly, step by step.
//!
//! Like [`crate::SocketSim`], everything is deterministic: equal inputs
//! give bit-equal trajectories. There is no RNG here at all — scenario
//! noise lives in the arrival models one layer up.

use dufp_model::{
    BandwidthModel, CapEnforcer, CapEnforcerParams, CapGains, DramPowerModel, PowerModel,
    RooflineModel, SocketActivity,
};
use dufp_types::{ArchSpec, BytesPerSec, Error, Hertz, Result, Seconds, Watts};
use dufp_workloads::Workload;
use std::sync::Arc;

/// Static description of the shared package: DVFS/uncore ranges, limits
/// and the three physics models. Built from an [`ArchSpec`]; heterogeneous
/// fleets override the models per machine class (a GPU-style node swaps in
/// a nearly-flat uncore transfer function, for example).
#[derive(Debug, Clone)]
pub struct SharedSocketCfg {
    /// Cores contributing compute capability.
    pub cores: u16,
    /// Lowest core P-state.
    pub core_freq_min: Hertz,
    /// Highest all-core frequency.
    pub core_freq_max: Hertz,
    /// DVFS ladder step.
    pub core_freq_step: Hertz,
    /// Lowest uncore frequency.
    pub uncore_min: Hertz,
    /// Highest uncore frequency.
    pub uncore_max: Hertz,
    /// Uncore actuation step.
    pub uncore_step: Hertz,
    /// Default long-term power limit (also the uncapped ceiling).
    pub pl1: Watts,
    /// Default short-term power limit.
    pub pl2: Watts,
    /// PL1 averaging window.
    pub pl1_window: Seconds,
    /// PL2 averaging window.
    pub pl2_window: Seconds,
    /// Lowest ceiling the node will enforce (the paper's 65 W floor).
    pub cap_floor: Watts,
    /// Package power model.
    pub power: PowerModel,
    /// Bandwidth transfer function (the per-class uncore signature).
    pub bandwidth: BandwidthModel,
    /// DRAM power model (measurement-only domain).
    pub dram: DramPowerModel,
    /// RAPL enforcement dynamics.
    pub cap: CapEnforcerParams,
}

impl SharedSocketCfg {
    /// A config for one package of `arch`, with the Xeon Gold 6130 power
    /// coefficients rescaled to the architecture's core count.
    pub fn from_arch(arch: &ArchSpec) -> Self {
        let mut power = PowerModel::xeon_gold_6130();
        power.cores = arch.cores_per_socket;
        let mut bandwidth = BandwidthModel::xeon_gold_6130();
        bandwidth.peak = arch.peak_bandwidth;
        bandwidth.knee_freq = arch.uncore_freq_max * 0.8;
        SharedSocketCfg {
            cores: arch.cores_per_socket,
            core_freq_min: arch.core_freq_min,
            core_freq_max: arch.core_freq_max,
            core_freq_step: arch.core_freq_step,
            uncore_min: arch.uncore_freq_min,
            uncore_max: arch.uncore_freq_max,
            uncore_step: arch.uncore_freq_step,
            pl1: arch.pl1_default,
            pl2: arch.pl2_default,
            pl1_window: arch.pl1_window,
            pl2_window: arch.pl2_window,
            cap_floor: arch.cap_floor,
            power,
            bandwidth,
            dram: DramPowerModel::ddr4_64gib(),
            cap: CapEnforcerParams::default(),
        }
    }
}

/// One tenant's phase table plus its service-loop state.
#[derive(Debug, Clone)]
struct TenantState {
    name: String,
    workload: Arc<Workload>,
    /// Design-point service rate per phase (units/s with the whole socket
    /// at max frequency and peak bandwidth) — the yardstick offered load
    /// and SLO backlog are measured against.
    nominal_rate: Vec<f64>,
    phase_idx: usize,
    units_into_phase: f64,
    backlog_units: f64,
    /// Offered-load multiplier for the current step, set by the scenario
    /// layer from its arrival model (1.0 = design-point load).
    intensity: f64,
    acct: TenantAccount,
}

/// Cumulative per-tenant accounting, exact by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantAccount {
    /// Package energy attributed to this tenant (J).
    pub energy_j: f64,
    /// Floating-point operations served.
    pub flops: f64,
    /// Memory traffic served (bytes).
    pub bytes: f64,
    /// Work units offered by the arrival process.
    pub offered_units: f64,
    /// Work units actually served.
    pub served_units: f64,
}

/// What one `step` did, for the scenario layer's gauges and SLO checks.
#[derive(Debug, Clone)]
pub struct SharedStep {
    /// Chosen core frequency.
    pub core_freq: Hertz,
    /// Chosen uncore frequency.
    pub uncore_freq: Hertz,
    /// Package power over the step.
    pub pkg_power: Watts,
    /// Package energy of the step (J).
    pub pkg_energy_j: f64,
    /// DRAM energy of the step (J, measurement-only).
    pub dram_energy_j: f64,
    /// Aggregate achieved bandwidth.
    pub achieved_bw: BytesPerSec,
    /// Per-tenant package energy attributed this step (J); sums exactly
    /// to [`SharedStep::pkg_energy_j`].
    pub tenant_energy_j: Vec<f64>,
}

/// Per-step working buffers, owned by the socket so that
/// [`SharedSocketSim::step`] allocates nothing but the attribution vector
/// it returns. Each step clears and resizes them to the tenant count and
/// visits them in slot order, exactly as fresh vectors would be.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// Slots with backlog, ascending.
    active: Vec<usize>,
    /// Cores granted to each slot this step.
    shares: Vec<u16>,
    /// Unconstrained bandwidth demand per slot (B/s).
    demand_bw: Vec<f64>,
    /// FLOPs served per slot this step.
    served_flops: Vec<f64>,
    /// Bytes served per slot this step.
    served_bytes: Vec<f64>,
    /// Fraction of the step each slot spent serving.
    busy_frac: Vec<f64>,
}

impl StepScratch {
    /// Empties every buffer and zero-fills the per-slot ones to `n`.
    fn reset(&mut self, n: usize) {
        self.active.clear();
        for v in [
            &mut self.demand_bw,
            &mut self.served_flops,
            &mut self.served_bytes,
            &mut self.busy_frac,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.shares.clear();
        self.shares.resize(n, 0);
    }
}

/// A package co-scheduling N tenants under one RAPL ceiling.
#[derive(Debug, Clone)]
pub struct SharedSocketSim {
    cfg: SharedSocketCfg,
    tenants: Vec<TenantState>,
    enforcer: CapEnforcer,
    ceiling: Watts,
    uncore: Hertz,
    /// EMA of achieved-bandwidth utilisation, drives the built-in
    /// DUF-style uncore governor (memory pressure up → uncore up).
    mem_pressure: f64,
    /// `bandwidth.uncore_factor(uncore)` keyed on the uncore's bits: a
    /// pure function of them, so the cached value is exactly what
    /// `achievable` would recompute, without its `powf`.
    uf: (u64, f64),
    /// `enforcer.gains(dt)` keyed on `dt`'s bits (the windows and settle
    /// constant never change), so `step_with_gains` is bit-identical to
    /// `step(dt, p)` without its division and `exp` per step.
    gains: Option<(u64, CapGains)>,
    scratch: StepScratch,
}

impl SharedSocketSim {
    /// Builds the socket with `tenants` (name, phase table) pairs. Tenant
    /// weights are expressed by scaling the table first
    /// ([`Workload::scaled`]); the socket itself treats tenants equally.
    pub fn new(cfg: SharedSocketCfg, tenants: Vec<(String, Arc<Workload>)>) -> Result<Self> {
        if tenants.is_empty() {
            return Err(Error::invalid(
                "tenants",
                "a shared socket needs at least one tenant",
            ));
        }
        let roofline = RooflineModel { cores: cfg.cores };
        let tenants = tenants
            .into_iter()
            .map(|(name, workload)| {
                let nominal_rate: Vec<f64> = workload
                    .phases
                    .iter()
                    .map(|p| {
                        roofline
                            .progress(&p.rates, cfg.core_freq_max, cfg.bandwidth.peak)
                            .units_per_sec
                    })
                    .collect();
                TenantState {
                    name,
                    workload,
                    nominal_rate,
                    phase_idx: 0,
                    units_into_phase: 0.0,
                    backlog_units: 0.0,
                    intensity: 0.0,
                    acct: TenantAccount::default(),
                }
            })
            .collect();
        let enforcer = CapEnforcer::new(cfg.pl1, cfg.pl1_window, cfg.pl2, cfg.pl2_window, cfg.cap);
        let ceiling = cfg.pl1;
        let uncore = cfg.uncore_max;
        let uf = (
            uncore.value().to_bits(),
            cfg.bandwidth.uncore_factor(uncore),
        );
        Ok(SharedSocketSim {
            cfg,
            tenants,
            enforcer,
            ceiling,
            uncore,
            mem_pressure: 0.5,
            uf,
            gains: None,
            scratch: StepScratch::default(),
        })
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant names, in slot order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// The config the socket was built with.
    pub fn cfg(&self) -> &SharedSocketCfg {
        &self.cfg
    }

    /// Cumulative accounting for tenant `i`.
    pub fn account(&self, i: usize) -> TenantAccount {
        self.tenants.get(i).map(|t| t.acct).unwrap_or_default()
    }

    /// Current backlog of tenant `i`, in seconds of design-point work
    /// (the unit SLO thresholds are expressed in).
    pub fn backlog_seconds(&self, i: usize) -> f64 {
        let Some(t) = self.tenants.get(i) else {
            return 0.0;
        };
        let rate = t.nominal_rate[t.phase_idx];
        if rate > 0.0 {
            t.backlog_units / rate
        } else {
            0.0
        }
    }

    /// Sets tenant `i`'s offered-load multiplier for subsequent steps.
    pub fn set_intensity(&mut self, i: usize, intensity: f64) {
        if let Some(t) = self.tenants.get_mut(i) {
            t.intensity = intensity.clamp(0.0, 8.0);
        }
    }

    /// Applies a new budget ceiling (clamped to `[cap_floor, pl1]`); the
    /// short-term limit keeps the platform's PL2/PL1 ratio.
    pub fn set_ceiling(&mut self, ceiling: Watts) {
        let c = Watts(
            ceiling
                .value()
                .clamp(self.cfg.cap_floor.value(), self.cfg.pl1.value()),
        );
        self.ceiling = c;
        let ratio = self.cfg.pl2.value() / self.cfg.pl1.value().max(1e-9);
        self.enforcer.set_limits(c, Watts(c.value() * ratio));
    }

    /// The ceiling currently enforced.
    pub fn ceiling(&self) -> Watts {
        self.ceiling
    }

    /// True when any tenant still has backlog.
    pub fn has_backlog(&self) -> bool {
        self.tenants.iter().any(|t| t.backlog_units > 1e-12)
    }

    /// [`SharedSocketSim::step`] under its older name, kept only because
    /// the `ledger` benchmark's scenario mirror
    /// (`crates/bench/src/bin/ledger/mirror.rs`) calls it.
    pub fn step_fast(&mut self, dt: Seconds) -> SharedStep {
        self.step(dt)
    }

    /// Advances the socket by `dt`: arrivals, the core/uncore operating
    /// point, proportional bandwidth sharing, phase progress and exact
    /// energy attribution.
    pub fn step(&mut self, dt: Seconds) -> SharedStep {
        let dt_s = dt.value().max(0.0);

        // 1. Arrivals: offered load accrues into backlogs.
        for t in &mut self.tenants {
            let offered = t.intensity * t.nominal_rate[t.phase_idx] * dt_s;
            t.backlog_units += offered;
            t.acct.offered_units += offered;
        }

        // 2. Uncore: a DUF-style pressure follower — track the EMA of
        // achieved-bandwidth utilisation, snapped to the actuation ladder.
        let span = self.cfg.uncore_max.value() - self.cfg.uncore_min.value();
        let raw = self.cfg.uncore_min.value() + span * self.mem_pressure.clamp(0.0, 1.0);
        let step_hz = self.cfg.uncore_step.value().max(1.0);
        let snapped = self.cfg.uncore_min.value()
            + ((raw - self.cfg.uncore_min.value()) / step_hz).round() * step_hz;
        self.uncore =
            Hertz(snapped.clamp(self.cfg.uncore_min.value(), self.cfg.uncore_max.value()));
        if self.uf.0 != self.uncore.value().to_bits() {
            self.uf = (
                self.uncore.value().to_bits(),
                self.cfg.bandwidth.uncore_factor(self.uncore),
            );
        }

        // 3. Core split across tenants with backlog (even shares, the
        // remainder cores to the lowest slots — deterministic).
        let n = self.tenants.len();
        self.scratch.reset(n);
        let StepScratch {
            active,
            shares,
            demand_bw,
            served_flops,
            served_bytes,
            busy_frac,
        } = &mut self.scratch;
        active.extend((0..n).filter(|&i| self.tenants[i].backlog_units > 1e-12));
        let n_active = active.len();
        if n_active > 0 {
            let base = self.cfg.cores / n_active as u16;
            let rem = (self.cfg.cores % n_active as u16) as usize;
            for (rank, &i) in active.iter().enumerate() {
                shares[i] = base + u16::from(rank < rem);
            }
        }

        // 4. Operating point: the governor's activity estimate feeds the
        // cap-allowance frequency inversion, exactly like the single-app
        // socket does.
        let est_util: f64 = active
            .iter()
            .map(|&i| {
                let t = &self.tenants[i];
                f64::from(shares[i]) / f64::from(self.cfg.cores.max(1))
                    * t.workload.phases[t.phase_idx].core_util
            })
            .sum();
        let est_activity = SocketActivity {
            core_util: est_util,
            mem_util: self.mem_pressure,
            active_cores: shares.iter().sum(),
        };
        let allowance = self.enforcer.allowance();
        let f = self.cfg.power.max_frequency_within(
            self.cfg.core_freq_min,
            self.cfg.core_freq_max,
            self.cfg.core_freq_step,
            self.uncore,
            &est_activity,
            allowance,
        );
        // `achievable(uncore, allowance)` with the cached uncore factor.
        let bw_total =
            self.cfg.bandwidth.peak * self.uf.1 * self.cfg.bandwidth.cap_factor(allowance);

        // 5. First pass: unconstrained demand at full bandwidth; second
        // pass: proportional bandwidth shares when demand oversubscribes.
        for &i in active.iter() {
            let t = &self.tenants[i];
            let m = RooflineModel { cores: shares[i] };
            demand_bw[i] = m
                .progress(&t.workload.phases[t.phase_idx].rates, f, bw_total)
                .bandwidth
                .value();
        }
        let total_demand: f64 = demand_bw.iter().sum();
        let oversub = total_demand > bw_total.value() && total_demand > 0.0;

        // 6. Serve: progress each tenant at its (possibly shared) rate,
        // cycling phases within the step as boundaries are crossed.
        for &i in active.iter() {
            let bw_i = if oversub {
                BytesPerSec(bw_total.value() * demand_bw[i] / total_demand)
            } else {
                bw_total
            };
            let m = RooflineModel { cores: shares[i] };
            let mut time_left = dt_s;
            let t = &mut self.tenants[i];
            // Bounded by phases-per-step in practice; the backlog check
            // terminates the loop when the queue drains.
            while time_left > 1e-12 && t.backlog_units > 1e-12 {
                let phase = &t.workload.phases[t.phase_idx];
                let rate = m.progress(&phase.rates, f, bw_i).units_per_sec;
                if rate <= 0.0 {
                    break;
                }
                let phase_left = (phase.work_units - t.units_into_phase).max(0.0);
                let want = (rate * time_left).min(t.backlog_units);
                let serve = want.min(phase_left.max(1e-12));
                t.backlog_units -= serve;
                t.units_into_phase += serve;
                t.acct.served_units += serve;
                served_flops[i] += serve * phase.rates.flops_per_unit;
                served_bytes[i] += serve * phase.rates.bytes_per_unit;
                time_left -= serve / rate;
                if t.units_into_phase >= phase.work_units - 1e-12 {
                    t.units_into_phase = 0.0;
                    t.phase_idx = (t.phase_idx + 1) % t.workload.phases.len();
                }
            }
            busy_frac[i] = ((dt_s - time_left) / dt_s.max(1e-12)).clamp(0.0, 1.0);
        }

        // 7. Realised activity → power, integrated once for the package.
        let achieved_bw_rate = served_bytes.iter().sum::<f64>() / dt_s.max(1e-12);
        let mem_util =
            (achieved_bw_rate / self.cfg.bandwidth.peak.value().max(1.0)).clamp(0.0, 1.0);
        let core_util: f64 = active
            .iter()
            .map(|&i| {
                let t = &self.tenants[i];
                f64::from(shares[i]) / f64::from(self.cfg.cores.max(1))
                    * t.workload.phases[t.phase_idx].core_util
                    * busy_frac[i]
            })
            .sum();
        let activity = SocketActivity {
            core_util,
            mem_util,
            active_cores: shares.iter().sum(),
        };
        let pkg_power = self.cfg.power.package_total(f, self.uncore, &activity);
        let pkg_energy = pkg_power.value() * dt_s;
        let dram_energy = self.cfg.dram.power(BytesPerSec(achieved_bw_rate)).value() * dt_s;

        // 8. Exact attribution: tenant weights from this step's share of
        // FLOPs and bytes; the last participant absorbs the floating-point
        // remainder so Σ tenant energy == socket energy *exactly*. With no
        // demand at all, idle power splits evenly.
        let sum_f: f64 = served_flops.iter().sum();
        let sum_b: f64 = served_bytes.iter().sum();
        let mut tenant_energy = vec![0.0f64; n];
        if sum_f <= 0.0 && sum_b <= 0.0 {
            let even = pkg_energy / n as f64;
            for e in tenant_energy.iter_mut().take(n - 1) {
                *e = even;
            }
        } else {
            for i in 0..n - 1 {
                let wf = if sum_f > 0.0 {
                    served_flops[i] / sum_f
                } else {
                    0.0
                };
                let wb = if sum_b > 0.0 {
                    served_bytes[i] / sum_b
                } else {
                    0.0
                };
                let w = match (sum_f > 0.0, sum_b > 0.0) {
                    (true, true) => 0.5 * wf + 0.5 * wb,
                    (true, false) => wf,
                    (false, _) => wb,
                };
                tenant_energy[i] = pkg_energy * w;
            }
        }
        let assigned: f64 = tenant_energy[..n - 1].iter().sum();
        tenant_energy[n - 1] = pkg_energy - assigned;
        // Re-anchor the reported package energy to the left-to-right sum of
        // the attribution: `fl(a + fl(p − a))` can land 1 ulp off `p`, so
        // the conservation invariant is defined over the attribution vector
        // itself (any consumer summing it in order reproduces this value
        // bit-exactly). The ulp-level difference from `power × dt` is far
        // below the model's fidelity.
        let pkg_energy: f64 = tenant_energy.iter().sum();
        for (t, (&e, (&fl, &by))) in self.tenants.iter_mut().zip(
            tenant_energy
                .iter()
                .zip(served_flops.iter().zip(served_bytes.iter())),
        ) {
            t.acct.energy_j += e;
            t.acct.flops += fl;
            t.acct.bytes += by;
        }

        // 9. Firmware and pressure state advance for the next step.
        let dt_bits = dt.value().to_bits();
        let gains = match self.gains {
            Some((bits, g)) if bits == dt_bits => g,
            _ => {
                let g = self.enforcer.gains(dt);
                self.gains = Some((dt_bits, g));
                g
            }
        };
        self.enforcer.step_with_gains(pkg_power, &gains);
        let alpha = (dt_s / 0.2).clamp(0.0, 1.0);
        self.mem_pressure += alpha * (mem_util - self.mem_pressure);

        SharedStep {
            core_freq: f,
            uncore_freq: self.uncore,
            pkg_power,
            pkg_energy_j: pkg_energy,
            dram_energy_j: dram_energy,
            achieved_bw: BytesPerSec(achieved_bw_rate),
            tenant_energy_j: tenant_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_workloads::{Boundness, MaterializeCtx, PhaseSpec};

    fn ctx() -> MaterializeCtx {
        MaterializeCtx::from_arch(&ArchSpec::yeti())
    }

    fn mixed_workload(name: &str) -> Arc<Workload> {
        let specs = [
            PhaseSpec {
                name: "stream".into(),
                seconds_at_default: 2.0,
                oi: 0.06,
                boundness: Boundness::MemoryBound { headroom: 1.5 },
                core_util: 0.5,
                overlap_penalty: 0.0,
            },
            PhaseSpec {
                name: "crunch".into(),
                seconds_at_default: 2.0,
                oi: 150.0,
                boundness: Boundness::ComputeBound { mem_frac: 0.2 },
                core_util: 0.95,
                overlap_penalty: 0.0,
            },
        ];
        Arc::new(Workload::from_specs(name, &specs, &ctx()).unwrap())
    }

    fn two_tenant_socket() -> SharedSocketSim {
        let cfg = SharedSocketCfg::from_arch(&ArchSpec::yeti());
        SharedSocketSim::new(
            cfg,
            vec![
                ("a".into(), mixed_workload("a")),
                ("b".into(), mixed_workload("b")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_tenant_mix() {
        let cfg = SharedSocketCfg::from_arch(&ArchSpec::yeti());
        assert!(SharedSocketSim::new(cfg, vec![]).is_err());
    }

    #[test]
    fn energy_attribution_is_exact_every_step() {
        let mut s = two_tenant_socket();
        s.set_intensity(0, 0.8);
        s.set_intensity(1, 0.4);
        for _ in 0..500 {
            let step = s.step(Seconds(0.01));
            let sum: f64 = step.tenant_energy_j.iter().sum();
            assert_eq!(sum, step.pkg_energy_j, "attribution must be exact");
        }
        let total: f64 = (0..2).map(|i| s.account(i).energy_j).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn service_keeps_up_at_low_intensity_and_lags_under_deep_cap() {
        let mut s = two_tenant_socket();
        s.set_intensity(0, 0.3);
        s.set_intensity(1, 0.3);
        for _ in 0..1000 {
            s.step(Seconds(0.01));
        }
        assert!(s.backlog_seconds(0) < 0.5, "light load must not queue");

        let mut capped = two_tenant_socket();
        capped.set_ceiling(Watts(65.0));
        capped.set_intensity(0, 1.2);
        capped.set_intensity(1, 1.2);
        for _ in 0..1000 {
            capped.step(Seconds(0.01));
        }
        assert!(
            capped.backlog_seconds(0) > s.backlog_seconds(0),
            "a deep cap under heavy co-tenant load must build backlog"
        );
    }

    #[test]
    fn deeper_ceiling_saves_energy() {
        let run = |ceiling: Option<Watts>| {
            let mut s = two_tenant_socket();
            if let Some(c) = ceiling {
                s.set_ceiling(c);
            }
            s.set_intensity(0, 0.5);
            s.set_intensity(1, 0.5);
            let mut e = 0.0;
            for _ in 0..1000 {
                e += s.step(Seconds(0.01)).pkg_energy_j;
            }
            e
        };
        let uncapped = run(None);
        let capped = run(Some(Watts(80.0)));
        assert!(capped < uncapped, "capping must reduce package energy");
    }

    #[test]
    fn ceiling_clamps_to_floor_and_pl1() {
        let mut s = two_tenant_socket();
        s.set_ceiling(Watts(10.0));
        assert_eq!(s.ceiling(), Watts(65.0));
        s.set_ceiling(Watts(500.0));
        assert_eq!(s.ceiling(), Watts(125.0));
    }

    #[test]
    fn deterministic_replay_is_bit_equal() {
        let run = || {
            let mut s = two_tenant_socket();
            s.set_intensity(0, 0.7);
            s.set_intensity(1, 0.9);
            let mut sig = Vec::new();
            for _ in 0..200 {
                let st = s.step(Seconds(0.01));
                sig.push((
                    st.pkg_power.value().to_bits(),
                    st.tenant_energy_j[0].to_bits(),
                ));
            }
            sig
        };
        assert_eq!(run(), run());
    }
}
