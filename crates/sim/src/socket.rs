//! Per-socket simulation state and tick logic.

use crate::config::SimConfig;
use crate::trace::{Trace, TracePoint};
use dufp_model::{
    CapEnforcer, CapGains, DvfsLadder, LadderPoint, PowerModel, RooflineModel, SocketActivity,
};
use dufp_msr::registers::{PerfCtl, PkgPowerLimit, RaplPowerUnit, UncoreRatioLimit};
use dufp_telemetry::{Counter, Gauge, Telemetry};
use dufp_types::{Hertz, Instant, Seconds, Watts};
use dufp_workloads::Workload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Pre-registered per-socket instruments, resolved once at attach time so
/// the tick path never touches the registry's name map.
#[derive(Debug)]
struct SocketGauges {
    pkg_power: Arc<Gauge>,
    dram_power: Arc<Gauge>,
    flops: Arc<Gauge>,
    bandwidth: Arc<Gauge>,
    core_freq: Arc<Gauge>,
    uncore_freq: Arc<Gauge>,
    ticks: Arc<Counter>,
}

impl SocketGauges {
    fn new(tel: &Telemetry, socket_index: u16) -> Self {
        let name = |metric: &str| format!("sim.socket{socket_index}.{metric}");
        SocketGauges {
            pkg_power: tel.gauge(&name("pkg_power_w")),
            dram_power: tel.gauge(&name("dram_power_w")),
            flops: tel.gauge(&name("flops_per_sec")),
            bandwidth: tel.gauge(&name("bytes_per_sec")),
            core_freq: tel.gauge(&name("core_freq_hz")),
            uncore_freq: tel.gauge(&name("uncore_freq_hz")),
            ticks: tel.counter(&name("ticks")),
        }
    }
}

/// Monotonic counters a socket accumulates (telemetry surface).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulators {
    /// FLOPs retired.
    pub flops: f64,
    /// Bytes moved to/from DRAM.
    pub bytes: f64,
    /// Package energy in joules.
    pub pkg_energy: f64,
    /// DRAM energy in joules.
    pub dram_energy: f64,
    /// Actual core cycles (APERF).
    pub aperf: f64,
    /// Reference cycles at base clock (MPERF).
    pub mperf: f64,
}

/// The memoized operating point of [`SocketSim::tick_fast`]'s fast path.
///
/// A full [`SocketSim::tick`] spends almost all of its time re-deriving
/// values that are constant across a steady stretch: the DVFS ladder
/// search (up to 20 power-model evaluations, about 4–6 on average from
/// the top rung, about 2 from the rung of the memo a rebuild replaces),
/// achievable bandwidth, roofline progress rates and the package power
/// base. This memo caches those outputs *bitwise* along with the
/// entry-state fingerprint and allowance interval over which `tick` is
/// guaranteed to recompute them identically; while the memo validates, a
/// tick reduces to the RNG draws, the noise multiplies and the
/// accumulator additions — the exact f64 operations the full tick
/// performs, in the same order, on the same cached bit patterns.
///
/// Validity depends on the socket's state, not on its write history, so a
/// register write leaves the memo in place. A `0x610` write only moves the
/// enforcer's `pl1`/`pl2`: no cached value depends on them, and the kernel
/// reads `pl1` live. A `0x620` or `IA32_PERF_CTL` write matters only when
/// it moves the effective uncore or the frequency ceiling, which the memo
/// records and [`SocketSim::memo_valid`] compares.
#[derive(Debug, Clone, Copy)]
struct StepMemo {
    /// Workload phase index the memo was derived for.
    phase_idx: usize,
    /// Whether the socket was done (idle) when the memo was derived.
    done: bool,
    /// Bit pattern of the entry `mem_util` the cached activity used.
    mem_util_bits: u64,
    /// Tick duration in seconds.
    dt: Seconds,
    /// Effective uncore frequency the memo was built for.
    uncore: Hertz,
    /// Frequency ceiling (`IA32_PERF_CTL` bounded by the ladder) the memo
    /// was built for.
    ceiling: Hertz,
    /// Bit pattern of `bandwidth.achievable(uncore, allowance)` at build
    /// time; the fast path recomputes it each tick (three multiplies) and
    /// stops the batch the moment the bits move.
    bw_bits: u64,
    /// Cached `bandwidth.uncore_factor(uncore)` — a pure function of the
    /// memo's fixed uncore frequency, so its bits are exactly what
    /// `achievable` would recompute; caching it turns the per-tick
    /// bandwidth check from a `powf` into two multiplies.
    uf: f64,
    /// The ladder rung the cap inversion chose, with its stability bounds.
    /// `None` for an idle (done) socket, which performs no search.
    ladder: Option<LadderPoint>,
    /// Applied core frequency (ladder result bounded by the ceiling).
    core_freq: Hertz,
    /// Noise-free achieved-bandwidth rate (bytes/s).
    progress_bw: f64,
    /// Noise-free FLOP rate (FLOP/s).
    flops_rate: f64,
    /// Noise-free work-unit completion rate (units/s).
    units_rate: f64,
    /// The `mem_util` value this tick writes back (noise-free).
    new_mem_util: f64,
    /// Package power before the multiplicative power noise (W).
    pkg_power_base: f64,
}

/// One simulated processor package plus its share of the workload.
#[derive(Debug)]
pub struct SocketSim {
    cfg: SimConfig,
    /// Register-visible uncore band (from `MSR_UNCORE_RATIO_LIMIT`).
    uncore_raw: UncoreRatioLimit,
    /// Register-visible power-limit word (from `MSR_PKG_POWER_LIMIT`).
    limit_raw: u64,
    /// Register-visible P-state request (from `IA32_PERF_CTL`). Caps the
    /// frequency the governor may pick; the architectural ladder still
    /// bounds it.
    perf_ctl: PerfCtl,
    /// `uncore_raw`'s band snapped onto the uncore ladder, `(lo, hi)`:
    /// derived on each `0x620` write rather than on each read.
    uncore_band: (Hertz, Hertz),
    /// `perf_ctl` snapped onto the core ladder and bounded by its top:
    /// derived on each `IA32_PERF_CTL` write rather than on each read.
    ceiling: Hertz,
    enforcer: CapEnforcer,
    /// The enforcer's EMA/settle coefficients for one tick. They depend
    /// only on the tick length and the enforcer's windows, which never
    /// change after construction.
    gains: CapGains,
    core_freq: Hertz,
    /// Bandwidth utilization of the previous tick (feeds power prediction).
    mem_util: f64,
    workload: Option<Workload>,
    phase_idx: usize,
    units_done: f64,
    acc: Accumulators,
    rng: ChaCha8Rng,
    run_perf_factor: f64,
    run_power_factor: f64,
    walk: f64,
    trace: Option<Trace>,
    trace_stride: u32,
    ticks: u64,
    /// Ground-truth workload phase transitions: `(time, new_phase_index)`.
    phase_log: Vec<(Instant, usize)>,
    gauges: Option<SocketGauges>,
    /// Fast-path memo; `None` before the first fast-path step and after a
    /// workload load. It survives register writes: whether it still holds
    /// is [`SocketSim::memo_valid`]'s question, asked once per batch.
    memo: Option<StepMemo>,
}

impl SocketSim {
    /// Creates an idle socket in the default configuration: uncore band
    /// `[min, max]`, PL1/PL2 at the architecture defaults, performance
    /// governor at max turbo.
    pub fn new(cfg: SimConfig, socket_index: u16) -> Self {
        let arch = &cfg.arch;
        let uncore_raw = UncoreRatioLimit {
            max_ratio: arch.uncore_freq_max.as_ratio_100mhz(),
            min_ratio: arch.uncore_freq_min.as_ratio_100mhz(),
        };
        let units = RaplPowerUnit::skylake_sp();
        let limit_raw = PkgPowerLimit::defaults(
            arch.pl1_default,
            arch.pl1_window,
            arch.pl2_default,
            arch.pl2_window,
        )
        .encode(&units)
        .expect("default limits encode");
        let enforcer = CapEnforcer::new(
            arch.pl1_default,
            arch.pl1_window,
            arch.pl2_default,
            arch.pl2_window,
            cfg.cap,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(
            cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(socket_index) + 1)),
        );
        let run_perf_factor = 1.0 + cfg.noise.run_sigma * sym(&mut rng);
        let run_power_factor = 1.0 + cfg.noise.run_sigma * sym(&mut rng);
        let core_freq = arch.core_freq_max;
        let perf_ctl = PerfCtl::capped_at(arch.core_freq_max);
        let uncore_band = snap_band(&cfg, uncore_raw);
        let ceiling = snap_ceiling(&cfg, perf_ctl);
        let gains = enforcer.gains(cfg.tick.as_seconds());
        SocketSim {
            cfg,
            uncore_raw,
            limit_raw,
            perf_ctl,
            uncore_band,
            ceiling,
            enforcer,
            gains,
            core_freq,
            mem_util: 0.0,
            workload: None,
            phase_idx: 0,
            units_done: 0.0,
            acc: Accumulators::default(),
            rng,
            run_perf_factor,
            run_power_factor,
            walk: 0.0,
            trace: None,
            trace_stride: 1,
            ticks: 0,
            phase_log: Vec::new(),
            gauges: None,
            memo: None,
        }
    }

    /// Publishes this socket's per-tick state (power, FLOPS/s, bandwidth,
    /// frequencies) as gauges on `tel`. A disabled handle detaches.
    pub fn attach_telemetry(&mut self, tel: &Telemetry, socket_index: u16) {
        self.gauges = tel
            .is_enabled()
            .then(|| SocketGauges::new(tel, socket_index));
    }

    /// Assigns a workload; counters keep accumulating across assignments.
    pub fn load(&mut self, workload: Workload) {
        self.workload = Some(workload);
        self.phase_idx = 0;
        self.units_done = 0.0;
        self.phase_log.clear();
        self.memo = None;
    }

    /// Ground-truth phase transitions so far: `(time, new_phase_index)`.
    /// The run start counts as a transition into phase 0.
    pub fn phase_log(&self) -> &[(Instant, usize)] {
        &self.phase_log
    }

    /// True once every phase has completed (or no workload is loaded).
    pub fn done(&self) -> bool {
        match &self.workload {
            None => true,
            Some(w) => self.phase_idx >= w.phases.len(),
        }
    }

    /// Starts recording a trace with the given stride (in ticks).
    pub fn enable_trace(&mut self, stride: u32) {
        self.trace = Some(Trace::default());
        self.trace_stride = stride.max(1);
    }

    /// Takes the recorded trace, if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Current raw counter values.
    pub fn accumulators(&self) -> &Accumulators {
        &self.acc
    }

    /// The uncore ratio register content.
    pub fn uncore_raw(&self) -> UncoreRatioLimit {
        self.uncore_raw
    }

    /// Programs the uncore ratio register (what an `0x620` write does).
    pub fn write_uncore(&mut self, raw: UncoreRatioLimit) {
        self.uncore_raw = raw;
        self.uncore_band = snap_band(&self.cfg, raw);
    }

    /// The power-limit register content.
    pub fn limit_raw(&self) -> u64 {
        self.limit_raw
    }

    /// Programs the power-limit register (what an `0x610` write does).
    pub fn write_limit(&mut self, raw: u64) {
        self.limit_raw = raw;
        let units = RaplPowerUnit::skylake_sp();
        let decoded = PkgPowerLimit::decode(raw, &units);
        let pl1 = if decoded.pl1.enabled {
            decoded.pl1.power
        } else {
            self.cfg.arch.pl1_default
        };
        let pl2 = if decoded.pl2.enabled {
            decoded.pl2.power
        } else {
            self.cfg.arch.pl2_default
        };
        self.enforcer.set_limits(pl1, pl2);
    }

    /// Applied core frequency (what APERF/MPERF or Fig. 5's traces show).
    pub fn core_freq(&self) -> Hertz {
        self.core_freq
    }

    /// The P-state request register content.
    pub fn perf_ctl(&self) -> PerfCtl {
        self.perf_ctl
    }

    /// Programs the P-state request (what an `IA32_PERF_CTL` write does).
    pub fn write_perf_ctl(&mut self, raw: PerfCtl) {
        self.perf_ctl = raw;
        self.ceiling = snap_ceiling(&self.cfg, raw);
    }

    /// The effective frequency ceiling: the architectural maximum bounded
    /// by the `IA32_PERF_CTL` request.
    fn freq_ceiling(&self) -> Hertz {
        self.ceiling
    }

    /// The uncore frequency the hardware is running.
    ///
    /// With a pinned band this is the pinned value; otherwise the default
    /// hardware UFS heuristic applies: the band maximum whenever the socket
    /// is active (the conservative behaviour that "fails to adapt to the
    /// application needs" per the paper's §I), the minimum when idle.
    pub fn effective_uncore(&self) -> Hertz {
        let (lo, hi) = self.uncore_band;
        if self.done() {
            lo
        } else {
            hi
        }
    }

    /// Advances the socket by one tick. `now` is the time at the *start*
    /// of the tick.
    pub fn tick(&mut self, now: Instant) {
        let dt = self.cfg.tick.as_seconds();
        let uncore = self.effective_uncore();
        let allowance = self.enforcer.allowance();

        // Noise evolution.
        let n = self.cfg.noise;
        if n.walk_sigma > 0.0 {
            self.walk = 0.98 * self.walk + n.walk_sigma * sym(&mut self.rng);
        }
        let perf_noise =
            (self.run_perf_factor + self.walk + n.tick_sigma * sym(&mut self.rng)).max(0.1);
        let power_noise =
            (self.run_power_factor + self.walk + n.tick_sigma * sym(&mut self.rng)).max(0.1);

        // Achievable bandwidth under current uncore and cap pressure.
        let bw = self.cfg.bandwidth.achievable(uncore, allowance);

        let (activity, progress_bw, flops_rate, units_rate) = if self.done() {
            (SocketActivity::idle(), 0.0, 0.0, 0.0)
        } else {
            let w = self.workload.as_ref().expect("not done implies loaded");
            let phase = &w.phases[self.phase_idx];
            let activity = SocketActivity {
                core_util: phase.core_util,
                mem_util: self.mem_util,
                active_cores: self.cfg.arch.cores_per_socket,
            };
            // The governor requests a frequency from the phase's compute
            // share; PERF_CTL bounds the request and RAPL then picks the
            // highest ladder frequency whose predicted power fits the
            // allowance.
            let n = f64::from(self.cfg.arch.cores_per_socket);
            let fmax = self.cfg.arch.core_freq_max;
            let tc = if phase.rates.flops_per_core_cycle > 0.0 {
                phase.rates.flops_per_unit / (phase.rates.flops_per_core_cycle * n * fmax.value())
            } else {
                0.0
            };
            let tm = phase.rates.bytes_per_unit / bw.value().max(1.0);
            let compute_share = if tc.max(tm) > 0.0 {
                tc / tc.max(tm)
            } else {
                1.0
            };
            let requested =
                self.cfg
                    .governor
                    .request(self.cfg.arch.core_freq_min, fmax, compute_share);
            let ceiling = self
                .cfg
                .arch
                .snap_core_freq(requested)
                .min(self.freq_ceiling());
            self.core_freq =
                solve_frequency(&self.cfg, &self.cfg.power, uncore, &activity, allowance)
                    .min(ceiling);
            let roofline = RooflineModel {
                cores: self.cfg.arch.cores_per_socket,
            };
            let pr = roofline.progress(&phase.rates, self.core_freq, bw);
            (
                activity,
                pr.bandwidth.value(),
                pr.flops.value(),
                pr.units_per_sec,
            )
        };
        if self.done() {
            self.core_freq = self.cfg.arch.core_freq_min;
        }

        // Progress the workload.
        let advanced_units = units_rate * dt.value() * perf_noise;
        self.acc.flops += flops_rate * dt.value() * perf_noise;
        self.acc.bytes += progress_bw * dt.value() * perf_noise;
        self.mem_util = (progress_bw / self.cfg.bandwidth.peak.value()).clamp(0.0, 1.0);
        self.advance_phase(advanced_units, now);

        // Power accounting.
        let pkg_power = Watts(
            self.cfg
                .power
                .package_total(self.core_freq, uncore, &activity)
                .value()
                * power_noise,
        );
        let dram_power = self
            .cfg
            .dram
            .power(dufp_types::BytesPerSec(progress_bw * perf_noise));
        self.acc.pkg_energy += (pkg_power * dt).value();
        self.acc.dram_energy += (dram_power * dt).value();
        self.acc.aperf += self.core_freq.value() * dt.value();
        self.acc.mperf += self.cfg.arch.core_freq_base.value() * dt.value();

        // RAPL firmware reacts to the measured power.
        self.enforcer.step(dt, pkg_power);

        if let Some(g) = &self.gauges {
            g.pkg_power.set(pkg_power.value());
            g.dram_power.set(dram_power.value());
            g.flops.set(flops_rate * perf_noise);
            g.bandwidth.set(progress_bw * perf_noise);
            g.core_freq.set(self.core_freq.value());
            g.uncore_freq.set(uncore.value());
            g.ticks.inc();
        }

        // Trace.
        if self.ticks.is_multiple_of(u64::from(self.trace_stride)) {
            let pl1 = self.enforcer.pl1();
            if let Some(tr) = self.trace.as_mut() {
                tr.points.push(TracePoint {
                    at: now,
                    core_freq: self.core_freq,
                    uncore_freq: uncore,
                    pkg_power,
                    allowance,
                    pl1,
                });
            }
        }
        self.ticks += 1;
    }

    /// Advances the socket by one tick, exactly like [`SocketSim::tick`]
    /// but through the memo-replay kernel whenever the cached operating
    /// point is *provably* what `tick` would recompute — same phase, same
    /// entry `mem_util` bits, bandwidth bits unmoved, and the allowance
    /// still inside the ladder rung's stability interval. Every observable
    /// (accumulators, RNG stream, enforcer state, gauges, trace points,
    /// phase log) is bit-identical to per-tick stepping; `tick` stays the
    /// untouched differential oracle.
    pub fn tick_fast(&mut self, now: Instant) {
        self.step_fast(now, 1);
    }

    /// Advances up to `max` ticks from `start` through the fast path,
    /// stopping after the tick on which the socket is done, but never
    /// before `min.min(max)` ticks: a finished socket idles up to there.
    /// Returns the number of ticks advanced.
    pub(crate) fn advance(&mut self, start: Instant, min: u64, max: u64) -> u64 {
        let tick_us = self.cfg.tick.as_micros();
        let mut advanced = 0;
        while advanced < max && (advanced < min || !self.done()) {
            let limit = if self.done() { min.min(max) } else { max };
            advanced += self.step_fast(Instant(start.0 + advanced * tick_us), limit - advanced);
        }
        advanced
    }

    /// One step of the fast path: a kernel batch of up to `max >= 1` ticks.
    /// When the memo does not validate, it is rebuilt from the current
    /// state and the batch replays through the kernel all the same, so a
    /// miss derives the operating point once. Should the kernel reject the
    /// memo it was just given, one full `tick` runs instead. Returns the
    /// number of ticks advanced.
    fn step_fast(&mut self, start: Instant, max: u64) -> u64 {
        let memo = match self.memo {
            Some(memo) if self.memo_valid(&memo) => memo,
            _ => {
                let memo = self.build_memo();
                self.memo = Some(memo);
                memo
            }
        };
        match self.tick_fast_batch(memo, start, max) {
            // A validated memo passes the kernel's first check, so only a
            // fresh memo can land here.
            0 => {
                self.tick(start);
                1
            }
            ticks => ticks,
        }
    }

    /// True when the memo's cached outputs are exactly what `tick` would
    /// recompute from the current state.
    fn memo_valid(&self, memo: &StepMemo) -> bool {
        if memo.done != self.done()
            || memo.phase_idx != self.phase_idx
            || memo.mem_util_bits != self.mem_util.to_bits()
            || memo.uncore.value().to_bits() != self.effective_uncore().value().to_bits()
            || memo.ceiling.value().to_bits() != self.freq_ceiling().value().to_bits()
        {
            return false;
        }
        if memo.done {
            // An idle socket's tick does not depend on the allowance at
            // all (bandwidth is computed but unused, no ladder search).
            return true;
        }
        let Some(ladder) = memo.ladder else {
            return false;
        };
        let allowance = self.enforcer.allowance();
        // `achievable` with the powf factor pre-resolved: `memo.uf` holds
        // the bits `uncore_factor(memo.uncore)` returns, so this product
        // is bit-for-bit the same value.
        let bw = self.cfg.bandwidth.peak * memo.uf * self.cfg.bandwidth.cap_factor(allowance);
        bw.value().to_bits() == memo.bw_bits && ladder.stable_for(allowance)
    }

    /// Derives a fresh memo from the *current* state — the same
    /// computation the next `tick` would perform, expression for
    /// expression, so the cached bits match what it would produce.
    fn build_memo(&self) -> StepMemo {
        let dt = self.cfg.tick.as_seconds();
        let done = self.done();
        let uncore = self.effective_uncore();
        let freq_ceiling = self.freq_ceiling();
        let allowance = self.enforcer.allowance();
        // `uncore_factor` (a `powf`) is a pure function of the uncore, so
        // the previous memo's bits serve while the uncore has not moved.
        let uf = match self.memo {
            Some(m) if m.uncore.value().to_bits() == uncore.value().to_bits() => m.uf,
            _ => self.cfg.bandwidth.uncore_factor(uncore),
        };
        if done {
            let activity = SocketActivity::idle();
            let core_freq = self.cfg.arch.core_freq_min;
            return StepMemo {
                phase_idx: self.phase_idx,
                done,
                mem_util_bits: self.mem_util.to_bits(),
                dt,
                uncore,
                ceiling: freq_ceiling,
                bw_bits: 0,
                uf,
                ladder: None,
                core_freq,
                progress_bw: 0.0,
                flops_rate: 0.0,
                units_rate: 0.0,
                new_mem_util: (0.0 / self.cfg.bandwidth.peak.value()).clamp(0.0, 1.0),
                pkg_power_base: self
                    .cfg
                    .power
                    .package_total(core_freq, uncore, &activity)
                    .value(),
            };
        }
        // `achievable(uncore, allowance)`, with the factor resolved above.
        let bw = self.cfg.bandwidth.peak * uf * self.cfg.bandwidth.cap_factor(allowance);
        let w = self.workload.as_ref().expect("not done implies loaded");
        let phase = &w.phases[self.phase_idx];
        let activity = SocketActivity {
            core_util: phase.core_util,
            mem_util: self.mem_util,
            active_cores: self.cfg.arch.cores_per_socket,
        };
        let n = f64::from(self.cfg.arch.cores_per_socket);
        let fmax = self.cfg.arch.core_freq_max;
        let tc = if phase.rates.flops_per_core_cycle > 0.0 {
            phase.rates.flops_per_unit / (phase.rates.flops_per_core_cycle * n * fmax.value())
        } else {
            0.0
        };
        let tm = phase.rates.bytes_per_unit / bw.value().max(1.0);
        let compute_share = if tc.max(tm) > 0.0 {
            tc / tc.max(tm)
        } else {
            1.0
        };
        let requested = self
            .cfg
            .governor
            .request(self.cfg.arch.core_freq_min, fmax, compute_share);
        let ceiling = self.cfg.arch.snap_core_freq(requested).min(freq_ceiling);
        // The search starts from the rung of the memo this one replaces:
        // a miss rarely moves the rung far.
        let start = self
            .memo
            .and_then(|m| m.ladder)
            .map_or(usize::MAX, |l| l.rung);
        let ladder = self.cfg.power.ladder_search(
            DvfsLadder {
                min: self.cfg.arch.core_freq_min,
                max: self.cfg.arch.core_freq_max,
                step: self.cfg.arch.core_freq_step,
            },
            uncore,
            &activity,
            allowance,
            start,
        );
        let core_freq = ladder.freq.min(ceiling);
        let roofline = RooflineModel {
            cores: self.cfg.arch.cores_per_socket,
        };
        let pr = roofline.progress(&phase.rates, core_freq, bw);
        // The search already evaluated the package power at its rung; the
        // ceiling only moves the point when it binds.
        let pkg_power_base = if core_freq.value().to_bits() == ladder.freq.value().to_bits() {
            ladder.power_at.value()
        } else {
            self.cfg
                .power
                .package_total(core_freq, uncore, &activity)
                .value()
        };
        StepMemo {
            phase_idx: self.phase_idx,
            done,
            mem_util_bits: self.mem_util.to_bits(),
            dt,
            uncore,
            ceiling: freq_ceiling,
            bw_bits: bw.value().to_bits(),
            uf,
            ladder: Some(ladder),
            core_freq,
            progress_bw: pr.bandwidth.value(),
            flops_rate: pr.flops.value(),
            units_rate: pr.units_per_sec,
            new_mem_util: (pr.bandwidth.value() / self.cfg.bandwidth.peak.value()).clamp(0.0, 1.0),
            pkg_power_base,
        }
    }

    /// The memo-replay kernel: runs up to `max` consecutive ticks against
    /// `memo`'s cached bit patterns — `tick`'s RNG draws, noise
    /// multiplies, accumulator additions, enforcer EMA update, gauge and
    /// trace emission, in the same order — with every batch-invariant
    /// load hoisted out of the loop and the no-crossing half of
    /// `advance_phase` reduced to its observable effect. `memo` must match
    /// the socket's fingerprint (phase, `mem_util`, uncore, ceiling): it
    /// either passed [`SocketSim::memo_valid`] or was just built. The loop
    /// re-checks only the allowance-dependent residue before each tick.
    /// Returns the number of ticks advanced: 0 when the residue fails
    /// before the first tick, and it stops early right after a workload
    /// phase boundary or done transition, or right before the first tick
    /// where the residue fails — the caller then rebuilds the memo from
    /// that state.
    fn tick_fast_batch(&mut self, memo: StepMemo, start: Instant, max: u64) -> u64 {
        // While `mem_util` still converges (the opening ticks of a phase)
        // its store moves the memo's entry fingerprint, so the memo is
        // stale after one tick.
        let max = if memo.new_mem_util.to_bits() == memo.mem_util_bits {
            max
        } else {
            1
        };
        let tick_us = self.cfg.tick.as_micros();
        let dtv = memo.dt.value();
        let noise = self.cfg.noise;
        let walk_on = noise.walk_sigma > 0.0;
        let aperf_inc = memo.core_freq.value() * dtv;
        let mperf_inc = self.cfg.arch.core_freq_base.value() * dtv;
        let peak = self.cfg.bandwidth.peak;
        let gains = self.gains;
        let ladder = memo.ladder;
        let plain = self.gauges.is_none() && self.trace.is_none();
        // Work units left before the next phase boundary; an idle socket
        // progresses nothing and never crosses.
        let cur_work = if memo.done {
            f64::MAX
        } else {
            let w = self.workload.as_ref().expect("not done implies loaded");
            w.phases[memo.phase_idx].work_units
        };
        self.core_freq = memo.core_freq;

        let mut advanced = 0u64;
        while advanced < max {
            let allowance = self.enforcer.allowance();
            if !memo.done {
                // The per-tick `memo_valid` residue: everything else it
                // checks is constant across the batch by construction.
                let bw = peak * memo.uf * self.cfg.bandwidth.cap_factor(allowance);
                let rung = ladder.expect("busy memo has a ladder");
                if bw.value().to_bits() != memo.bw_bits || !rung.stable_for(allowance) {
                    break;
                }
            }
            let now = Instant(start.0 + advanced * tick_us);
            if advanced == 0 && self.phase_log.is_empty() && self.workload.is_some() {
                // The first tick after a `load` seeds the phase log, as
                // `advance_phase` does.
                self.phase_log.push((now, 0));
            }
            if walk_on {
                self.walk = 0.98 * self.walk + noise.walk_sigma * sym(&mut self.rng);
            }
            let perf_noise =
                (self.run_perf_factor + self.walk + noise.tick_sigma * sym(&mut self.rng)).max(0.1);
            let power_noise =
                (self.run_power_factor + self.walk + noise.tick_sigma * sym(&mut self.rng))
                    .max(0.1);
            let advanced_units = memo.units_rate * dtv * perf_noise;
            self.acc.flops += memo.flops_rate * dtv * perf_noise;
            self.acc.bytes += memo.progress_bw * dtv * perf_noise;
            self.mem_util = memo.new_mem_util;
            let crossing = !memo.done && self.units_done + advanced_units >= cur_work;
            if crossing {
                // Phase boundaries take the exact per-tick code; the log
                // was seeded on the first tick, so no other tick needs it.
                self.advance_phase(advanced_units, now);
            } else if !memo.done {
                // The no-crossing body of `advance_phase`, verbatim.
                self.units_done += advanced_units;
            }
            let pkg_power = Watts(memo.pkg_power_base * power_noise);
            let dram_power = self
                .cfg
                .dram
                .power(dufp_types::BytesPerSec(memo.progress_bw * perf_noise));
            self.acc.pkg_energy += (pkg_power * memo.dt).value();
            self.acc.dram_energy += (dram_power * memo.dt).value();
            self.acc.aperf += aperf_inc;
            self.acc.mperf += mperf_inc;
            self.enforcer.step_with_gains(pkg_power, &gains);
            if !plain {
                if let Some(g) = &self.gauges {
                    g.pkg_power.set(pkg_power.value());
                    g.dram_power.set(dram_power.value());
                    g.flops.set(memo.flops_rate * perf_noise);
                    g.bandwidth.set(memo.progress_bw * perf_noise);
                    g.core_freq.set(self.core_freq.value());
                    g.uncore_freq.set(memo.uncore.value());
                    g.ticks.inc();
                }
                if self.ticks.is_multiple_of(u64::from(self.trace_stride)) {
                    let pl1 = self.enforcer.pl1();
                    if let Some(tr) = self.trace.as_mut() {
                        tr.points.push(TracePoint {
                            at: now,
                            core_freq: self.core_freq,
                            uncore_freq: memo.uncore,
                            pkg_power,
                            allowance,
                            pl1,
                        });
                    }
                }
            }
            self.ticks += 1;
            advanced += 1;
            if crossing {
                // The memo's phase fingerprint is stale now.
                break;
            }
        }
        advanced
    }

    fn advance_phase(&mut self, units: f64, now: Instant) {
        let Some(w) = self.workload.as_ref() else {
            return;
        };
        if self.phase_log.is_empty() {
            self.phase_log.push((now, 0));
        }
        self.units_done += units;
        while self.phase_idx < w.phases.len()
            && self.units_done >= w.phases[self.phase_idx].work_units
        {
            self.units_done -= w.phases[self.phase_idx].work_units;
            self.phase_idx += 1;
            if self.phase_idx < w.phases.len() {
                self.phase_log.push((now, self.phase_idx));
            }
        }
        if self.phase_idx >= w.phases.len() {
            self.units_done = 0.0;
        }
    }
}

/// The uncore band of `raw` snapped onto the uncore ladder, `(lo, hi)`.
fn snap_band(cfg: &SimConfig, raw: UncoreRatioLimit) -> (Hertz, Hertz) {
    let (lo, hi) = raw.band();
    (cfg.arch.snap_uncore_freq(lo), cfg.arch.snap_uncore_freq(hi))
}

/// The frequency ceiling `raw` requests: snapped onto the core ladder and
/// bounded by its top.
fn snap_ceiling(cfg: &SimConfig, raw: PerfCtl) -> Hertz {
    cfg.arch
        .snap_core_freq(raw.freq())
        .min(cfg.arch.core_freq_max)
}

/// Highest DVFS ladder frequency whose predicted package power fits the
/// allowance (delegates to the analytic inversion in `dufp-model`).
fn solve_frequency(
    cfg: &SimConfig,
    power: &PowerModel,
    uncore: Hertz,
    activity: &SocketActivity,
    allowance: Watts,
) -> Hertz {
    let arch = &cfg.arch;
    power.max_frequency_within(
        arch.core_freq_min,
        arch.core_freq_max,
        arch.core_freq_step,
        uncore,
        activity,
        allowance,
    )
}

fn sym(rng: &mut ChaCha8Rng) -> f64 {
    // Uniform on [-√3, √3): zero mean, unit variance.
    (rng.gen::<f64>() - 0.5) * 2.0 * 1.732_050_807_568_877_2
}

/// Converts an energy accumulator in joules to the 32-bit RAPL counter
/// domain (wrapping), given the per-unit energy.
pub fn energy_to_rapl_counter(joules: f64, energy_unit: f64) -> u64 {
    let ticks = (joules / energy_unit) as u128;
    (ticks % (1u128 << 32)) as u64
}

/// Reads a RAPL-domain energy accumulator back into joules, handling one
/// wrap between consecutive readings.
pub fn rapl_counter_delta_joules(prev: u64, cur: u64, energy_unit: f64) -> f64 {
    let delta = if cur >= prev {
        cur - prev
    } else {
        cur + (1u64 << 32) - prev
    };
    delta as f64 * energy_unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_types::Duration;
    use dufp_workloads::{apps, MaterializeCtx};

    fn cfg() -> SimConfig {
        SimConfig::deterministic(42)
    }

    fn run_to_completion(sock: &mut SocketSim, tick: Duration, max_secs: f64) -> f64 {
        let mut now = Instant::ZERO;
        let max_ticks = (max_secs * 1e6 / tick.as_micros() as f64) as u64;
        let mut n = 0u64;
        while !sock.done() {
            sock.tick(now);
            now += tick;
            n += 1;
            assert!(n < max_ticks, "did not finish within {max_secs}s");
        }
        now.as_seconds().value()
    }

    #[test]
    fn default_run_matches_nominal_duration() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let w = apps::ep(&ctx).unwrap();
        let nominal = w.nominal_duration(&ctx).value();
        let mut s = SocketSim::new(c.clone(), 0);
        s.load(w);
        let t = run_to_completion(&mut s, c.tick, 200.0);
        assert!(
            (t - nominal).abs() / nominal < 0.02,
            "sim {t}s vs nominal {nominal}s"
        );
    }

    #[test]
    fn compute_app_runs_at_max_turbo_by_default() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let mut s = SocketSim::new(c.clone(), 0);
        s.load(apps::ep(&ctx).unwrap());
        s.enable_trace(10);
        for i in 0..5000 {
            s.tick(Instant(i * 1000));
        }
        let tr = s.take_trace().unwrap();
        let avg = tr.avg_core_freq().unwrap();
        assert!(
            avg.as_ghz() > 2.7,
            "performance governor should pin near 2.8 GHz, got {avg:?}"
        );
    }

    #[test]
    fn capping_reduces_frequency_and_power() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let units = RaplPowerUnit::skylake_sp();

        let run = |cap: Option<f64>| {
            let mut s = SocketSim::new(c.clone(), 0);
            s.load(apps::ep(&ctx).unwrap());
            if let Some(w) = cap {
                let reg = PkgPowerLimit::defaults(Watts(w), Seconds(1.0), Watts(w), Seconds(0.01));
                s.write_limit(reg.encode(&units).unwrap());
            }
            s.enable_trace(10);
            for i in 0..10_000 {
                s.tick(Instant(i * 1000));
            }
            let tr = s.take_trace().unwrap();
            (
                tr.avg_core_freq().unwrap().as_ghz(),
                tr.avg_pkg_power().unwrap().value(),
            )
        };

        let (f_free, p_free) = run(None);
        let (f_cap, p_cap) = run(Some(100.0));
        assert!(f_cap < f_free - 0.1, "capped freq {f_cap} vs free {f_free}");
        assert!(
            p_cap < p_free - 10.0,
            "capped power {p_cap} vs free {p_free}"
        );
        // The long-run average under a 100 W cap must respect it closely.
        assert!(p_cap <= 103.0, "avg power {p_cap} exceeds 100 W cap");
    }

    #[test]
    fn memory_app_is_insensitive_to_moderate_caps() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let units = RaplPowerUnit::skylake_sp();
        let mut specs = vec![];
        specs.extend(dufp_workloads::spec::repeat(
            &[dufp_workloads::PhaseSpec {
                name: "stream".into(),
                seconds_at_default: 10.0,
                oi: 0.01,
                boundness: dufp_workloads::Boundness::MemoryBound { headroom: 2.0 },
                core_util: 0.3,
                overlap_penalty: 0.0,
            }],
            1,
        ));
        let w = dufp_workloads::Workload::from_specs("stream", &specs, &ctx).unwrap();

        let run = |cap: Option<f64>| {
            let mut s = SocketSim::new(c.clone(), 0);
            s.load(w.clone());
            // The paper's 65–70 W caps on memory phases are always applied
            // with DUF managing the uncore; park it at the bandwidth knee.
            s.write_uncore(UncoreRatioLimit::pinned(Hertz::from_ghz(2.0)));
            if let Some(wc) = cap {
                let reg =
                    PkgPowerLimit::defaults(Watts(wc), Seconds(1.0), Watts(wc), Seconds(0.01));
                s.write_limit(reg.encode(&units).unwrap());
            }
            run_to_completion(&mut SocketSim::clone_for_test(&s), c.tick, 100.0)
        };
        let t_free = run(None);
        let t_cap = run(Some(70.0));
        // A one-off cold cap write incurs a ~1 s enforcement transient
        // (window average still reflects the uncapped past), so allow a few
        // percent; steady-state capping of a pure-memory phase is free.
        assert!(
            (t_cap - t_free) / t_free < 0.05,
            "70 W cap slowed a pure-memory phase: {t_free} -> {t_cap}"
        );
    }

    #[test]
    fn pinning_uncore_changes_effective_frequency() {
        let c = cfg();
        let mut s = SocketSim::new(c.clone(), 0);
        let ctx = MaterializeCtx::from_arch(&c.arch);
        s.load(apps::cg(&ctx).unwrap());
        assert_eq!(s.effective_uncore(), c.arch.uncore_freq_max);
        s.write_uncore(UncoreRatioLimit::pinned(Hertz::from_ghz(1.5)));
        assert_eq!(s.effective_uncore(), Hertz::from_ghz(1.5));
    }

    #[test]
    fn idle_socket_sits_at_min_frequencies() {
        let c = cfg();
        let mut s = SocketSim::new(c.clone(), 0);
        for i in 0..100 {
            s.tick(Instant(i * 1000));
        }
        assert_eq!(s.core_freq(), c.arch.core_freq_min);
        assert_eq!(s.effective_uncore(), c.arch.uncore_freq_min);
        assert!(s.accumulators().flops == 0.0);
        assert!(s.accumulators().pkg_energy > 0.0, "idle still burns power");
    }

    #[test]
    fn perf_ctl_ceiling_bounds_the_governor() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let mut s = SocketSim::new(c.clone(), 0);
        s.load(apps::ep(&ctx).unwrap());
        s.write_perf_ctl(PerfCtl::capped_at(Hertz::from_ghz(2.0)));
        s.enable_trace(10);
        for i in 0..3000 {
            s.tick(Instant(i * 1000));
        }
        let tr = s.take_trace().unwrap();
        for p in &tr.points {
            assert!(
                p.core_freq <= Hertz::from_ghz(2.0),
                "governor exceeded PERF_CTL: {:?}",
                p.core_freq
            );
        }
        // And the cap still applies underneath: EP at 2.0 GHz burns less.
        assert!(tr.avg_pkg_power().unwrap().value() < 110.0);
    }

    #[test]
    fn perf_ctl_out_of_ladder_requests_are_snapped() {
        let c = cfg();
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let mut s = SocketSim::new(c.clone(), 0);
        s.load(apps::ep(&ctx).unwrap());
        // Request far above the ladder: clamps to the all-core turbo.
        s.write_perf_ctl(PerfCtl { target_ratio: 60 });
        for i in 0..100 {
            s.tick(Instant(i * 1000));
        }
        assert!(s.core_freq() <= c.arch.core_freq_max);
        // Request below the ladder: clamps to fmin, work still progresses.
        s.write_perf_ctl(PerfCtl { target_ratio: 1 });
        let before = s.accumulators().flops;
        for i in 100..200 {
            s.tick(Instant(i * 1000));
        }
        assert_eq!(s.core_freq(), c.arch.core_freq_min);
        assert!(s.accumulators().flops > before);
    }

    #[test]
    fn powersave_governor_clocks_down_memory_phases() {
        use crate::governor::Governor;
        let mut c = cfg();
        c.governor = Governor::Powersave { bias: 0.25 };
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let w = apps::cg(&ctx).unwrap();

        let run = |cfg: &SimConfig| {
            let mut s = SocketSim::new(cfg.clone(), 0);
            s.load(w.clone());
            s.enable_trace(20);
            let mut now = Instant::ZERO;
            while !s.done() {
                s.tick(now);
                now += cfg.tick;
            }
            let tr = s.take_trace().unwrap();
            (
                now.as_seconds().value(),
                tr.avg_core_freq().unwrap().as_ghz(),
                tr.avg_pkg_power().unwrap().value(),
            )
        };
        let (t_save, f_save, p_save) = run(&c);
        let (t_perf, f_perf, p_perf) = run(&cfg());
        // CG's compute headroom is thin (≈1.1), so the schedutil-style
        // estimate only trims ~100-150 MHz on the main phase (plus deeper
        // cuts on the prologue) — but it must trim.
        assert!(
            f_save < f_perf - 0.08,
            "powersave {f_save} vs performance {f_perf}"
        );
        assert!(
            p_save < p_perf - 2.0,
            "powersave power {p_save} vs {p_perf}"
        );
        // CG is memory-bound: the clock cut must cost little time.
        assert!(
            t_save < t_perf * 1.10,
            "powersave slowed CG too much: {t_perf} -> {t_save}"
        );
    }

    #[test]
    fn energy_counters_wrap_correctly() {
        let unit = 6.103515625e-5;
        let a = energy_to_rapl_counter(262143.9, unit); // just below wrap
        let b = energy_to_rapl_counter(262144.1, unit); // just above
        assert!(b < a, "counter must wrap");
        let delta = rapl_counter_delta_joules(a, b, unit);
        assert!((delta - 0.2).abs() < 0.01, "delta {delta}");
    }

    /// A register write applied at a given tick.
    type TickWrite<'a> = (u64, &'a dyn Fn(&mut SocketSim));

    /// Drives a tick-stepped and a fast-path socket in lockstep through
    /// mid-run register writes, asserting every observable stays
    /// bit-identical tick by tick.
    fn assert_fast_path_equivalent(c: SimConfig, writes: &[TickWrite]) {
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let w = apps::cg(&ctx).unwrap();
        let mut slow = SocketSim::new(c.clone(), 0);
        let mut fast = SocketSim::new(c.clone(), 0);
        slow.load(w.clone());
        fast.load(w);
        slow.enable_trace(7);
        fast.enable_trace(7);
        let tick_us = c.tick.as_micros();
        for i in 0..150_000u64 {
            for (at, write) in writes {
                if *at == i {
                    write(&mut slow);
                    write(&mut fast);
                }
            }
            let now = Instant(i * tick_us);
            slow.tick(now);
            fast.tick_fast(now);
            let a = slow.accumulators();
            let b = fast.accumulators();
            assert_eq!(a.pkg_energy.to_bits(), b.pkg_energy.to_bits(), "tick {i}");
            assert_eq!(a.flops.to_bits(), b.flops.to_bits(), "tick {i}");
            if slow.done() && fast.done() {
                break;
            }
        }
        assert!(slow.done(), "run must complete inside the tick budget");
        assert_eq!(slow.done(), fast.done());
        assert_eq!(slow.accumulators(), fast.accumulators());
        assert_eq!(slow.core_freq(), fast.core_freq());
        assert_eq!(slow.phase_log(), fast.phase_log());
        assert_eq!(
            slow.take_trace().unwrap().points,
            fast.take_trace().unwrap().points
        );
    }

    #[test]
    fn fast_path_matches_tick_with_noise() {
        assert_fast_path_equivalent(SimConfig::yeti_single_socket(3), &[]);
    }

    #[test]
    fn fast_path_matches_tick_noise_free() {
        assert_fast_path_equivalent(SimConfig::deterministic(9), &[]);
    }

    #[test]
    fn fast_path_matches_tick_across_register_writes() {
        let units = RaplPowerUnit::skylake_sp();
        let cap = move |w: f64| {
            let raw = PkgPowerLimit::defaults(Watts(w), Seconds(1.0), Watts(w), Seconds(0.01))
                .encode(&units)
                .unwrap();
            move |s: &mut SocketSim| s.write_limit(raw)
        };
        // A deep cap (65 W, below the 68 W bandwidth knee) forces the
        // varying-bandwidth regime where the memo must keep falling back;
        // a mid cap and an uncore pin exercise rung changes and the
        // pressure-band boundary; PERF_CTL exercises the ceiling path.
        let deep = cap(65.0);
        let mid = cap(95.0);
        let lift = cap(125.0);
        let pin =
            |s: &mut SocketSim| s.write_uncore(UncoreRatioLimit::pinned(Hertz::from_ghz(1.6)));
        let ceil = |s: &mut SocketSim| s.write_perf_ctl(PerfCtl::capped_at(Hertz::from_ghz(2.2)));
        let writes: [TickWrite; 5] = [
            (2_000, &mid),
            (6_000, &deep),
            (10_000, &lift),
            (14_000, &pin),
            (18_000, &ceil),
        ];
        assert_fast_path_equivalent(SimConfig::yeti_single_socket(17), &writes);
    }

    /// A CG socket stepped on the fast path into a steady stretch, where
    /// its memo validates.
    fn steady_socket() -> SocketSim {
        let c = SimConfig::yeti_single_socket(5);
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let mut s = SocketSim::new(c, 0);
        s.load(apps::cg(&ctx).unwrap());
        s.advance(Instant::ZERO, 3_000, 3_000);
        assert!(memo_holds(&s), "a steady stretch validates its memo");
        s
    }

    fn memo_holds(s: &SocketSim) -> bool {
        s.memo.is_some_and(|m| s.memo_valid(&m))
    }

    #[test]
    fn a_cap_write_keeps_the_memo() {
        let mut s = steady_socket();
        let units = RaplPowerUnit::skylake_sp();
        for w in [80.0, 125.0] {
            let reg = PkgPowerLimit::defaults(Watts(w), Seconds(1.0), Watts(w), Seconds(0.01));
            s.write_limit(reg.encode(&units).unwrap());
            assert!(memo_holds(&s), "a {w} W cap write must not invalidate");
        }
    }

    #[test]
    fn a_write_that_keeps_the_effective_values_keeps_the_memo() {
        let mut s = steady_socket();
        // A busy socket runs the band's top, so rewriting the band or
        // moving only its floor leaves the effective uncore unchanged.
        s.write_uncore(s.uncore_raw());
        assert!(memo_holds(&s), "same band rewritten");
        let floor_up = UncoreRatioLimit {
            min_ratio: s.uncore_raw().min_ratio + 2,
            ..s.uncore_raw()
        };
        s.write_uncore(floor_up);
        assert!(memo_holds(&s), "band floor raised");
        // A request above the ladder snaps to the same all-core turbo.
        s.write_perf_ctl(s.perf_ctl());
        assert!(memo_holds(&s), "same ceiling rewritten");
        s.write_perf_ctl(PerfCtl { target_ratio: 60 });
        assert!(memo_holds(&s), "over-ladder request");
    }

    #[test]
    fn a_write_that_moves_the_band_or_ceiling_invalidates_the_memo() {
        let mut s = steady_socket();
        s.write_uncore(UncoreRatioLimit::pinned(Hertz::from_ghz(1.6)));
        assert!(!memo_holds(&s), "band narrowed to 1.6 GHz");

        let mut s = steady_socket();
        s.write_perf_ctl(PerfCtl::capped_at(Hertz::from_ghz(2.0)));
        assert!(!memo_holds(&s), "ceiling lowered to 2.0 GHz");
    }

    #[test]
    fn loading_a_workload_drops_the_memo() {
        let mut s = steady_socket();
        let ctx = MaterializeCtx::from_arch(&s.cfg.arch);
        s.load(apps::ep(&ctx).unwrap());
        assert!(s.memo.is_none());
    }

    /// Asserts every piece of state one tick touches is bit-identical.
    fn assert_same_state(a: &SocketSim, b: &SocketSim, at: &str) {
        let bits = |s: &SocketSim| {
            let acc = s.acc;
            [
                acc.flops,
                acc.bytes,
                acc.pkg_energy,
                acc.dram_energy,
                acc.aperf,
                acc.mperf,
                s.core_freq.value(),
                s.mem_util,
                s.units_done,
                s.walk,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(a), bits(b), "accumulator and state bits at {at}");
        assert_eq!(
            a.rng.clone().gen::<u64>(),
            b.rng.clone().gen::<u64>(),
            "RNG position at {at}"
        );
        assert_eq!(
            format!("{:?}", a.enforcer),
            format!("{:?}", b.enforcer),
            "enforcer at {at}"
        );
        assert_eq!((a.phase_idx, a.ticks), (b.phase_idx, b.ticks), "at {at}");
        assert_eq!(a.phase_log(), b.phase_log(), "phase log at {at}");
        assert_eq!(
            a.trace.as_ref().map(|t| &t.points),
            b.trace.as_ref().map(|t| &t.points),
            "trace at {at}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A memo miss builds the memo once and replays the tick through
        /// the kernel; that must equal the full `tick` it replaces, from
        /// any state random ticks and register writes reach — including
        /// the first tick after `load` (empty phase log), phase crossings
        /// and a finished socket.
        #[test]
        fn a_memo_miss_derives_once_and_matches_tick(
            seed in 0u64..1_000,
            ops in proptest::collection::vec((0u8..8, 1u64..300, 0u8..=255), 1..20),
        ) {
            let c = SimConfig::yeti_single_socket(seed);
            let ctx = MaterializeCtx::from_arch(&c.arch);
            // CG at 1 % of its work: about half the drives cross every phase
            // and finish.
            let mut w = apps::cg(&ctx).unwrap();
            for p in &mut w.phases {
                p.work_units *= 0.01;
            }
            let units = RaplPowerUnit::skylake_sp();
            let tick_us = c.tick.as_micros();
            let (mut a, mut b) = (SocketSim::new(c.clone(), 0), SocketSim::new(c, 0));
            for s in [&mut a, &mut b] {
                s.load(w.clone());
                s.enable_trace(3);
            }
            let mut now = 0u64;
            for (i, &(kind, n, byte)) in ops.iter().enumerate() {
                let at = format!("op {i} (tick {now})");
                // One full tick against one memo build plus one kernel tick.
                a.tick(Instant(now * tick_us));
                let memo = b.build_memo();
                // The build searched from the rung of the memo it replaces;
                // one with no memo to replace searches from the top.
                let cold = SocketSim::clone_for_test(&b).build_memo();
                assert_eq!(format!("{memo:?}"), format!("{cold:?}"), "{at}");
                assert_eq!(b.tick_fast_batch(memo, Instant(now * tick_us), 1), 1, "{at}");
                now += 1;
                assert_same_state(&a, &b, &at);
                for s in [&mut a, &mut b] {
                    match kind {
                        0..=2 => {
                            s.advance(Instant(now * tick_us), n, n);
                        }
                        3 | 6 | 7 => {
                            // Kinds 6 and 7 jump the cap to the floor or
                            // past PL1, moving the rung far down or up.
                            let w = Watts(match kind {
                                6 => 65.0,
                                7 => 150.0,
                                _ => 60.0 + f64::from(byte % 70),
                            });
                            let reg = PkgPowerLimit::defaults(w, Seconds(1.0), w, Seconds(0.01));
                            s.write_limit(reg.encode(&units).unwrap());
                        }
                        4 => s.write_uncore(UncoreRatioLimit {
                            max_ratio: 12 + byte % 13,
                            min_ratio: 12 + byte % 5,
                        }),
                        _ => s.write_perf_ctl(PerfCtl { target_ratio: 8 + byte % 24 }),
                    }
                }
                if kind <= 2 {
                    now += n;
                }
            }
        }
    }

    #[test]
    fn same_seed_same_run() {
        let c = SimConfig::yeti_single_socket(7);
        let ctx = MaterializeCtx::from_arch(&c.arch);
        let mut a = SocketSim::new(c.clone(), 0);
        let mut b = SocketSim::new(c.clone(), 0);
        a.load(apps::cg(&ctx).unwrap());
        b.load(apps::cg(&ctx).unwrap());
        for i in 0..5000 {
            a.tick(Instant(i * 1000));
            b.tick(Instant(i * 1000));
        }
        assert_eq!(a.accumulators(), b.accumulators());
    }

    impl SocketSim {
        /// Test-only deep copy (the RNG and enforcer state are cloneable).
        fn clone_for_test(other: &Self) -> Self {
            SocketSim {
                cfg: other.cfg.clone(),
                uncore_raw: other.uncore_raw,
                limit_raw: other.limit_raw,
                perf_ctl: other.perf_ctl,
                uncore_band: other.uncore_band,
                ceiling: other.ceiling,
                enforcer: other.enforcer.clone(),
                gains: other.gains,
                core_freq: other.core_freq,
                mem_util: other.mem_util,
                workload: other.workload.clone(),
                phase_idx: other.phase_idx,
                units_done: other.units_done,
                acc: other.acc,
                rng: other.rng.clone(),
                run_perf_factor: other.run_perf_factor,
                run_power_factor: other.run_power_factor,
                walk: other.walk,
                trace: other.trace.clone(),
                trace_stride: other.trace_stride,
                ticks: other.ticks,
                phase_log: other.phase_log.clone(),
                gauges: None,
                memo: None,
            }
        }
    }
}
