//! The whole simulated node: sockets, clock, and the hardware interfaces.

use crate::config::SimConfig;
use crate::socket::{energy_to_rapl_counter, SocketSim};
use crate::trace::Trace;
use dufp_counters::{CounterSnapshot, Telemetry};
use dufp_msr::registers::{
    PerfCtl, RaplPowerUnit, UncoreRatioLimit, IA32_APERF, IA32_MPERF, IA32_PERF_CTL,
    MSR_DRAM_ENERGY_STATUS, MSR_DRAM_POWER_LIMIT, MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_INFO,
    MSR_PKG_POWER_LIMIT, MSR_PLATFORM_INFO, MSR_RAPL_POWER_UNIT, MSR_UNCORE_RATIO_LIMIT,
    SKYLAKE_SP_POWER_UNIT_RAW,
};
use dufp_msr::{FaultInjector, FaultOp, FaultPlan, InjectorSnapshot, MsrIo};
use dufp_types::{Error, Instant, Joules, Result, SocketId};
use dufp_workloads::Workload;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated multi-socket node.
///
/// Thread-safe: controllers access it through [`MsrIo`] and [`Telemetry`]
/// (`&self`), while the experiment driver advances time with
/// [`Machine::tick`] (also `&self`; per-socket state lives behind mutexes).
///
/// ```
/// use dufp_sim::{Machine, SimConfig};
/// use dufp_counters::Telemetry;
/// use dufp_types::SocketId;
/// use dufp_workloads::{apps, MaterializeCtx};
///
/// let machine = Machine::new(SimConfig::deterministic(1));
/// let ctx = MaterializeCtx::from_arch(&machine.config().arch);
/// machine.load_all(&apps::ep(&ctx).unwrap());
/// for _ in 0..1000 {
///     machine.tick(); // one simulated second
/// }
/// let snap = machine.sample(SocketId(0)).unwrap();
/// assert!(snap.flops > 0.0 && snap.pkg_energy.value() > 50.0);
/// ```
pub struct Machine {
    cfg: SimConfig,
    sockets: Vec<Mutex<SocketSim>>,
    /// Microseconds since simulation start.
    now_us: AtomicU64,
    /// Armed fault plan, if any; consulted on every MSR access and
    /// telemetry sample with the simulator tick as the clock.
    injector: Mutex<Option<Arc<FaultInjector>>>,
    /// Whether `injector` holds a plan. Both arming paths set it while
    /// holding the injector lock, so an unarmed machine's accesses pay one
    /// atomic load instead of the lock.
    armed: AtomicBool,
}

impl Machine {
    /// Builds an idle machine for `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let sockets = (0..cfg.arch.sockets)
            .map(|i| Mutex::new(SocketSim::new(cfg.clone(), i)))
            .collect();
        Machine {
            cfg,
            sockets,
            now_us: AtomicU64::new(0),
            injector: Mutex::new(None),
            armed: AtomicBool::new(false),
        }
    }

    /// Arms a [`FaultPlan`] against this machine's hardware surfaces: MSR
    /// reads/writes and the counter-sampling path. Scheduled rules
    /// (`at=`, `window=`) are evaluated against the simulator tick, so a
    /// plan plus a seed reproduces the exact same chaos run.
    pub fn inject_faults(&self, plan: FaultPlan) {
        let mut injector = self.injector.lock();
        *injector = if plan.is_empty() {
            None
        } else {
            Some(Arc::new(FaultInjector::new(plan)))
        };
        self.armed.store(injector.is_some(), Ordering::Release);
    }

    /// Snapshot of the armed injector's mutable state (RNG position and
    /// per-rule hit counters) for checkpoints. `None` when no plan is armed.
    pub fn injector_snapshot(&self) -> Option<InjectorSnapshot> {
        self.injector.lock().as_ref().map(|i| i.snapshot())
    }

    /// Arms `plan` and restores a checkpointed injector state, so the fault
    /// stream continues exactly where the checkpointed run left off rather
    /// than replaying probabilistic faults from the beginning.
    pub fn inject_faults_with_state(&self, plan: FaultPlan, snap: &InjectorSnapshot) -> Result<()> {
        if plan.is_empty() {
            return Err(Error::Precondition(
                "cannot restore injector state onto an empty fault plan".to_owned(),
            ));
        }
        let inj = FaultInjector::new(plan);
        inj.restore(snap)?;
        let mut injector = self.injector.lock();
        *injector = Some(Arc::new(inj));
        self.armed.store(true, Ordering::Release);
        Ok(())
    }

    /// Current tick index (the fault clock).
    fn tick_index(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed) / self.cfg.tick.as_micros()
    }

    fn check_fault(&self, op: FaultOp, cpu: usize, address: u32) -> Result<()> {
        if !self.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let injector = self.injector.lock().clone();
        if let Some(inj) = injector {
            if inj.should_fail_at(op, cpu, address, Some(self.tick_index())) {
                return Err(Error::msr(address, format!("injected {op:?} fault (plan)")));
            }
        }
        Ok(())
    }

    /// The configuration this machine runs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Publishes every socket's per-tick state (power, FLOPS/s, bandwidth,
    /// frequencies) as gauges on `tel`; see
    /// [`crate::socket::SocketSim::attach_telemetry`].
    pub fn attach_telemetry(&self, tel: &dufp_telemetry::Telemetry) {
        for (i, s) in self.sockets.iter().enumerate() {
            s.lock().attach_telemetry(tel, i as u16);
        }
    }

    /// Loads a copy of `workload` onto every socket (the paper runs each
    /// application across all four packages).
    pub fn load_all(&self, workload: &Workload) {
        for s in &self.sockets {
            s.lock().load(workload.clone());
        }
    }

    /// Loads a workload onto one socket.
    pub fn load(&self, socket: SocketId, workload: Workload) -> Result<()> {
        self.socket(socket)?.lock().load(workload);
        Ok(())
    }

    /// Loads `workload` onto every socket with a per-socket work scale
    /// (real nodes never balance perfectly; rank 0 usually carries extra
    /// work). A factor of `1.0` is the nominal share.
    pub fn load_imbalanced(&self, workload: &Workload, factors: &[f64]) -> Result<()> {
        if factors.len() != self.sockets.len() {
            return Err(Error::Precondition(format!(
                "{} factors for {} sockets",
                factors.len(),
                self.sockets.len()
            )));
        }
        for (s, &factor) in self.sockets.iter().zip(factors) {
            if !(factor.is_finite() && factor > 0.0) {
                return Err(Error::invalid("imbalance factor", format!("{factor}")));
            }
            let mut scaled = workload.clone();
            for p in &mut scaled.phases {
                p.work_units *= factor;
            }
            s.lock().load(scaled);
        }
        Ok(())
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        Instant(self.now_us.load(Ordering::Relaxed))
    }

    /// True when every socket has finished its workload.
    pub fn done(&self) -> bool {
        self.sockets.iter().all(|s| s.lock().done())
    }

    /// Advances the whole machine by one tick.
    pub fn tick(&self) {
        let now = self.now();
        for s in &self.sockets {
            s.lock().tick(now);
        }
        self.now_us
            .fetch_add(self.cfg.tick.as_micros(), Ordering::Relaxed);
    }

    /// Advances up to `max_ticks` ticks through the sockets' memoized fast
    /// path (`SocketSim::step_fast`), stopping early — *after* the
    /// completing tick, matching the tick-engine's `tick(); done()` order —
    /// once every socket has finished, and never before the first tick.
    /// Returns the number of ticks actually advanced.
    ///
    /// Sockets share nothing inside a batch, so each runs its memo-replay
    /// kernel on its own, under its own lock, until it finishes or the
    /// batch ends; a socket that finished before the last one is padded
    /// with idle ticks up to the machine's stopping tick. The clock is
    /// published once at the end. This is observationally equivalent to
    /// per-tick stepping because MSR accesses, telemetry samples and fault
    /// injection only happen between driver batches, never mid-batch.
    pub fn advance(&self, max_ticks: u64) -> u64 {
        let tick_us = self.cfg.tick.as_micros();
        let start = self.now_us.load(Ordering::Relaxed);
        let mut end = 0;
        for (i, s) in self.sockets.iter().enumerate() {
            let ran = s.lock().advance(Instant(start), end.max(1), max_ticks);
            if ran > end {
                // This socket outlasted every earlier one; those all
                // finished at `end`, so they idle up to `ran`.
                let pad = Instant(start + end * tick_us);
                for earlier in &self.sockets[..i] {
                    earlier.lock().advance(pad, ran - end, ran - end);
                }
                end = ran;
            }
        }
        self.now_us.fetch_add(end * tick_us, Ordering::Relaxed);
        end
    }

    /// Enables per-tick tracing on one socket.
    pub fn enable_trace(&self, socket: SocketId, stride: u32) -> Result<()> {
        self.socket(socket)?.lock().enable_trace(stride);
        Ok(())
    }

    /// Takes the trace recorded on one socket.
    pub fn take_trace(&self, socket: SocketId) -> Result<Option<Trace>> {
        Ok(self.socket(socket)?.lock().take_trace())
    }

    /// Ground-truth phase transitions of one socket's workload.
    pub fn phase_log(&self, socket: SocketId) -> Result<Vec<(Instant, usize)>> {
        Ok(self.socket(socket)?.lock().phase_log().to_vec())
    }

    /// Runs `f` with the socket simulation locked (test/diagnostic hook).
    pub fn with_socket<T>(
        &self,
        socket: SocketId,
        f: impl FnOnce(&mut SocketSim) -> T,
    ) -> Result<T> {
        Ok(f(&mut self.socket(socket)?.lock()))
    }

    fn socket(&self, id: SocketId) -> Result<&Mutex<SocketSim>> {
        self.sockets
            .get(id.as_usize())
            .ok_or_else(|| Error::NoSuchComponent(id.to_string()))
    }

    fn socket_of_cpu(&self, cpu: usize) -> Result<&Mutex<SocketSim>> {
        let per = usize::from(self.cfg.arch.cores_per_socket);
        let idx = cpu / per;
        if cpu >= per * self.sockets.len() {
            return Err(Error::NoSuchComponent(format!("cpu{cpu}")));
        }
        Ok(&self.sockets[idx])
    }
}

impl MsrIo for Machine {
    fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        let sock = self.socket_of_cpu(cpu)?;
        self.check_fault(FaultOp::Read, cpu, address)?;
        let units = RaplPowerUnit::skylake_sp();
        let s = sock.lock();
        match address {
            MSR_RAPL_POWER_UNIT => Ok(SKYLAKE_SP_POWER_UNIT_RAW),
            MSR_UNCORE_RATIO_LIMIT => Ok(s.uncore_raw().encode()),
            MSR_PKG_POWER_LIMIT => Ok(s.limit_raw()),
            MSR_PKG_ENERGY_STATUS => Ok(energy_to_rapl_counter(
                s.accumulators().pkg_energy,
                units.energy_unit,
            )),
            MSR_DRAM_ENERGY_STATUS => Ok(energy_to_rapl_counter(
                s.accumulators().dram_energy,
                units.energy_unit,
            )),
            MSR_PKG_POWER_INFO => {
                // Bits 14:0 — TDP in power units.
                let ticks =
                    (self.cfg.arch.pl1_default.value() / units.power_unit.value()).round() as u64;
                Ok(ticks & 0x7FFF)
            }
            MSR_PLATFORM_INFO => Ok(u64::from(self.cfg.arch.core_freq_base.as_ratio_100mhz()) << 8),
            IA32_PERF_CTL => Ok(s.perf_ctl().encode()),
            IA32_APERF => Ok(s.accumulators().aperf as u64),
            IA32_MPERF => Ok(s.accumulators().mperf as u64),
            other => Err(Error::msr(other, "unmodelled register".to_owned())),
        }
    }

    fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()> {
        let sock = self.socket_of_cpu(cpu)?;
        self.check_fault(FaultOp::Write, cpu, address)?;
        let mut s = sock.lock();
        match address {
            MSR_UNCORE_RATIO_LIMIT => {
                s.write_uncore(UncoreRatioLimit::decode(value));
                Ok(())
            }
            MSR_PKG_POWER_LIMIT => {
                s.write_limit(value);
                Ok(())
            }
            IA32_PERF_CTL => {
                s.write_perf_ctl(PerfCtl::decode(value));
                Ok(())
            }
            MSR_DRAM_POWER_LIMIT => {
                // Matches the paper's platform: "memory power capping is not
                // available on the processor that we used" (§II-B).
                Err(Error::Unsupported("DRAM power capping on Skylake-SP"))
            }
            other => Err(Error::msr(other, "read-only or unmodelled".to_owned())),
        }
    }

    fn cpu_count(&self) -> usize {
        usize::from(self.cfg.arch.cores_per_socket) * self.sockets.len()
    }
}

impl Telemetry for Machine {
    fn sample(&self, socket: SocketId) -> Result<CounterSnapshot> {
        let lead_cpu = socket.as_usize() * usize::from(self.cfg.arch.cores_per_socket);
        self.check_fault(FaultOp::Sample, lead_cpu, 0)?;
        let s = self.socket(socket)?.lock();
        let acc = s.accumulators();
        Ok(CounterSnapshot {
            at: self.now(),
            flops: acc.flops,
            bytes: acc.bytes,
            pkg_energy: Joules(acc.pkg_energy),
            dram_energy: Joules(acc.dram_energy),
            avg_core_freq: s.core_freq(),
        })
    }

    fn socket_count(&self) -> usize {
        self.sockets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracePoint;
    use dufp_msr::registers::{PkgPowerLimit, PowerLimit};
    use dufp_types::{Duration, Hertz, Seconds, Watts};
    use dufp_workloads::{apps, MaterializeCtx};

    fn machine() -> Machine {
        Machine::new(SimConfig::deterministic(11))
    }

    #[test]
    fn msr_surface_defaults() {
        let m = machine();
        assert_eq!(
            m.read(0, MSR_RAPL_POWER_UNIT).unwrap(),
            SKYLAKE_SP_POWER_UNIT_RAW
        );
        let unc = UncoreRatioLimit::decode(m.read(0, MSR_UNCORE_RATIO_LIMIT).unwrap());
        assert_eq!(unc.max_ratio, 24);
        assert_eq!(unc.min_ratio, 12);
        let units = RaplPowerUnit::skylake_sp();
        let lim = PkgPowerLimit::decode(m.read(0, MSR_PKG_POWER_LIMIT).unwrap(), &units);
        assert_eq!(lim.pl1.power, Watts(125.0));
        assert_eq!(lim.pl2.power, Watts(150.0));
        // TDP via POWER_INFO.
        assert_eq!(m.read(0, MSR_PKG_POWER_INFO).unwrap(), 1000);
    }

    #[test]
    fn dram_power_limit_is_unsupported() {
        let m = machine();
        let err = m.write(0, MSR_DRAM_POWER_LIMIT, 0).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn unknown_registers_error() {
        let m = machine();
        assert!(m.read(0, 0xDEAD).is_err());
        assert!(m.write(0, 0x611, 0).is_err(), "energy counter is read-only");
    }

    #[test]
    fn cpu_to_socket_mapping() {
        let cfg = SimConfig::yeti(3);
        let m = Machine::new(cfg);
        // 64 CPUs over 4 sockets.
        assert_eq!(m.cpu_count(), 64);
        // Pin socket 2's uncore via cpu 37 (37/16 = 2).
        m.write(
            37,
            MSR_UNCORE_RATIO_LIMIT,
            UncoreRatioLimit::pinned(Hertz::from_ghz(1.5)).encode(),
        )
        .unwrap();
        let s2 = UncoreRatioLimit::decode(m.read(32, MSR_UNCORE_RATIO_LIMIT).unwrap());
        assert_eq!(s2.max_ratio, 15);
        let s0 = UncoreRatioLimit::decode(m.read(0, MSR_UNCORE_RATIO_LIMIT).unwrap());
        assert_eq!(s0.max_ratio, 24, "socket 0 unaffected");
        assert!(m.read(64, MSR_UNCORE_RATIO_LIMIT).is_err());
    }

    #[test]
    fn telemetry_counters_advance_with_work() {
        let m = machine();
        let ctx = MaterializeCtx::from_arch(&m.config().arch);
        m.load_all(&apps::cg(&ctx).unwrap());
        let before = m.sample(SocketId(0)).unwrap();
        for _ in 0..500 {
            m.tick();
        }
        let after = m.sample(SocketId(0)).unwrap();
        assert!(after.flops > before.flops);
        assert!(after.bytes > before.bytes);
        assert!(after.pkg_energy > before.pkg_energy);
        assert!(after.dram_energy > before.dram_energy);
        assert_eq!(
            after.at.duration_since(before.at),
            Duration::from_millis(500)
        );
    }

    #[test]
    fn lowering_pl1_is_visible_in_power_telemetry() {
        let m = machine();
        let ctx = MaterializeCtx::from_arch(&m.config().arch);
        m.load_all(&apps::hpl(&ctx).unwrap());
        // Warm up uncapped.
        for _ in 0..2000 {
            m.tick();
        }
        let a = m.sample(SocketId(0)).unwrap();
        for _ in 0..2000 {
            m.tick();
        }
        let b = m.sample(SocketId(0)).unwrap();
        let p_free = (b.pkg_energy - a.pkg_energy).value() / 2.0;

        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit {
            pl1: PowerLimit {
                power: Watts(90.0),
                enabled: true,
                clamp: true,
                window: Seconds(1.0),
            },
            pl2: PowerLimit {
                power: Watts(90.0),
                enabled: true,
                clamp: true,
                window: Seconds(0.01),
            },
            lock: false,
        };
        m.write(0, MSR_PKG_POWER_LIMIT, reg.encode(&units).unwrap())
            .unwrap();
        for _ in 0..2000 {
            m.tick();
        }
        let c = m.sample(SocketId(0)).unwrap();
        for _ in 0..2000 {
            m.tick();
        }
        let d = m.sample(SocketId(0)).unwrap();
        let p_capped = (d.pkg_energy - c.pkg_energy).value() / 2.0;
        assert!(
            p_capped < 93.0 && p_capped < p_free - 15.0,
            "capped {p_capped} vs free {p_free}"
        );
    }

    #[test]
    fn imbalanced_sockets_finish_at_different_times() {
        let cfg = SimConfig::yeti(9);
        let m = Machine::new(cfg);
        let ctx = MaterializeCtx::from_arch(&m.config().arch);
        let w = apps::ep(&ctx).unwrap();
        m.load_imbalanced(&w, &[1.0, 1.2, 0.8, 1.0]).unwrap();
        // Run until socket 2 (the lightest) is done.
        let mut done2_at = None;
        for i in 0..60_000 {
            m.tick();
            let done2 = m.with_socket(SocketId(2), |s| s.done()).unwrap();
            if done2 {
                done2_at = Some(i);
                break;
            }
        }
        let done2_at = done2_at.expect("socket 2 finishes first");
        assert!(
            !m.with_socket(SocketId(1), |s| s.done()).unwrap(),
            "socket 1 carries 20% extra work and must still be running at tick {done2_at}"
        );
        // Wrong factor counts and bad factors are rejected.
        assert!(m.load_imbalanced(&w, &[1.0, 1.0]).is_err());
        assert!(m.load_imbalanced(&w, &[1.0, 0.0, 1.0, 1.0]).is_err());
    }

    /// Everything a stepping run leaves observable: the clock and every
    /// socket's counter bits after each round, then the end-of-run trace
    /// and telemetry metrics.
    type SteppingSignature = (Vec<(u64, Vec<[u64; 4]>)>, Vec<TracePoint>, String);

    /// Builds a YETI machine with `setup`, then steps it in 200-tick rounds
    /// — per tick, or through `advance` when `fast` — calling `writes` with
    /// the round number before each round, until every socket is done.
    fn stepping_signature(
        fast: bool,
        setup: &dyn Fn(&Machine),
        writes: &dyn Fn(&Machine, u32),
    ) -> SteppingSignature {
        let m = Machine::new(SimConfig::yeti(5));
        let tel = dufp_telemetry::Telemetry::enabled();
        setup(&m);
        m.with_socket(SocketId(1), |s| s.attach_telemetry(&tel, 1))
            .unwrap();
        let mut rounds = Vec::new();
        for round in 0..600 {
            writes(&m, round);
            if fast {
                m.advance(200);
            } else {
                for _ in 0..200 {
                    m.tick();
                    if m.done() {
                        break;
                    }
                }
            }
            let counters = (0..m.socket_count() as u16)
                .map(|i| {
                    let s = m.sample(SocketId(i)).unwrap();
                    let (pkg, dram) = (s.pkg_energy.value(), s.dram_energy.value());
                    [
                        pkg.to_bits(),
                        dram.to_bits(),
                        s.flops.to_bits(),
                        s.bytes.to_bits(),
                    ]
                })
                .collect();
            rounds.push((m.now().0, counters));
            if m.done() {
                break;
            }
        }
        assert!(m.done(), "workload must finish inside the round budget");
        let trace = m.take_trace(SocketId(1)).unwrap().unwrap_or_default();
        (
            rounds,
            trace.points,
            format!("{:?}", tel.metrics_snapshot()),
        )
    }

    #[test]
    fn advance_is_bit_identical_to_per_tick_stepping() {
        let ctx = MaterializeCtx::from_arch(&SimConfig::yeti(5).arch);
        let cg = apps::cg(&ctx).unwrap();
        // Imbalanced loads make the sockets finish at different times,
        // exercising the idle padding of early finishers.
        let imbalanced = |m: &Machine| {
            m.load_imbalanced(&cg, &[1.0, 1.1, 0.9, 1.0]).unwrap();
        };
        // Socket 0 never gets a workload, so it is done from tick 0 and
        // every batch pads it; socket 3 carries 5% extra work, so sockets
        // 1 and 2 finish mid-batch ahead of it and are padded too. Socket
        // 1 records a trace: the kernel's gauge and trace branch.
        let unloaded_and_traced = |m: &Machine| {
            for (i, factor) in [(1, 1.0), (2, 1.0), (3, 1.05)] {
                let mut w = cg.clone();
                for p in &mut w.phases {
                    p.work_units *= factor;
                }
                m.load(SocketId(i), w).unwrap();
            }
            m.enable_trace(SocketId(1), 7).unwrap();
        };
        // A 90 W cap on socket 0 at round 40.
        let cap = PkgPowerLimit::defaults(Watts(90.0), Seconds(1.0), Watts(100.0), Seconds(0.01))
            .encode(&RaplPowerUnit::skylake_sp())
            .unwrap();
        let cap_socket0 = |m: &Machine, round: u32| {
            if round == 40 {
                m.write(0, MSR_PKG_POWER_LIMIT, cap).unwrap();
            }
        };
        for setup in [&imbalanced as &dyn Fn(&Machine), &unloaded_and_traced] {
            assert_same_signature(setup, &cap_socket0);
        }
    }

    /// Steps a machine per tick and through `advance`, asserting the two
    /// leave the same counters, trace points and telemetry.
    fn assert_same_signature(setup: &dyn Fn(&Machine), writes: &dyn Fn(&Machine, u32)) {
        let (oracle, fast) = (
            stepping_signature(false, setup, writes),
            stepping_signature(true, setup, writes),
        );
        assert_eq!(oracle.0, fast.0, "counters diverged");
        assert_eq!(oracle.1, fast.1, "traces diverged");
        assert!(oracle.2.contains("sim.socket1.ticks"), "telemetry attached");
        assert_eq!(oracle.2, fast.2, "telemetry diverged");
    }

    #[test]
    fn advance_matches_per_tick_stepping_across_every_kind_of_write() {
        let ctx = MaterializeCtx::from_arch(&SimConfig::yeti(5).arch);
        let cg = apps::cg(&ctx).unwrap();
        let loaded_and_traced = |m: &Machine| {
            m.load_all(&cg);
            m.enable_trace(SocketId(1), 7).unwrap();
        };
        // Writes to the loaded, traced socket 1 between batches: each
        // register moved, then rewritten with the value it already holds
        // or restored to its default.
        let cpu = usize::from(SimConfig::yeti(5).arch.cores_per_socket);
        let cap = PkgPowerLimit::defaults(Watts(80.0), Seconds(1.0), Watts(90.0), Seconds(0.01))
            .encode(&RaplPowerUnit::skylake_sp())
            .unwrap();
        let narrowed = UncoreRatioLimit {
            max_ratio: 20,
            min_ratio: 14,
        }
        .encode();
        let lowered = PerfCtl::capped_at(Hertz::from_ghz(2.2)).encode();
        let default_limit = Machine::new(SimConfig::yeti(5))
            .read(cpu, MSR_PKG_POWER_LIMIT)
            .unwrap();
        let writes = |m: &Machine, round: u32| {
            let write = match round {
                20 => (MSR_PKG_POWER_LIMIT, cap),
                35 => (MSR_PKG_POWER_LIMIT, default_limit),
                50 | 51 => (MSR_UNCORE_RATIO_LIMIT, narrowed),
                70 | 71 => (IA32_PERF_CTL, lowered),
                _ => return,
            };
            m.write(cpu, write.0, write.1).unwrap();
        };
        assert_same_signature(&loaded_and_traced, &writes);
    }

    #[test]
    fn fault_plan_follows_the_simulated_clock() {
        let m = Machine::new(SimConfig::yeti(11));
        // Cap writes on socket 0 (cpus 0-15) fail during ticks [5, 8).
        m.inject_faults(FaultPlan::parse("write,reg=cap,cpu=0-15,window=5+3;sample,at=5").unwrap());
        let write_cap = |m: &Machine| m.write(0, MSR_PKG_POWER_LIMIT, 0x00DD_8000);
        assert!(write_cap(&m).is_ok(), "tick 0: before the window");
        for _ in 0..5 {
            m.tick();
        }
        assert!(write_cap(&m).is_err(), "tick 5: inside the window");
        assert!(m.sample(SocketId(0)).is_err(), "sampler path also faulted");
        assert!(
            m.write(16, MSR_PKG_POWER_LIMIT, 0x00DD_8000).is_ok(),
            "socket 1 unaffected"
        );
        for _ in 0..3 {
            m.tick();
        }
        assert!(write_cap(&m).is_ok(), "tick 8: window over");
        assert!(m.sample(SocketId(0)).is_ok());
        m.inject_faults(FaultPlan::none());
        assert!(write_cap(&m).is_ok());
    }

    #[test]
    fn arming_and_disarming_a_plan_takes_effect_on_the_next_access() {
        let always = || FaultPlan::parse("write,always").unwrap();
        let write = |m: &Machine| m.write(0, MSR_UNCORE_RATIO_LIMIT, 0x1212);
        let m = Machine::new(SimConfig::deterministic(11));
        assert!(write(&m).is_ok(), "nothing armed yet");
        m.inject_faults(always());
        assert!(write(&m).is_err(), "inject_faults arms");
        m.inject_faults(FaultPlan::none());
        assert!(write(&m).is_ok(), "an empty plan disarms");

        m.inject_faults(always());
        let snap = m.injector_snapshot().expect("armed injector");
        let fresh = Machine::new(SimConfig::deterministic(11));
        fresh.inject_faults_with_state(always(), &snap).unwrap();
        assert!(write(&fresh).is_err(), "inject_faults_with_state arms");
    }

    #[test]
    fn injector_state_round_trips_through_a_rebuilt_machine() {
        let plan = || FaultPlan::parse("seed=7;write,reg=cap,p=0.5").unwrap();
        let m = Machine::new(SimConfig::deterministic(11));
        assert!(m.injector_snapshot().is_none(), "no plan armed yet");
        m.inject_faults(plan());
        // Burn a few accesses so the RNG and hit counters move.
        for _ in 0..3 {
            let _ = m.write(0, MSR_PKG_POWER_LIMIT, 0x00DD_8000);
        }
        let snap = m.injector_snapshot().expect("armed injector");
        let expected: Vec<bool> = (0..8)
            .map(|_| m.write(0, MSR_PKG_POWER_LIMIT, 0x00DD_8000).is_err())
            .collect();

        let m2 = Machine::new(SimConfig::deterministic(11));
        m2.inject_faults_with_state(plan(), &snap).unwrap();
        let resumed: Vec<bool> = (0..8)
            .map(|_| m2.write(0, MSR_PKG_POWER_LIMIT, 0x00DD_8000).is_err())
            .collect();
        assert_eq!(resumed, expected, "fault stream continues bit-identically");

        assert!(
            m2.inject_faults_with_state(FaultPlan::none(), &snap)
                .is_err(),
            "empty plan cannot carry restored state"
        );
    }

    #[test]
    fn trace_round_trip() {
        let m = machine();
        let ctx = MaterializeCtx::from_arch(&m.config().arch);
        m.load_all(&apps::cg(&ctx).unwrap());
        m.enable_trace(SocketId(0), 10).unwrap();
        for _ in 0..100 {
            m.tick();
        }
        let tr = m.take_trace(SocketId(0)).unwrap().unwrap();
        assert_eq!(tr.points.len(), 10);
        assert!(m.take_trace(SocketId(0)).unwrap().is_none());
    }
}
