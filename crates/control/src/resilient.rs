//! Fault-tolerant actuation: retry, degrade, and restore safe state.
//!
//! DUFP writes MSRs every 200 ms on a live node; on real hardware those
//! writes can fail (`EIO` on `/dev/cpu/N/msr`, offlined cores, sysfs
//! permission loss). A single propagated `Err` used to abort the whole
//! experiment. This module inserts a resilience layer between the
//! controllers and the hardware:
//!
//! * [`ResilientActuators`] wraps any [`Actuators`] implementation and
//!   (1) retries *transient* failures, up to `MAX_RETRIES` times,
//!   (2) absorbs *persistent* failures by walking the per-socket
//!   degradation ladder — DUFP → DUF-only (cap knob disabled) → passive
//!   (uncore knob disabled too), a knob going after `DEGRADE_AFTER`
//!   failed actuations in a row — while keeping the run alive, and
//!   (3) propagates *fatal* errors (caller bugs) unchanged. Every retry
//!   and every ladder transition is emitted as a typed
//!   [`DecisionEvent`] and counted (`actuation_retries_total`,
//!   `degradations_total`).
//! * [`SafeStateGuard`] is the RAII companion: whatever happens — clean
//!   exit, controller panic, Ctrl-C unwinding the runner — dropping the
//!   guard restores the platform-default PL1/PL2 caps and uncore band,
//!   so a crashed controller never leaves a socket parked at the 65 W
//!   floor.
//!
//! The error taxonomy lives in [`classify`]; DESIGN.md §10 documents the
//! full failure model.

use crate::actuators::Actuators;
use dufp_telemetry::{Actuator as TelActuator, Counter, DecisionEvent, Reason, SocketTelemetry};
use dufp_types::{splitmix, Error, Hertz, Result, Watts};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// How the resilience layer treats a failed actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Likely to succeed on retry (device hiccup, `EIO`, busy MSR).
    Transient,
    /// Will keep failing (capability absent, component gone); retrying is
    /// pointless — degrade instead.
    Persistent,
    /// A caller bug (value out of range, violated precondition); absorbing
    /// it would hide the defect, so it propagates.
    Fatal,
}

/// Classifies an [`Error`] from the actuation path.
///
/// MSR/I-O failures are transient: on real nodes they are almost always a
/// momentary device condition. Missing capabilities or components are
/// persistent. Range and precondition violations are fatal — they indicate
/// a controller bug, not a hardware fault.
pub fn classify(e: &Error) -> ErrorClass {
    match e {
        Error::Msr { .. } | Error::Io(_) => ErrorClass::Transient,
        // A fenced coordinator stays fenced: a successor holds the fleet,
        // so retrying the grant path is pointless.
        Error::Unsupported(_) | Error::NoSuchComponent(_) | Error::Fenced { .. } => {
            ErrorClass::Persistent
        }
        Error::InvalidValue { .. }
        | Error::Precondition(_)
        | Error::Timeout { .. }
        | Error::Corruption(_)
        | Error::FrameTooLarge { .. } => ErrorClass::Fatal,
    }
}

/// Retries of a transiently failing actuation before the failure counts
/// as persistent.
const MAX_RETRIES: u32 = 3;

/// Consecutive failed actuations on a knob before it is disabled.
const DEGRADE_AFTER: u32 = 3;

/// Retry count and backoff for a node agent's coordinator connection
/// (initial connect and reconnects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per candidate coordinator before the agent gives up.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): exponential from
    /// [`RetryPolicy::base_backoff`], capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Like [`RetryPolicy::backoff`], but with deterministic jitter: the
    /// delay is drawn uniformly from `[backoff(attempt)/2, backoff(attempt)]`
    /// by a SplitMix64 stream keyed on `(seed, attempt)`. Two agents with
    /// different seeds desynchronise their reconnect storms against a
    /// recovering coordinator, while any given `(seed, attempt)` pair always
    /// yields the same delay — replayable chaos runs depend on that.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let full = self.backoff(attempt);
        let half = full / 2;
        let span = full.saturating_sub(half);
        if span.is_zero() {
            return full;
        }
        // One SplitMix64 step from a (seed, attempt) state — the same
        // generator the fault-injection DSL uses, so one seed governs the
        // whole adversarial run.
        let mut state = seed.wrapping_add(u64::from(attempt).wrapping_mul(splitmix::GAMMA));
        let frac = splitmix::unit_f64(&mut state);
        (half + span.mul_f64(frac)).min(self.max_backoff)
    }
}

/// How much authority a socket's controller still has.
///
/// Ordinals are stable and appear in [`Reason::Degraded`] events
/// (`old`/`new` fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Both knobs work: full DUFP.
    Full = 0,
    /// The cap knob is disabled: DUFP behaves as DUF.
    UncoreOnly = 1,
    /// The uncore knob is disabled too: decisions are recorded but nothing
    /// is actuated.
    Passive = 2,
}

impl DegradationLevel {
    /// Human-readable label used in traces and run summaries.
    pub fn label(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::UncoreOnly => "uncore-only",
            DegradationLevel::Passive => "passive",
        }
    }
}

/// The knobs tracked independently by the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Knob {
    Uncore = 0,
    Cap = 1,
    CoreFreq = 2,
}

/// One knob's position on the degradation ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobSnapshot {
    /// Consecutive absorbed failures; reset by any success.
    pub streak: u32,
    /// Once true, setters on this knob become silent no-ops.
    pub disabled: bool,
}

/// The resilience layer's state, live and checkpointed: the op counter
/// (used as the tick stand-in for events) plus each knob's ladder
/// position, in uncore / cap / core-frequency order. Restoring it on
/// resume keeps the degradation ladder exactly where the crashed run left
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceState {
    /// Actuation ops performed so far.
    pub ops: u64,
    /// Per-knob ladder state (uncore, cap, core-freq).
    pub knobs: Vec<KnobSnapshot>,
}

/// The knobs a [`ResilienceState`] tracks.
const KNOBS: usize = 3;

/// Retrying, degrading wrapper around any [`Actuators`] implementation.
///
/// See the [module docs](self) for the failure model. Getters always
/// reflect the inner cached view; setters absorb non-fatal failures so the
/// control loop keeps running. Reset calls bypass the disabled flags — the
/// safe-state path must always reach for the hardware.
pub struct ResilientActuators<A> {
    inner: A,
    tel: SocketTelemetry,
    cap_floor: Watts,
    retries_total: Arc<Counter>,
    degradations_total: Arc<Counter>,
    /// Always `KNOBS` knobs long.
    state: ResilienceState,
}

impl<A: Actuators> ResilientActuators<A> {
    /// Wraps `inner`. `cap_floor` is re-enforced here so that even direct
    /// long/short constraint writes (which [`crate::HwActuators`] does not
    /// floor) can never rest below it.
    pub fn new(inner: A, cap_floor: Watts) -> Self {
        ResilientActuators {
            inner,
            tel: SocketTelemetry::default(),
            cap_floor,
            retries_total: Arc::new(Counter::default()),
            degradations_total: Arc::new(Counter::default()),
            state: ResilienceState {
                ops: 0,
                knobs: vec![KnobSnapshot::default(); KNOBS],
            },
        }
    }

    /// Attaches a telemetry recorder; retries and degradations become
    /// typed [`DecisionEvent`]s and the `actuation_retries_total` /
    /// `degradations_total` counters go to the shared registry.
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.retries_total = tel.telemetry().counter("actuation_retries_total");
        self.degradations_total = tel.telemetry().counter("degradations_total");
        self.tel = tel;
        self
    }

    /// The current rung of the degradation ladder.
    pub fn degradation(&self) -> DegradationLevel {
        if self.state.knobs[Knob::Uncore as usize].disabled {
            DegradationLevel::Passive
        } else if self.state.knobs[Knob::Cap as usize].disabled {
            DegradationLevel::UncoreOnly
        } else {
            DegradationLevel::Full
        }
    }

    /// Total transient retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries_total.get()
    }

    /// Total ladder transitions so far.
    pub fn degradations(&self) -> u64 {
        self.degradations_total.get()
    }

    /// The checkpointable resilience state.
    pub fn state(&self) -> ResilienceState {
        self.state.clone()
    }

    /// Restores a previously captured resilience state (extra entries are
    /// ignored, missing ones put the knob at its default).
    pub fn restore_state(&mut self, s: &ResilienceState) {
        self.state = s.clone();
        self.state.knobs.resize(KNOBS, KnobSnapshot::default());
    }

    /// Consumes the wrapper, returning the inner actuators.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The wrapped actuators.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the wrapped actuators (checkpoint restore).
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    fn emit(&self, actuator: TelActuator, old: f64, new: f64, reason: Reason) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel.telemetry().record_decision(DecisionEvent {
            socket: self.tel.socket(),
            ..DecisionEvent::new(self.state.ops, actuator, old, new, reason)
        });
    }

    /// Runs one actuation with retry/degrade semantics. Returns
    /// `Ok(Some(v))` on success, `Ok(None)` when the failure was absorbed
    /// (the caller keeps running), `Err` only for fatal errors.
    fn guarded<T>(
        &mut self,
        knob: Knob,
        actuator: TelActuator,
        target: f64,
        mut op: impl FnMut(&mut A) -> Result<T>,
    ) -> Result<Option<T>> {
        self.state.ops += 1;
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(v) => {
                    self.state.knobs[knob as usize].streak = 0;
                    return Ok(Some(v));
                }
                Err(e) => match classify(&e) {
                    ErrorClass::Fatal => return Err(e),
                    ErrorClass::Transient if attempt < MAX_RETRIES => {
                        attempt += 1;
                        self.retries_total.inc();
                        self.emit(actuator, f64::from(attempt), target, Reason::ActuationRetry);
                    }
                    // Persistent, or transient with retries exhausted:
                    // absorb and account toward degradation.
                    _ => {
                        self.note_failure(knob);
                        return Ok(None);
                    }
                },
            }
        }
    }

    fn note_failure(&mut self, knob: Knob) {
        let state = &mut self.state.knobs[knob as usize];
        state.streak += 1;
        if state.disabled || state.streak < DEGRADE_AFTER {
            return;
        }
        let before = self.degradation();
        self.state.knobs[knob as usize].disabled = true;
        let after = self.degradation();
        self.degradations_total.inc();
        let actuator = match knob {
            Knob::Uncore => TelActuator::Uncore,
            Knob::Cap => TelActuator::PowerCap,
            Knob::CoreFreq => TelActuator::CoreFreq,
        };
        self.emit(
            actuator,
            before as u8 as f64,
            after as u8 as f64,
            Reason::Degraded,
        );
        // Best effort: park the failed knob at its default so a half-
        // applied setting does not linger while the knob is abandoned.
        let _ = match knob {
            Knob::Uncore => self.inner.reset_uncore(),
            Knob::Cap => self.inner.reset_cap(),
            Knob::CoreFreq => self.inner.reset_core_freq_cap(),
        };
    }
}

impl<A: Actuators> Actuators for ResilientActuators<A> {
    fn set_uncore(&mut self, f: Hertz) -> Result<()> {
        if self.state.knobs[Knob::Uncore as usize].disabled {
            return Ok(());
        }
        self.guarded(Knob::Uncore, TelActuator::Uncore, f.value(), |a| {
            a.set_uncore(f)
        })
        .map(|_| ())
    }

    fn reset_uncore(&mut self) -> Result<()> {
        self.guarded(Knob::Uncore, TelActuator::Uncore, 0.0, |a| a.reset_uncore())
            .map(|_| ())
    }

    fn uncore(&self) -> Hertz {
        self.inner.uncore()
    }

    fn read_uncore(&mut self) -> Result<Hertz> {
        if self.state.knobs[Knob::Uncore as usize].disabled {
            return Ok(self.inner.uncore());
        }
        match self.guarded(Knob::Uncore, TelActuator::Uncore, 0.0, |a| a.read_uncore())? {
            Some(f) => Ok(f),
            // Absorbed read failure: fall back to the cached view so the
            // controller's coupling logic keeps a consistent value.
            None => Ok(self.inner.uncore()),
        }
    }

    fn set_cap_both(&mut self, w: Watts) -> Result<()> {
        if self.state.knobs[Knob::Cap as usize].disabled {
            return Ok(());
        }
        let w = w.max(self.cap_floor);
        self.guarded(Knob::Cap, TelActuator::PowerCap, w.value(), |a| {
            a.set_cap_both(w)
        })
        .map(|_| ())
    }

    fn set_cap_long(&mut self, w: Watts) -> Result<()> {
        if self.state.knobs[Knob::Cap as usize].disabled {
            return Ok(());
        }
        let w = w.max(self.cap_floor);
        self.guarded(Knob::Cap, TelActuator::PowerCap, w.value(), |a| {
            a.set_cap_long(w)
        })
        .map(|_| ())
    }

    fn set_cap_short(&mut self, w: Watts) -> Result<()> {
        if self.state.knobs[Knob::Cap as usize].disabled {
            return Ok(());
        }
        let w = w.max(self.cap_floor);
        self.guarded(Knob::Cap, TelActuator::PowerCapShort, w.value(), |a| {
            a.set_cap_short(w)
        })
        .map(|_| ())
    }

    fn reset_cap(&mut self) -> Result<()> {
        self.guarded(Knob::Cap, TelActuator::PowerCap, 0.0, |a| a.reset_cap())
            .map(|_| ())
    }

    fn cap_long(&self) -> Watts {
        self.inner.cap_long()
    }

    fn cap_short(&self) -> Watts {
        self.inner.cap_short()
    }

    fn cap_defaults(&self) -> (Watts, Watts) {
        self.inner.cap_defaults()
    }

    fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()> {
        if self.state.knobs[Knob::CoreFreq as usize].disabled {
            return Ok(());
        }
        self.guarded(Knob::CoreFreq, TelActuator::CoreFreq, f.value(), |a| {
            a.set_core_freq_cap(f)
        })
        .map(|_| ())
    }

    fn reset_core_freq_cap(&mut self) -> Result<()> {
        self.guarded(Knob::CoreFreq, TelActuator::CoreFreq, 0.0, |a| {
            a.reset_core_freq_cap()
        })
        .map(|_| ())
    }

    fn core_freq_cap(&self) -> Hertz {
        self.inner.core_freq_cap()
    }
}

/// Attempts per knob when the guard restores defaults.
const RESTORE_ATTEMPTS: u32 = 3;

/// RAII safe-state guard: dropping it restores platform defaults.
///
/// Wraps any [`Actuators`] (typically a [`ResilientActuators`]) and on
/// drop — including a panic unwind or a Ctrl-C-triggered early return —
/// resets the power cap, the uncore band and the core-frequency request
/// to their defaults, retrying each a bounded number of times and
/// swallowing errors (a failing restore must not abort the unwind).
/// Restoration is recorded as [`Reason::SafeStateRestore`] events when a
/// telemetry recorder is attached.
pub struct SafeStateGuard<A: Actuators> {
    inner: Option<A>,
    tel: SocketTelemetry,
}

impl<A: Actuators> SafeStateGuard<A> {
    /// Arms the guard around `inner`.
    pub fn new(inner: A) -> Self {
        SafeStateGuard {
            inner: Some(inner),
            tel: SocketTelemetry::default(),
        }
    }

    /// Attaches a telemetry recorder for the restore events.
    pub fn with_telemetry(mut self, tel: SocketTelemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Restores defaults now and disarms the guard, returning the inner
    /// actuators. Useful when the caller wants the restore inside normal
    /// control flow (and its events before the trace is drained) rather
    /// than at scope end.
    pub fn restore_now(mut self) -> A {
        let mut inner = self.inner.take().expect("guard holds until disarmed");
        Self::restore(&mut inner, &self.tel);
        inner
    }

    fn restore(a: &mut A, tel: &SocketTelemetry) {
        let (cap_old, short_old, uncore_old, freq_old) = (
            a.cap_long().value(),
            a.cap_short().value(),
            a.uncore().value(),
            a.core_freq_cap().value(),
        );
        let mut retry = |op: &mut dyn FnMut(&mut A) -> dufp_types::Result<()>| {
            for _ in 0..RESTORE_ATTEMPTS {
                if op(a).is_ok() {
                    return true;
                }
            }
            false
        };
        retry(&mut |a| a.reset_cap());
        retry(&mut |a| a.reset_uncore());
        retry(&mut |a| a.reset_core_freq_cap());
        if !tel.is_enabled() {
            return;
        }
        let events = [
            (TelActuator::PowerCap, cap_old, a.cap_long().value()),
            (TelActuator::PowerCapShort, short_old, a.cap_short().value()),
            (TelActuator::Uncore, uncore_old, a.uncore().value()),
            (TelActuator::CoreFreq, freq_old, a.core_freq_cap().value()),
        ];
        for (actuator, old, new) in events {
            tel.telemetry().record_decision(DecisionEvent {
                socket: tel.socket(),
                ..DecisionEvent::new(0, actuator, old, new, Reason::SafeStateRestore)
            });
        }
    }
}

impl<A: Actuators> std::ops::Deref for SafeStateGuard<A> {
    type Target = A;
    fn deref(&self) -> &A {
        self.inner.as_ref().expect("guard holds until disarmed")
    }
}

impl<A: Actuators> std::ops::DerefMut for SafeStateGuard<A> {
    fn deref_mut(&mut self) -> &mut A {
        self.inner.as_mut().expect("guard holds until disarmed")
    }
}

impl<A: Actuators> Drop for SafeStateGuard<A> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            Self::restore(inner, &self.tel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuators::test_support::MemActuators;
    use crate::config::ControlConfig;
    use dufp_telemetry::Telemetry;
    use dufp_types::{ArchSpec, Ratio};
    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn cfg() -> ControlConfig {
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(5.0)).unwrap()
    }

    /// MemActuators behind shared state, with scripted per-knob failures —
    /// observable after a guard consumed (and dropped) the actuators.
    #[derive(Clone)]
    struct Flaky {
        mem: Arc<Mutex<MemActuators>>,
        cap_errors: Arc<Mutex<VecDeque<Error>>>,
        uncore_errors: Arc<Mutex<VecDeque<Error>>>,
    }

    impl Flaky {
        fn new() -> Self {
            Flaky {
                mem: Arc::new(Mutex::new(MemActuators::new(cfg()))),
                cap_errors: Arc::new(Mutex::new(VecDeque::new())),
                uncore_errors: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        fn push_cap_errors(&self, n: usize, make: impl Fn() -> Error) {
            let mut q = self.cap_errors.lock();
            for _ in 0..n {
                q.push_back(make());
            }
        }

        fn push_uncore_errors(&self, n: usize, make: impl Fn() -> Error) {
            let mut q = self.uncore_errors.lock();
            for _ in 0..n {
                q.push_back(make());
            }
        }

        fn log(&self) -> Vec<String> {
            self.mem.lock().log.clone()
        }
    }

    fn take(q: &Mutex<VecDeque<Error>>) -> Result<()> {
        match q.lock().pop_front() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    impl Actuators for Flaky {
        fn set_uncore(&mut self, f: Hertz) -> Result<()> {
            take(&self.uncore_errors)?;
            self.mem.lock().set_uncore(f)
        }
        fn reset_uncore(&mut self) -> Result<()> {
            take(&self.uncore_errors)?;
            self.mem.lock().reset_uncore()
        }
        fn uncore(&self) -> Hertz {
            self.mem.lock().uncore()
        }
        fn read_uncore(&mut self) -> Result<Hertz> {
            take(&self.uncore_errors)?;
            self.mem.lock().read_uncore()
        }
        fn set_cap_both(&mut self, w: Watts) -> Result<()> {
            take(&self.cap_errors)?;
            self.mem.lock().set_cap_both(w)
        }
        fn set_cap_long(&mut self, w: Watts) -> Result<()> {
            take(&self.cap_errors)?;
            self.mem.lock().set_cap_long(w)
        }
        fn set_cap_short(&mut self, w: Watts) -> Result<()> {
            take(&self.cap_errors)?;
            self.mem.lock().set_cap_short(w)
        }
        fn reset_cap(&mut self) -> Result<()> {
            take(&self.cap_errors)?;
            self.mem.lock().reset_cap()
        }
        fn cap_long(&self) -> Watts {
            self.mem.lock().cap_long()
        }
        fn cap_short(&self) -> Watts {
            self.mem.lock().cap_short()
        }
        fn cap_defaults(&self) -> (Watts, Watts) {
            self.mem.lock().cap_defaults()
        }
        fn set_core_freq_cap(&mut self, f: Hertz) -> Result<()> {
            self.mem.lock().set_core_freq_cap(f)
        }
        fn reset_core_freq_cap(&mut self) -> Result<()> {
            self.mem.lock().reset_core_freq_cap()
        }
        fn core_freq_cap(&self) -> Hertz {
            self.mem.lock().core_freq_cap()
        }
    }

    fn wrap(flaky: Flaky, tel: &Telemetry) -> ResilientActuators<Flaky> {
        ResilientActuators::new(flaky, cfg().cap_floor).with_telemetry(tel.for_socket(0))
    }

    #[test]
    fn transient_failures_are_retried_and_applied() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        flaky.push_cap_errors(2, || Error::msr(0x610, "EIO"));
        let mut r = wrap(flaky.clone(), &tel);

        r.set_cap_both(Watts(100.0)).unwrap();
        assert_eq!(r.cap_long(), Watts(100.0), "third attempt landed");
        assert_eq!(r.retries(), 2);
        assert_eq!(r.degradation(), DegradationLevel::Full);
        let events = tel.drain_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.reason == Reason::ActuationRetry)
                .count(),
            2
        );
    }

    #[test]
    fn exhausted_retries_then_degrade_to_uncore_only() {
        let tel = Telemetry::new(256);
        let flaky = Flaky::new();
        // Each actuation burns 1 + MAX_RETRIES attempts; DEGRADE_AFTER
        // failed actuations in a row disables the knob.
        let per_actuation = 1 + MAX_RETRIES as usize;
        flaky.push_cap_errors(per_actuation * DEGRADE_AFTER as usize, || {
            Error::msr(0x610, "EIO")
        });
        let mut r = wrap(flaky.clone(), &tel);

        for _ in 0..DEGRADE_AFTER {
            r.set_cap_both(Watts(90.0)).unwrap();
        }
        assert_eq!(r.degradation(), DegradationLevel::UncoreOnly);
        assert_eq!(r.degradations(), 1);
        // Cap setters are now silent no-ops; uncore still works.
        r.set_cap_both(Watts(70.0)).unwrap();
        assert_eq!(r.cap_long(), Watts(125.0), "knob parked at default");
        r.set_uncore(Hertz::from_ghz(1.8)).unwrap();
        assert_eq!(r.uncore(), Hertz::from_ghz(1.8));

        let events = tel.drain_events();
        let degraded: Vec<_> = events
            .iter()
            .filter(|e| e.reason == Reason::Degraded)
            .collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].old, DegradationLevel::Full as u8 as f64);
        assert_eq!(degraded[0].new, DegradationLevel::UncoreOnly as u8 as f64);
    }

    #[test]
    fn persistent_errors_degrade_without_retries() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        flaky.push_cap_errors(DEGRADE_AFTER as usize, || Error::Unsupported("no RAPL"));
        let mut r = wrap(flaky.clone(), &tel);

        for _ in 0..DEGRADE_AFTER {
            r.set_cap_both(Watts(90.0)).unwrap();
        }
        assert_eq!(r.degradation(), DegradationLevel::UncoreOnly);
        assert_eq!(r.retries(), 0, "persistent failures are not retried");
    }

    #[test]
    fn uncore_failure_reaches_passive() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        let per = 1 + MAX_RETRIES as usize;
        flaky.push_uncore_errors(per * 3, || Error::msr(0x620, "EIO"));
        let mut r = wrap(flaky.clone(), &tel);
        for _ in 0..3 {
            r.set_uncore(Hertz::from_ghz(1.5)).unwrap();
        }
        assert_eq!(r.degradation(), DegradationLevel::Passive);
    }

    #[test]
    fn fatal_errors_propagate() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        flaky.push_cap_errors(1, || Error::invalid("cap", "below hardware minimum"));
        let mut r = wrap(flaky.clone(), &tel);
        assert!(r.set_cap_both(Watts(90.0)).is_err());
    }

    #[test]
    fn resilient_layer_floors_direct_constraint_writes() {
        let tel = Telemetry::new(64);
        let mut r = wrap(Flaky::new(), &tel);
        r.set_cap_long(Watts(10.0)).unwrap();
        r.set_cap_short(Watts(10.0)).unwrap();
        assert_eq!(r.cap_long(), cfg().cap_floor);
        assert_eq!(r.cap_short(), cfg().cap_floor);
    }

    #[test]
    fn read_uncore_falls_back_to_cache_when_absorbed() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        let mut r = wrap(flaky.clone(), &tel);
        r.set_uncore(Hertz::from_ghz(1.6)).unwrap();
        let per = 1 + MAX_RETRIES as usize;
        flaky.push_uncore_errors(per, || Error::msr(0x620, "EIO"));
        assert_eq!(r.read_uncore().unwrap(), Hertz::from_ghz(1.6));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        let per = 1 + MAX_RETRIES as usize;
        let mut r = wrap(flaky.clone(), &tel);
        // Two failed actuations, then a success, then two more failures:
        // never three in a row, so no degradation.
        flaky.push_cap_errors(per * 2, || Error::msr(0x610, "EIO"));
        r.set_cap_both(Watts(90.0)).unwrap();
        r.set_cap_both(Watts(90.0)).unwrap();
        r.set_cap_both(Watts(85.0)).unwrap();
        flaky.push_cap_errors(per * 2, || Error::msr(0x610, "EIO"));
        r.set_cap_both(Watts(80.0)).unwrap();
        r.set_cap_both(Watts(80.0)).unwrap();
        assert_eq!(r.degradation(), DegradationLevel::Full);
    }

    #[test]
    fn guard_restores_defaults_on_drop() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        {
            let mut g =
                SafeStateGuard::new(wrap(flaky.clone(), &tel)).with_telemetry(tel.for_socket(0));
            g.set_cap_both(Watts(70.0)).unwrap();
            g.set_uncore(Hertz::from_ghz(1.3)).unwrap();
        }
        assert_eq!(flaky.cap_long(), Watts(125.0));
        assert_eq!(flaky.cap_short(), Watts(150.0));
        assert_eq!(flaky.uncore(), cfg().uncore_max);
        let restores = tel
            .drain_events()
            .into_iter()
            .filter(|e| e.reason == Reason::SafeStateRestore)
            .count();
        assert_eq!(restores, 4);
    }

    #[test]
    fn guard_restores_through_panic_unwind() {
        let flaky = Flaky::new();
        let flaky2 = flaky.clone();
        let result = std::panic::catch_unwind(move || {
            let mut g = SafeStateGuard::new(ResilientActuators::new(flaky2, cfg().cap_floor));
            g.set_cap_both(Watts(70.0)).unwrap();
            panic!("controller bug");
        });
        assert!(result.is_err());
        assert_eq!(flaky.cap_long(), Watts(125.0), "restored despite panic");
        assert!(flaky.log().contains(&"cap=reset".to_string()));
    }

    #[test]
    fn guard_retries_failing_restores() {
        let flaky = Flaky::new();
        {
            let mut g = SafeStateGuard::new(flaky.clone());
            g.set_cap_both(Watts(70.0)).unwrap();
            // Two transient failures: the third in-guard attempt succeeds.
            flaky.push_cap_errors(2, || Error::msr(0x610, "EIO"));
        }
        assert_eq!(flaky.cap_long(), Watts(125.0));
    }

    #[test]
    fn restore_now_returns_inner_and_restores_before_scope_end() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        let mut g =
            SafeStateGuard::new(wrap(flaky.clone(), &tel)).with_telemetry(tel.for_socket(0));
        g.set_cap_both(Watts(70.0)).unwrap();
        let r = g.restore_now();
        assert_eq!(r.cap_long(), Watts(125.0));
        assert!(tel
            .drain_events()
            .iter()
            .any(|e| e.reason == Reason::SafeStateRestore));
    }

    #[test]
    fn resets_bypass_disabled_knobs() {
        let tel = Telemetry::new(64);
        let flaky = Flaky::new();
        let per = 1 + MAX_RETRIES as usize;
        flaky.push_cap_errors(per * 3, || Error::msr(0x610, "EIO"));
        let mut r = wrap(flaky.clone(), &tel);
        for _ in 0..3 {
            r.set_cap_both(Watts(90.0)).unwrap();
        }
        assert_eq!(r.degradation(), DegradationLevel::UncoreOnly);
        // The hardware recovered; an explicit reset must still reach it.
        flaky.mem.lock().long = Watts(70.0);
        r.reset_cap().unwrap();
        assert_eq!(flaky.cap_long(), Watts(125.0));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(30), p.max_backoff);
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_full_band() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_secs(2),
            ..RetryPolicy::default()
        };
        for seed in 0..64u64 {
            for attempt in 1..=8u32 {
                let full = p.backoff(attempt);
                let d = p.backoff_jittered(attempt, seed);
                assert!(d >= full / 2, "attempt {attempt} seed {seed}: {d:?} < half");
                assert!(d <= full, "attempt {attempt} seed {seed}: {d:?} > full");
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_per_seed_and_varies_across_seeds() {
        let p = RetryPolicy::default();
        for attempt in 1..=6u32 {
            assert_eq!(
                p.backoff_jittered(attempt, 42),
                p.backoff_jittered(attempt, 42),
                "same (seed, attempt) must replay identically"
            );
        }
        // Across many seeds at a wide band, at least two distinct delays
        // must appear — otherwise there is no jitter at all.
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let delays: std::collections::HashSet<Duration> =
            (0..16u64).map(|s| p.backoff_jittered(4, s)).collect();
        assert!(delays.len() > 1, "jitter collapsed to a single value");
    }

    #[test]
    fn jittered_backoff_never_exceeds_ceiling() {
        let p = RetryPolicy::default();
        for seed in 0..32u64 {
            assert!(p.backoff_jittered(30, seed) <= p.max_backoff);
        }
    }

    #[test]
    fn restore_state_tolerates_other_knob_counts() {
        let tel = Telemetry::new(8);
        let mut r = wrap(Flaky::new(), &tel);
        let knob = |streak, disabled| KnobSnapshot { streak, disabled };
        // Too few knobs: the missing ones are at their default.
        r.restore_state(&ResilienceState {
            ops: 7,
            knobs: vec![knob(1, false), knob(3, true)],
        });
        let s = r.state();
        assert_eq!(s.ops, 7);
        assert_eq!(s.knobs, vec![knob(1, false), knob(3, true), knob(0, false)]);
        assert_eq!(r.degradation(), DegradationLevel::UncoreOnly);
        // Too many: the extra ones are ignored.
        r.restore_state(&ResilienceState {
            ops: 9,
            knobs: vec![knob(0, false); 5],
        });
        assert_eq!(r.state().knobs.len(), 3);
        assert_eq!(r.degradation(), DegradationLevel::Full);
    }
}
