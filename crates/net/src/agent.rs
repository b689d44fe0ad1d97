//! The node agent: a [`DufpNode`] — a simulated single-socket machine
//! running DUFP under a [`dufp_cluster::BudgetedCapper`] — reporting
//! demand to the coordinator and enforcing the ceilings it grants.
//!
//! Its protocol decisions live in [`AgentCore`], a transport-free state
//! machine: every coordinator frame goes through [`AgentCore::on_frame`],
//! and every frame the agent sends is built by [`AgentCore::hello`],
//! [`AgentCore::report`] or [`AgentCore::heartbeat`], here and in the
//! chaos fleet ([`crate::chaos`]), so the soak and the adversarial
//! proptests check the code the agent ships.
//!
//! The agent is built to survive the coordinator, not the other way
//! around. It connects with bounded retry/backoff; if the coordinator is
//! unreachable — at startup or mid-run — it never runs above its safe
//! local static cap ([`crate::AgentConfig::safe_cap`]), records a
//! `CoordinatorLost` decision, keeps running its job queue, and retries
//! the connection from its control loop. The node's actuators sit inside
//! a [`dufp_control::SafeStateGuard`], so however the agent exits —
//! drain, crash switch, Ctrl-C — the socket's platform defaults are
//! restored.
//!
//! A test-only crash switch ([`Agent::with_crash_switch`]) makes the agent
//! die the way SIGKILL would: the socket is torn down with no Goodbye and
//! the control loop stops mid-interval, which is exactly what the
//! coordinator's heartbeat timeout exists to detect.

use crate::config::AgentConfig;
use crate::fleet_sim::NodeHello;
use crate::wire::{Frame, GrantKind};
use dufp_cluster::node::{DufpNode, NodeCapper, INTERVAL};
use dufp_telemetry::{Actuator, DecisionEvent, Reason, Telemetry, TelemetryReport};
use dufp_types::{shutdown, Error, Result, Seconds, SocketId, Watts};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one agent run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentOutcome {
    /// Node name from the configuration.
    pub node: String,
    /// Job queue, joined for display.
    pub app: String,
    /// Whether the whole queue drained (false on crash, interval limit or
    /// shutdown).
    pub completed: bool,
    /// Simulated time until the queue drained, when it did.
    pub exec_time: Option<Seconds>,
    /// Average package power over the run.
    pub avg_power: Watts,
    /// The ceiling in force when the agent stopped.
    pub final_ceiling: Watts,
    /// Control intervals executed.
    pub intervals: u64,
    /// Demand reports delivered to the coordinator.
    pub reports_sent: u64,
    /// Budget grants applied from the coordinator.
    pub grants_applied: u64,
    /// Times the agent fell back to its safe local cap.
    pub degradations: u64,
    /// Graceful `Handover` frames followed to a successor coordinator.
    #[serde(default)]
    pub handovers: u64,
    /// Grants discarded because they carried a coordination term below
    /// the highest this agent has seen (split-brain fencing).
    #[serde(default)]
    pub stale_term_grants: u64,
    /// Highest coordination term observed over the run.
    #[serde(default)]
    pub max_term: u64,
    /// Whether the crash switch fired (no Goodbye was sent).
    pub crashed: bool,
    /// Decision trace + metrics for this node.
    pub telemetry: TelemetryReport,
}

/// What [`AgentCore::on_frame`] made of one coordinator-to-agent frame. A
/// transport reacts to this and never looks at the frame itself.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentInbound {
    /// A `BudgetGrant` newer than every commit, so it went to the
    /// actuator; uncommitted, a later copy can still apply.
    Apply {
        /// The grant's coordination term.
        term: u64,
        /// The grant's allocator epoch.
        epoch: u64,
        /// The granted ceiling.
        ceiling: Watts,
        /// Whether the grant raised or shrank the node's share.
        kind: GrantKind,
        /// The actuator reported the ceiling in force.
        committed: bool,
    },
    /// A `BudgetGrant` below `seen`, the highest term seen: obeying a
    /// superseded coordinator would let a split brain double-spend.
    Fenced {
        /// The grant's coordination term.
        term: u64,
        /// The grant's allocator epoch.
        epoch: u64,
        /// The highest term seen.
        seen: u64,
    },
    /// A `BudgetGrant` not newer than the last committed `(term, epoch)`:
    /// a delayed, duplicated or replayed grant.
    Stale,
    /// A `Handover` whose term the core adopted: re-home to `successor`.
    Handover(String),
    /// A `Goodbye`: the coordinator detached on purpose.
    Goodbye,
    /// A `Hello`, `DemandReport` or `Heartbeat`: the peer is confused.
    WrongDirection,
}

/// The transport-free agent state machine (DESIGN.md §12, §15): term
/// fencing, lexicographic `(term, epoch)` grant ordering — so a delayed
/// or replayed grant, even from a fenced ex-primary whose epoch counter
/// ran ahead, never rolls the ceiling back — the frames the agent sends
/// (`Hello`, sequenced reports and heartbeats, each stamped as the
/// protocol needs), and the safe-cap fallback `min(ceiling, safe_cap)`
/// once the link has been down for `grace` ticks of the caller's clock.
/// Actuation stays outside: a verdict before it, a commit after it.
#[derive(Debug, Clone)]
pub struct AgentCore {
    safe_cap: Watts,
    grace: u64,
    ceiling: Watts,
    granted: Option<Watts>,
    max_term: u64,
    last_grant: (u64, u64),
    report_seq: u64,
    heartbeat_seq: u64,
    down_since: Option<u64>,
    grants_applied: u64,
    stale_term_grants: u64,
}

impl AgentCore {
    /// A fresh agent process at `safe_cap` with no term seen; `grace` is 0
    /// when the transport notices loss itself, as TCP does on EOF.
    pub fn new(safe_cap: Watts, grace: u64) -> Self {
        AgentCore {
            safe_cap,
            grace,
            ceiling: safe_cap,
            granted: None,
            max_term: 0,
            last_grant: (0, 0),
            report_seq: 0,
            heartbeat_seq: 0,
            down_since: None,
            grants_applied: 0,
            stale_term_grants: 0,
        }
    }

    /// Handles one frame from the coordinator: the one dispatch both
    /// transports share. A grant is fenced by term (adopting a fresh one),
    /// then ordered against the last *commit*; a newer one goes to
    /// `actuate` and commits only if `actuate` reports its ceiling in
    /// force. A `Handover` adopts its term.
    pub fn on_frame(&mut self, frame: Frame, actuate: impl FnOnce(Watts) -> bool) -> AgentInbound {
        match frame {
            Frame::BudgetGrant {
                epoch,
                ceiling,
                kind,
                term,
            } => {
                if term < self.max_term {
                    self.stale_term_grants += 1;
                    let seen = self.max_term;
                    return AgentInbound::Fenced { term, epoch, seen };
                }
                self.max_term = term;
                if (term, epoch) <= self.last_grant {
                    return AgentInbound::Stale;
                }
                let committed = actuate(ceiling);
                if committed {
                    self.last_grant = (term, epoch);
                    self.granted = Some(ceiling);
                    self.ceiling = ceiling;
                    self.grants_applied += 1;
                }
                AgentInbound::Apply {
                    term,
                    epoch,
                    ceiling,
                    kind,
                    committed,
                }
            }
            Frame::Handover { successor, term } => {
                self.max_term = self.max_term.max(term);
                AgentInbound::Handover(successor)
            }
            Frame::Goodbye => AgentInbound::Goodbye,
            Frame::Hello { .. } | Frame::DemandReport { .. } | Frame::Heartbeat { .. } => {
                AgentInbound::WrongDirection
            }
        }
    }

    /// Notes whether the link is up at tick `now`. Once it has been down
    /// for the grace, forfeits the grant and lowers the ceiling to
    /// `min(ceiling, safe_cap)` — losing its grantor never raises an
    /// agent's power — and returns the ceiling from before.
    pub fn on_link(&mut self, up: bool, now: u64) -> Option<Watts> {
        if up {
            self.down_since = None;
            return None;
        }
        let since = *self.down_since.get_or_insert(now);
        if now.saturating_sub(since) < self.grace {
            return None;
        }
        let old = self.ceiling;
        if self.ceiling > self.safe_cap {
            self.ceiling = self.safe_cap;
        }
        self.granted = None;
        Some(old)
    }

    /// The `Hello` announcing `me`, stamped with the highest term seen so
    /// a resurrected stale primary is fenced on contact.
    pub fn hello(&self, me: &NodeHello) -> Frame {
        Frame::Hello {
            node: me.name.clone(),
            floor: me.floor,
            node_max: me.node_max,
            app: me.app.clone(),
            term: self.max_term,
        }
    }

    /// The next demand report, sequenced after the last one.
    pub fn report(&mut self, ceiling: Watts, consumption: Watts, active: bool) -> Frame {
        self.report_seq += 1;
        Frame::DemandReport {
            seq: self.report_seq,
            ceiling,
            consumption,
            active,
        }
    }

    /// The next heartbeat, sequenced apart from the reports and stamped
    /// with the highest term seen.
    pub fn heartbeat(&mut self) -> Frame {
        self.heartbeat_seq += 1;
        Frame::Heartbeat {
            seq: self.heartbeat_seq,
            term: self.max_term,
        }
    }

    /// The highest term seen.
    pub fn max_term(&self) -> u64 {
        self.max_term
    }

    /// The ceiling the agent enforces.
    pub fn ceiling(&self) -> Watts {
        self.ceiling
    }

    /// The grant in force, if the link has not forfeited it.
    pub fn granted(&self) -> Option<Watts> {
        self.granted
    }

    /// Grants committed.
    pub fn grants_applied(&self) -> u64 {
        self.grants_applied
    }

    /// Grants refused by term fencing.
    pub fn stale_term_grants(&self) -> u64 {
        self.stale_term_grants
    }
}

/// Why the coordinator link ended.
enum LinkEnd {
    /// EOF, a wire error or a failed write: the coordinator is gone.
    Lost,
    /// A Goodbye: the coordinator detached on purpose; do not chase it.
    Goodbye,
    /// A Handover: reconnect to this successor, skipping the disconnect
    /// degradation (the new term fences stale grants anyway).
    Handover(String),
}

/// Coordinator-link state shared with the grant-reader thread.
struct Link {
    capper: NodeCapper,
    /// How the current session ended, once it has. A Goodbye or Handover
    /// the reader saw outranks a loss the write path flagged.
    end: Mutex<Option<LinkEnd>>,
    /// The agent's protocol state; the reader thread judges grants with
    /// it and the control loop sequences reports and falls back with it.
    core: Mutex<AgentCore>,
    tel: Telemetry,
}

impl Link {
    /// Flags the session lost, unless a Goodbye or Handover ended it.
    fn lost(&self) {
        self.end.lock().get_or_insert(LinkEnd::Lost);
    }

    /// Marks the link down at `tick` and actuates the core's safe-cap
    /// fallback. Returns the ceiling before and after it.
    fn fall_back(&self, tick: u64) -> Result<(Watts, Watts)> {
        let mut core = self.core.lock();
        let old = core.on_link(false, tick).unwrap_or(core.ceiling());
        let new = core.ceiling();
        drop(core);
        self.capper.set_ceiling(SocketId(0), new)?;
        Ok((old, new))
    }

    /// Counts a coordinator loss and records its `CoordinatorLost`
    /// decision (ceiling `old` → `new`).
    fn record_loss(&self, tick: u64, old: Watts, new: Watts) {
        self.tel.counter("coordinator_losses_total").inc();
        let (old, new, lost) = (old.value(), new.value(), Reason::CoordinatorLost);
        let decision = DecisionEvent::new(tick, Actuator::Budget, old, new, lost);
        self.tel.record_decision(decision);
    }
}

/// Round-robin reconnect schedule over the primary and its standbys.
///
/// Attempt `i` targets `targets[i % len]`, so a dead (or resurrected,
/// stale) primary cannot capture every retry — the rotation finds a
/// promoted standby within one lap. The attempt counter zeroes whenever a
/// session is actually *established* (a Hello handshake completed), not
/// merely whenever a loss is noticed: an agent that reconnected
/// successfully starts its next outage at the bottom of the backoff
/// ladder, not wherever the previous outage left it.
struct ReconnectPlan {
    targets: Vec<String>,
    attempt: u32,
    next_at: Instant,
    /// Cleared by a Goodbye: the detach was deliberate, stop chasing.
    chasing: bool,
}

impl ReconnectPlan {
    fn new(cfg: &AgentConfig) -> Self {
        let mut targets = vec![cfg.connect.clone()];
        for s in &cfg.standbys {
            if !targets.contains(s) {
                targets.push(s.clone());
            }
        }
        ReconnectPlan {
            targets,
            attempt: 0,
            next_at: Instant::now(),
            chasing: true,
        }
    }

    /// The address the next attempt should dial.
    fn target(&self) -> &str {
        &self.targets[self.attempt as usize % self.targets.len()]
    }

    /// Per-outage attempt budget: the policy's retry count applies to
    /// *each* candidate coordinator, not the rotation as a whole.
    fn budget(&self, retry: &dufp_control::RetryPolicy) -> u32 {
        retry.max_retries.saturating_mul(self.targets.len() as u32)
    }

    fn due(&self, retry: &dufp_control::RetryPolicy) -> bool {
        self.chasing && self.attempt < self.budget(retry) && Instant::now() >= self.next_at
    }

    fn exhausted(&self, retry: &dufp_control::RetryPolicy) -> bool {
        self.chasing && self.attempt >= self.budget(retry)
    }

    /// A Hello handshake completed: reset the ladder.
    fn on_established(&mut self) {
        self.attempt = 0;
        self.chasing = true;
    }

    /// A connection (or attach) attempt failed: climb the ladder.
    fn on_failure(&mut self, retry: &dufp_control::RetryPolicy, seed: u64) {
        self.attempt += 1;
        self.next_at = Instant::now() + retry.backoff_jittered(self.attempt, seed);
    }

    /// The link died: restart the ladder after one base backoff.
    fn on_loss(&mut self, retry: &dufp_control::RetryPolicy, seed: u64) {
        self.attempt = 0;
        self.chasing = true;
        self.next_at = Instant::now() + retry.backoff_jittered(1, seed);
    }

    /// A handover named `successor`: dial it first, immediately.
    fn prefer(&mut self, successor: String) {
        self.targets.retain(|t| t != &successor);
        self.targets.insert(0, successor);
        self.attempt = 0;
        self.chasing = true;
        self.next_at = Instant::now();
    }

    /// A deliberate Goodbye: do not chase the coordinator.
    fn halt(&mut self) {
        self.chasing = false;
    }
}

/// The node agent. Build with [`Agent::new`], run with [`Agent::run`].
pub struct Agent {
    cfg: AgentConfig,
    crash: Option<Arc<AtomicBool>>,
    tel: Telemetry,
}

impl Agent {
    /// Validates `cfg` and prepares an agent (no I/O yet).
    pub fn new(cfg: AgentConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Agent {
            cfg,
            crash: None,
            tel: Telemetry::enabled(),
        })
    }

    /// Arms a test-only crash switch: when the flag goes true the agent
    /// tears its socket down with no Goodbye and stops mid-interval —
    /// indistinguishable, from the coordinator's side, from SIGKILL.
    pub fn with_crash_switch(mut self, switch: Arc<AtomicBool>) -> Self {
        self.crash = Some(switch);
        self
    }

    /// Replaces the telemetry collector (e.g. a disabled one for benches).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Runs the node to queue drain (or crash/limit/shutdown) and reports
    /// the outcome. Never panics — and never errors — on coordinator loss.
    pub fn run(self) -> Result<AgentOutcome> {
        let cfg = self.cfg;
        let tel = self.tel;
        let crash_switch = self.crash;

        // -- Node rig. Until the first grant lands the node self-enforces
        // its safe cap.
        let mut node = DufpNode::new(cfg.seed, &cfg.queue, cfg.slowdown, cfg.safe_cap, &tel)?;

        let link = Arc::new(Link {
            capper: Arc::clone(node.capper()),
            end: Mutex::new(None),
            // No grace: the reader notices loss on EOF, so the fallback
            // applies the moment the control loop sees it.
            core: Mutex::new(AgentCore::new(cfg.safe_cap, 0)),
            tel: tel.clone(),
        });

        // -- Coordinator link, with retry. Failure is not fatal: the agent
        // runs standalone at its safe cap and keeps retrying below. The
        // Hello is rebuilt per attach so it carries the highest term seen —
        // re-announcing a successor's term to whatever answers fences a
        // resurrected stale primary on contact.
        let me = NodeHello {
            name: cfg.node.clone(),
            app: cfg.queue.join("+"),
            floor: DufpNode::cap_floor(),
            node_max: DufpNode::pl1(),
        };
        let make_hello = |link: &Link| link.core.lock().hello(&me);
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut degradations: u64 = 0;
        let mut handovers: u64 = 0;
        let mut plan = ReconnectPlan::new(&cfg);
        let mut stream = connect_with_retry(&cfg, &mut plan)
            .and_then(|s| attach(s, &make_hello(&link), &link, &mut readers))
            .ok();
        if stream.is_some() {
            plan.on_established();
        } else {
            degradations += 1;
            let safe = cfg.safe_cap.value();
            let lost = DecisionEvent::new(0, Actuator::Budget, safe, safe, Reason::CoordinatorLost);
            tel.record_decision(lost);
        }

        // -- Control loop: one node interval, then the coordinator link.
        let mut reports_sent: u64 = 0;
        let mut crashed = false;

        loop {
            if shutdown::requested() {
                break;
            }
            // The crash switch dies the SIGKILL way: socket torn down, no
            // Goodbye, loop abandoned mid-flight.
            if crash_switch
                .as_ref()
                .is_some_and(|s| s.load(Ordering::Relaxed))
            {
                crashed = true;
                if let Some(s) = stream.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                break;
            }

            node.step()?;
            let intervals = node.intervals();

            // One demand report per interval (doubles as the heartbeat).
            if let Some(s) = stream.as_mut() {
                let consumption = node.consumption(INTERVAL.as_seconds().value())?;
                let active = node.finished_at().is_none();
                let frame = link.core.lock().report(node.ceiling(), consumption, active);
                match frame.write_to(s).and_then(|()| Ok(s.flush()?)) {
                    Ok(()) => reports_sent += 1,
                    Err(_) => link.lost(),
                }
            }

            let end = link.end.lock().take();
            if let Some(end) = end {
                if let Some(s) = stream.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                if let LinkEnd::Handover(successor) = end {
                    // Graceful handover: skip the loss degradation — the
                    // ceiling in force stays (the successor's hold-down
                    // reserves it, and its higher term fences any stale
                    // grant) and the rotation dials the successor first.
                    handovers += 1;
                    tel.counter("handovers_followed_total").inc();
                    plan.prefer(successor);
                } else {
                    // Loss or graceful detach: fall back so a stale
                    // (possibly generous) grant cannot outlive its grantor.
                    let (old, new) = link.fall_back(intervals)?;
                    degradations += 1;
                    link.record_loss(intervals, old, new);
                    if matches!(end, LinkEnd::Goodbye) {
                        plan.halt();
                    } else {
                        plan.on_loss(&cfg.retry, cfg.seed);
                    }
                }
            }

            // Background reconnect, round-robin over the primary and its
            // standbys, bounded by the retry policy (per target).
            if stream.is_none() && plan.due(&cfg.retry) {
                match TcpStream::connect(plan.target())
                    .map_err(Error::from)
                    .and_then(|s| attach(s, &make_hello(&link), &link, &mut readers))
                {
                    Ok(s) => {
                        stream = Some(s);
                        link.core.lock().on_link(true, intervals);
                        plan.on_established();
                        tel.counter("reconnects_total").inc();
                    }
                    Err(_) => plan.on_failure(&cfg.retry, cfg.seed),
                }
            } else if stream.is_none() && plan.exhausted(&cfg.retry) && handovers > 0 {
                // A followed handover kept the granted ceiling while
                // chasing the successor; if the chase dies, the grantor is
                // truly gone — degrade like any other loss.
                let (old, new) = link.fall_back(intervals)?;
                if new != old {
                    degradations += 1;
                    link.record_loss(intervals, old, new);
                }
            }

            if node.finished_at().is_some() {
                break;
            }
            if cfg.max_intervals.is_some_and(|max| intervals >= max) {
                break;
            }
            if !cfg.pace.is_zero() {
                std::thread::sleep(cfg.pace);
            }
        }

        // Graceful exit: tell the coordinator the node is done so its
        // watts are redistributed immediately instead of by timeout.
        if !crashed {
            if let Some(mut s) = stream.take() {
                let bye = link.core.lock().report(node.ceiling(), Watts::ZERO, false);
                let _ = bye.write_to(&mut s);
                let _ = Frame::Goodbye.write_to(&mut s);
                let _ = s.flush();
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for h in readers {
            let _ = h.join();
        }
        let final_ceiling = node.ceiling();
        let (exec_time, avg_power, intervals) =
            (node.finished_at(), node.avg_power(), node.intervals());
        drop(node); // restore platform defaults before reporting
        let core = link.core.lock();

        Ok(AgentOutcome {
            node: cfg.node,
            app: cfg.queue.join("+"),
            completed: exec_time.is_some(),
            exec_time,
            avg_power,
            final_ceiling,
            intervals,
            reports_sent,
            grants_applied: core.grants_applied(),
            degradations,
            handovers,
            stale_term_grants: core.stale_term_grants(),
            max_term: core.max_term(),
            crashed,
            telemetry: tel.report(),
        })
    }
}

/// Initial connect honoring the agent's retry policy, rotating over the
/// primary and its standbys like every later reconnect.
fn connect_with_retry(cfg: &AgentConfig, plan: &mut ReconnectPlan) -> Result<TcpStream> {
    loop {
        match TcpStream::connect(plan.target()) {
            Ok(s) => return Ok(s),
            Err(e) => {
                plan.on_failure(&cfg.retry, cfg.seed);
                if plan.exhausted(&cfg.retry) {
                    return Err(e.into());
                }
                std::thread::sleep(cfg.retry.backoff_jittered(plan.attempt, cfg.seed));
            }
        }
    }
}

/// Sends the Hello and spawns the grant-reader thread for `stream`.
fn attach(
    stream: TcpStream,
    hello: &Frame,
    link: &Arc<Link>,
    readers: &mut Vec<std::thread::JoinHandle<()>>,
) -> Result<TcpStream> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    hello.write_to(&mut writer)?;
    writer.flush()?;
    let reader = stream.try_clone()?;
    let link = Arc::clone(link);
    readers.push(std::thread::spawn(move || reader_loop(reader, link)));
    Ok(writer)
}

/// Applies coordinator frames through [`AgentCore::on_frame`] until the
/// connection dies or says Goodbye.
fn reader_loop(mut stream: TcpStream, link: Arc<Link>) {
    // EOF or a wire error ends the loop: the coordinator is gone.
    while let Ok(Some(frame)) = Frame::read_from(&mut stream) {
        let mut old = Watts::ZERO;
        let inbound = link.core.lock().on_frame(frame, |ceiling| {
            old = link.capper.budget().ceiling();
            if link.capper.set_ceiling(SocketId(0), ceiling).is_err() {
                link.tel.counter("enforce_failures_total").inc();
            }
            // `set_ceiling` moves the budget ceiling before it enforces
            // it, so the grant is in force even when the write failed.
            true
        });
        let (epoch, old, new, reason) = match inbound {
            AgentInbound::Apply {
                epoch,
                ceiling,
                kind,
                ..
            } => (epoch, old.value(), ceiling.value(), kind.reason()),
            AgentInbound::Fenced { term, epoch, seen } => {
                link.tel.counter("stale_term_grants_fenced_total").inc();
                (epoch, term as f64, seen as f64, Reason::TermFenced)
            }
            AgentInbound::Stale => {
                link.tel.counter("stale_grants_ignored_total").inc();
                continue;
            }
            AgentInbound::Handover(successor) => {
                // The coordinator is leaving on purpose and named its
                // heir, whose term the core adopted: let the control loop
                // re-home immediately — no disconnect grace, no safe-cap
                // dip.
                *link.end.lock() = Some(LinkEnd::Handover(successor));
                link.tel.counter("handovers_received_total").inc();
                return;
            }
            AgentInbound::Goodbye => {
                *link.end.lock() = Some(LinkEnd::Goodbye);
                return;
            }
            // A confused peer: treat like loss.
            AgentInbound::WrongDirection => break,
        };
        let decision = DecisionEvent::new(epoch, Actuator::Budget, old, new, reason);
        link.tel.record_decision(decision);
    }
    link.lost();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_over(addrs: &[&str]) -> ReconnectPlan {
        let mut cfg = AgentConfig::new(addrs[0], "n0", "EP");
        cfg.standbys = addrs[1..].iter().map(|s| s.to_string()).collect();
        ReconnectPlan::new(&cfg)
    }

    const SAFE: Watts = Watts(90.0);

    /// Hands `core` a `(term, epoch)` grant of `ceiling` through an
    /// actuator that reports `actuated`.
    fn grant(
        core: &mut AgentCore,
        term: u64,
        epoch: u64,
        ceiling: f64,
        actuated: bool,
    ) -> AgentInbound {
        let frame = Frame::BudgetGrant {
            epoch,
            ceiling: Watts(ceiling),
            kind: GrantKind::Raise,
            term,
        };
        core.on_frame(frame, |_| actuated)
    }

    /// Whether `inbound` is an applicable grant, and if so whether it
    /// committed.
    fn committed(inbound: AgentInbound) -> Option<bool> {
        match inbound {
            AgentInbound::Apply { committed, .. } => Some(committed),
            _ => None,
        }
    }

    /// The highest term a fenced grant was refused under.
    fn fenced_by(inbound: AgentInbound) -> Option<u64> {
        match inbound {
            AgentInbound::Fenced { seen, .. } => Some(seen),
            _ => None,
        }
    }

    /// A core that has committed `(term, epoch)` at `ceiling`.
    fn granted(term: u64, epoch: u64, ceiling: f64) -> AgentCore {
        let mut core = AgentCore::new(SAFE, 0);
        assert_eq!(
            committed(grant(&mut core, term, epoch, ceiling, true)),
            Some(true)
        );
        core
    }

    #[test]
    fn agent_core_fences_grants_below_the_highest_term_seen() {
        let mut core = granted(2, 5, 110.0);
        assert_eq!(fenced_by(grant(&mut core, 1, 99, 120.0, true)), Some(2));
        assert_eq!(core.stale_term_grants(), 1);
        assert_eq!(core.ceiling(), Watts(110.0));
        // A newer term is adopted even when its grant does not commit.
        assert_eq!(committed(grant(&mut core, 3, 1, 120.0, false)), Some(false));
        assert_eq!(core.max_term(), 3);
        assert_eq!(fenced_by(grant(&mut core, 2, 6, 120.0, true)), Some(3));
        assert_eq!(core.ceiling(), Watts(110.0));
    }

    #[test]
    fn agent_core_orders_grants_by_term_then_epoch() {
        let mut core = granted(1, 5, 110.0);
        assert_eq!(
            grant(&mut core, 1, 5, 120.0, true),
            AgentInbound::Stale,
            "duplicate"
        );
        assert_eq!(
            grant(&mut core, 1, 4, 120.0, true),
            AgentInbound::Stale,
            "delayed"
        );
        assert_eq!(core.ceiling(), Watts(110.0));
        assert_eq!(committed(grant(&mut core, 1, 6, 100.0, true)), Some(true));
        // A new term wins even with a smaller epoch counter.
        assert_eq!(committed(grant(&mut core, 2, 1, 70.0, true)), Some(true));
        assert_eq!(grant(&mut core, 2, 1, 120.0, true), AgentInbound::Stale);
        assert_eq!(core.ceiling(), Watts(70.0));
        assert_eq!(core.granted(), Some(Watts(70.0)));
        assert_eq!(core.grants_applied(), 3);
    }

    #[test]
    fn agent_core_commits_only_after_actuation() {
        let mut core = granted(1, 5, 110.0);
        // The actuation for (1, 6) failed: no commit, so the ceiling stays
        // and a redelivered copy is still applicable.
        assert_eq!(committed(grant(&mut core, 1, 6, 120.0, false)), Some(false));
        assert_eq!((core.ceiling(), core.grants_applied()), (Watts(110.0), 1));
        assert_eq!(committed(grant(&mut core, 1, 6, 120.0, true)), Some(true));
        assert_eq!((core.ceiling(), core.grants_applied()), (Watts(120.0), 2));
        assert_eq!(grant(&mut core, 1, 6, 120.0, true), AgentInbound::Stale);
    }

    #[test]
    fn agent_core_never_actuates_a_fenced_or_stale_grant() {
        let mut core = granted(2, 5, 110.0);
        for (term, epoch) in [(1, 9), (2, 5), (2, 4)] {
            let frame = Frame::BudgetGrant {
                epoch,
                ceiling: Watts(120.0),
                kind: GrantKind::Shrink,
                term,
            };
            core.on_frame(frame, |_| panic!("({term}, {epoch}) reached the actuator"));
        }
    }

    #[test]
    fn agent_core_reports_every_grant_field() {
        let mut core = granted(2, 5, 110.0);
        let frame = Frame::BudgetGrant {
            epoch: 6,
            ceiling: Watts(80.0),
            kind: GrantKind::Shrink,
            term: 2,
        };
        let mut actuated = None;
        let inbound = core.on_frame(frame, |c| {
            actuated = Some(c);
            true
        });
        assert_eq!(actuated, Some(Watts(80.0)));
        let apply = AgentInbound::Apply {
            term: 2,
            epoch: 6,
            ceiling: Watts(80.0),
            kind: GrantKind::Shrink,
            committed: true,
        };
        assert_eq!(inbound, apply);
        let fenced = AgentInbound::Fenced {
            term: 1,
            epoch: 9,
            seen: 2,
        };
        assert_eq!(grant(&mut core, 1, 9, 120.0, true), fenced);
    }

    #[test]
    fn agent_core_adopts_a_handover_term() {
        let mut core = granted(1, 5, 110.0);
        let handover = |term| Frame::Handover {
            successor: "s:2".into(),
            term,
        };
        let never = |_| panic!("a handover actuates nothing");
        assert_eq!(
            core.on_frame(handover(2), never),
            AgentInbound::Handover("s:2".into())
        );
        assert_eq!(core.max_term(), 2);
        assert_eq!(fenced_by(grant(&mut core, 1, 6, 120.0, true)), Some(2));
        core.on_frame(handover(1), never);
        assert_eq!(core.max_term(), 2, "a handover never lowers the term");
        // The granted ceiling survives the handover itself.
        assert_eq!(core.ceiling(), Watts(110.0));
    }

    #[test]
    fn agent_core_passes_goodbye_and_flags_up_direction_frames() {
        let mut core = granted(1, 5, 110.0);
        let never = |_| panic!("only a grant actuates");
        assert_eq!(core.on_frame(Frame::Goodbye, never), AgentInbound::Goodbye);
        let up = [
            Frame::Hello {
                node: "n0".into(),
                floor: Watts(65.0),
                node_max: Watts(125.0),
                app: "EP".into(),
                term: 9,
            },
            Frame::DemandReport {
                seq: 1,
                ceiling: Watts(120.0),
                consumption: Watts(100.0),
                active: true,
            },
            Frame::Heartbeat { seq: 1, term: 9 },
        ];
        for frame in up {
            assert_eq!(core.on_frame(frame, never), AgentInbound::WrongDirection);
        }
        // None of them touched the grant state or the term.
        assert_eq!((core.max_term(), core.ceiling()), (1, Watts(110.0)));
        assert_eq!(core.grants_applied(), 1);
    }

    #[test]
    fn agent_core_falls_back_after_its_grace() {
        let mut tcp = granted(1, 1, 110.0);
        assert_eq!(tcp.on_link(false, 10), Some(Watts(110.0)), "grace 0");
        assert_eq!((tcp.ceiling(), tcp.granted()), (SAFE, None));

        let mut chaos = AgentCore::new(SAFE, 2);
        assert_eq!(committed(grant(&mut chaos, 1, 1, 110.0, true)), Some(true));
        assert_eq!(chaos.on_link(false, 10), None, "the clock starts at 10");
        assert_eq!(chaos.on_link(false, 11), None, "inside the grace");
        assert_eq!(chaos.ceiling(), Watts(110.0));
        assert_eq!(chaos.on_link(false, 12), Some(Watts(110.0)));
        assert_eq!(chaos.ceiling(), SAFE);
        // A healed link stops the clock.
        assert_eq!(chaos.on_link(true, 13), None);
        assert_eq!(chaos.on_link(false, 14), None);
    }

    #[test]
    fn agent_core_keeps_a_grant_below_the_safe_cap_on_loss() {
        let mut core = granted(1, 1, 70.0);
        assert_eq!(core.on_link(false, 3), Some(Watts(70.0)));
        assert_eq!(core.ceiling(), Watts(70.0), "loss never raises power");
        assert_eq!(core.granted(), None, "the grant is forfeited");
    }

    #[test]
    fn agent_core_sequences_reports_and_heartbeats_separately() {
        let mut core = AgentCore::new(SAFE, 0);
        let report = |seq| Frame::DemandReport {
            seq,
            ceiling: Watts(90.0),
            consumption: Watts(80.0),
            active: true,
        };
        assert_eq!(core.report(Watts(90.0), Watts(80.0), true), report(1));
        assert_eq!(core.report(Watts(90.0), Watts(80.0), true), report(2));
        assert_eq!(core.heartbeat(), Frame::Heartbeat { seq: 1, term: 0 });
        let bye = Frame::DemandReport {
            seq: 3,
            ceiling: Watts(70.0),
            consumption: Watts::ZERO,
            active: false,
        };
        assert_eq!(core.report(Watts(70.0), Watts::ZERO, false), bye);
        assert_eq!(core.heartbeat(), Frame::Heartbeat { seq: 2, term: 0 });
    }

    #[test]
    fn agent_core_stamps_hello_and_heartbeat_with_the_adopted_term() {
        let me = NodeHello {
            name: "n0".into(),
            app: "EP".into(),
            floor: Watts(65.0),
            node_max: Watts(125.0),
        };
        let hello = |term| Frame::Hello {
            node: "n0".into(),
            floor: Watts(65.0),
            node_max: Watts(125.0),
            app: "EP".into(),
            term,
        };
        let mut core = AgentCore::new(SAFE, 0);
        assert_eq!(core.hello(&me), hello(0));
        let handover = Frame::Handover {
            successor: "s:2".into(),
            term: 2,
        };
        core.on_frame(handover, |_| panic!("a handover actuates nothing"));
        assert_eq!(core.hello(&me), hello(2));
        assert_eq!(core.heartbeat(), Frame::Heartbeat { seq: 1, term: 2 });
        // A newer-term grant is adopted even when its actuation fails.
        assert_eq!(committed(grant(&mut core, 3, 1, 110.0, false)), Some(false));
        assert_eq!(core.hello(&me), hello(3));
        assert_eq!(core.heartbeat(), Frame::Heartbeat { seq: 2, term: 3 });
        // A fenced grant from an older term moves nothing.
        assert_eq!(fenced_by(grant(&mut core, 1, 9, 120.0, true)), Some(3));
        assert_eq!(core.hello(&me), hello(3));
    }

    #[test]
    fn reconnect_attempts_rotate_round_robin_over_standbys() {
        let retry = dufp_control::RetryPolicy::default();
        let mut plan = plan_over(&["p:1", "s:2", "s:3"]);
        let mut dialed = Vec::new();
        while !plan.exhausted(&retry) {
            dialed.push(plan.target().to_string());
            plan.on_failure(&retry, 7);
        }
        assert_eq!(dialed.len(), (retry.max_retries * 3) as usize);
        assert_eq!(&dialed[..3], &["p:1", "s:2", "s:3"]);
        assert_eq!(&dialed[3..6], &["p:1", "s:2", "s:3"]);
    }

    #[test]
    fn backoff_ladder_resets_once_a_session_is_established() {
        let retry = dufp_control::RetryPolicy::default();
        let mut plan = plan_over(&["p:1"]);
        // An outage that exhausts the ladder...
        for _ in 0..retry.max_retries {
            plan.on_failure(&retry, 7);
        }
        assert!(plan.exhausted(&retry));
        // ...then a successful handshake: the next outage starts at the
        // bottom of the ladder (the old bug left `attempt` saturated).
        plan.on_established();
        assert_eq!(plan.attempt, 0);
        plan.on_loss(&retry, 7);
        assert!(!plan.exhausted(&retry));
        assert_eq!(plan.target(), "p:1");
    }

    #[test]
    fn handover_successor_is_dialed_first_and_goodbye_halts() {
        let retry = dufp_control::RetryPolicy::default();
        let mut plan = plan_over(&["p:1", "s:2"]);
        plan.on_failure(&retry, 7);
        plan.prefer("s:2".into());
        assert_eq!(plan.target(), "s:2");
        assert_eq!(plan.targets.len(), 2, "prefer() must not duplicate");
        plan.halt();
        assert!(!plan.due(&retry) && !plan.exhausted(&retry));
    }

    #[test]
    fn duplicate_standby_addresses_collapse() {
        let plan = plan_over(&["p:1", "p:1", "s:2"]);
        assert_eq!(plan.targets, vec!["p:1".to_string(), "s:2".to_string()]);
    }
}
