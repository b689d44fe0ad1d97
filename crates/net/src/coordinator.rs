//! The TCP fleet coordinator: sockets, threads and wall-clock epochs
//! around the transport-independent [`FleetCore`] brain.
//!
//! One thread accepts connections; one handler thread per agent hands its
//! frames to [`FleetCore::ingest`], which admits the Hello and vets (see
//! [`crate::vet`]) every later frame, and reacts only to the outcome.
//! The allocator epoch — [`Coordinator::epoch_once`] — runs on the
//! caller's thread: the core declares nodes dead when their last report or
//! heartbeat is older than the heartbeat timeout, reclaims their watts,
//! walks the quarantine ladder, runs the policy over trusted survivors,
//! and this layer pushes the resulting `BudgetGrant` frames onto the
//! sockets. [`Coordinator::run`] wraps that in a wall-clock loop; tests
//! and benchmarks call `epoch_once` directly for deterministic stepping.
//!
//! A malformed frame (bad magic, flipped CRC, unknown type, version
//! mismatch, oversized payload) or one the core ignores (a first frame
//! other than a Hello, a second Hello, a wrong-direction frame) never
//! panics the coordinator: the offending connection is dropped, a
//! `wire_errors_total` counter ticks, and the node — if it ever completed
//! a Hello — dies by heartbeat timeout like any other.
//!
//! # High availability (DESIGN.md §15)
//!
//! With [`CoordinatorConfig::journal_dir`] set, every core input event is
//! journaled before it is applied and is on disk before any grant or
//! farewell computed from it is sent (one `fdatasync` per epoch, by the
//! core; the connection handlers never sync), and [`Coordinator::bind`] on a
//! directory with history *recovers*: checkpoint+replay rebuilds the
//! fleet byte-identically, the coordination term is bumped past the dead
//! incarnation's, and stale slots stay pinned (their watts reserved)
//! through the hold-down window. [`run_standby`] wraps that in a
//! warm-standby loop — probe the primary, promote on sustained silence.
//! A finishing coordinator with a configured successor hands its agents
//! over instead of saying Goodbye ([`FleetCore::farewell`]), so they
//! re-home immediately instead of waiting out the disconnect grace.

use crate::config::CoordinatorConfig;
pub use crate::core::{EpochRecord, NodeState};
use crate::core::{FleetCore, Inbound};
use crate::fleet_journal::{journal_present, recover, FleetJournal};
use crate::wire::Frame;
use dufp_telemetry::{Actuator, DecisionEvent, Reason, Telemetry, TelemetryReport};
use dufp_types::{shutdown, Error, Result};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive failed probes of the primary before a warm standby
/// promotes itself. Probes run every half heartbeat timeout, so with the
/// defaults (timeout = 1.5 epochs) a kill is detected within ~2.25 epochs
/// and the first post-takeover grants land within the 3-epoch acceptance
/// window.
pub const STANDBY_PROBE_FAILURES: u32 = 3;

/// Per-node summary in the outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSummary {
    /// Node name from its Hello.
    pub name: String,
    /// Application queue it announced.
    pub app: String,
    /// Final lifecycle state.
    pub state: NodeState,
    /// Last granted ceiling.
    pub final_ceiling: f64,
    /// Final trust-ladder rung (`trusted`/`suspect`/`quarantined`/
    /// `evicted`).
    #[serde(default)]
    pub trust: String,
}

/// What a coordinator run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Allocation policy used.
    pub policy: String,
    /// Global budget served.
    pub budget: f64,
    /// Every allocator epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// Every node that ever completed a Hello.
    pub nodes: Vec<NodeSummary>,
    /// Coordination term this incarnation finished at (1 for a cold start
    /// that was never superseded).
    #[serde(default)]
    pub term: u64,
    /// Journal events replayed at startup (0 for a cold start).
    #[serde(default)]
    pub recovered_events: u64,
    /// True when the run ended because a higher term fenced this
    /// coordinator (a successor took over while it still ran).
    #[serde(default)]
    pub fenced: bool,
    /// Decision trace + metrics (grant/shrink/reclaim/vetting events).
    pub telemetry: TelemetryReport,
}

/// Brain plus the per-slot write halves, behind one lock.
struct CoordState {
    core: FleetCore,
    /// Write halves, parallel to the core's slots (`None` once torn down).
    streams: Vec<Option<TcpStream>>,
}

/// Registry shared between the connection handlers and the epoch loop.
struct Shared {
    state: Mutex<CoordState>,
    tel: Telemetry,
    started: Instant,
    /// Virtual-clock offset: a recovered coordinator continues the dead
    /// incarnation's clock instead of restarting at zero, so journaled
    /// timestamps stay monotonic across incarnations.
    base_ms: u64,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.base_ms + self.started.elapsed().as_millis() as u64
    }
}

/// The fleet coordinator. See the module docs for the thread layout.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    listener: TcpListener,
    shared: Arc<Shared>,
    epoch: u64,
    epochs: Vec<EpochRecord>,
    recovered_events: u64,
    stop_accept: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    handler_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Coordinator {
    /// Validates `cfg`, binds the listen address and starts accepting
    /// agents. The allocator does not run until [`Coordinator::run`] or
    /// [`Coordinator::epoch_once`].
    ///
    /// With a journal directory configured this is also the recovery path:
    /// existing history is replayed (checkpoint + event tail), the term is
    /// bumped past the dead incarnation's, and journaling resumes where it
    /// left off.
    pub fn bind(cfg: CoordinatorConfig) -> Result<Self> {
        cfg.validate()?;
        let tel = Telemetry::enabled();
        let mut base_ms = 0u64;
        let mut recovered_events = 0u64;
        let mut core = match &cfg.journal_dir {
            Some(dir) if journal_present(dir) => {
                let rec = recover(dir, &cfg, tel.clone())?;
                let mut core = rec.core;
                core.attach_journal(rec.journal);
                core.promote(); // new incarnation: fence everything older
                base_ms = rec.last_now_ms + 1;
                recovered_events = rec.events_replayed;
                tel.counter("journal_events_replayed_total")
                    .add(rec.events_replayed);
                if rec.torn_tail_dropped {
                    tel.counter("journal_torn_tails_total").inc();
                }
                core
            }
            Some(dir) => {
                let mut core = FleetCore::new(&cfg, tel.clone());
                core.attach_journal(FleetJournal::create(dir)?);
                core
            }
            None => FleetCore::new(&cfg, tel.clone()),
        };
        if cfg.successor.is_some() || cfg.standby_of.is_some() {
            // Someone may take over: a long stall must self-fence.
            core.enable_pause_fencing();
        }
        let epoch = core.epoch();
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(CoordState {
                core,
                streams: Vec::new(),
            }),
            tel,
            started: Instant::now(),
            base_ms,
        });
        // Recovered slots have no socket yet; keep streams parallel.
        {
            let mut st = shared.state.lock();
            let n = st.core.node_count();
            st.streams.resize_with(n, || None);
        }
        let stop_accept = Arc::new(AtomicBool::new(false));
        let handler_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop_accept);
            let handlers = Arc::clone(&handler_handles);
            std::thread::spawn(move || accept_loop(listener, shared, stop, handlers))
        };
        Ok(Coordinator {
            cfg,
            listener,
            shared,
            epoch,
            epochs: Vec::new(),
            recovered_events,
            stop_accept,
            accept_handle: Some(accept_handle),
            handler_handles,
        })
    }

    /// The bound listen address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Nodes currently registered (any state).
    pub fn node_count(&self) -> usize {
        self.shared.state.lock().core.node_count()
    }

    /// The coordination term this incarnation serves at.
    pub fn term(&self) -> u64 {
        self.shared.state.lock().core.term()
    }

    /// Whether a higher term has fenced this coordinator.
    pub fn fenced(&self) -> bool {
        self.shared.state.lock().core.fenced()
    }

    /// One allocator epoch: the core detects dead nodes, reclaims their
    /// watts, walks the trust ladder and allocates; this layer pushes the
    /// grant frames and tears down disconnected sockets. Deterministic
    /// given the registry state — tests step it directly.
    pub fn epoch_once(&mut self) -> EpochRecord {
        let now_ms = self.shared.now_ms();
        let mut st = self.shared.state.lock();
        let step = st.core.epoch_once(now_ms);
        self.epoch = step.record.epoch;
        // Push grants; a failed send is left to heartbeat timeout.
        for (slot, frame) in &step.grants {
            if let Some(stream) = st.streams.get_mut(*slot).and_then(Option::as_mut) {
                let sent = frame.write_to(stream).and_then(|()| Ok(stream.flush()?));
                match sent {
                    Ok(()) => self.shared.tel.counter("grants_sent_total").inc(),
                    Err(_) => self.shared.tel.counter("grant_send_failures_total").inc(),
                }
            }
        }
        for &slot in &step.disconnects {
            if let Some(stream) = st.streams.get_mut(slot).and_then(Option::take) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        drop(st);
        self.epochs.push(step.record.clone());
        step.record
    }

    /// Whether every node that ever joined has departed or died.
    fn drained(&self) -> bool {
        self.shared.state.lock().core.drained()
    }

    /// Runs allocator epochs on the calling thread until `max_epochs` is
    /// reached, the fleet drains (every agent that ever joined has left),
    /// a higher term fences this coordinator, or process shutdown is
    /// requested; then closes the fleet down and reports the outcome.
    pub fn run(mut self) -> Result<FleetOutcome> {
        loop {
            // Sleep one epoch in small slices so Ctrl-C stays responsive.
            let deadline = Instant::now() + self.cfg.epoch;
            while Instant::now() < deadline {
                if shutdown::requested() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5).min(self.cfg.epoch));
            }
            if shutdown::requested() {
                break;
            }
            self.epoch_once();
            if self.fenced() {
                // A successor owns the fleet; serving on would split the
                // brain. Tear down crash-style so agents re-home to it.
                break;
            }
            if let Some(max) = self.cfg.max_epochs {
                if self.epoch >= max {
                    break;
                }
            }
            if self.drained() {
                break;
            }
        }
        Ok(self.finish())
    }

    /// Stops accepting, bids live agents the core's farewell (see
    /// [`FleetCore::farewell`]: a handover to the configured successor,
    /// else Goodbye, or silence if fenced), joins the handler threads and
    /// produces the outcome. `epoch_once` steppers call this directly.
    pub fn finish(self) -> FleetOutcome {
        let successor = self.cfg.successor.clone();
        self.teardown(|core| core.farewell(successor.as_deref()))
    }

    /// Stops like a crash: the journal is committed, then connections are
    /// torn down with no Goodbye, so agents experience coordinator *loss*
    /// (and must degrade to their safe local caps) rather than a graceful
    /// detach. Test-facing.
    pub fn abort(self) -> FleetOutcome {
        self.teardown(|core| {
            core.commit_journal();
            Vec::new()
        })
    }

    /// Stops accepting, writes the frames `farewell` returns and closes
    /// every connection.
    fn teardown(
        mut self,
        farewell: impl FnOnce(&mut FleetCore) -> Vec<(usize, Frame)>,
    ) -> FleetOutcome {
        self.stop_accept.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        {
            let mut st = self.shared.state.lock();
            for (slot, frame) in farewell(&mut st.core) {
                if let Some(s) = st.streams.get_mut(slot).and_then(Option::as_mut) {
                    let _ = frame.write_to(s);
                    let _ = s.flush();
                }
            }
            for s in st.streams.iter_mut().filter_map(Option::take) {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *self.handler_handles.lock());
        for h in handles {
            let _ = h.join();
        }
        let st = self.shared.state.lock();
        FleetOutcome {
            policy: st.core.policy_name().to_string(),
            budget: self.cfg.budget.value(),
            epochs: self.epochs.clone(),
            nodes: st
                .core
                .views()
                .into_iter()
                .map(|v| NodeSummary {
                    name: v.name,
                    app: v.app,
                    state: v.state,
                    final_ceiling: v.granted.value(),
                    trust: v.trust.label().to_string(),
                })
                .collect(),
            term: st.core.term(),
            recovered_events: self.recovered_events,
            fenced: st.core.fenced(),
            telemetry: self.shared.tel.report(),
        }
    }
}

/// Runs a warm standby: probe the primary every half heartbeat timeout
/// and, after [`STANDBY_PROBE_FAILURES`] consecutive failures, take over —
/// replay the shared journal, bump the term, bind `cfg.listen` and serve
/// ([`Coordinator::run`]). Requires `cfg.standby_of` and
/// `cfg.journal_dir`. Returns the promoted incarnation's outcome, or an
/// error if shutdown was requested before the primary ever died.
pub fn run_standby(cfg: CoordinatorConfig) -> Result<FleetOutcome> {
    cfg.validate()?;
    let primary = cfg
        .standby_of
        .clone()
        .ok_or_else(|| Error::invalid("standby_of", "run_standby needs a primary address"))?;
    let probe_period = cfg.heartbeat_timeout() / 2;
    let mut failures: u32 = 0;
    loop {
        if shutdown::requested() {
            return Err(Error::Precondition(
                "standby shut down before the primary failed".into(),
            ));
        }
        if probe(&primary, probe_period) {
            failures = 0;
        } else {
            failures += 1;
            if failures >= STANDBY_PROBE_FAILURES {
                break;
            }
        }
        // Sleep in small slices so Ctrl-C stays responsive.
        let deadline = Instant::now() + probe_period;
        while Instant::now() < deadline && !shutdown::requested() {
            std::thread::sleep(Duration::from_millis(5).min(probe_period));
        }
    }
    let coord = Coordinator::bind(cfg)?;
    coord.shared.tel.counter("standby_promotions_total").inc();
    let term = coord.term() as f64;
    let promoted = DecisionEvent::new(0, Actuator::Budget, 0.0, term, Reason::StandbyPromoted);
    coord.shared.tel.record_decision(promoted);
    coord.run()
}

/// One liveness probe: can we open a TCP connection to `addr` within
/// `timeout`? The connection is closed immediately — the primary sees a
/// clean pre-Hello EOF, which its handler ignores.
fn probe(addr: &str, timeout: Duration) -> bool {
    let Ok(mut addrs) = addr.to_socket_addrs() else {
        return false;
    };
    let Some(sock) = addrs.next() else {
        return false;
    };
    match TcpStream::connect_timeout(&sock, timeout.max(Duration::from_millis(10))) {
        Ok(s) => {
            let _ = s.shutdown(Shutdown::Both);
            true
        }
        Err(_) => false,
    }
}

/// Accepts agents until told to stop; nonblocking so the stop flag is
/// honored promptly.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(&shared);
                let h = std::thread::spawn(move || handle_connection(stream, shared));
                handlers.lock().push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Reads one agent's frames into the core's registry. Never panics:
/// protocol errors drop the connection and tick `wire_errors_total`;
/// which frame goes where, and what counts as abuse, is
/// [`FleetCore::ingest`]'s business.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // The write half, moved into the registry on admission.
    let mut stream = Some(stream);
    let mut link = None;
    loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF: before any frame, a standby liveness probe (or a
            // port scan), not a protocol error; after admission, death by
            // heartbeat timeout.
            Ok(None) => break,
            Err(_) => {
                shared.tel.counter("wire_errors_total").inc();
                break;
            }
        };
        let now_ms = shared.now_ms();
        let mut st = shared.state.lock();
        match st.core.ingest(link, frame, now_ms) {
            Inbound::Admitted(slot) => {
                // A re-admission after failover may reuse a released
                // slot; keep streams parallel to the core's table.
                if st.streams.len() <= slot {
                    st.streams.resize_with(slot + 1, || None);
                }
                st.streams[slot] = stream.take();
                debug_assert_eq!(st.streams.len(), st.core.node_count());
                link = Some(slot);
            }
            Inbound::Applied => {}
            // A fenced core ignores a linked agent's heartbeats; the link
            // stays until the fenced run tears it down.
            Inbound::Fenced if link.is_some() => {}
            // Admission refused (the core counted it) or a clean Goodbye.
            Inbound::Refused(_) | Inbound::Departed => break,
            // A first frame other than a Hello, a second Hello, or a
            // wrong-direction frame: protocol abuse.
            _ => {
                shared.tel.counter("wire_errors_total").inc();
                break;
            }
        }
    }
    let _ = reader.shutdown(Shutdown::Both);
}
