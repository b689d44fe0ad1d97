//! Loopback fleet integration tests: a real coordinator and real agents
//! over 127.0.0.1, driven deterministically by stepping allocator epochs
//! by hand.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! * total granted ≤ budget at **every** epoch,
//! * killing an agent mid-run reclaims and redistributes its watts within
//!   two epochs,
//! * losing the coordinator degrades agents to their safe local cap
//!   without a panic,
//! * garbage on the wire never takes the coordinator down.

use dufp_net::{Agent, AgentConfig, AgentOutcome, Coordinator, CoordinatorConfig, Frame};
use dufp_types::Watts;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: f64 = 300.0;
const SAFE_CAP: f64 = 90.0;

fn coordinator(heartbeat_ms: u64) -> Coordinator {
    let cfg = CoordinatorConfig::new("127.0.0.1:0", Watts(BUDGET))
        .with_epoch(Duration::from_millis(heartbeat_ms * 2 / 3));
    Coordinator::bind(cfg).expect("bind loopback coordinator")
}

/// Spawns an agent thread running `app` against `addr`, paced so it stays
/// alive for wall-clock long enough to be observed and killed.
fn spawn_agent(
    addr: &str,
    name: &str,
    app: &str,
    crash: Arc<AtomicBool>,
) -> std::thread::JoinHandle<AgentOutcome> {
    let mut cfg = AgentConfig::new(addr, name, app);
    cfg.safe_cap = Watts(SAFE_CAP);
    cfg.pace = Duration::from_millis(5);
    cfg.max_intervals = Some(2000);
    let agent = Agent::new(cfg).expect("valid agent config");
    let agent = agent.with_crash_switch(crash);
    std::thread::spawn(move || agent.run().expect("agent run never errors"))
}

/// Polls `cond` until it holds or `timeout` passes.
fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn killed_agent_watts_are_reclaimed_within_two_epochs() {
    let mut coord = coordinator(150);
    let addr = coord.local_addr().unwrap().to_string();

    let switches: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let handles: Vec<_> = ["n0", "n1", "n2"]
        .iter()
        .zip(["EP", "CG", "HPL"])
        .zip(&switches)
        .map(|((name, app), crash)| spawn_agent(&addr, name, app, Arc::clone(crash)))
        .collect();

    assert!(
        wait_for(|| coord.node_count() == 3, Duration::from_secs(10)),
        "3 agents should register, saw {}",
        coord.node_count()
    );

    // Two epochs with the full fleet: everyone funded, budget conserved.
    let r1 = coord.epoch_once();
    assert_eq!(r1.live, 3);
    assert!(r1.total_granted <= BUDGET + 1e-6, "epoch 1: {r1:?}");
    for (name, w) in &r1.granted {
        assert!(*w > 0.0, "{name} granted nothing: {r1:?}");
    }
    std::thread::sleep(Duration::from_millis(60));
    let r2 = coord.epoch_once();
    assert_eq!(r2.live, 3);
    assert!(r2.total_granted <= BUDGET + 1e-6, "epoch 2: {r2:?}");
    let victim_grant = r2
        .granted
        .iter()
        .find(|(n, _)| n == "n1")
        .map(|(_, w)| *w)
        .expect("victim funded before the kill");

    // SIGKILL the middle agent: abrupt socket teardown, no Goodbye.
    switches[1].store(true, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(250)); // > heartbeat timeout

    // Within two epochs of the kill the watts must be reclaimed.
    let r3 = coord.epoch_once();
    let r4 = coord.epoch_once();
    let reclaimed: Vec<&String> = r3.reclaimed.iter().chain(&r4.reclaimed).collect();
    assert!(
        reclaimed.iter().any(|n| *n == "n1"),
        "victim not reclaimed within two epochs: {r3:?} / {r4:?}"
    );
    assert!(
        r3.reclaimed_watts + r4.reclaimed_watts >= victim_grant - 1e-6,
        "reclaim returned less than the victim held"
    );
    assert_eq!(r4.live, 2, "{r4:?}");
    assert!(r4.total_granted <= BUDGET + 1e-6, "epoch 4: {r4:?}");
    // Redistribution: the survivors are still funded above the policy
    // floor after the reclaim.
    for (name, w) in &r4.granted {
        assert!(*w >= 65.0 - 1e-6, "{name} starved after reclaim: {r4:?}");
    }

    // Let the survivors finish, then check every epoch conserved watts.
    let outcome = coord.finish();
    for epoch in &outcome.epochs {
        assert!(
            epoch.total_granted <= BUDGET + 1e-6,
            "conservation violated at epoch {}: {epoch:?}",
            epoch.epoch
        );
    }
    assert!(outcome
        .nodes
        .iter()
        .any(|n| n.name == "n1" && n.state == dufp_net::NodeState::Dead));

    let outcomes: Vec<AgentOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let victim = outcomes.iter().find(|o| o.node == "n1").unwrap();
    assert!(victim.crashed, "crash switch must report as a crash");
    for o in outcomes.iter().filter(|o| o.node != "n1") {
        assert!(!o.crashed);
        assert!(o.grants_applied >= 1, "{}: {o:?}", o.node);
        assert!(o.reports_sent >= 1, "{}: {o:?}", o.node);
    }
}

#[test]
fn coordinator_loss_degrades_agents_to_their_safe_cap() {
    let mut coord = coordinator(150);
    let addr = coord.local_addr().unwrap().to_string();
    let crash = Arc::new(AtomicBool::new(false));
    let handle = spawn_agent(&addr, "lonely", "EP", crash);

    assert!(wait_for(
        || coord.node_count() == 1,
        Duration::from_secs(10)
    ));
    coord.epoch_once();
    std::thread::sleep(Duration::from_millis(60));
    coord.epoch_once();

    // The coordinator dies without a Goodbye.
    coord.abort();

    let out = handle.join().expect("agent must not panic");
    assert!(out.degradations >= 1, "{out:?}");
    assert_eq!(
        out.final_ceiling,
        Watts(SAFE_CAP),
        "agent should end at its safe local cap: {out:?}"
    );
    assert!(
        out.telemetry
            .decisions
            .iter()
            .any(|d| d.reason == dufp_telemetry::Reason::CoordinatorLost),
        "loss must be visible in the decision trace"
    );
}

#[test]
fn garbage_on_the_wire_never_kills_the_coordinator() {
    let mut coord = coordinator(300);
    let addr = coord.local_addr().unwrap().to_string();

    // A peer that is not speaking the protocol at all.
    let mut junk = TcpStream::connect(&addr).unwrap();
    junk.write_all(b"GET / HTTP/1.1\r\nHost: fleet\r\n\r\n")
        .unwrap();
    junk.flush().unwrap();
    drop(junk);

    // A peer that opens correctly, then corrupts a frame mid-stream.
    let mut half = TcpStream::connect(&addr).unwrap();
    Frame::Hello {
        node: "evil".into(),
        floor: Watts(65.0),
        node_max: Watts(125.0),
        app: "EP".into(),
        term: 0,
    }
    .write_to(&mut half)
    .unwrap();
    let mut bytes = Frame::Heartbeat { seq: 1, term: 0 }.encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // break the CRC
    half.write_all(&bytes).unwrap();
    half.flush().unwrap();

    // The coordinator is still alive and serving honest agents.
    let crash = Arc::new(AtomicBool::new(false));
    let handle = spawn_agent(&addr, "honest", "EP", Arc::clone(&crash));
    assert!(
        wait_for(|| coord.node_count() >= 2, Duration::from_secs(10)),
        "honest agent must still be admitted"
    );
    let record = coord.epoch_once();
    assert!(record.total_granted <= BUDGET + 1e-6);
    crash.store(true, Ordering::Relaxed);
    let _ = handle.join().unwrap();

    let outcome = coord.finish();
    let wire_errors = outcome
        .telemetry
        .metrics
        .counters
        .iter()
        .find(|c| c.name == "wire_errors_total")
        .map(|c| c.value)
        .unwrap_or(0);
    assert!(wire_errors >= 1, "corrupt frame should be counted");
}

/// Blocks until the coordinator closes `conn`: a read sees EOF (or a
/// reset) before the timeout.
fn dropped_by_coordinator(conn: &mut TcpStream) -> bool {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    match conn.read(&mut buf) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    }
}

/// Opens a connection whose first frames are `frames`.
fn open_with(addr: &str, frames: &[Frame]) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    for frame in frames {
        frame.write_to(&mut conn).unwrap();
    }
    conn.flush().unwrap();
    conn
}

#[test]
fn a_connection_must_open_with_one_hello() {
    let coord = coordinator(300);
    let addr = coord.local_addr().unwrap().to_string();
    let hello = |term| Frame::Hello {
        node: "n0".into(),
        floor: Watts(65.0),
        node_max: Watts(125.0),
        app: "EP".into(),
        term,
    };
    let report = Frame::DemandReport {
        seq: 1,
        ceiling: Watts(90.0),
        consumption: Watts(80.0),
        active: true,
    };

    // Openers other than a Hello are dropped and admit nothing.
    for opener in [Frame::Heartbeat { seq: 1, term: 0 }, report] {
        let mut conn = open_with(&addr, &[opener]);
        assert!(dropped_by_coordinator(&mut conn));
    }
    assert_eq!(coord.node_count(), 0);

    // A second Hello on a live link is dropped too; the first one stands.
    let mut conn = open_with(&addr, &[hello(0), hello(0)]);
    assert!(dropped_by_coordinator(&mut conn));
    assert_eq!(coord.node_count(), 1);
    assert!(!coord.fenced());

    // A first-frame Heartbeat announcing a higher term fences the core,
    // as a Hello announcing it does, and is dropped like any opener.
    let mut conn = open_with(&addr, &[Frame::Heartbeat { seq: 1, term: 5 }]);
    assert!(dropped_by_coordinator(&mut conn));
    assert!(coord.fenced());
    assert_eq!(coord.node_count(), 1);

    let outcome = coord.finish();
    let wire_errors = outcome
        .telemetry
        .metrics
        .counters
        .iter()
        .find(|c| c.name == "wire_errors_total")
        .map(|c| c.value);
    assert_eq!(wire_errors, Some(4), "one per dropped connection");
}
