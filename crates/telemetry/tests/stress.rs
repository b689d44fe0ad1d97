//! Concurrency stress tests: the decision-event buffer and the metrics
//! registry hammered from a worker pool, and drained while producers run.
//!
//! A `Telemetry` handle is `Clone + Sync`, and a networked agent already
//! records from two threads at once, so the sinks must stay exact under
//! far more contention than any run produces: no lost events, no
//! duplicated events, exact per-job accounting, and — when the buffer
//! does overflow — retained + dropped must equal emitted.

use dufp_telemetry::{Actuator, DecisionEvent, Reason, Telemetry};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const JOBS: usize = 32;
const EVENTS_PER_JOB: usize = 100;

/// One synthetic decision, tagged with its (job, sequence) coordinates:
/// `socket` carries the job id, `old` the per-job sequence number.
fn event(job: usize, seq: usize) -> DecisionEvent {
    DecisionEvent {
        tick: seq as u64,
        at_us: 0,
        socket: job as u16,
        phase: 0,
        oi_class: None,
        flops_ratio: None,
        actuator: Actuator::Uncore,
        old: seq as f64,
        new: seq as f64 + 1.0,
        reason: Reason::Probe,
    }
}

/// Emits every job's events from a pool of `workers` threads and returns
/// the drained buffer.
fn hammer(tel: &Telemetry, workers: usize) -> Vec<DecisionEvent> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("build pool");
    let counter = tel.counter("events_emitted_total");
    pool.install(|| {
        (0..JOBS)
            .into_par_iter()
            .map(|job| {
                let histogram = tel.histogram("seq", &[25.0, 50.0, 75.0]);
                for seq in 0..EVENTS_PER_JOB {
                    tel.record_decision(event(job, seq));
                    counter.inc();
                    histogram.observe(seq as f64);
                }
                job
            })
            .collect::<Vec<_>>()
    });
    tel.drain_events()
}

#[test]
fn no_event_is_lost_or_duplicated_under_a_worker_pool() {
    let total = JOBS * EVENTS_PER_JOB;
    let tel = Telemetry::new(total * 2);
    let events = hammer(&tel, 4);

    assert_eq!(tel.dropped_events(), 0, "capacity was ample; nothing drops");
    assert_eq!(events.len(), total, "every emitted event is retained once");

    // Exact per-job accounting: each job's subsequence comes back complete
    // and in emission order (each job emits from a single thread, and the
    // buffer preserves arrival order).
    for job in 0..JOBS {
        let seqs: Vec<u64> = events
            .iter()
            .filter(|e| e.socket == job as u16)
            .map(|e| e.old as u64)
            .collect();
        let want: Vec<u64> = (0..EVENTS_PER_JOB as u64).collect();
        assert_eq!(seqs, want, "job {job} lost, duplicated or reordered events");
    }
}

#[test]
fn metrics_registry_counts_exactly_across_threads() {
    let total = (JOBS * EVENTS_PER_JOB) as u64;
    let tel = Telemetry::new(JOBS * EVENTS_PER_JOB);
    let _ = hammer(&tel, 8);

    let snapshot = tel.metrics_snapshot();
    let counter = tel.counter("events_emitted_total");
    assert_eq!(counter.get(), total, "counter missed increments");

    // All workers resolved the same histogram by name; observations from
    // every thread land in one instrument.
    let histogram = tel.histogram("seq", &[25.0, 50.0, 75.0]);
    assert_eq!(histogram.count(), total, "histogram missed observations");
    assert_eq!(histogram.min(), 0.0);
    assert_eq!(histogram.max(), (EVENTS_PER_JOB - 1) as f64);
    assert!(
        !snapshot.counters.is_empty(),
        "snapshot sees the shared registry"
    );
}

#[test]
fn overflow_accounting_is_exact_even_when_racing() {
    let capacity = 64;
    let total = (JOBS * EVENTS_PER_JOB) as u64;
    let tel = Telemetry::new(capacity);
    let events = hammer(&tel, 8);

    assert!(
        events.len() <= capacity,
        "buffer retained {} events over its capacity {capacity}",
        events.len()
    );
    assert_eq!(
        events.len() as u64 + tel.dropped_events(),
        total,
        "retained + dropped must equal emitted exactly"
    );
}

#[test]
fn concurrent_producers_and_consumer_agree_on_totals() {
    // A tiny buffer drained by one thread while four others record into
    // it: drops are allowed, but every event is drained, left behind or
    // counted as dropped, exactly once. The barrier starts the drainer
    // and the producers together.
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 5000;
    let tel = Telemetry::new(64);
    let start = Barrier::new(PRODUCERS + 1);
    let done = AtomicUsize::new(0);
    let drained_during = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (tel, start, done) = (&tel, &start, &done);
            s.spawn(move || {
                start.wait();
                for seq in 0..PER_PRODUCER {
                    tel.record_decision(event(p, seq));
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        start.wait();
        let mut drained = 0;
        while done.load(Ordering::Acquire) < PRODUCERS {
            drained += tel.drain_events().len();
            std::thread::yield_now();
        }
        drained
    });
    let drained_after = tel.drain_events().len();
    assert_eq!(
        (drained_during + drained_after) as u64 + tel.dropped_events(),
        (PRODUCERS * PER_PRODUCER) as u64,
        "emitted = drained during + drained after + dropped"
    );
}
