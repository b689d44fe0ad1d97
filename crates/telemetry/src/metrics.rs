//! Lock-free metrics: counters, gauges and fixed-bucket histograms.
//!
//! All instruments are backed by atomics so the simulator's per-tick hot
//! path and the controllers' decision path can record without taking a
//! lock. Instruments are registered lazily by name; registration itself
//! takes a short mutex (cold path, once per name), after which the returned
//! handle is a plain `Arc` over atomics.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the count.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the count.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins measurement (e.g. current package power in watts).
#[derive(Debug, Default)]
pub struct Gauge {
    // f64 stored as its bit pattern; a single atomic store keeps the
    // hot path wait-free.
    bits: AtomicU64,
}

impl Gauge {
    /// Records the latest value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Latest recorded value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// A sample `v` lands in the first bucket whose upper bound satisfies
/// `v <= bound`; samples above every bound land in the implicit overflow
/// bucket. Count/sum/min/max are tracked alongside the buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    // counts.len() == bounds.len() + 1 (last is overflow).
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram bounds must not be NaN"));
        sorted.dedup();
        let counts = (0..sorted.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: sorted,
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .partition_point(|&bound| bound < value)
            .min(self.bounds.len());
        // partition_point gives the first bound >= value, which is exactly
        // the "v <= bound" bucket; values above all bounds fall through to
        // the overflow slot at bounds.len().
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.sum_bits, |sum| sum + value);
        cas_f64(&self.min_bits, |min| min.min(value));
        cas_f64(&self.max_bits, |max| max.max(value));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest sample, or +inf when empty.
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest sample, or -inf when empty.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Bucket upper bounds (ascending; the overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// The instrument registered under `name` in `map`, built by `make` on
/// first use. A hit looks the name up by `&str` and allocates nothing;
/// only a registration copies the name.
fn lookup<T>(map: &Mutex<HashMap<String, Arc<T>>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    let made = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&made));
    made
}

/// Lazily-populated registry of named instruments.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&self.counters, name, Counter::default)
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&self.gauges, name, Gauge::new)
    }

    /// The histogram registered under `name`, creating it with `bounds` on
    /// first use (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        lookup(&self.histograms, name, || Histogram::new(bounds))
    }

    /// A serializable snapshot of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let mut v: Vec<CounterSnapshot> = map
                .iter()
                .map(|(name, c)| CounterSnapshot {
                    name: name.clone(),
                    value: c.get(),
                })
                .collect();
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        let gauges = {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            let mut v: Vec<GaugeSnapshot> = map
                .iter()
                .map(|(name, g)| GaugeSnapshot {
                    name: name.clone(),
                    value: g.get(),
                })
                .collect();
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            let mut v: Vec<HistogramSnapshot> = map
                .iter()
                .map(|(name, h)| {
                    let count = h.count();
                    HistogramSnapshot {
                        name: name.clone(),
                        count,
                        sum: h.sum(),
                        mean: h.mean(),
                        min: if count == 0 { 0.0 } else { h.min() },
                        max: if count == 0 { 0.0 } else { h.max() },
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                    }
                })
                .collect();
            v.sort_by(|a, b| a.name.cmp(&b.name));
            v
        };
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Last recorded value.
    pub value: f64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample (0.0 when empty).
    pub mean: f64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; last entry is the overflow bucket.
    pub buckets: Vec<u64>,
}

/// All instruments at one point in time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_last_value_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(95.5);
        g.set(87.25);
        assert_eq!(g.get(), 87.25);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[10.0, 20.0, 50.0]);
        // Exactly on a bound lands in that bound's bucket (v <= bound).
        h.observe(10.0);
        // Just above a bound lands in the next bucket.
        h.observe(10.1);
        // Below the first bound.
        h.observe(-3.0);
        // Between the last two bounds.
        h.observe(20.5);
        // Above every bound: overflow.
        h.observe(51.0);
        h.observe(1e9);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 1e9);
    }

    #[test]
    fn histogram_sum_and_mean() {
        let h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.5, 2.5, 3.5] {
            h.observe(v);
        }
        assert!((h.sum() - 8.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sorts_and_dedups_bounds() {
        let h = Histogram::new(&[5.0, 1.0, 5.0, 3.0]);
        assert_eq!(h.bounds(), &[1.0, 3.0, 5.0]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn histogram_concurrent_observes_sum_exactly() {
        let h = std::sync::Arc::new(Histogram::new(&[100.0]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.observe(1.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 4000.0);
        assert_eq!(h.bucket_counts(), vec![4000, 0]);
    }

    #[test]
    fn registry_returns_same_instrument_per_name() {
        let r = Registry::default();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 2);
        r.gauge("g").set(7.0);
        assert_eq!(r.gauge("g").get(), 7.0);
        let h1 = r.histogram("h", &[1.0]);
        // Second registration keeps the original bounds.
        let h2 = r.histogram("h", &[99.0]);
        h1.observe(0.5);
        assert_eq!(h2.count(), 1);
        assert_eq!(h2.bounds(), &[1.0]);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::default();
        r.counter("z").add(3);
        r.counter("a").add(1);
        r.gauge("power").set(120.0);
        r.histogram("lat", &[1.0, 2.0]).observe(1.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "z");
        assert_eq!(snap.gauges[0].value, 120.0);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.histograms[0].buckets, vec![0, 1, 0]);
    }
}
