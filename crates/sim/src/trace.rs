//! Per-tick operating-point traces (the data behind the paper's Fig. 5).

use dufp_types::{Hertz, Instant, Watts};
use serde::{Deserialize, Serialize};

/// One sampled operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Simulated time of the sample.
    pub at: Instant,
    /// Core frequency applied by the governor/RAPL.
    pub core_freq: Hertz,
    /// Uncore frequency in effect.
    pub uncore_freq: Hertz,
    /// Instantaneous package power.
    pub pkg_power: Watts,
    /// The RAPL enforcer's instantaneous allowance.
    pub allowance: Watts,
    /// Programmed long-term limit (PL1).
    pub pl1: Watts,
}

/// A recorded trace with a fixed sampling stride.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Sampled points in time order.
    pub points: Vec<TracePoint>,
}

impl Trace {
    /// Time-weighted (uniform-stride) average core frequency — the paper
    /// reports 2.8 GHz for DUF vs 2.5 GHz for DUFP on CG at 10 %.
    pub fn avg_core_freq(&self) -> Option<Hertz> {
        if self.points.is_empty() {
            return None;
        }
        let sum: f64 = self.points.iter().map(|p| p.core_freq.value()).sum();
        Some(Hertz(sum / self.points.len() as f64))
    }

    /// Average package power over the trace.
    pub fn avg_pkg_power(&self) -> Option<Watts> {
        if self.points.is_empty() {
            return None;
        }
        let sum: f64 = self.points.iter().map(|p| p.pkg_power.value()).sum();
        Some(Watts(sum / self.points.len() as f64))
    }

    /// Residency of the programmed PL1 cap: `(cap, fraction of samples)`
    /// sorted by cap. The time-in-state view of the controller's behaviour
    /// (how long did DUFP actually hold each cap level?).
    pub fn cap_residency(&self) -> Vec<(Watts, f64)> {
        residency(self.points.iter().map(|p| p.pl1.value()))
            .into_iter()
            .map(|(v, f)| (Watts(v), f))
            .collect()
    }

    /// Residency of the effective uncore frequency.
    pub fn uncore_residency(&self) -> Vec<(Hertz, f64)> {
        residency(self.points.iter().map(|p| p.uncore_freq.value()))
            .into_iter()
            .map(|(v, f)| (Hertz(v), f))
            .collect()
    }

    /// Number of PL1 changes over the trace — the cap actuation count,
    /// which on real hardware is an MSR write each (overhead discussion,
    /// §IV-D).
    pub fn cap_transitions(&self) -> usize {
        transitions(self.points.iter().map(|p| p.pl1.value()))
    }

    /// Number of uncore frequency changes over the trace.
    pub fn uncore_transitions(&self) -> usize {
        transitions(self.points.iter().map(|p| p.uncore_freq.value()))
    }
}

/// Collects `(value, fraction)` residency over a sample stream, keyed by
/// the value rounded to 3 decimals to absorb float noise.
fn residency(values: impl Iterator<Item = f64>) -> Vec<(f64, f64)> {
    let mut counts: std::collections::BTreeMap<i64, (f64, usize)> = Default::default();
    let mut total = 0usize;
    for v in values {
        let key = (v * 1e3).round() as i64;
        let e = counts.entry(key).or_insert((v, 0));
        e.1 += 1;
        total += 1;
    }
    if total == 0 {
        return Vec::new();
    }
    counts
        .into_values()
        .map(|(v, c)| (v, c as f64 / total as f64))
        .collect()
}

fn transitions(values: impl Iterator<Item = f64>) -> usize {
    let mut prev: Option<f64> = None;
    let mut n = 0;
    for v in values {
        if let Some(p) = prev {
            if (p - v).abs() > 1e-9 {
                n += 1;
            }
        }
        prev = Some(v);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(ghz: f64, w: f64) -> TracePoint {
        TracePoint {
            at: Instant(0),
            core_freq: Hertz::from_ghz(ghz),
            uncore_freq: Hertz::from_ghz(2.4),
            pkg_power: Watts(w),
            allowance: Watts(125.0),
            pl1: Watts(125.0),
        }
    }

    #[test]
    fn empty_trace_has_no_averages() {
        let t = Trace::default();
        assert!(t.avg_core_freq().is_none());
        assert!(t.avg_pkg_power().is_none());
    }

    #[test]
    fn averages_are_means() {
        let t = Trace {
            points: vec![pt(2.0, 100.0), pt(3.0, 120.0)],
        };
        assert_eq!(t.avg_core_freq().unwrap(), Hertz::from_ghz(2.5));
        assert_eq!(t.avg_pkg_power().unwrap(), Watts(110.0));
    }

    fn pt_cap(pl1: f64) -> TracePoint {
        TracePoint {
            at: Instant(0),
            core_freq: Hertz::from_ghz(2.8),
            uncore_freq: Hertz::from_ghz(2.4),
            pkg_power: Watts(100.0),
            allowance: Watts(pl1),
            pl1: Watts(pl1),
        }
    }

    #[test]
    fn cap_residency_fractions_sum_to_one() {
        let t = Trace {
            points: vec![pt_cap(125.0), pt_cap(125.0), pt_cap(120.0), pt_cap(115.0)],
        };
        let r = t.cap_residency();
        assert_eq!(r.len(), 3);
        let total: f64 = r.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Sorted ascending; 125 W holds half the time.
        assert_eq!(r[0].0, Watts(115.0));
        assert_eq!(r[2], (Watts(125.0), 0.5));
    }

    #[test]
    fn transition_counting() {
        let t = Trace {
            points: vec![
                pt_cap(125.0),
                pt_cap(120.0),
                pt_cap(120.0),
                pt_cap(125.0),
                pt_cap(125.0),
            ],
        };
        assert_eq!(t.cap_transitions(), 2);
        assert_eq!(t.uncore_transitions(), 0);
    }

    #[test]
    fn empty_trace_has_empty_residency() {
        let t = Trace::default();
        assert!(t.cap_residency().is_empty());
        assert_eq!(t.cap_transitions(), 0);
    }
}
