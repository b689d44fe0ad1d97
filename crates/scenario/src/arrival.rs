//! Request-arrival models: how offered load moves over virtual time.
//!
//! A [`LoadProfile`] is a *pure function of (spec, seed, t)*: the Poisson
//! burst schedule is precomputed from a SplitMix64 stream at construction,
//! so replaying the same seed gives bit-equal intensity trajectories — the
//! foundation of the scenario engine's byte-identical scorecards.
//!
//! Three ingredients compose additively, then clamp to `[0, MAX]`:
//!
//! * a **base curve** — flat, or a diurnal cosine between `trough` and
//!   `peak` (per-node phase offsets model geo-staggered fleets),
//! * **Poisson bursts** — fleet-wide load spikes with exponential
//!   inter-arrival times at `bursts_per_hour`,
//! * a **flash crowd** — one scheduled spike decaying exponentially
//!   (a product launch, a breaking-news moment).

use dufp_types::splitmix;
use serde::{Deserialize, Serialize};

/// Hard ceiling on composed intensity: 8× the design-point load.
pub const MAX_INTENSITY: f64 = 8.0;

/// Which base curve the profile follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalKind {
    /// Flat offered load at [`ArrivalSpec::base`].
    Constant,
    /// Cosine day/night curve between `trough` and `peak`.
    Diurnal,
}

/// Declarative arrival-model parameters (the `[arrival]` spec section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Base curve shape.
    pub kind: ArrivalKind,
    /// Flat intensity for [`ArrivalKind::Constant`].
    pub base: f64,
    /// Diurnal period in virtual seconds (a compressed "day").
    pub period_s: f64,
    /// Diurnal peak intensity (1.0 = design-point load).
    pub peak: f64,
    /// Diurnal trough intensity.
    pub trough: f64,
    /// Mean Poisson burst rate (0 disables bursts).
    pub bursts_per_hour: f64,
    /// Additive intensity during a burst.
    pub burst_intensity: f64,
    /// Burst duration in seconds.
    pub burst_duration_s: f64,
    /// Flash-crowd onset time (None disables it).
    pub flash_at_s: Option<f64>,
    /// Flash-crowd peak additive intensity.
    pub flash_magnitude: f64,
    /// Flash-crowd exponential decay constant.
    pub flash_decay_s: f64,
    /// Per-node diurnal phase offset (node `i` is shifted by
    /// `i × node_stagger_s`), modelling geo-distributed fleets.
    pub node_stagger_s: f64,
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec {
            kind: ArrivalKind::Diurnal,
            base: 0.6,
            period_s: 60.0,
            peak: 1.0,
            trough: 0.3,
            bursts_per_hour: 0.0,
            burst_intensity: 0.5,
            burst_duration_s: 3.0,
            flash_at_s: None,
            flash_magnitude: 1.0,
            flash_decay_s: 10.0,
            node_stagger_s: 0.0,
        }
    }
}

/// A materialized, replayable intensity function.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    spec: ArrivalSpec,
    /// Precomputed fleet-wide burst windows `(start, end)`.
    bursts: Vec<(f64, f64)>,
}

impl LoadProfile {
    /// Builds the profile for a run of `horizon_s` virtual seconds. The
    /// burst schedule is drawn once from `seed` by inverse-CDF sampling of
    /// exponential inter-arrival gaps.
    pub fn new(spec: &ArrivalSpec, seed: u64, horizon_s: f64) -> Self {
        let mut bursts = Vec::new();
        let rate_per_s = spec.bursts_per_hour / 3600.0;
        if rate_per_s > 0.0 && spec.burst_duration_s > 0.0 {
            let mut rng = seed ^ 0xA5A5_5A5A_C3C3_3C3C;
            let mut t = 0.0;
            while t < horizon_s && bursts.len() < 4096 {
                let u = splitmix::unit_f64(&mut rng).max(1e-12);
                t += -u.ln() / rate_per_s;
                if t < horizon_s {
                    bursts.push((t, t + spec.burst_duration_s));
                }
            }
        }
        LoadProfile {
            spec: spec.clone(),
            bursts,
        }
    }

    /// Intensity at virtual time `t_s` for a node whose diurnal phase is
    /// shifted by `node_offset_s`. Pure and total: any finite `t_s` maps
    /// to `[0, MAX_INTENSITY]`.
    pub fn intensity(&self, t_s: f64, node_offset_s: f64) -> f64 {
        let s = &self.spec;
        let mut v = match s.kind {
            ArrivalKind::Constant => s.base,
            ArrivalKind::Diurnal => {
                let phase = std::f64::consts::TAU * (t_s + node_offset_s) / s.period_s.max(1e-9);
                s.trough + (s.peak - s.trough) * 0.5 * (1.0 - phase.cos())
            }
        };
        // Bursts and flash crowds are fleet-wide events on absolute time.
        if self.bursts.iter().any(|&(a, b)| t_s >= a && t_s < b) {
            v += s.burst_intensity;
        }
        if let Some(at) = s.flash_at_s {
            if t_s >= at {
                v += s.flash_magnitude * (-(t_s - at) / s.flash_decay_s.max(1e-9)).exp();
            }
        }
        v.clamp(0.0, MAX_INTENSITY)
    }

    /// Number of scheduled burst windows (for reports).
    pub fn burst_count(&self) -> usize {
        self.bursts.len()
    }
}

/// Quarter-intensity band ordinal, the unit [`IntensityShift`] events are
/// reported in (0 = idle, 4 = design-point, 8 = 2× design-point).
///
/// [`IntensityShift`]: dufp_telemetry::Reason::IntensityShift
pub fn intensity_band(intensity: f64) -> u8 {
    (intensity.clamp(0.0, MAX_INTENSITY) * 4.0).floor() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_flat() {
        let spec = ArrivalSpec {
            kind: ArrivalKind::Constant,
            base: 0.7,
            bursts_per_hour: 0.0,
            flash_at_s: None,
            ..ArrivalSpec::default()
        };
        let p = LoadProfile::new(&spec, 1, 100.0);
        for t in 0..100 {
            assert_eq!(p.intensity(t as f64, 0.0), 0.7);
        }
    }

    #[test]
    fn diurnal_hits_trough_and_peak() {
        let spec = ArrivalSpec::default();
        let p = LoadProfile::new(&spec, 1, 100.0);
        assert!((p.intensity(0.0, 0.0) - spec.trough).abs() < 1e-9);
        assert!((p.intensity(spec.period_s / 2.0, 0.0) - spec.peak).abs() < 1e-9);
    }

    #[test]
    fn stagger_shifts_the_curve() {
        let spec = ArrivalSpec::default();
        let p = LoadProfile::new(&spec, 1, 100.0);
        let half = spec.period_s / 2.0;
        assert!((p.intensity(0.0, half) - spec.peak).abs() < 1e-9);
    }

    #[test]
    fn burst_schedule_is_seed_deterministic_and_seed_sensitive() {
        let spec = ArrivalSpec {
            bursts_per_hour: 600.0,
            ..ArrivalSpec::default()
        };
        let a = LoadProfile::new(&spec, 7, 600.0);
        let b = LoadProfile::new(&spec, 7, 600.0);
        let c = LoadProfile::new(&spec, 8, 600.0);
        assert_eq!(a.bursts, b.bursts);
        assert!(a.burst_count() > 0);
        assert_ne!(a.bursts, c.bursts);
    }

    #[test]
    fn flash_crowd_decays() {
        let spec = ArrivalSpec {
            kind: ArrivalKind::Constant,
            base: 0.2,
            flash_at_s: Some(10.0),
            flash_magnitude: 1.0,
            flash_decay_s: 5.0,
            ..ArrivalSpec::default()
        };
        let p = LoadProfile::new(&spec, 1, 100.0);
        assert_eq!(p.intensity(9.9, 0.0), 0.2);
        assert!((p.intensity(10.0, 0.0) - 1.2).abs() < 1e-9);
        assert!(p.intensity(30.0, 0.0) < 0.25);
    }

    #[test]
    fn intensity_always_in_range() {
        let spec = ArrivalSpec {
            peak: 100.0,
            flash_at_s: Some(0.0),
            flash_magnitude: 100.0,
            ..ArrivalSpec::default()
        };
        let p = LoadProfile::new(&spec, 3, 100.0);
        for t in 0..1000 {
            let v = p.intensity(t as f64 * 0.1, 0.0);
            assert!((0.0..=MAX_INTENSITY).contains(&v));
        }
    }

    #[test]
    fn bands_quantize_quarters() {
        assert_eq!(intensity_band(0.0), 0);
        assert_eq!(intensity_band(0.26), 1);
        assert_eq!(intensity_band(1.0), 4);
        assert_eq!(intensity_band(2.1), 8);
    }
}
