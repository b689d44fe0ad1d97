//! Building a workload model from a recorded counter trace.
//!
//! The forward direction of this crate describes applications by hand; the
//! *capture* direction is how a real deployment characterizes an existing
//! application: run it once under the measurement layer, record the
//! (FLOPS/s, bandwidth) time series, segment it into phases, and emit
//! [`crate::spec::PhaseSpec`]s that reproduce the same counter signature.
//!
//! Segmentation walks the series and cuts a new phase whenever the
//! operational intensity moves by more than a factor
//! (`OI_BREAK_FACTOR`) or FLOPS/s depart from the running segment mean by
//! more than `FLOPS_BREAK_FACTOR` — the same signals DUFP's own phase
//! detector keys on, so a captured model exercises the controller the way
//! the original did. Segments shorter than `MIN_SAMPLES` are merged into
//! their neighbours (sampling jitter, not phases). These and
//! `MEMORY_HEADROOM` are constants: every capture segments one way.

use crate::spec::{Boundness, MaterializeCtx, PhaseSpec};
use dufp_model::{PowerModel, SocketActivity};
use dufp_types::{BytesPerSec, Error, FlopsPerSec, Hertz, Result, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One recorded measurement interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Interval length.
    pub interval: Seconds,
    /// FLOPS/s over the interval.
    pub flops: FlopsPerSec,
    /// Memory bandwidth over the interval.
    pub bandwidth: BytesPerSec,
    /// Average package power over the interval (used to recover core
    /// activity, which FLOPS alone cannot — stalled cores burn power
    /// without retiring FLOPs).
    pub power: Watts,
}

/// Cut when `oi` moves by more than this factor vs the segment mean.
const OI_BREAK_FACTOR: f64 = 2.5;
/// Cut when FLOPS/s move by more than this factor vs the segment mean.
const FLOPS_BREAK_FACTOR: f64 = 1.8;
/// Merge segments shorter than this many samples into a neighbour.
const MIN_SAMPLES: usize = 2;
/// Headroom assigned to captured memory-bound phases. A single
/// default-configuration trace cannot observe how close the cores run to
/// the memory demand (that needs a second probe run at reduced
/// frequency), so captured models use this constant; 1.12 matches the
/// thin margins typical of bandwidth-bound HPC codes.
const MEMORY_HEADROOM: f64 = 1.12;

const _: () = assert!(OI_BREAK_FACTOR > 1.0 && FLOPS_BREAK_FACTOR > 1.0);

/// Segments a counter trace into phase specs for the machine described by
/// `ctx`, estimating core activity from FLOPS share only (use
/// [`segment_with_power`] when a calibrated power model is available —
/// it recovers activity much more faithfully for memory-bound phases).
pub fn segment(samples: &[CounterSample], ctx: &MaterializeCtx) -> Result<Vec<PhaseSpec>> {
    segment_impl(samples, ctx, None)
}

/// Segments a counter trace, recovering per-phase core activity by
/// inverting `power_model` at the recorded operating point (max core and
/// uncore frequency — the default configuration the trace was taken in).
pub fn segment_with_power(
    samples: &[CounterSample],
    ctx: &MaterializeCtx,
    power_model: &PowerModel,
    uncore_max: Hertz,
) -> Result<Vec<PhaseSpec>> {
    segment_impl(samples, ctx, Some((power_model, uncore_max)))
}

fn segment_impl(
    samples: &[CounterSample],
    ctx: &MaterializeCtx,
    power: Option<(&PowerModel, Hertz)>,
) -> Result<Vec<PhaseSpec>> {
    if samples.is_empty() {
        return Err(Error::Precondition("no samples to segment".into()));
    }

    // 1. Cut into raw segments.
    let mut segments: Vec<Vec<CounterSample>> = vec![vec![samples[0]]];
    for s in &samples[1..] {
        let seg = segments.last_mut().expect("non-empty");
        let (mean_flops, mean_bw) = means(seg);
        let mean_oi = oi(mean_flops, mean_bw);
        let s_oi = oi(s.flops.value(), s.bandwidth.value());
        let oi_jump = ratio(s_oi, mean_oi) > OI_BREAK_FACTOR;
        let flops_jump = ratio(s.flops.value(), mean_flops) > FLOPS_BREAK_FACTOR;
        if oi_jump || flops_jump {
            segments.push(vec![*s]);
        } else {
            seg.push(*s);
        }
    }

    // 2. Merge runt segments into their (preceding) neighbour.
    let mut merged: Vec<Vec<CounterSample>> = Vec::with_capacity(segments.len());
    for seg in segments {
        let runt = seg.len() < MIN_SAMPLES;
        match merged.last_mut() {
            Some(prev) if runt => prev.extend(seg),
            _ => merged.push(seg),
        }
    }

    // 3. Emit one spec per segment.
    let peak_bw = ctx.peak_bandwidth.value();
    let specs = merged
        .iter()
        .enumerate()
        .map(|(i, seg)| {
            let secs: f64 = seg.iter().map(|s| s.interval.value()).sum();
            let (mean_flops, mean_bw) = means(seg);
            let seg_oi = oi(mean_flops, mean_bw).max(1e-6);
            let bw_share = (mean_bw / peak_bw).clamp(0.0, 0.999);
            let boundness = if bw_share > 0.85 {
                Boundness::MemoryBound {
                    headroom: MEMORY_HEADROOM,
                }
            } else {
                Boundness::ComputeBound {
                    mem_frac: bw_share.max(1e-4),
                }
            };
            let core_util = match power {
                Some((model, uncore_max)) => {
                    // Package power is affine in core utilization at a fixed
                    // operating point; invert it.
                    let mean_power: f64 =
                        seg.iter().map(|s| s.power.value()).sum::<f64>() / seg.len() as f64;
                    let at = |u: f64| {
                        model
                            .package_total(
                                ctx.core_freq_max,
                                uncore_max,
                                &SocketActivity {
                                    core_util: u,
                                    mem_util: bw_share,
                                    active_cores: ctx.cores,
                                },
                            )
                            .value()
                    };
                    let (p0, p1) = (at(0.0), at(1.0));
                    ((mean_power - p0) / (p1 - p0).max(1e-9)).clamp(0.05, 1.0)
                }
                None => {
                    // FLOPS-share fallback: crude, but better than nothing
                    // when no power trace exists.
                    let flops_share = (mean_flops / ctx.peak_flops.value()).clamp(0.0, 1.0);
                    (0.3 + 0.7 * flops_share).min(1.0)
                }
            };
            PhaseSpec {
                name: format!("captured{i}"),
                seconds_at_default: secs.max(1e-3),
                oi: seg_oi,
                boundness,
                core_util,
                overlap_penalty: 0.05,
            }
        })
        .collect();
    Ok(specs)
}

fn means(seg: &[CounterSample]) -> (f64, f64) {
    let n = seg.len() as f64;
    (
        seg.iter().map(|s| s.flops.value()).sum::<f64>() / n,
        seg.iter().map(|s| s.bandwidth.value()).sum::<f64>() / n,
    )
}

fn oi(flops: f64, bw: f64) -> f64 {
    if bw > 0.0 {
        flops / bw
    } else {
        f64::INFINITY
    }
}

/// Symmetric ratio `max(a/b, b/a)`; infinite inputs compare as a jump.
fn ratio(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() {
        return if a == b { 1.0 } else { f64::INFINITY };
    }
    let (a, b) = (a.max(1e-12), b.max(1e-12));
    (a / b).max(b / a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_types::ArchSpec;

    fn ctx() -> MaterializeCtx {
        MaterializeCtx::from_arch(&ArchSpec::yeti())
    }

    fn sample(flops_g: f64, bw_gib: f64) -> CounterSample {
        CounterSample {
            interval: Seconds(0.2),
            flops: FlopsPerSec::from_gflops(flops_g),
            bandwidth: BytesPerSec::from_gib(bw_gib),
            power: Watts(100.0),
        }
    }

    #[test]
    fn power_inversion_recovers_activity() {
        // Build a sample whose power corresponds to a known activity and
        // check the inversion recovers it.
        let c = ctx();
        let model = PowerModel::xeon_gold_6130();
        let truth = SocketActivity {
            core_util: 0.72,
            mem_util: 0.999,
            active_cores: c.cores,
        };
        let p = model.package_total(c.core_freq_max, Hertz::from_ghz(2.4), &truth);
        let trace = vec![
            CounterSample {
                interval: Seconds(0.2),
                flops: FlopsPerSec::from_gflops(11.0),
                bandwidth: BytesPerSec(c.peak_bandwidth.value() * 0.999),
                power: p,
            };
            8
        ];
        let specs = segment_with_power(&trace, &c, &model, Hertz::from_ghz(2.4)).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(
            (specs[0].core_util - 0.72).abs() < 0.03,
            "recovered util {}",
            specs[0].core_util
        );
    }

    #[test]
    fn two_plateaus_become_two_phases() {
        let mut trace = vec![sample(30.0, 100.0); 10]; // memory-ish
        trace.extend(vec![sample(400.0, 40.0); 10]); // compute-ish
        let specs = segment(&trace, &ctx()).unwrap();
        assert_eq!(specs.len(), 2, "{specs:#?}");
        assert!(specs[0].oi < 1.0);
        assert!(specs[1].oi > 1.0);
        assert!((specs[0].seconds_at_default - 2.0).abs() < 1e-9);
        assert!(matches!(specs[0].boundness, Boundness::MemoryBound { .. }));
        assert!(matches!(specs[1].boundness, Boundness::ComputeBound { .. }));
    }

    #[test]
    fn jitter_does_not_split_segments() {
        let mut trace = Vec::new();
        for i in 0..20 {
            let wiggle = 1.0 + 0.05 * ((i % 3) as f64 - 1.0);
            trace.push(sample(30.0 * wiggle, 100.0 * wiggle));
        }
        let specs = segment(&trace, &ctx()).unwrap();
        assert_eq!(specs.len(), 1, "{specs:#?}");
    }

    #[test]
    fn runt_segments_merge_into_neighbours() {
        let mut trace = vec![sample(30.0, 100.0); 10];
        trace.push(sample(400.0, 40.0)); // one-sample spike
        trace.extend(vec![sample(30.0, 100.0); 10]);
        let specs = segment(&trace, &ctx()).unwrap();
        assert!(
            specs.len() <= 2,
            "spike must not become a phase: {specs:#?}"
        );
        let total: f64 = specs.iter().map(|s| s.seconds_at_default).sum();
        assert!((total - 21.0 * 0.2).abs() < 1e-9, "no time lost");
    }

    #[test]
    fn captured_specs_materialize() {
        let mut trace = vec![sample(25.0, 95.0); 15];
        trace.extend(vec![sample(500.0, 30.0); 15]);
        let specs = segment(&trace, &ctx()).unwrap();
        let w = crate::spec::Workload::from_specs("captured", &specs, &ctx()).unwrap();
        let d = w.nominal_duration(&ctx()).value();
        assert!((d - 6.0).abs() < 0.5, "captured duration {d}");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(segment(&[], &ctx()).is_err());
    }

    #[test]
    fn zero_bandwidth_compute_phase_survives() {
        let trace = vec![
            CounterSample {
                interval: Seconds(0.2),
                flops: FlopsPerSec::from_gflops(200.0),
                bandwidth: BytesPerSec(0.0),
                power: Watts(110.0),
            };
            8
        ];
        let specs = segment(&trace, &ctx()).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(matches!(specs[0].boundness, Boundness::ComputeBound { .. }));
    }
}
