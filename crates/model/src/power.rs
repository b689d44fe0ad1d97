//! Package and DRAM power models.
//!
//! Package power decomposes into a constant infrastructure floor, core
//! leakage (voltage-dependent), core dynamic power (`n · C · f · V² ·
//! activity`), uncore leakage and uncore dynamic power. The uncore's dynamic
//! term is mostly frequency-driven and only weakly traffic-driven — on
//! Skylake-SP the mesh and LLC burn power at their clock regardless of
//! occupancy, which is exactly why uncore frequency scaling is such a rich
//! power knob for compute-bound codes like EP (the paper's best case,
//! −24.27 %).
//!
//! Default coefficients are calibrated for one 16-core Xeon Gold 6130 so
//! that a compute-bound phase at 2.8 GHz sits just above PL1 = 125 W (HPL
//! rides the cap), a memory-bound phase sits slightly below it, and a
//! min-frequency memory phase fits under the paper's 65 W cap floor.

use crate::vf::VfCurve;
use dufp_types::{BytesPerSec, Hertz, Watts};
use serde::{Deserialize, Serialize};

/// Instantaneous activity of a socket, produced by the workload engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocketActivity {
    /// Fraction of core issue capacity in use, `[0, 1]`. Compute-bound
    /// phases ≈ 1, stalled memory-bound phases ≈ 0.2–0.6.
    pub core_util: f64,
    /// Fraction of peak memory bandwidth in use, `[0, 1]`.
    pub mem_util: f64,
    /// Number of active cores.
    pub active_cores: u16,
}

impl SocketActivity {
    /// A fully idle socket.
    pub fn idle() -> Self {
        SocketActivity {
            core_util: 0.0,
            mem_util: 0.0,
            active_cores: 0,
        }
    }
}

/// Per-component power decomposition, for traces and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Package infrastructure floor (PCU, IO, fabric always-on).
    pub base: Watts,
    /// Core leakage.
    pub core_leak: Watts,
    /// Core dynamic power.
    pub core_dyn: Watts,
    /// Uncore leakage.
    pub uncore_leak: Watts,
    /// Uncore dynamic power.
    pub uncore_dyn: Watts,
}

impl PowerBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Watts {
        self.base + self.core_leak + self.core_dyn + self.uncore_leak + self.uncore_dyn
    }
}

/// The package power model and its coefficients.
///
/// ```
/// use dufp_model::{PowerModel, SocketActivity};
/// use dufp_types::Hertz;
///
/// let model = PowerModel::xeon_gold_6130();
/// let busy = SocketActivity { core_util: 0.95, mem_util: 0.05, active_cores: 16 };
/// let p = model.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(2.4), &busy);
/// assert!(p.value() > 100.0 && p.value() < 140.0); // rides PL1 = 125 W
///
/// // Lowering the uncore on a compute-bound phase is nearly free power:
/// let low = model.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(1.2), &busy);
/// assert!(p.value() - low.value() > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Core V/f curve.
    pub core_vf: VfCurve,
    /// Uncore V/f curve.
    pub uncore_vf: VfCurve,
    /// Package infrastructure floor.
    pub base: Watts,
    /// Core leakage per core per volt.
    pub core_leak_per_volt: f64,
    /// Core dynamic coefficient, watts per (GHz · V²) per core at full
    /// activity.
    pub core_cdyn: f64,
    /// Residual activity of a clock-gated but powered core.
    pub core_activity_floor: f64,
    /// Uncore leakage per volt.
    pub uncore_leak_per_volt: f64,
    /// Uncore dynamic coefficient, watts per (GHz · V²).
    pub uncore_cdyn: f64,
    /// Fraction of uncore dynamic power burned regardless of traffic.
    pub uncore_activity_floor: f64,
    /// Total cores in the package (for leakage).
    pub cores: u16,
}

impl PowerModel {
    /// Coefficients for one 16-core Xeon Gold 6130 package.
    pub fn xeon_gold_6130() -> Self {
        PowerModel {
            core_vf: VfCurve::skylake_core(),
            uncore_vf: VfCurve::skylake_uncore(),
            base: Watts(20.0),
            core_leak_per_volt: 1.2,
            core_cdyn: 1.05,
            core_activity_floor: 0.15,
            uncore_leak_per_volt: 6.5,
            uncore_cdyn: 13.0,
            uncore_activity_floor: 0.9,
            cores: 16,
        }
    }

    /// Package power at the given operating point.
    pub fn package_power(
        &self,
        core_freq: Hertz,
        uncore_freq: Hertz,
        activity: &SocketActivity,
    ) -> PowerBreakdown {
        let v_core = self.core_vf.voltage(core_freq);
        let v_unc = self.uncore_vf.voltage(uncore_freq);

        let eff_act = self.core_activity_floor
            + (1.0 - self.core_activity_floor) * activity.core_util.clamp(0.0, 1.0);
        let unc_act = self.uncore_activity_floor
            + (1.0 - self.uncore_activity_floor) * activity.mem_util.clamp(0.0, 1.0);
        let active = f64::from(activity.active_cores.min(self.cores));

        PowerBreakdown {
            base: self.base,
            core_leak: Watts(f64::from(self.cores) * self.core_leak_per_volt * v_core),
            core_dyn: Watts(
                active * self.core_cdyn * core_freq.as_ghz() * v_core * v_core * eff_act,
            ),
            uncore_leak: Watts(self.uncore_leak_per_volt * v_unc),
            uncore_dyn: Watts(self.uncore_cdyn * uncore_freq.as_ghz() * v_unc * v_unc * unc_act),
        }
    }

    /// Convenience: total package power.
    pub fn package_total(
        &self,
        core_freq: Hertz,
        uncore_freq: Hertz,
        activity: &SocketActivity,
    ) -> Watts {
        self.package_power(core_freq, uncore_freq, activity).total()
    }

    /// The cap→frequency inversion RAPL firmware effectively performs:
    /// the highest DVFS ladder point (`min..=max` in `step`s) whose
    /// predicted package power fits `allowance`. Falls back to `min` when
    /// nothing fits (hardware cannot gate below the lowest P-state; the
    /// residual overshoot is starved away elsewhere).
    ///
    /// This is the reference walk: from the top rung down, with a full
    /// [`PowerModel::package_total`] at every rung. The simulator's
    /// per-tick oracle calls it; the fast paths call
    /// [`PowerModel::ladder_search`], which must agree with it bit for bit.
    pub fn max_frequency_within(
        &self,
        min: Hertz,
        max: Hertz,
        step: Hertz,
        uncore_freq: Hertz,
        activity: &SocketActivity,
        allowance: Watts,
    ) -> Hertz {
        let steps = ((max.value() - min.value()) / step.value())
            .round()
            .max(0.0) as i64;
        for i in (0..=steps).rev() {
            let f = Hertz(min.value() + i as f64 * step.value());
            if self.package_total(f, uncore_freq, activity) <= allowance {
                return f;
            }
        }
        min
    }

    /// The same inversion as [`PowerModel::max_frequency_within`], searched
    /// from rung `start` (clamped to the ladder; `usize::MAX` is the top)
    /// and returning the predicted powers that bracket the chosen rung so
    /// a caller can memoize the result: see [`LadderPoint::stable_for`].
    ///
    /// Package power never decreases as the core frequency rises (for the
    /// coefficients `SimConfig::validate` accepts), so the rungs that fit
    /// are a prefix of the ladder and any start finds its end: walk up
    /// while the next rung fits, or down until one does. A caller that
    /// passes the rung it chose last pays one or two evaluations when the
    /// rung holds or moves by one. Each evaluation is `package_total` with
    /// the terms that do not depend on the core frequency computed once per
    /// search, in the same association order, so every returned field
    /// equals the top-down walk's bit for bit.
    pub fn ladder_search(
        &self,
        ladder: DvfsLadder,
        uncore_freq: Hertz,
        activity: &SocketActivity,
        allowance: Watts,
        start: usize,
    ) -> LadderPoint {
        let power = RungPower::new(self, uncore_freq, activity);
        let fits = |p: Watts| p <= allowance;
        let top = ladder.top();
        let mut i = start.min(top);
        let mut power_at = power.at(ladder.rung(i));
        if fits(power_at) {
            while i < top {
                let above = power.at(ladder.rung(i + 1));
                if !fits(above) {
                    return ladder.point(i, power_at, Some(above));
                }
                i += 1;
                power_at = above;
            }
            return ladder.point(top, power_at, None);
        }
        while i > 0 {
            let above = power_at;
            i -= 1;
            power_at = power.at(ladder.rung(i));
            if fits(power_at) {
                return ladder.point(i, power_at, Some(above));
            }
        }
        // Nothing fits: the fallback to `min`, which is rung 0.
        LadderPoint {
            freq: ladder.min,
            rung: 0,
            fits: false,
            power_at,
            power_above: None,
        }
    }
}

/// A DVFS ladder: `min..=max` in `step`s, rung 0 at `min`. The step is
/// finite and positive (`SimConfig::validate` rejects anything else).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsLadder {
    /// Lowest rung.
    pub min: Hertz,
    /// Highest frequency; the top rung is the one nearest to it.
    pub max: Hertz,
    /// Distance between rungs.
    pub step: Hertz,
}

impl DvfsLadder {
    /// Index of the top rung.
    pub fn top(&self) -> usize {
        ((self.max.value() - self.min.value()) / self.step.value())
            .round()
            .max(0.0) as usize
    }

    /// Frequency of rung `i`.
    pub fn rung(&self, i: usize) -> Hertz {
        Hertz(self.min.value() + i as f64 * self.step.value())
    }

    /// A rung that fits, with the power one rung above it.
    fn point(&self, i: usize, power_at: Watts, power_above: Option<Watts>) -> LadderPoint {
        LadderPoint {
            freq: self.rung(i),
            rung: i,
            fits: true,
            power_at,
            power_above,
        }
    }
}

/// [`PowerModel::package_total`] as a function of the core frequency
/// alone: every term that does not depend on it is computed once, in
/// `package_power`'s association order, so [`RungPower::at`] returns the
/// same bits.
struct RungPower<'a> {
    core_vf: &'a VfCurve,
    base: Watts,
    /// `cores · core_leak_per_volt`.
    leak_per_volt: f64,
    /// `active · core_cdyn`.
    cdyn: f64,
    eff_act: f64,
    uncore_leak: Watts,
    uncore_dyn: Watts,
}

impl<'a> RungPower<'a> {
    fn new(model: &'a PowerModel, uncore_freq: Hertz, activity: &SocketActivity) -> Self {
        let eff_act = model.core_activity_floor
            + (1.0 - model.core_activity_floor) * activity.core_util.clamp(0.0, 1.0);
        let unc_act = model.uncore_activity_floor
            + (1.0 - model.uncore_activity_floor) * activity.mem_util.clamp(0.0, 1.0);
        let v_unc = model.uncore_vf.voltage(uncore_freq);
        let active = f64::from(activity.active_cores.min(model.cores));
        RungPower {
            core_vf: &model.core_vf,
            base: model.base,
            leak_per_volt: f64::from(model.cores) * model.core_leak_per_volt,
            cdyn: active * model.core_cdyn,
            eff_act,
            uncore_leak: Watts(model.uncore_leak_per_volt * v_unc),
            uncore_dyn: Watts(model.uncore_cdyn * uncore_freq.as_ghz() * v_unc * v_unc * unc_act),
        }
    }

    fn at(&self, core_freq: Hertz) -> Watts {
        let v = self.core_vf.voltage(core_freq);
        self.base
            + Watts(self.leak_per_volt * v)
            + Watts(self.cdyn * core_freq.as_ghz() * v * v * self.eff_act)
            + self.uncore_leak
            + self.uncore_dyn
    }
}

/// The rung [`PowerModel::ladder_search`] chose, plus the predicted powers
/// bounding the allowance interval over which the choice is stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderPoint {
    /// The chosen frequency (the fallback `min` when nothing fits).
    pub freq: Hertz,
    /// `freq`'s index on the ladder (0 on the fallback): the start for the
    /// next search.
    pub rung: usize,
    /// Whether `freq`'s predicted power fit the allowance (`false` marks
    /// the nothing-fits fallback to `min`).
    pub fits: bool,
    /// Predicted package power at `freq`.
    pub power_at: Watts,
    /// Predicted package power one rung above `freq`; `None` when `freq`
    /// is already the top rung (or on the fallback path).
    pub power_above: Option<Watts>,
}

impl LadderPoint {
    /// True when re-running the search with `allowance` (same frequency
    /// range, uncore and activity) is guaranteed to return `freq` again,
    /// using the exact `<=` comparisons the search itself performs. Relies
    /// on package power being monotone in core frequency (the model is, by
    /// construction: voltage and every dynamic/leakage term are
    /// non-decreasing in `f`), so "this rung fits, the next one up does
    /// not" pins the descending walk's first hit.
    pub fn stable_for(&self, allowance: Watts) -> bool {
        // "Does not fit" is the negation of `<=`, not `>`: a NaN power or
        // allowance must count as not fitting, exactly as the search's
        // `<=` test fails on it.
        let over = |p: Watts| {
            !matches!(
                p.partial_cmp(&allowance),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        };
        if !self.fits {
            return over(self.power_at);
        }
        self.power_at <= allowance && self.power_above.is_none_or(over)
    }
}

/// DRAM power per NUMA node: a static term plus an energy-per-byte term.
///
/// DRAM power capping is *not* available on the paper's platform (§II-B),
/// so this domain is measurement-only; it moves with achieved bandwidth,
/// which is how DUFP's slowdowns translate into the Fig. 4 DRAM savings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramPowerModel {
    /// Background power (refresh, PLLs) per node.
    pub background: Watts,
    /// Energy per byte transferred (joules/byte).
    pub energy_per_byte: f64,
}

impl DramPowerModel {
    /// 64 GiB DDR4-2666 node as on YETI.
    pub fn ddr4_64gib() -> Self {
        DramPowerModel {
            background: Watts(15.0),
            energy_per_byte: 0.15e-9,
        }
    }

    /// DRAM power while moving `bw` bytes/s.
    pub fn power(&self, bw: BytesPerSec) -> Watts {
        self.background + Watts(self.energy_per_byte * bw.value().max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compute_bound() -> SocketActivity {
        SocketActivity {
            core_util: 0.95,
            mem_util: 0.05,
            active_cores: 16,
        }
    }

    fn memory_bound() -> SocketActivity {
        SocketActivity {
            core_util: 0.55,
            mem_util: 1.0,
            active_cores: 16,
        }
    }

    #[test]
    fn compute_bound_sits_near_pl1() {
        let m = PowerModel::xeon_gold_6130();
        let p = m.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(2.4), &compute_bound());
        assert!(
            (115.0..140.0).contains(&p.value()),
            "compute-bound default power {p} should ride PL1=125W"
        );
    }

    #[test]
    fn min_frequency_memory_phase_fits_under_cap_floor() {
        // The paper's 65 W floor must be reachable for highly-memory phases
        // with cores at fmin and the uncore near its bandwidth knee.
        let m = PowerModel::xeon_gold_6130();
        let act = SocketActivity {
            core_util: 0.2,
            mem_util: 1.0,
            active_cores: 16,
        };
        let p = m.package_total(Hertz::from_ghz(1.0), Hertz::from_ghz(2.0), &act);
        assert!(p.value() < 65.0, "got {p}");
    }

    #[test]
    fn uncore_scaling_saves_double_digit_watts_for_compute_phases() {
        // EP's mechanism: uncore 2.4 → 1.2 GHz with near-zero traffic.
        let m = PowerModel::xeon_gold_6130();
        let act = SocketActivity {
            core_util: 0.95,
            mem_util: 0.02,
            active_cores: 16,
        };
        let hi = m.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(2.4), &act);
        let lo = m.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(1.2), &act);
        let saved = hi - lo;
        assert!(
            (10.0..25.0).contains(&saved.value()),
            "uncore span saving {saved}"
        );
    }

    #[test]
    fn core_throttling_saves_superlinearly() {
        let m = PowerModel::xeon_gold_6130();
        let hi = m.package_total(Hertz::from_ghz(2.8), Hertz::from_ghz(2.4), &compute_bound());
        let lo = m.package_total(
            Hertz::from_ghz(2.24),
            Hertz::from_ghz(2.4),
            &compute_bound(),
        );
        // 20 % frequency cut must save clearly more than 20 % of the core
        // dynamic share (voltage rides down too).
        let b_hi = m.package_power(Hertz::from_ghz(2.8), Hertz::from_ghz(2.4), &compute_bound());
        let dyn_cut = (hi - lo).value() / b_hi.core_dyn.value();
        assert!(dyn_cut > 0.25, "dyn share cut {dyn_cut}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = PowerModel::xeon_gold_6130();
        let b = m.package_power(Hertz::from_ghz(2.1), Hertz::from_ghz(1.8), &memory_bound());
        let sum = b.base + b.core_leak + b.core_dyn + b.uncore_leak + b.uncore_dyn;
        assert_eq!(b.total(), sum);
    }

    #[test]
    fn frequency_inversion_is_exact_and_safe() {
        let m = PowerModel::xeon_gold_6130();
        let act = compute_bound();
        let (lo, hi, step) = (
            Hertz::from_ghz(1.0),
            Hertz::from_ghz(2.8),
            Hertz::from_mhz(100.0),
        );
        // Unconstrained → the maximum.
        let f = m.max_frequency_within(lo, hi, step, Hertz::from_ghz(2.4), &act, Watts(500.0));
        assert_eq!(f, hi);
        // Impossible → the minimum.
        let f = m.max_frequency_within(lo, hi, step, Hertz::from_ghz(2.4), &act, Watts(1.0));
        assert_eq!(f, lo);
        // In between: the chosen point fits, the next step up does not.
        let allowance = Watts(100.0);
        let f = m.max_frequency_within(lo, hi, step, Hertz::from_ghz(2.4), &act, allowance);
        assert!(m.package_total(f, Hertz::from_ghz(2.4), &act) <= allowance);
        let above = Hertz(f.value() + step.value());
        assert!(m.package_total(above, Hertz::from_ghz(2.4), &act) > allowance);
    }

    proptest! {
        #[test]
        fn frequency_inversion_monotone_in_allowance(a in 20.0f64..200.0, b in 20.0f64..200.0) {
            let m = PowerModel::xeon_gold_6130();
            let act = SocketActivity { core_util: 0.8, mem_util: 0.3, active_cores: 16 };
            let (lo_w, hi_w) = if a <= b { (a, b) } else { (b, a) };
            let args = (
                Hertz::from_ghz(1.0),
                Hertz::from_ghz(2.8),
                Hertz::from_mhz(100.0),
                Hertz::from_ghz(2.0),
            );
            let f_lo = m.max_frequency_within(args.0, args.1, args.2, args.3, &act, Watts(lo_w));
            let f_hi = m.max_frequency_within(args.0, args.1, args.2, args.3, &act, Watts(hi_w));
            prop_assert!(f_lo <= f_hi);
        }

        #[test]
        fn ladder_point_stability_predicts_the_search(
            a1 in 20.0f64..200.0,
            a2 in 20.0f64..200.0,
            util in 0.0f64..1.0,
        ) {
            let m = PowerModel::xeon_gold_6130();
            let act = SocketActivity { core_util: util, mem_util: 0.3, active_cores: 16 };
            let args = (
                Hertz::from_ghz(1.0),
                Hertz::from_ghz(2.8),
                Hertz::from_mhz(100.0),
                Hertz::from_ghz(2.0),
            );
            let ladder = DvfsLadder { min: args.0, max: args.1, step: args.2 };
            let point = m.ladder_search(ladder, args.3, &act, Watts(a1), usize::MAX);
            // The search agrees with the reference walk.
            prop_assert_eq!(
                point.freq,
                m.max_frequency_within(args.0, args.1, args.2, args.3, &act, Watts(a1))
            );
            // A point is always stable for the allowance that produced it.
            prop_assert!(point.stable_for(Watts(a1)));
            // Stability at any other allowance implies the search agrees.
            if point.stable_for(Watts(a2)) {
                prop_assert_eq!(
                    m.max_frequency_within(args.0, args.1, args.2, args.3, &act, Watts(a2)),
                    point.freq
                );
            }
        }
    }

    /// Every field of `p` as bits, so NaN and signed zeros compare exactly.
    fn point_bits(p: &LadderPoint) -> (u64, usize, bool, u64, Option<u64>) {
        (
            p.freq.value().to_bits(),
            p.rung,
            p.fits,
            p.power_at.value().to_bits(),
            p.power_above.map(|w| w.value().to_bits()),
        )
    }

    /// The point the reference walk implies: its frequency, with every
    /// power recomputed by a full `package_total`.
    fn reference_point(
        m: &PowerModel,
        ladder: DvfsLadder,
        uncore: Hertz,
        act: &SocketActivity,
        allowance: Watts,
    ) -> LadderPoint {
        let f = m.max_frequency_within(ladder.min, ladder.max, ladder.step, uncore, act, allowance);
        let power_at = m.package_total(f, uncore, act);
        if power_at <= allowance {
            let top = ladder.top();
            let rung = (0..=top)
                .find(|&i| ladder.rung(i).value().to_bits() == f.value().to_bits())
                .expect("the walk returns a rung");
            let power_above =
                (rung < top).then(|| m.package_total(ladder.rung(rung + 1), uncore, act));
            return LadderPoint {
                freq: f,
                rung,
                fits: true,
                power_at,
                power_above,
            };
        }
        LadderPoint {
            freq: f,
            rung: 0,
            fits: false,
            power_at,
            power_above: None,
        }
    }

    fn vf_curve() -> impl Strategy<Value = VfCurve> {
        // A flat curve and rails that bind over much of the ladder are
        // drawn as often as a plain affine one.
        (
            -0.5f64..1.5,
            prop_oneof![Just(0.0), 0.0f64..0.5],
            0.0f64..1.2,
            prop_oneof![Just(0.0), 0.0f64..0.05, 0.0f64..0.8],
        )
            .prop_map(|(v0, slope_per_ghz, vmin, span)| VfCurve {
                v0,
                slope_per_ghz,
                vmin,
                vmax: vmin + span,
            })
    }

    fn power_model() -> impl Strategy<Value = PowerModel> {
        (
            (vf_curve(), vf_curve(), 0.0f64..60.0, 1u16..64),
            (0.0f64..5.0, 0.0f64..3.0, 0.0f64..1.5),
            (0.0f64..10.0, 0.0f64..20.0, 0.0f64..1.0),
        )
            .prop_map(
                |((core_vf, uncore_vf, base, cores), core, uncore)| PowerModel {
                    core_vf,
                    uncore_vf,
                    base: Watts(base),
                    core_leak_per_volt: core.0,
                    core_cdyn: core.1,
                    core_activity_floor: core.2,
                    uncore_leak_per_volt: uncore.0,
                    uncore_cdyn: uncore.1,
                    uncore_activity_floor: uncore.2,
                    cores,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fast search, from every start rung, returns exactly the
        /// reference walk's point, for allowances at and one ulp either
        /// side of a rung's power, and for NaN and ±∞.
        #[test]
        fn ladder_search_from_any_start_equals_the_reference_walk(
            m in power_model(),
            shape in (0.4f64..1.5, prop_oneof![Just(25.0), Just(100.0), 10.0f64..300.0], 0usize..24),
            uncore_ghz in 0.8f64..3.0,
            utils in (-0.5f64..1.5, -0.5f64..1.5),
            active_cores in prop_oneof![Just(0u16), 0u16..80],
            pick in (0usize..32, 0u8..7, 0.0f64..400.0),
        ) {
            let ((min_ghz, step_mhz, rungs), (core_util, mem_util)) = (shape, utils);
            let (k, mode, other) = pick;
            let ladder = DvfsLadder {
                min: Hertz::from_ghz(min_ghz),
                max: Hertz::from_ghz(min_ghz + rungs as f64 * step_mhz / 1000.0),
                step: Hertz::from_mhz(step_mhz),
            };
            let uncore = Hertz::from_ghz(uncore_ghz);
            let act = SocketActivity { core_util, mem_util, active_cores };
            let top = ladder.top();
            let at_rung = m.package_total(ladder.rung(k % (top + 1)), uncore, &act).value();
            let allowance = Watts(match mode {
                0 => at_rung,
                1 => at_rung.next_up(),
                2 => at_rung.next_down(),
                3 => f64::NAN,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                _ => other,
            });
            let want = point_bits(&reference_point(&m, ladder, uncore, &act, allowance));
            for start in (0..=top + 1).chain([usize::MAX]) {
                let got = m.ladder_search(ladder, uncore, &act, allowance, start);
                prop_assert_eq!(point_bits(&got), want, "start rung {}", start);
            }
        }
    }

    #[test]
    fn dram_power_tracks_bandwidth() {
        let d = DramPowerModel::ddr4_64gib();
        let idle = d.power(BytesPerSec::ZERO);
        let busy = d.power(BytesPerSec::from_gib(90.0));
        assert_eq!(idle, Watts(15.0));
        assert!((busy.value() - 29.49).abs() < 0.1, "busy = {busy}");
    }

    #[test]
    fn idle_socket_power_is_floor_plus_leakage() {
        let m = PowerModel::xeon_gold_6130();
        let p = m.package_power(
            Hertz::from_ghz(1.0),
            Hertz::from_ghz(1.2),
            &SocketActivity::idle(),
        );
        assert_eq!(p.core_dyn, Watts::ZERO);
        assert!(p.total().value() > 20.0 && p.total().value() < 60.0);
    }

    proptest! {
        #[test]
        fn power_monotone_in_core_freq(
            f1 in 1.0f64..2.8, f2 in 1.0f64..2.8,
            util in 0.0f64..1.0,
        ) {
            let m = PowerModel::xeon_gold_6130();
            let act = SocketActivity { core_util: util, mem_util: 0.5, active_cores: 16 };
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let p_lo = m.package_total(Hertz::from_ghz(lo), Hertz::from_ghz(1.8), &act);
            let p_hi = m.package_total(Hertz::from_ghz(hi), Hertz::from_ghz(1.8), &act);
            prop_assert!(p_lo.value() <= p_hi.value() + 1e-9);
        }

        #[test]
        fn power_monotone_in_uncore_freq(
            u1 in 1.2f64..2.4, u2 in 1.2f64..2.4,
            mem in 0.0f64..1.0,
        ) {
            let m = PowerModel::xeon_gold_6130();
            let act = SocketActivity { core_util: 0.5, mem_util: mem, active_cores: 16 };
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            let p_lo = m.package_total(Hertz::from_ghz(2.0), Hertz::from_ghz(lo), &act);
            let p_hi = m.package_total(Hertz::from_ghz(2.0), Hertz::from_ghz(hi), &act);
            prop_assert!(p_lo.value() <= p_hi.value() + 1e-9);
        }

        #[test]
        fn power_monotone_in_activity(a1 in 0.0f64..1.0, a2 in 0.0f64..1.0) {
            let m = PowerModel::xeon_gold_6130();
            let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
            let mk = |u| SocketActivity { core_util: u, mem_util: u, active_cores: 16 };
            let p_lo = m.package_total(Hertz::from_ghz(2.0), Hertz::from_ghz(1.8), &mk(lo));
            let p_hi = m.package_total(Hertz::from_ghz(2.0), Hertz::from_ghz(1.8), &mk(hi));
            prop_assert!(p_lo.value() <= p_hi.value() + 1e-9);
        }

        #[test]
        fn activity_out_of_range_is_clamped(u in -3.0f64..4.0) {
            let m = PowerModel::xeon_gold_6130();
            let act = SocketActivity { core_util: u, mem_util: u, active_cores: 16 };
            let p = m.package_total(Hertz::from_ghz(2.0), Hertz::from_ghz(1.8), &act);
            let lo = m.package_total(
                Hertz::from_ghz(2.0), Hertz::from_ghz(1.8),
                &SocketActivity { core_util: 0.0, mem_util: 0.0, active_cores: 16 },
            );
            let hi = m.package_total(
                Hertz::from_ghz(2.0), Hertz::from_ghz(1.8),
                &SocketActivity { core_util: 1.0, mem_util: 1.0, active_cores: 16 },
            );
            prop_assert!(p.value() >= lo.value() - 1e-9 && p.value() <= hi.value() + 1e-9);
        }
    }
}
