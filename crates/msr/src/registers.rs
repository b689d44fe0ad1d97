//! Register addresses and bit-field codecs.
//!
//! Layouts follow the Intel SDM vol. 4 definitions for Skylake-SP. Every
//! codec is a pure value type with `encode`/`decode` round-trip tests and
//! property tests, so the simulator's MSR backend and the real Linux backend
//! interpret words identically.

use dufp_types::{Error, Hertz, Result, Seconds, Watts};

/// `MSR_RAPL_POWER_UNIT` — scaling factors for all RAPL registers.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;
/// `MSR_PKG_POWER_LIMIT` — package PL1/PL2 power limits.
pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;
/// `MSR_PKG_ENERGY_STATUS` — 32-bit package energy accumulator.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
/// `MSR_PKG_POWER_INFO` — TDP and min/max power of the package.
pub const MSR_PKG_POWER_INFO: u32 = 0x614;
/// `MSR_DRAM_POWER_LIMIT` — DRAM power limit (not functional on the paper's
/// Xeon Gold 6130; see §II-B).
pub const MSR_DRAM_POWER_LIMIT: u32 = 0x618;
/// `MSR_DRAM_ENERGY_STATUS` — 32-bit DRAM energy accumulator.
pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;
/// `MSR_UNCORE_RATIO_LIMIT` — min/max uncore ratio in 100 MHz units.
pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;
/// `MSR_PLATFORM_INFO` — maximum non-turbo ratio, etc.
pub const MSR_PLATFORM_INFO: u32 = 0xCE;
/// `IA32_PERF_CTL` — P-state request: bits 15:8 hold the target ratio in
/// 100 MHz units (the OS/driver interface DUFP-F uses to cap core
/// frequency directly, per the paper's §VII future work).
pub const IA32_PERF_CTL: u32 = 0x199;
/// `IA32_MPERF` — TSC-rate reference cycle counter.
pub const IA32_MPERF: u32 = 0xE7;
/// `IA32_APERF` — actual-frequency cycle counter.
pub const IA32_APERF: u32 = 0xE8;

/// Raw RAPL power-unit register on Skylake-SP: power unit = 1/8 W
/// (field 3), energy unit = 61 µJ (field 14), time unit = 976.5 µs
/// (field 10).
pub const SKYLAKE_SP_POWER_UNIT_RAW: u64 = 0x000A_0E03;

/// Decoded `MSR_RAPL_POWER_UNIT` scaling factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaplPowerUnit {
    /// Watts represented by one power-field unit (`1 / 2^PU`).
    pub power_unit: Watts,
    /// Joules represented by one energy-counter unit (`1 / 2^ESU`).
    pub energy_unit: f64,
    /// Seconds represented by one time-window unit (`1 / 2^TU`).
    pub time_unit: Seconds,
}

impl RaplPowerUnit {
    /// Decodes the unit register.
    pub fn decode(raw: u64) -> Self {
        let pu = (raw & 0xF) as u32;
        let esu = ((raw >> 8) & 0x1F) as u32;
        let tu = ((raw >> 16) & 0xF) as u32;
        RaplPowerUnit {
            power_unit: Watts(1.0 / f64::from(1u64.wrapping_shl(pu) as u32)),
            energy_unit: 1.0 / f64::from(1u64.wrapping_shl(esu) as u32),
            time_unit: Seconds(1.0 / f64::from(1u64.wrapping_shl(tu) as u32)),
        }
    }

    /// The Skylake-SP factory values.
    pub fn skylake_sp() -> Self {
        Self::decode(SKYLAKE_SP_POWER_UNIT_RAW)
    }
}

/// One RAPL power-limit constraint (PL1 "long term" or PL2 "short term").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLimit {
    /// The power limit itself.
    pub power: Watts,
    /// Whether the limit is enforced.
    pub enabled: bool,
    /// Whether frequency may be clamped below the OS request to honor it.
    pub clamp: bool,
    /// Averaging window over which the limit is enforced.
    pub window: Seconds,
}

impl PowerLimit {
    /// Packs this constraint into its 24-bit register slice using `units`.
    ///
    /// Field layout (relative to the slice): bits 14:0 power, 15 enable,
    /// 16 clamp, 21:17 window mantissa `y`, 23:22 window fraction `z`,
    /// window = `2^y · (1 + z/4) · time_unit`.
    pub fn encode(&self, units: &RaplPowerUnit) -> Result<u64> {
        if !self.power.is_finite() || self.power.value() < 0.0 {
            return Err(Error::invalid("power limit", format!("{:?}", self.power)));
        }
        let ticks = (self.power.value() / units.power_unit.value()).round();
        if ticks > 0x7FFF as f64 {
            return Err(Error::invalid(
                "power limit",
                format!("{} exceeds the 15-bit field", self.power),
            ));
        }
        let (y, z) = encode_time_window(self.window, units.time_unit)?;
        let mut v = ticks as u64 & 0x7FFF;
        if self.enabled {
            v |= 1 << 15;
        }
        if self.clamp {
            v |= 1 << 16;
        }
        v |= u64::from(y & 0x1F) << 17;
        v |= u64::from(z & 0x3) << 22;
        Ok(v)
    }

    /// Unpacks a 24-bit register slice.
    pub fn decode(slice: u64, units: &RaplPowerUnit) -> Self {
        let ticks = (slice & 0x7FFF) as f64;
        let y = ((slice >> 17) & 0x1F) as u32;
        let z = ((slice >> 22) & 0x3) as f64;
        PowerLimit {
            power: Watts(ticks * units.power_unit.value()),
            enabled: slice & (1 << 15) != 0,
            clamp: slice & (1 << 16) != 0,
            window: Seconds((1u64 << y.min(31)) as f64 * (1.0 + z / 4.0) * units.time_unit.value()),
        }
    }
}

/// Finds the `(y, z)` pair whose `2^y · (1 + z/4) · tu` is closest to
/// `window`.
///
/// A window decoded from the register is exactly `2^y · (1 + z/4)` time
/// units, and the time unit `1/2^TU` divides it exactly, so every
/// read-modify-write of a limit re-encodes such an exact point. Its pair
/// is read straight from the target's bits: the unbiased exponent is `y`
/// (in 0..32), the top two fraction bits are `z`, and the other 50
/// fraction bits must be zero. That pair has error 0 and the 128 points
/// are distinct, so no other pair ties it and the search below would
/// return it too. Any other target (below one unit, at or above `2^32`
/// units, or off the grid) takes the search.
fn encode_time_window(window: Seconds, time_unit: Seconds) -> Result<(u8, u8)> {
    if !window.is_finite() || window.value() < 0.0 {
        return Err(Error::invalid("time window", format!("{window:?}")));
    }
    let target = window.value() / time_unit.value();
    let bits = target.to_bits();
    // The sign bit rides along in the exponent, so a negative target
    // lands far outside 0..32 and falls through.
    let y = (bits >> 52).wrapping_sub(1023);
    if y < 32 && bits & ((1 << 50) - 1) == 0 {
        return Ok((y as u8, ((bits >> 50) & 0x3) as u8));
    }
    Ok(nearest_time_window(target))
}

/// The `(y, z)` pair whose `2^y · (1 + z/4)` is closest to `target` time
/// units; the first of equally close pairs wins.
fn nearest_time_window(target: f64) -> (u8, u8) {
    let mut best = (0u8, 0u8);
    let mut best_err = f64::INFINITY;
    for y in 0u8..32 {
        for z in 0u8..4 {
            let w = (1u64 << y) as f64 * (1.0 + f64::from(z) / 4.0);
            let err = (w - target).abs();
            if err < best_err {
                best_err = err;
                best = (y, z);
            }
        }
    }
    best
}

/// Decoded `MSR_PKG_POWER_LIMIT`: both constraints plus the lock bit.
///
/// ```
/// use dufp_msr::registers::{PkgPowerLimit, RaplPowerUnit};
/// use dufp_types::{Watts, Seconds};
///
/// let units = RaplPowerUnit::skylake_sp();
/// let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
/// let raw = reg.encode(&units).unwrap();           // the 64-bit MSR word
/// let back = PkgPowerLimit::decode(raw, &units);
/// assert_eq!(back.pl1.power, Watts(125.0));
/// assert_eq!(back.pl2.power, Watts(150.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PkgPowerLimit {
    /// Long-term constraint (PL1). Defaults to TDP.
    pub pl1: PowerLimit,
    /// Short-term constraint (PL2). Defaults to 1.2 × TDP on most parts.
    pub pl2: PowerLimit,
    /// When set, the register is locked until reset and writes fault.
    pub lock: bool,
}

impl PkgPowerLimit {
    /// Packs the full 64-bit register.
    pub fn encode(&self, units: &RaplPowerUnit) -> Result<u64> {
        let lo = self.pl1.encode(units)?;
        let hi = self.pl2.encode(units)?;
        let mut v = lo | (hi << 32);
        if self.lock {
            v |= 1 << 63;
        }
        Ok(v)
    }

    /// Unpacks the full 64-bit register.
    pub fn decode(raw: u64, units: &RaplPowerUnit) -> Self {
        PkgPowerLimit {
            pl1: PowerLimit::decode(raw & 0xFF_FFFF, units),
            pl2: PowerLimit::decode((raw >> 32) & 0xFF_FFFF, units),
            lock: raw >> 63 != 0,
        }
    }

    /// The default register content for an architecture: PL1 = `pl1` over
    /// `pl1_window`, PL2 = `pl2` over `pl2_window`, both enabled and
    /// clamped, unlocked.
    pub fn defaults(pl1: Watts, pl1_window: Seconds, pl2: Watts, pl2_window: Seconds) -> Self {
        PkgPowerLimit {
            pl1: PowerLimit {
                power: pl1,
                enabled: true,
                clamp: true,
                window: pl1_window,
            },
            pl2: PowerLimit {
                power: pl2,
                enabled: true,
                clamp: true,
                window: pl2_window,
            },
            lock: false,
        }
    }
}

/// Decoded `IA32_PERF_CTL` (the P-state request field only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfCtl {
    /// Requested maximum ratio, in 100 MHz units (bits 15:8).
    pub target_ratio: u8,
}

impl PerfCtl {
    /// Packs the register.
    pub fn encode(&self) -> u64 {
        u64::from(self.target_ratio) << 8
    }

    /// Unpacks the register.
    pub fn decode(raw: u64) -> Self {
        PerfCtl {
            target_ratio: ((raw >> 8) & 0xFF) as u8,
        }
    }

    /// Requests at most `freq`.
    pub fn capped_at(freq: Hertz) -> Self {
        PerfCtl {
            target_ratio: freq.as_ratio_100mhz(),
        }
    }

    /// The requested frequency.
    pub fn freq(&self) -> Hertz {
        Hertz::from_ratio_100mhz(self.target_ratio)
    }
}

/// Decoded `MSR_UNCORE_RATIO_LIMIT`.
///
/// The hardware's uncore frequency scaling (UFS) picks a frequency within
/// `[min_ratio, max_ratio]` × 100 MHz; DUF pins both bounds to the same
/// value to force a frequency.
///
/// ```
/// use dufp_msr::registers::UncoreRatioLimit;
/// use dufp_types::Hertz;
///
/// let pinned = UncoreRatioLimit::pinned(Hertz::from_ghz(1.8));
/// assert_eq!(pinned.encode(), 0x1212);
/// assert_eq!(pinned.band(), (Hertz::from_ghz(1.8), Hertz::from_ghz(1.8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreRatioLimit {
    /// Maximum allowed ratio (bits 6:0), in 100 MHz units.
    pub max_ratio: u8,
    /// Minimum allowed ratio (bits 14:8), in 100 MHz units.
    pub min_ratio: u8,
}

impl UncoreRatioLimit {
    /// Packs the register.
    pub fn encode(&self) -> u64 {
        u64::from(self.max_ratio & 0x7F) | (u64::from(self.min_ratio & 0x7F) << 8)
    }

    /// Unpacks the register.
    pub fn decode(raw: u64) -> Self {
        UncoreRatioLimit {
            max_ratio: (raw & 0x7F) as u8,
            min_ratio: ((raw >> 8) & 0x7F) as u8,
        }
    }

    /// Pins both bounds to `freq` (DUF's actuation).
    pub fn pinned(freq: Hertz) -> Self {
        let r = freq.as_ratio_100mhz();
        UncoreRatioLimit {
            max_ratio: r,
            min_ratio: r,
        }
    }

    /// The frequency band `[min, max]` this register allows.
    pub fn band(&self) -> (Hertz, Hertz) {
        (
            Hertz::from_ratio_100mhz(self.min_ratio),
            Hertz::from_ratio_100mhz(self.max_ratio),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn skylake_units_decode() {
        let u = RaplPowerUnit::skylake_sp();
        assert_eq!(u.power_unit, Watts(0.125));
        assert!((u.energy_unit - 6.103515625e-5).abs() < 1e-12);
        assert!((u.time_unit.value() - 9.765625e-4).abs() < 1e-12);
    }

    #[test]
    fn pinned_uncore_round_trip() {
        let r = UncoreRatioLimit::pinned(Hertz::from_ghz(1.8));
        assert_eq!(r.max_ratio, 18);
        assert_eq!(r.min_ratio, 18);
        let raw = r.encode();
        assert_eq!(raw, 0x1212);
        assert_eq!(UncoreRatioLimit::decode(raw), r);
        let (lo, hi) = r.band();
        assert_eq!(lo, Hertz::from_ghz(1.8));
        assert_eq!(hi, Hertz::from_ghz(1.8));
    }

    #[test]
    fn pkg_power_limit_yeti_defaults_round_trip() {
        let units = RaplPowerUnit::skylake_sp();
        let reg = PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
        let raw = reg.encode(&units).unwrap();
        let back = PkgPowerLimit::decode(raw, &units);
        assert_eq!(back.pl1.power, Watts(125.0));
        assert_eq!(back.pl2.power, Watts(150.0));
        assert!(back.pl1.enabled && back.pl1.clamp);
        assert!(back.pl2.enabled && back.pl2.clamp);
        assert!(!back.lock);
        // The 1 s PL1 window must survive quantization closely.
        assert!((back.pl1.window.value() - 1.0).abs() < 0.05);
        assert!((back.pl2.window.value() - 0.01).abs() < 0.005);
    }

    #[test]
    fn lock_bit_is_bit_63() {
        let units = RaplPowerUnit::skylake_sp();
        let mut reg =
            PkgPowerLimit::defaults(Watts(125.0), Seconds(1.0), Watts(150.0), Seconds(0.01));
        reg.lock = true;
        let raw = reg.encode(&units).unwrap();
        assert_eq!(raw >> 63, 1);
        assert!(PkgPowerLimit::decode(raw, &units).lock);
    }

    #[test]
    fn power_field_saturates_with_error() {
        let units = RaplPowerUnit::skylake_sp();
        let pl = PowerLimit {
            power: Watts(1e6),
            enabled: true,
            clamp: false,
            window: Seconds(1.0),
        };
        assert!(pl.encode(&units).is_err());
    }

    #[test]
    fn negative_power_rejected() {
        let units = RaplPowerUnit::skylake_sp();
        let pl = PowerLimit {
            power: Watts(-1.0),
            enabled: false,
            clamp: false,
            window: Seconds(1.0),
        };
        assert!(pl.encode(&units).is_err());
    }

    #[test]
    fn window_encoding_handles_zero() {
        let (y, z) = encode_time_window(Seconds(0.0), Seconds(9.765625e-4)).unwrap();
        assert_eq!((y, z), (0, 0));
    }

    /// The exhaustive 128-pair search applied to every window: the oracle
    /// the encoder must match.
    fn searched_window(window: Seconds, time_unit: Seconds) -> (u8, u8) {
        nearest_time_window(window.value() / time_unit.value())
    }

    /// Skylake-SP's 2^-10 s, one second, and 1/3 s, which divides no
    /// window exactly.
    const TIME_UNITS: [f64; 3] = [9.765625e-4, 1.0, 1.0 / 3.0];

    #[test]
    fn window_encoding_matches_the_search_at_and_beside_every_exact_point() {
        for tu in TIME_UNITS.map(Seconds) {
            for y in 0u8..32 {
                for z in 0u8..4 {
                    let exact = (1u64 << y) as f64 * (1.0 + f64::from(z) / 4.0) * tu.value();
                    for w in [exact.next_down(), exact, exact.next_up()].map(Seconds) {
                        let got = encode_time_window(w, tu).unwrap();
                        assert_eq!(got, searched_window(w, tu), "{w:?} over {tu:?}");
                    }
                    if tu.value() != 1.0 / 3.0 {
                        assert_eq!(encode_time_window(Seconds(exact), tu).unwrap(), (y, z));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        /// Any finite non-negative window, or one moved into the grid's
        /// exponent range with only its top six fraction bits kept (grid
        /// points, midpoints and the points between), encodes to the
        /// search's pair.
        #[test]
        fn window_encoding_matches_the_search(
            bits in 0u64..0x7FF0_0000_0000_0000,
            on_grid: bool,
            tu in prop::sample::select(TIME_UNITS.to_vec()),
        ) {
            let bits = if on_grid {
                let exponent = 1023 - 10 + (bits >> 52) % 44;
                (exponent << 52) | (bits & (0x3F << 46))
            } else {
                bits
            };
            let (w, tu) = (Seconds(f64::from_bits(bits)), Seconds(tu));
            prop_assert_eq!(encode_time_window(w, tu).unwrap(), searched_window(w, tu));
        }
    }

    #[test]
    fn perf_ctl_round_trips() {
        let p = PerfCtl::capped_at(Hertz::from_ghz(2.2));
        assert_eq!(p.target_ratio, 22);
        assert_eq!(p.encode(), 22 << 8);
        assert_eq!(PerfCtl::decode(p.encode()), p);
        assert_eq!(p.freq(), Hertz::from_ghz(2.2));
    }

    proptest! {
        #[test]
        fn perf_ctl_any_ratio_round_trips(r in 0u8..=255) {
            let p = PerfCtl { target_ratio: r };
            prop_assert_eq!(PerfCtl::decode(p.encode()), p);
        }

        #[test]
        fn uncore_ratio_round_trips(max in 0u8..0x80, min in 0u8..0x80) {
            let r = UncoreRatioLimit { max_ratio: max, min_ratio: min };
            prop_assert_eq!(UncoreRatioLimit::decode(r.encode()), r);
        }

        #[test]
        fn power_limit_round_trips_within_one_tick(
            watts in 0.0f64..4000.0,
            window_ms in 1.0f64..10_000.0,
            enabled: bool,
            clamp: bool,
        ) {
            let units = RaplPowerUnit::skylake_sp();
            let pl = PowerLimit {
                power: Watts(watts),
                enabled,
                clamp,
                window: Seconds(window_ms / 1e3),
            };
            let raw = pl.encode(&units).unwrap();
            prop_assert_eq!(raw >> 24, 0, "slice must fit in 24 bits");
            let back = PowerLimit::decode(raw, &units);
            prop_assert!((back.power.value() - watts).abs() <= units.power_unit.value() / 2.0 + 1e-9);
            prop_assert_eq!(back.enabled, enabled);
            prop_assert_eq!(back.clamp, clamp);
            // Window quantization error is bounded by 1/8 relative (z step)
            // plus half a time unit.
            let w = window_ms / 1e3;
            prop_assert!((back.window.value() - w).abs() <= 0.125 * w + units.time_unit.value());
        }

        #[test]
        fn pkg_encode_is_stable(raw in any::<u64>()) {
            // decode → encode → decode must be a fixpoint (idempotent codec).
            let units = RaplPowerUnit::skylake_sp();
            let once = PkgPowerLimit::decode(raw, &units);
            if let Ok(re) = once.encode(&units) {
                let twice = PkgPowerLimit::decode(re, &units);
                prop_assert_eq!(once, twice);
            }
        }
    }
}
