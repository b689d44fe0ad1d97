//! SplitMix64: the one small seeded stream behind every fault plan, chaos
//! fleet, arrival model and reconnect jitter in the suite.
//!
//! A draw depends only on the 64-bit state, so any stream replays
//! bit-identically from its seed and can be checkpointed as one `u64`.

/// The golden-ratio increment each step adds to the state.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances `state` one step and returns the mixed output.
#[inline]
pub fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step mapped to a uniform draw in `[0, 1)` with 53 random bits.
#[inline]
pub fn unit_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut s = 0;
        assert_eq!(next_u64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next_u64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s, GAMMA.wrapping_mul(2));
    }

    #[test]
    fn unit_draws_lie_in_the_half_open_interval() {
        let mut s = 42;
        for _ in 0..10_000 {
            let u = unit_f64(&mut s);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        let mut top = u64::MAX - GAMMA;
        assert!(unit_f64(&mut top) < 1.0);
    }
}
