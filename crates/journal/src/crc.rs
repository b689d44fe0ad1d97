//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), slicing-by-8.
//!
//! Hand-rolled because the build environment vendors its dependencies; the
//! algorithm matches zlib's `crc32()` so journal files and wire frames
//! remain checkable with standard tools. Eight 256-entry tables, computed
//! at compile time, let the main loop fold eight input bytes per step
//! instead of one; the tail shorter than eight bytes takes the classic
//! bytewise step through the first table.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight lookups advance eight bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 of `data` (initial value `0xFFFF_FFFF`, final xor-out).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time CRC, with no table at all: the
    /// reference the sliced loop must agree with on every input.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // zlib.crc32(b"The quick brown fox jumps over the lazy dog")
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"journal record");
        let mut flipped = b"journal record".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn every_length_and_alignment_up_to_a_few_slices_matches_bytewise() {
        // Exhaustive over the lengths where the chunk/remainder split
        // changes, at every start offset inside an eight-byte word.
        let buf: Vec<u8> = (0..128u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn sliced_matches_bytewise_at_any_length_and_offset(
            len in 0usize..=4096,
            seed: u64,
        ) {
            let mut rng = seed;
            let buf: Vec<u8> = (0..len + 8)
                .map(|_| {
                    rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    (rng >> 56) as u8 ^ (rng >> 17) as u8
                })
                .collect();
            for start in 0..8 {
                let s = &buf[start..start + len];
                prop_assert_eq!(crc32(s), bytewise(s), "start {} len {}", start, len);
            }
        }
    }
}
