//! CRC32 (IEEE 802.3, reflected) — the one checksum of the repository.
//!
//! It seals every wire frame (`max_gc::channel::seal_frame`) and guards every
//! journal record (`max_serve::journal`), so a warm job pushes ~200 KB
//! through it. The loop is slice-by-16: sixteen compile-time tables let one
//! iteration fold sixteen input bytes with independent lookups instead of
//! sixteen dependent ones. Portable, no `unsafe`, no dispatch.
//!
//! CRC32 catches accidental corruption only; it is not a MAC.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes;
/// `TABLES[0]` is the classic one-lookup-per-byte table.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`: `crc32(b"123456789") == 0xCBF4_3926`,
/// `crc32(b"") == 0`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        // The running CRC folds into the first four bytes; byte `j` of the
        // chunk is then followed by `15 - j` more bytes, hence its table.
        let mut folded = [0u8; 16];
        folded.copy_from_slice(c);
        for (byte, head) in folded.iter_mut().zip(crc.to_le_bytes()) {
            *byte ^= head;
        }
        crc = 0;
        for (j, &byte) in folded.iter().enumerate() {
            crc ^= TABLES[15 - j][usize::from(byte)];
        }
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from(byte ^ crc as u8)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-lookup-per-byte loop the sliced implementation replaced, kept
    /// as the differential oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][usize::from(b ^ crc as u8)];
        }
        !crc
    }

    fn pattern(len: usize, salt: u32) -> Vec<u8> {
        let mut state = 0x9E37_79B9u32 ^ salt;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn pinned_check_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_short_length_at_every_offset_matches_the_bytewise_oracle() {
        let data = pattern(64 + 16, 1);
        for offset in 0..16 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn random_buffers_match_the_bytewise_oracle(
            len in 0usize..=65_536,
            offset in 0usize..16,
            salt in any::<u32>(),
        ) {
            let data = pattern(len + offset, salt);
            let slice = &data[offset..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
