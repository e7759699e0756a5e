//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over block payloads.
//!
//! Implemented in-crate because the offline environment has no `crc`
//! dependency. It is slice-by-8: eight 256-entry tables, built at
//! compile time, fold eight payload bytes per step with eight
//! independent lookups instead of a chain of eight dependent ones.
//! Table `k` holds the CRC of a byte followed by `k` zero bytes.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (init 0xFFFFFFFF, final XOR 0xFFFFFFFF — the
/// standard zlib/IEEE convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the slice-by-8 loop replaced, kept as the
    /// reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let bytes: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every length 0..=64 and a full block, at each of the eight
        // start offsets, so every remainder length meets every alignment.
        for offset in 0..8 {
            for len in (0..=64).chain([4096]) {
                let payload = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(payload),
                    crc32_bytewise(payload),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"block payload bytes".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
