//! A fixed, fast hasher for the simulator's integer-keyed maps.
//!
//! The standard library's default hasher (SipHash with per-process random
//! keys) defends against keys crafted to collide, which the simulator's
//! keys — frame numbers, pids, (CCID, region) pairs it generates itself —
//! never are, and costs several times more per lookup. [`FastMap`] and
//! [`FastSet`] swap in a multiply-rotate hash in the style of FxHash.
//! Its iteration order is fixed across runs, but no output may depend on
//! it: code that reports map contents sorts them first.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: each word is added and multiplied by an odd
/// constant; `finish` rotates the well-mixed high bits into the low bits
/// the table indexes with.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FastHasher`].
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
#[allow(clippy::disallowed_types)]
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn hash_is_fixed_across_builders() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Frame numbers of 2 MB-aligned runs share their low 9 bits, so
        // without the finishing rotate they would all hash to bucket 0.
        let buckets: FastSet<u64> = (0..64u64).map(|i| hash_of(i << 9) & 63).collect();
        assert!(buckets.len() >= 8, "{} of 64 buckets used", buckets.len());
    }
}
