//! An FxHash-style hasher (the `rustc-hash` algorithm) written
//! in-crate, plus a convenience fingerprint helper.
//!
//! FxHash is not collision-resistant at 64 bits — full-key caches
//! store the key and rely on `Eq`, using the hash only for bucket
//! placement and shard selection, and [`fx_hash_one`] fingerprints are
//! for metrics and diagnostics, never for identity. For identity-grade
//! fingerprints use [`fx_fingerprint128`]: two independently seeded
//! 64-bit passes over the same value. At 128 bits the collision odds
//! for N distinct keys are ~N²/2¹²⁹ (< 10⁻²⁰ for a billion keys),
//! which callers may document as negligible and use as a cache key.

use std::hash::{BuildHasher, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The `rustc-hash` "Fx" hasher: multiply-and-rotate word mixing.
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Creates a hasher whose state starts at `seed` instead of 0, so
    /// two passes over the same value with different seeds produce
    /// independent 64-bit digests (see [`fx_fingerprint128`]).
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        FxHasher { hash: seed }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], usable as the `S` parameter of
/// `HashMap`/`HashSet`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Hashes a single value to a 64-bit fingerprint.
pub fn fx_hash_one<T: Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Second-pass seed for [`fx_fingerprint128`] (arbitrary odd constant,
/// distinct from the zero state of the first pass).
const SECOND_SEED: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// Hashes a single value to a 128-bit fingerprint: the low half is the
/// default-seed [`fx_hash_one`] digest, the high half a second pass
/// seeded with `SECOND_SEED`. Suitable as a cache-key identity where
/// the caller accepts the documented ~N²/2¹²⁹ collision odds.
pub fn fx_fingerprint128<T: Hash>(value: &T) -> u128 {
    let lo = fx_hash_one(value);
    let mut hasher = FxHasher::with_seed(SECOND_SEED);
    value.hash(&mut hasher);
    let hi = hasher.finish();
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Incremental version of [`fx_fingerprint128`] for fingerprinting a
/// sequence without materializing it: feed each part with
/// [`Fingerprinter::write`], then [`Fingerprinter::finish`].
///
/// Two fingerprinters fed the same sequence of parts produce the same
/// digest; the encoding is *not* the same as hashing an equivalent
/// container in one [`fx_fingerprint128`] call (slice hashing adds a
/// length prefix), so a given cache keyspace must pick one scheme and
/// stay with it. Callers that need slice-compatible digests can write
/// the length themselves first.
#[derive(Debug)]
pub struct Fingerprinter {
    lo: FxHasher,
    hi: FxHasher,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// Creates a fingerprinter with the same two seeds as
    /// [`fx_fingerprint128`].
    pub fn new() -> Self {
        Fingerprinter {
            lo: FxHasher::default(),
            hi: FxHasher::with_seed(SECOND_SEED),
        }
    }

    /// Feeds one value into both passes.
    pub fn write<T: Hash + ?Sized>(&mut self, value: &T) {
        value.hash(&mut self.lo);
        value.hash(&mut self.hi);
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi.finish()) << 64) | u128::from(self.lo.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashing_is_deterministic() {
        let a = fx_hash_one(&("rail", 7u32, vec![1u64, 2, 3]));
        let b = fx_hash_one(&("rail", 7u32, vec![1u64, 2, 3]));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_values_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fx_hash_one(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn fingerprint128_halves_are_independent() {
        let fp = fx_fingerprint128(&("rail", 7u32, vec![1u64, 2, 3]));
        assert_eq!(fp, fx_fingerprint128(&("rail", 7u32, vec![1u64, 2, 3])));
        assert_eq!(fp as u64, fx_hash_one(&("rail", 7u32, vec![1u64, 2, 3])));
        // The seeded pass must not degenerate into the default pass.
        assert_ne!(fp as u64, (fp >> 64) as u64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fx_fingerprint128(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn fingerprinter_matches_slice_fingerprint_with_length_prefix() {
        // Struct elements hash element-wise in a slice, so writing the
        // length followed by each element reproduces the one-shot
        // digest.
        #[derive(Hash)]
        struct Row {
            time: u64,
            rails: Vec<usize>,
        }
        let rows = vec![
            Row {
                time: 10,
                rails: vec![0, 2],
            },
            Row {
                time: 7,
                rails: vec![1],
            },
        ];
        let mut fp = Fingerprinter::new();
        fp.write(&rows.len());
        for row in &rows {
            fp.write(row);
        }
        assert_eq!(fp.finish(), fx_fingerprint128(&rows));

        // Order-sensitive and prefix-free enough for cache keys.
        let mut swapped = Fingerprinter::new();
        swapped.write(&rows.len());
        for row in rows.iter().rev() {
            swapped.write(row);
        }
        assert_ne!(swapped.finish(), fx_fingerprint128(&rows));
    }

    #[test]
    fn works_as_hashmap_build_hasher() {
        let mut map: HashMap<Vec<u32>, u32, FxBuildHasher> = HashMap::default();
        map.insert(vec![1, 2], 3);
        map.insert(vec![4], 5);
        assert_eq!(map.get(&vec![1, 2]), Some(&3));
        assert_eq!(map.len(), 2);
    }
}
