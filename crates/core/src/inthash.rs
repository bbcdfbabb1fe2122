//! An integer-key hasher for the protocol's per-node maps.
//!
//! The maps on the gossip hot path are keyed by small integers (node ids,
//! timer tags, `(requester, packet)` pairs). They serve point lookups, and
//! the only walks over them do not depend on order: a `retain`, and the
//! aggregator's selection by a total order on the samples. For those keys std's SipHash is a large share of the lookup cost, so they use
//! this multiply-rotate mixer instead (the Fx scheme): one rotate, xor and
//! multiply per integer written, and one rotate to finish.
//!
//! The hasher is unkeyed and therefore not HashDoS-resistant. That is fine
//! here: keys come from the simulation itself, not from an adversary. It
//! also does not change results: std's `RandomState` already gives a
//! different iteration order in every process, so no result may depend on
//! map order, and the fingerprint tests would catch one that did.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashing its integer keys with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashing its integer keys with [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Odd multiplier with well-spread bits (the 64-bit Fx constant).
const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher {
    hash: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// Rotates the multiply's best-mixed high bits down into the low bits
    /// the table indexes buckets with. Without it, sequential keys (timer
    /// tags) fill buckets in an even stride, and a 20 000-node run used
    /// 1–3 % more peak memory.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(value)
    }

    #[test]
    fn distinct_small_keys_hash_apart() {
        let mut seen = HashSet::new();
        for key in 0u64..10_000 {
            assert!(seen.insert(hash_of(key)), "collision at {key}");
        }
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IntHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: IntMap<u64, u64> = IntMap::default();
        let mut set: IntSet<(u32, u64)> = IntSet::default();
        for i in 0..1_000u64 {
            map.insert(i * 7, i);
            set.insert((i as u32 % 13, i));
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get(&70), Some(&10));
        assert!(set.contains(&(5, 5)));
        assert!(!set.contains(&(6, 5)));
        map.retain(|k, _| k % 2 == 0);
        assert_eq!(map.len(), 500);
    }
}
