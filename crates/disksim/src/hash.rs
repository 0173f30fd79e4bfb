//! A small multiplicative hasher for the process-private, integer-keyed
//! indexes on the per-call paths: the sector store's chunk map (chunk
//! index → chunk, hashed on every disk request), the cache hit paths
//! (block number → slot, `(ino, lbn)` → block, dcache key hash → slots)
//! and `cffs-core`'s namespace hints (`NsState::parent_of`, child →
//! directory, noted on every lookup, and `NsState::last_read`, inode →
//! last block read, on every read). `cffs_fslib` re-exports this module
//! as `cffs_fslib::hash`.
//!
//! `std`'s default SipHash defends a map against keys an adversary
//! chooses; these keys are chunk, block and inode numbers the program
//! computed or handed out itself, so that defence buys nothing and costs
//! most of a lookup. Keep the default hasher for keys that come from outside
//! the program (path strings, names).
//!
//! No caller may depend on iteration order: it differs from SipHash's
//! and is unspecified either way.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / golden ratio, odd: consecutive keys land far apart.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher over integer words (the "Fx" construction).
#[derive(Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    /// The table takes its bucket from the low bits, and a product's low
    /// bits depend only on the key's low bits (keys that share them — the
    /// dcache's per-shard hashes, block numbers of group starts — would
    /// pile up), so hand it the well-mixed high bits instead.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `HashMap` keyed by program-generated integers, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of<T: std::hash::Hash>(x: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(x)
    }

    #[test]
    fn map_round_trips_integer_and_tuple_keys() {
        let mut m: IntMap<(u64, u64), u64> = IntMap::default();
        for ino in 0..50u64 {
            for lbn in 0..20u64 {
                m.insert((ino << 12, lbn), ino * 100 + lbn);
            }
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(7 << 12, 3)), Some(&703));
        assert_eq!(m.remove(&(7 << 12, 3)), Some(703));
        assert_eq!(m.get(&(7 << 12, 3)), None);
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_low_hash_bits() {
        // Multiples of 16 (one dcache shard's keys, group-start block
        // numbers): the low 7 bits of the hashes must not collapse.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..1024u64 {
            buckets.insert(hash_of(i * 16) & 127);
        }
        assert_eq!(buckets.len(), 128, "all 128 low-bit buckets are used");
    }

    #[test]
    fn tuple_order_matters() {
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
    }
}
