//! Deterministic, fast hashing for simulation-state maps.
//!
//! `std`'s default [`HashMap`] hasher state is
//! randomly seeded per process — good DoS armor for servers, wrong for
//! a deterministic simulator: it makes hash-table *layout* differ run
//! to run, which costs SipHash throughput on every datapath lookup and
//! turns any accidental iteration-order dependence into a heisenbug.
//! [`DetHashMap`] replaces the hasher with a fixed-seed multiply-rotate
//! hash (the FxHash construction): 2-3× faster on the small integer
//! keys that dominate simulation state (line addresses, page numbers),
//! and byte-identical table layout on every run.
//!
//! hashbrown takes a key's probe start from the *low* bits of its hash
//! and a 7-bit tag from the top bits. A bare multiply leaves the low
//! bits of `k · 2^n · SEED` zero, so 64 B-aligned line addresses would
//! start every probe on 1/64 of the buckets. [`Hasher::finish`] rotates
//! the well-mixed high bits down into the low ones, as rustc-hash 2
//! does.
//!
//! Determinism of layout is **not** license to iterate: iteration
//! order still depends on insertion history and capacity, so the
//! simlint `hash-iter` rule applies to these maps exactly as it does
//! to the std ones. Use these maps for point lookups; iterate sorted
//! structures.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the deterministic [`DetHasher`].
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// A `HashSet` with the deterministic [`DetHasher`].
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<DetHasher>>;

/// Odd multiplier derived from the golden ratio (`2^64 / φ`), the
/// standard Fibonacci-hashing constant: consecutive keys scatter
/// across the product's high bits, which is exactly the access pattern
/// of line-address and page-number keys. [`DetHasher::finish`] rotates
/// those bits down to where the table indexes.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-seed multiply-rotate hasher (FxHash construction).
///
/// Each input word is folded in as
/// `state = (rotl(state, 5) ^ word) * SEED`, and the hash is
/// `rotl(state, 26)` (see the module docs). Not DoS-resistant by
/// design — simulation keys are simulator-generated, not adversarial —
/// and in exchange a `u64` key hashes in a handful of cycles instead
/// of SipHash's per-byte rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(v: u64) -> u64 {
        let mut h = DetHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_of(0xdead_beef), hash_of(0xdead_beef));
        assert_ne!(hash_of(1), hash_of(2));
    }

    #[test]
    fn line_aligned_keys_spread_over_the_low_bits() {
        // hashbrown picks the probe start from the low bits, so 4,096
        // consecutive 64 B line addresses must not crowd into a few
        // starting buckets of a 4,096-bucket table. Without the final
        // rotation every one of these hashes is a multiple of 64.
        let mut starts: Vec<u64> = (0..4096u64)
            .map(|k| hash_of(0x10_0000 + k * 64) & 0xfff)
            .collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(
            starts.len() >= 2048,
            "only {} distinct low-12-bit probe starts",
            starts.len()
        );
    }

    #[test]
    fn byte_stream_matches_word_writes_for_aligned_input() {
        let mut h1 = DetHasher::default();
        h1.write(&42u64.to_le_bytes());
        let mut h2 = DetHasher::default();
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: DetHashMap<u64, u32> = DetHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&(i as u32)));
        }
        let mut s: DetHashSet<u64> = DetHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
