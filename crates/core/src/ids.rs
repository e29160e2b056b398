//! Domain identifiers, and the one hasher for maps keyed by them.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a crowd worker registered with the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

/// Identifier of a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// A task category (e.g. "traffic estimation", "image labelling").
///
/// The paper's weight function (Eq. 1) is the worker's accuracy *within
/// the task's category*; categories are opaque small integers here and
/// the embedding application owns their meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskCategory(pub u32);

/// A map keyed by ids this program mints (task, worker and group ids),
/// hashed by [`IdHasher`]. Only looked up, never iterated: hash order is
/// not an order the scheduler may depend on.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A fixed-key multiplicative hasher for integer ids: each word is
/// folded into the state by a full 64 × 64 → 128-bit multiply whose
/// halves are xored together, and `finish` folds once more, so every
/// output bit depends on every input bit and strided ids spread too.
///
/// Fixed, unlike `RandomState`: with entries coming and going, where a
/// table leaves tombstones and when it rehashes follow the hashes, so a
/// per-process key would make what a run allocates differ from replay to
/// replay. Not SipHash: the ids are minted by this program, not chosen by
/// its peers, so nothing crafts collisions and the hash may be cheap.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    /// An odd 64-bit constant with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    /// `x · K` as a 128-bit product, its halves folded together.
    #[inline]
    fn fold_mul(x: u64) -> u64 {
        let full = u128::from(x) * u128::from(Self::K);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = Self::fold_mul(self.0 ^ n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        Self::fold_mul(self.0)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker#{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

impl fmt::Display for TaskCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "category#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(WorkerId(1) < WorkerId(2));
        assert!(TaskId(5) > TaskId(3));
        let mut set = HashSet::new();
        set.insert(TaskCategory(0));
        set.insert(TaskCategory(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<IdHasher>::default();
        // The low 10 bits pick a bucket in a 1024-bucket table. 1024 ids
        // hashed at random fill ≈ 63 % of it, whatever their stride.
        for stride in [1u64, 8, 1024, 1 << 20] {
            let mut buckets: Vec<u64> = (0..1024u64)
                .map(|k| hasher.hash_one(TaskId(k * stride)) & 1023)
                .collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(buckets.len() > 512, "stride {stride}: {}", buckets.len());
        }
        // One fixed key: an id hashes to the same value in every process.
        assert_eq!(hasher.hash_one(TaskId(7)), 0xe026_52a2_d84e_375f);
    }

    #[test]
    fn display_forms() {
        assert_eq!(WorkerId(7).to_string(), "worker#7");
        assert_eq!(TaskId(9).to_string(), "task#9");
        assert_eq!(TaskCategory(2).to_string(), "category#2");
    }
}
