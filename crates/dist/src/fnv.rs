//! FNV-1a, the workspace's one stable, dependency-free 64-bit hash: run
//! digests, cluster fingerprints and the simulator's evaluation-cache keys
//! all fold bytes through it, so a value hashed in one crate means the same
//! thing in every other.

use std::hash::{BuildHasherDefault, Hasher};

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bytes of `text`.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// An incremental FNV-1a [`Hasher`]. Integers written through the
/// `write_*` defaults hash in native byte order; callers that need a
/// platform-independent value fold `to_le_bytes()` through [`Hasher::write`].
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        Self(OFFSET_BASIS)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

/// A zero-sized [`std::hash::BuildHasher`] for `HashMap`s keyed by
/// program-generated values, where SipHash's flooding resistance buys
/// nothing and its per-call overhead is measurable.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut h = FnvHasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a("foobar"));
    }
}
