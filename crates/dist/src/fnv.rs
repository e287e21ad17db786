//! FNV-1a, the workspace's one stable, dependency-free 64-bit hash: run
//! digests, cluster fingerprints and the simulator's evaluation-cache keys
//! all go through it, so a value hashed in one crate means the same thing
//! in every other.
//!
//! Byte writes ([`Hasher::write`], and so [`fnv1a`]) are textbook FNV-1a,
//! one xor-multiply per byte: digests and fingerprints fold their fields as
//! little-endian bytes and are stable across platforms and releases.
//! Integer writes (`write_u8` … `write_usize`, and the signed ones that
//! forward to them) fold the whole value as one word per multiply instead.
//! That is what the derived `Hash` of a cache key emits, so a ~48-byte key
//! costs six multiplies rather than forty-eight; such hashes only place
//! keys in in-memory maps and are never persisted.

use std::hash::{BuildHasherDefault, Hasher};

use crate::convert::widen_u64;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bytes of `text`.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// An incremental FNV-1a [`Hasher`]. Byte slices fold one byte per
/// multiply; each integer write folds its value as one 64-bit word per
/// multiply (see the module docs). Callers that need a stable,
/// platform-independent value fold `to_le_bytes()` through
/// [`Hasher::write`].
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
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(PRIME);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(widen_u64(v));
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
    fn integer_writes_fold_one_word_each() {
        let mut h = FnvHasher::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), (OFFSET_BASIS ^ 0x0102_0304_0506_0708).wrapping_mul(PRIME));
        // Narrow and signed writes widen to the same word.
        let word = |f: &dyn Fn(&mut FnvHasher)| {
            let mut h = FnvHasher::default();
            f(&mut h);
            h.finish()
        };
        let seven = word(&|h| h.write_u64(7));
        assert_eq!(word(&|h| h.write_u8(7)), seven);
        assert_eq!(word(&|h| h.write_u32(7)), seven);
        assert_eq!(word(&|h| h.write_usize(7)), seven);
        assert_eq!(word(&|h| h.write_i64(7)), seven);
        // A byte write still folds byte by byte.
        assert_ne!(word(&|h| h.write(&7u64.to_le_bytes())), seven);
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut h = FnvHasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a("foobar"));
    }
}
