//! Stable FNV-1a hashing for content keys and checksums.
//!
//! The batch-optimization service memoizes analysis results by content
//! hash (normalized IR + scheme + config). Rust's default hashers are
//! either randomized per process (`RandomState`) or not guaranteed
//! stable across releases, so the cache key is built on a fixed FNV-1a
//! 64-bit hash: deterministic across runs, platforms and toolchains,
//! cheap to stream into, and good enough for a bounded in-memory cache
//! (collisions only cost a spurious hit on a table that also stores the
//! full key for verification).

use std::hash::Hasher;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher with a stable, documented output.
///
/// Implements [`std::hash::Hasher`] so `#[derive(Hash)]` types can be
/// folded in, but unlike `DefaultHasher` the result is a pure function
/// of the input bytes.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a string in, length-prefixed so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Fold a boolean in.
    pub fn write_bool(&mut self, b: bool) {
        self.write_u8(b as u8);
    }

    /// Fold an `f64` in by bit pattern (configs carry thresholds).
    pub fn write_f64(&mut self, f: f64) {
        self.write_u64(f.to_bits());
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// FNV-1a over raw bytes (no length prefix): one-shot [`Fnv64`] for
/// checksums and keys that hash a single byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") from the published reference constants.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn known_vectors() {
        // FNV-1a test vectors (bare byte stream, no length prefix).
        let mut h = Fnv64::new();
        std::hash::Hasher::write(&mut h, b"");
        assert_eq!(h.digest(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        std::hash::Hasher::write(&mut h, b"a");
        assert_eq!(h.digest(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn str_framing_disambiguates() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.digest(), b.digest());
    }
}
