//! The workspace's one stable byte digest.

/// FNV-1a 64-bit hash. Deterministic across processes (unlike
/// `DefaultHasher`, which is randomly keyed per process), which keeps
/// digests comparable between a server and its clients or logs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental [`fnv1a64`]: bytes fed in any number of pieces digest to
/// the same value as their concatenation, without buffering them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty-input state (the FNV offset basis).
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a64::new();
        for piece in [&b"fo"[..], b"", b"o", b"bar"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }
}
