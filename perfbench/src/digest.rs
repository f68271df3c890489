//! A stable 64-bit digest (FNV-1a) of simulation outputs, printed per
//! workload so two sets of runs can be compared exactly.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over everything fed to it, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds an integer (little-endian bytes).
    pub fn u64(self, x: u64) -> Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::default().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn is_stable_and_order_sensitive() {
        let a = Digest::default()
            .u64(49_003)
            .f64(1.829)
            .bytes(b"power-neutral");
        let b = Digest::default()
            .u64(49_003)
            .f64(1.829)
            .bytes(b"power-neutral");
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 16);
        let swapped = Digest::default()
            .f64(1.829)
            .u64(49_003)
            .bytes(b"power-neutral");
        assert_ne!(a, swapped);
        // One flipped float bit changes the digest.
        let nudged = Digest::default()
            .u64(49_003)
            .f64(f64::from_bits(1.829f64.to_bits() ^ 1));
        assert_ne!(Digest::default().u64(49_003).f64(1.829), nudged);
    }
}
