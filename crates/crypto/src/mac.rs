//! 54-bit truncated MACs and canonical MAC-input serialization.
//!
//! The paper (after Morphable Counters) argues a 54-bit MAC is sufficient,
//! leaving 10 unused bits in the 64-bit MAC field of a node. STAR stores
//! the 10 LSBs of the parent node's corresponding counter there
//! (counter-MAC synergization). [`Mac54`] is the truncated tag;
//! combination with the 10 spare bits lives in `star-metadata`'s
//! `MacField`.

use crate::siphash::SipHash24;

/// Mask selecting the low 54 bits of a 64-bit word.
pub const MAC54_MASK: u64 = (1 << 54) - 1;

/// The key for node/data MAC generation.
///
/// In real hardware this key lives inside the processor; here it is a
/// SipHash key pair derived from a seed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MacKey {
    hasher: SipHash24,
}

impl core::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacKey").finish_non_exhaustive()
    }
}

impl MacKey {
    /// Derives a key deterministically from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            hasher: SipHash24::new(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                (!seed).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ 0x165667b19e3779f9,
            ),
        }
    }

    /// Hashes raw bytes under this key.
    #[inline]
    pub fn hash_bytes(&self, data: &[u8]) -> u64 {
        self.hasher.hash(data)
    }
}

/// A 54-bit message authentication code.
///
/// ```
/// use star_crypto::mac::Mac54;
/// let m = Mac54::from_u64(u64::MAX);
/// assert_eq!(m.as_u64(), (1 << 54) - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Mac54(u64);

impl Mac54 {
    /// Truncates `value` to 54 bits.
    pub fn from_u64(value: u64) -> Self {
        Self(value & MAC54_MASK)
    }

    /// The tag value (always `< 2^54`).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl core::fmt::LowerHex for Mac54 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A canonical, injective serializer for MAC inputs.
///
/// Every field is written with a domain-separating tag byte and (for byte
/// strings) an explicit length, so distinct field sequences can never
/// produce the same byte stream. The paper's MACs hash combinations of a
/// node address, the node's counters, one counter in the parent node and
/// (for STAR) the stored LSBs; this builder covers all of them.
///
/// ```
/// use star_crypto::mac::{MacInput, MacKey};
/// let key = MacKey::from_seed(1);
/// let a = MacInput::new().u64(1).u64(2).mac54(&key);
/// let b = MacInput::new().u64(2).u64(1).mac54(&key);
/// assert_ne!(a, b);
/// ```
#[derive(Clone)]
pub struct MacInput {
    len: usize,
    buf: [u8; MAC_INPUT_CAP],
}

/// Inline serialization capacity: MAC inputs are built on the engine's
/// per-write path, so the builder keeps its bytes on the stack instead
/// of heap-allocating, and its `#[inline]` methods build them in place
/// rather than moving the builder through calls. The largest real input
/// is a node MAC (~109 bytes); tests feed data fields up to 256 bytes
/// (tag + length + data = 265), and the capacity leaves headroom above
/// that.
const MAC_INPUT_CAP: usize = 320;

impl Default for MacInput {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for MacInput {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacInput").field("len", &self.len).finish()
    }
}

impl MacInput {
    /// Creates an empty input.
    #[inline]
    pub fn new() -> Self {
        Self {
            len: 0,
            buf: [0; MAC_INPUT_CAP],
        }
    }

    /// Appends raw bytes to the serialization.
    ///
    /// # Panics
    ///
    /// Panics if the input exceeds [`MAC_INPUT_CAP`] — every caller
    /// serializes a bounded field set, so overflow is a programming
    /// error, not a runtime condition.
    #[inline]
    fn push(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        assert!(
            end <= MAC_INPUT_CAP,
            "MAC input overflow: {end} bytes exceeds the {MAC_INPUT_CAP}-byte \
             inline capacity — raise MAC_INPUT_CAP"
        );
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// Appends a 64-bit field.
    #[inline]
    pub fn u64(mut self, value: u64) -> Self {
        self.push(&[0x01]);
        self.push(&value.to_le_bytes());
        self
    }

    /// Appends a byte-string field (length-prefixed).
    #[inline]
    pub fn bytes(mut self, data: &[u8]) -> Self {
        self.push(&[0x02]);
        self.push(&(data.len() as u64).to_le_bytes());
        self.push(data);
        self
    }

    /// Appends a slice of 64-bit fields (e.g. the eight counters of a node).
    #[inline]
    pub fn u64s(mut self, values: &[u64]) -> Self {
        self.push(&[0x03]);
        self.push(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.push(&v.to_le_bytes());
        }
        self
    }

    /// Finalizes into a full 64-bit hash.
    #[inline]
    pub fn hash64(&self, key: &MacKey) -> u64 {
        star_scope::span!("crypto/mac");
        key.hash_bytes(&self.buf[..self.len])
    }

    /// Finalizes into a 54-bit MAC.
    #[inline]
    pub fn mac54(&self, key: &MacKey) -> Mac54 {
        Mac54::from_u64(self.hash64(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_rng::SimRng;

    #[test]
    fn mac_is_54_bits() {
        let key = MacKey::from_seed(0);
        for i in 0..64u64 {
            let m = MacInput::new().u64(i).mac54(&key);
            assert!(m.as_u64() <= MAC54_MASK);
        }
    }

    #[test]
    fn domain_separation_bytes_vs_u64() {
        let key = MacKey::from_seed(5);
        let a = MacInput::new().u64(0x0102_0304_0506_0708).mac54(&key);
        let b = MacInput::new().bytes(&[8, 7, 6, 5, 4, 3, 2, 1]).mac54(&key);
        assert_ne!(a, b);
    }

    #[test]
    fn key_seed_changes_mac() {
        let input = MacInput::new().u64(7);
        assert_ne!(
            input.mac54(&MacKey::from_seed(1)),
            input.mac54(&MacKey::from_seed(2))
        );
    }

    #[test]
    fn concatenation_is_not_ambiguous() {
        let key = MacKey::from_seed(9);
        // [1,2] ++ [3] vs [1] ++ [2,3] must differ thanks to length prefixes.
        let a = MacInput::new().u64s(&[1, 2]).u64s(&[3]).mac54(&key);
        let b = MacInput::new().u64s(&[1]).u64s(&[2, 3]).mac54(&key);
        assert_ne!(a, b);
    }

    /// Any single-bit flip in a u64 field changes the MAC (with
    /// overwhelming probability; deterministic here for the sampled
    /// cases).
    #[test]
    fn bit_flip_changes_mac() {
        let mut rng = SimRng::seed_from_u64(0x6d61_632d_666c_6970);
        let key = MacKey::from_seed(3);
        for _ in 0..256 {
            let value = rng.gen_u64();
            let bit = rng.gen_range(0..64) as u32;
            let a = MacInput::new().u64(value).mac54(&key);
            let b = MacInput::new().u64(value ^ (1 << bit)).mac54(&key);
            assert_ne!(a, b, "flip of bit {bit} in {value:#x} kept the MAC");
        }
    }

    #[test]
    fn mac_always_fits() {
        let mut rng = SimRng::seed_from_u64(0x6d61_632d_6669_7473);
        let key = MacKey::from_seed(11);
        for _ in 0..256 {
            let len = rng.gen_index(256);
            let data: Vec<u8> = (0..len).map(|_| rng.gen_u8()).collect();
            assert!(MacInput::new().bytes(&data).mac54(&key).as_u64() <= MAC54_MASK);
        }
    }
}
