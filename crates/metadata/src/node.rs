//! The 64-byte security-metadata node and its MAC field.

use star_crypto::mac::Mac54;
use star_nvm::Line;

/// Nodes hold 56-bit counters (paper §II-C).
pub const COUNTER_MASK: u64 = (1 << 56) - 1;

/// Arity of the SGX integrity tree: 8 counters per node, 8 children.
pub const TREE_ARITY: usize = 8;

/// Number of spare bits in the 64-bit MAC field (64 − 54).
pub const LSB_BITS: u32 = 10;

/// Mask of the 10 spare LSB bits.
pub const LSB_MASK: u64 = (1 << LSB_BITS) - 1;

/// The 64-bit MAC field of a node or data line.
///
/// Layout: bits `[63:10]` hold the 54-bit MAC, bits `[9:0]` hold the 10
/// LSBs of the corresponding counter in the parent node — STAR's
/// counter-MAC synergization (paper §III-B). Baseline schemes leave the
/// LSB bits zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacField {
    bits: u64,
}

impl MacField {
    /// Composes a field from a MAC and the 10 stored LSBs.
    ///
    /// # Panics
    ///
    /// Panics if `lsb10` does not fit in 10 bits.
    pub fn new(mac: Mac54, lsb10: u16) -> Self {
        assert!(u64::from(lsb10) <= LSB_MASK, "LSBs must fit in 10 bits");
        Self {
            bits: (mac.as_u64() << LSB_BITS) | u64::from(lsb10),
        }
    }

    /// The low `bits` bits of `counter`, as a MAC field carries them
    /// (none when `bits` is 0).
    pub fn low_bits(counter: u64, bits: u32) -> u16 {
        (counter & ((1 << bits) - 1)) as u16
    }

    /// Reinterprets a raw 64-bit word (e.g. read from NVM).
    pub fn from_bits(bits: u64) -> Self {
        Self { bits }
    }

    /// The raw 64-bit word.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The 54-bit MAC.
    pub fn mac(self) -> Mac54 {
        Mac54::from_u64(self.bits >> LSB_BITS)
    }

    /// The 10 stored parent-counter LSBs.
    pub fn lsb10(self) -> u16 {
        (self.bits & LSB_MASK) as u16
    }
}

/// A 64-byte security-metadata node: a counter block or an SIT node
/// (identical layout, paper §II-C).
///
/// Eight 56-bit counters plus one [`MacField`]; packs to exactly one
/// [`Line`].
///
/// ```
/// use star_metadata::Node64;
/// let mut n = Node64::zeroed();
/// n.increment_counter(3);
/// assert_eq!(n.counter(3), 1);
/// let line = n.to_line();
/// assert_eq!(Node64::from_line(&line), n);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Node64 {
    counters: [u64; TREE_ARITY],
    mac_field: MacField,
}

impl Node64 {
    /// A node of all-zero counters and MAC field (initial NVM state).
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// The counter in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn counter(&self, slot: usize) -> u64 {
        self.counters[slot]
    }

    /// All eight counters.
    pub fn counters(&self) -> &[u64; TREE_ARITY] {
        &self.counters
    }

    /// Overwrites the counter in `slot` (masked to 56 bits).
    pub fn set_counter(&mut self, slot: usize, value: u64) {
        self.counters[slot] = value & COUNTER_MASK;
    }

    /// Increments the counter in `slot` (wrapping at 56 bits, which the
    /// paper argues never happens within a device lifetime) and returns
    /// the new value.
    pub fn increment_counter(&mut self, slot: usize) -> u64 {
        self.counters[slot] = (self.counters[slot] + 1) & COUNTER_MASK;
        self.counters[slot]
    }

    /// The MAC field.
    pub fn mac_field(&self) -> MacField {
        self.mac_field
    }

    /// Replaces the MAC field.
    pub fn set_mac_field(&mut self, field: MacField) {
        self.mac_field = field;
    }

    /// Serializes to a 64-byte line: eight 7-byte little-endian counters
    /// followed by the 8-byte MAC field.
    pub fn to_line(&self) -> Line {
        let mut bytes = [0u8; 64];
        for (i, &c) in self.counters.iter().enumerate() {
            bytes[7 * i..7 * i + 7].copy_from_slice(&c.to_le_bytes()[..7]);
        }
        bytes[56..].copy_from_slice(&self.mac_field.bits.to_le_bytes());
        Line::from(bytes)
    }

    /// Deserializes from a 64-byte line.
    pub fn from_line(line: &Line) -> Self {
        let bytes = line.as_bytes();
        let mut counters = [0u64; TREE_ARITY];
        for (i, c) in counters.iter_mut().enumerate() {
            let mut buf = [0u8; 8];
            buf[..7].copy_from_slice(&bytes[7 * i..7 * i + 7]);
            *c = u64::from_le_bytes(buf);
        }
        let mac_field =
            MacField::from_bits(u64::from_le_bytes(bytes[56..].try_into().expect("8 bytes")));
        Self {
            counters,
            mac_field,
        }
    }
}

impl From<Node64> for Line {
    fn from(node: Node64) -> Line {
        node.to_line()
    }
}

impl From<&Line> for Node64 {
    fn from(line: &Line) -> Node64 {
        Node64::from_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_rng::SimRng;

    #[test]
    fn mac_field_layout() {
        let mac = Mac54::from_u64((1 << 54) - 1); // all 54 bits set
        let f = MacField::new(mac, 0x3ff);
        assert_eq!(f.bits(), u64::MAX);
        assert_eq!(f.mac(), mac);
        assert_eq!(f.lsb10(), 0x3ff);
    }

    #[test]
    #[should_panic(expected = "10 bits")]
    fn oversized_lsb_rejected() {
        MacField::new(Mac54::from_u64(0), 1 << 10);
    }

    #[test]
    fn counter_masked_to_56_bits() {
        let mut n = Node64::zeroed();
        n.set_counter(0, u64::MAX);
        assert_eq!(n.counter(0), COUNTER_MASK);
        n.set_counter(1, COUNTER_MASK);
        assert_eq!(n.increment_counter(1), 0, "56-bit wrap");
    }

    #[test]
    fn pack_layout_is_exactly_64_bytes() {
        let mut n = Node64::zeroed();
        n.set_counter(7, 0xa1_b2c3_d4e5_f607);
        let line = n.to_line();
        // Counter 7 occupies bytes 49..56 little-endian.
        assert_eq!(line.as_bytes()[49], 0x07);
        assert_eq!(line.as_bytes()[55], 0xa1);
    }

    #[test]
    fn roundtrip() {
        let mut rng = SimRng::seed_from_u64(0x6e6f_6465_2d72_7472);
        for _ in 0..256 {
            let mut n = Node64::zeroed();
            for i in 0..8 {
                n.set_counter(i, rng.gen_range_inclusive(0..=COUNTER_MASK));
            }
            n.set_mac_field(MacField::from_bits(rng.gen_u64()));
            let back = Node64::from_line(&n.to_line());
            assert_eq!(back, n);
        }
    }

    #[test]
    fn mac_and_lsb_do_not_interfere() {
        let mut rng = SimRng::seed_from_u64(0x6e6f_6465_2d6c_7362);
        for _ in 0..512 {
            let mac = rng.gen_range(0..(1 << 54));
            let lsb = rng.gen_range(0..(1 << 10)) as u16;
            let f = MacField::new(Mac54::from_u64(mac), lsb);
            assert_eq!(f.mac().as_u64(), mac);
            assert_eq!(f.lsb10(), lsb);
        }
    }
}
