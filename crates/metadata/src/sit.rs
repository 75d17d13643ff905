//! The SGX-integrity-tree MAC binding.
//!
//! Per the paper (Fig. 3 and §III-B), the MAC of an SIT node hashes:
//! the node's address, all eight counters in the node, the corresponding
//! counter in the parent node, and — under STAR — the 10 parent-counter
//! LSBs stored in the node's MAC field (so the stored LSBs are themselves
//! integrity-protected). A user-data line's MAC hashes the data content,
//! its address, the corresponding counter in its counter block, and the
//! stored LSBs.
//!
//! Because the parent counter is an *input* to the child's MAC, the tree
//! cannot be reconstructed from its leaves — the property that defeats
//! Triad-NVM-style recovery and motivates STAR.

use crate::node::{MacField, Node64};
use star_crypto::mac::{Mac54, MacInput, MacKey};

/// The keyed MAC functions of the SIT, bound to one processor key.
#[derive(Debug, Clone, Copy)]
pub struct SitMac {
    key: MacKey,
}

impl SitMac {
    /// Creates the MAC engine from a processor key.
    pub fn new(key: MacKey) -> Self {
        Self { key }
    }

    /// Derives the engine from a 64-bit seed (simulation convenience).
    pub fn from_seed(seed: u64) -> Self {
        Self::new(MacKey::from_seed(seed))
    }

    /// MAC of a metadata node (counter block or SIT node).
    ///
    /// `line_addr` is the node's NVM line index, `parent_counter` the
    /// corresponding counter in its parent (or in the on-chip root for
    /// top-level nodes), and `lsb10` the parent-counter LSBs stored in the
    /// node's MAC field (zero for non-STAR schemes).
    pub fn node_mac(
        &self,
        line_addr: u64,
        counters: &[u64; 8],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        MacInput::new()
            .u64(0x4e4f4445) // domain tag "NODE"
            .u64(line_addr)
            .u64s(counters)
            .u64(parent_counter)
            .u64(u64::from(lsb10))
            .mac54(&self.key)
    }

    /// Seals a metadata node: the MAC field binding `counters` to the
    /// node's line and to `parent_counter`, the counter covering it, and
    /// carrying that counter's low `lsb_bits` bits — STAR's counter-MAC
    /// synergization (§III-B); the other schemes carry none (0).
    pub fn seal(
        &self,
        line_addr: u64,
        counters: &[u64; 8],
        parent_counter: u64,
        lsb_bits: u32,
    ) -> MacField {
        let lsb = MacField::low_bits(parent_counter, lsb_bits);
        MacField::new(self.node_mac(line_addr, counters, parent_counter, lsb), lsb)
    }

    /// Verifies a node's stored MAC against a recomputation.
    pub fn verify_node(&self, line_addr: u64, node: &Node64, parent_counter: u64) -> bool {
        let field = node.mac_field();
        self.node_mac(line_addr, node.counters(), parent_counter, field.lsb10()) == field.mac()
    }

    /// MAC of a user-data line.
    ///
    /// Hashes the (encrypted) payload, the line address, the counter in
    /// the counter block, and the stored LSBs.
    pub fn data_mac(
        &self,
        line_addr: u64,
        payload: &[u8; 56],
        parent_counter: u64,
        lsb10: u16,
    ) -> Mac54 {
        MacInput::new()
            .u64(0x44415441) // domain tag "DATA"
            .u64(line_addr)
            .bytes(payload)
            .u64(parent_counter)
            .u64(u64::from(lsb10))
            .mac54(&self.key)
    }

    /// Verifies a data line's stored MAC.
    pub fn verify_data(
        &self,
        line_addr: u64,
        payload: &[u8; 56],
        parent_counter: u64,
        stored: MacField,
    ) -> bool {
        self.data_mac(line_addr, payload, parent_counter, stored.lsb10()) == stored.mac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SitMac {
        SitMac::from_seed(42)
    }

    #[test]
    fn verify_accepts_correct_node() {
        let e = engine();
        let mut node = Node64::zeroed();
        node.set_counter(2, 17);
        let mac = e.node_mac(1000, node.counters(), 5, 3);
        node.set_mac_field(MacField::new(mac, 3));
        assert!(e.verify_node(1000, &node, 5));
    }

    #[test]
    fn tampered_counter_is_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac(1000, node.counters(), 5, 0);
        node.set_mac_field(MacField::new(mac, 0));
        node.set_counter(0, 1); // tamper
        assert!(!e.verify_node(1000, &node, 5));
    }

    #[test]
    fn wrong_parent_counter_is_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac(1000, node.counters(), 5, 0);
        node.set_mac_field(MacField::new(mac, 0));
        assert!(!e.verify_node(1000, &node, 6), "replayed parent counter");
    }

    #[test]
    fn tampered_lsbs_are_detected() {
        let e = engine();
        let mut node = Node64::zeroed();
        let mac = e.node_mac(1000, node.counters(), 5, 7);
        node.set_mac_field(MacField::new(mac, 8)); // LSBs flipped after MAC
        assert!(!e.verify_node(1000, &node, 5));
    }

    #[test]
    fn address_binds_the_mac() {
        let e = engine();
        let node = Node64::zeroed();
        assert_ne!(
            e.node_mac(1000, node.counters(), 0, 0),
            e.node_mac(1001, node.counters(), 0, 0),
            "splicing a node to another address must change its MAC"
        );
    }

    #[test]
    fn seal_carries_the_covering_counters_low_bits_only_when_asked() {
        let e = engine();
        let counters = [1, 2, 3, 4, 5, 6, 7, 8];
        let covering = 0x1_2345;
        // STAR's ten LSBs, then none.
        for (bits, lsb) in [(10, 0x345), (0, 0)] {
            let sealed = e.seal(1000, &counters, covering, bits);
            let mac = e.node_mac(1000, &counters, covering, lsb);
            assert_eq!(sealed, MacField::new(mac, lsb), "{bits} bits");
        }
        let mut node = Node64::zeroed();
        for (slot, &c) in counters.iter().enumerate() {
            node.set_counter(slot, c);
        }
        node.set_mac_field(e.seal(1000, &counters, covering, 10));
        assert!(e.verify_node(1000, &node, covering));
        assert!(!e.verify_node(1000, &node, covering + 1));
    }

    #[test]
    fn data_mac_roundtrip_and_tamper() {
        let e = engine();
        let payload = [9u8; 56];
        let mac = e.data_mac(7, &payload, 4, 2);
        let field = MacField::new(mac, 2);
        assert!(e.verify_data(7, &payload, 4, field));
        let mut bad = payload;
        bad[55] ^= 1;
        assert!(!e.verify_data(7, &bad, 4, field));
        assert!(!e.verify_data(7, &payload, 5, field));
    }

    #[test]
    fn node_and_data_domains_are_separated() {
        let e = engine();
        let node = Node64::zeroed();
        let payload = [0u8; 56];
        assert_ne!(
            e.node_mac(0, node.counters(), 0, 0),
            e.data_mac(0, &payload, 0, 0),
            "a zero node must not collide with zero data"
        );
    }
}
