//! The cache-tree: a Merkle tree over the metadata cache's set/way
//! structure (paper §III-E).
//!
//! A naive Merkle tree over the dirty metadata would reshuffle its leaves
//! whenever a line is inserted or deleted. The cache-tree instead gives
//! every cache **set** a fixed leaf: the *set-MAC*, a hash of the MACs of
//! the dirty lines in that set ordered by ascending address (zero bytes if
//! the set has no dirty line). A small 8-ary tree over the set-MACs (4
//! levels for the paper's 1024-set cache) yields the root kept in an
//! on-chip non-volatile register.
//!
//! At recovery the restored nodes are grouped into the same sets, ordered
//! the same way, and the root is recomputed: any tampering or replay of
//! recovery inputs yields a different root.

use star_crypto::sha256::Sha256;
use star_metadata::bmt::RootBuilder;

/// A cache-tree root (32 bytes, held in an on-chip register).
pub type CacheTreeRoot = [u8; 32];

/// The set-MAC of one cache set.
///
/// `entries` are `(flat metadata index, MAC-field bits)` of the dirty
/// lines in the set and **must be sorted by ascending index** — the
/// fixed ordering rule that makes pre- and post-crash construction agree.
/// An empty set yields all-zero bytes, per the paper.
///
/// # Panics
///
/// Panics (debug) if `entries` is not sorted by ascending index.
pub fn set_mac(entries: &[(u64, u64)]) -> [u8; 32] {
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "set-MAC entries must be strictly ascending by address"
    );
    if entries.is_empty() {
        return [0u8; 32];
    }
    let mut h = Sha256::new();
    h.update(b"set-mac");
    for (addr, mac_bits) in entries {
        h.update(&addr.to_le_bytes());
        h.update(&mac_bits.to_le_bytes());
    }
    h.finalize()
}

/// Builds the cache-tree root from one set-MAC per cache set.
///
/// # Panics
///
/// Panics if `set_macs` is empty.
pub fn cache_tree_root(set_macs: &[[u8; 32]]) -> CacheTreeRoot {
    assert!(!set_macs.is_empty(), "cache has at least one set");
    let mut root = RootBuilder::default();
    for m in set_macs {
        root.push_leaf(m);
    }
    root.finish()
}

/// Convenience: compute the root directly from an unsorted list of
/// `(flat index, MAC bits)` dirty entries and the set count.
///
/// Entries are grouped by `index % num_sets` (the cache's set mapping) and
/// sorted ascending within each set.
pub fn root_from_dirty(entries: &[(u64, u64)], num_sets: usize) -> CacheTreeRoot {
    let mut per_set: Vec<Vec<(u64, u64)>> = vec![Vec::new(); num_sets];
    for &(idx, mac) in entries {
        per_set[(idx % num_sets as u64) as usize].push((idx, mac));
    }
    let set_macs: Vec<[u8; 32]> = per_set
        .iter_mut()
        .map(|set| {
            set.sort_unstable_by_key(|e| e.0);
            set_mac(set)
        })
        .collect();
    cache_tree_root(&set_macs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_has_a_stable_root() {
        let a = root_from_dirty(&[], 16);
        let b = root_from_dirty(&[], 16);
        assert_eq!(a, b);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let e1 = [(3u64, 30u64), (19, 40), (35, 50)]; // all set 3 of 16
        let e2 = [(35u64, 50u64), (3, 30), (19, 40)];
        assert_eq!(root_from_dirty(&e1, 16), root_from_dirty(&e2, 16));
    }

    #[test]
    fn mac_change_changes_root() {
        let base = root_from_dirty(&[(3, 30), (19, 40)], 16);
        let tampered = root_from_dirty(&[(3, 31), (19, 40)], 16);
        assert_ne!(base, tampered);
    }

    #[test]
    fn membership_change_changes_root() {
        let base = root_from_dirty(&[(3, 30)], 16);
        let extra = root_from_dirty(&[(3, 30), (19, 40)], 16);
        let missing = root_from_dirty(&[], 16);
        assert_ne!(base, extra);
        assert_ne!(base, missing);
    }

    #[test]
    fn sets_are_position_sensitive() {
        // Same dirty payload in a different set must change the root.
        let a = root_from_dirty(&[(1, 99)], 16);
        let b = root_from_dirty(&[(2, 99)], 16);
        assert_ne!(a, b);
    }

    /// A fully-populated multi-way cache digests to the same root no
    /// matter how the (set, way) entries are discovered: shuffled
    /// insertion orders and repeated rebuilds all agree.
    #[test]
    fn set_way_digest_is_stable_across_rebuilds() {
        use star_rng::SimRng;

        const SETS: usize = 16;
        const WAYS: usize = 4;
        // Way w of set s holds flat index s + w*SETS (the cache's set
        // mapping is idx % SETS, so each set gets exactly WAYS entries).
        let mut entries: Vec<(u64, u64)> = (0..SETS * WAYS)
            .map(|i| {
                let (s, w) = (i % SETS, i / SETS);
                ((s + w * SETS) as u64, (0x1000 + i * 7) as u64)
            })
            .collect();

        let reference = root_from_dirty(&entries, SETS);
        let mut rng = SimRng::seed_from_u64(0x6361_6368_6574_7265);
        for _ in 0..8 {
            // Fisher-Yates shuffle; root must not care about order.
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.gen_index(i + 1));
            }
            assert_eq!(root_from_dirty(&entries, SETS), reference);
        }
        assert_eq!(root_from_dirty(&entries, SETS), reference);
    }

    /// Flipping a single bit of a single way's MAC — any way, any set —
    /// is detected: the recomputed root differs from the reference.
    #[test]
    fn single_flipped_way_changes_root() {
        const SETS: usize = 8;
        const WAYS: usize = 4;
        let entries: Vec<(u64, u64)> = (0..SETS * WAYS)
            .map(|i| {
                let (s, w) = (i % SETS, i / SETS);
                ((s + w * SETS) as u64, (0xbeef + i * 13) as u64)
            })
            .collect();
        let reference = root_from_dirty(&entries, SETS);

        for victim in 0..entries.len() {
            for bit in [0u32, 9, 31, 63] {
                let mut tampered = entries.clone();
                tampered[victim].1 ^= 1u64 << bit;
                assert_ne!(
                    root_from_dirty(&tampered, SETS),
                    reference,
                    "flip of bit {bit} in way entry {victim} went undetected"
                );
            }
        }
    }

    #[test]
    fn paper_geometry_is_4_levels() {
        use star_metadata::bmt::BonsaiMerkleTree;
        // 1024 sets, 8-ary: 1024 → 128 → 16 → 2 → 1 (4 hashing levels).
        let tree = BonsaiMerkleTree::new(1024);
        assert_eq!(tree.height(), 5, "leaf level + 4 interior levels");
    }

    #[test]
    fn empty_set_mac_is_zero() {
        assert_eq!(set_mac(&[]), [0u8; 32]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending")]
    fn unsorted_entries_rejected() {
        set_mac(&[(5, 0), (3, 0)]);
    }
}
