//! SGX integrity-tree geometry and metadata address mapping.
//!
//! The physical address space of the model is laid out as:
//!
//! ```text
//! line 0 .. data_lines               user data (with co-located MACs)
//! meta_base .. +meta_lines           SIT levels 0..top (level 0 first)
//! ra_base ..                         recovery area (bitmap lines), owned
//!                                    by star-core
//! ```
//!
//! Level 0 holds the counter blocks (one per 8 data lines); each higher
//! level has 1/8 the nodes, until a level of at most 8 nodes whose parent
//! is the on-chip root register. For the paper's 16 GB memory this gives
//! 9 in-NVM levels (L0 = 2^25 counter blocks … L8 = 2 nodes) and ≈2.3 GB
//! of metadata, matching Table I.

use crate::node::TREE_ARITY;
use star_nvm::LineAddr;

/// Identifies one security-metadata node: `level` 0 is the counter-block
/// level; higher levels are closer to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Tree level (0 = counter blocks).
    pub level: u8,
    /// Index within the level.
    pub index: u64,
}

impl NodeId {
    /// Convenience constructor.
    pub fn new(level: u8, index: u64) -> Self {
        Self { level, index }
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{}#{}", self.level, self.index)
    }
}

/// A child of a metadata node: either another node, or (for counter
/// blocks) a user-data line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeChild {
    /// A lower-level metadata node.
    Node(NodeId),
    /// A user-data line index.
    DataLine(u64),
}

/// The tree and address-space geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitGeometry {
    data_lines: u64,
    level_counts: Vec<u64>,
    level_offsets: Vec<u64>,
    meta_base: u64,
}

impl SitGeometry {
    /// Builds the geometry for a memory of `data_lines` user-data lines.
    ///
    /// # Panics
    ///
    /// Panics if `data_lines` is zero.
    pub fn new(data_lines: u64) -> Self {
        assert!(data_lines > 0, "memory must have at least one data line");
        let mut level_counts = Vec::new();
        let mut count = data_lines.div_ceil(TREE_ARITY as u64);
        loop {
            level_counts.push(count);
            if count <= TREE_ARITY as u64 {
                break;
            }
            count = count.div_ceil(TREE_ARITY as u64);
        }
        let mut level_offsets = Vec::with_capacity(level_counts.len());
        let mut acc = 0;
        for &c in &level_counts {
            level_offsets.push(acc);
            acc += c;
        }
        Self {
            data_lines,
            level_counts,
            level_offsets,
            meta_base: data_lines,
        }
    }

    /// Geometry of the paper's 16 GB memory.
    pub fn paper_16gb() -> Self {
        Self::new((16u64 << 30) / 64)
    }

    /// Number of user-data lines.
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of in-NVM tree levels (counter blocks included).
    pub fn levels(&self) -> usize {
        self.level_counts.len()
    }

    /// The highest in-NVM level (its nodes' parent is the on-chip root).
    pub fn top_level(&self) -> u8 {
        (self.level_counts.len() - 1) as u8
    }

    /// Number of nodes in `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_count(&self, level: u8) -> u64 {
        self.level_counts[level as usize]
    }

    /// Total metadata lines across all levels.
    pub fn total_meta_lines(&self) -> u64 {
        self.level_counts.iter().sum()
    }

    /// First line index of the metadata region.
    pub fn meta_base(&self) -> u64 {
        self.meta_base
    }

    /// First line index past the metadata region (start of the RA).
    pub fn meta_end(&self) -> u64 {
        self.meta_base + self.total_meta_lines()
    }

    /// Flat metadata index (0-based within the metadata region) of `node`.
    pub fn flat_index(&self, node: NodeId) -> u64 {
        debug_assert!(node.index < self.level_count(node.level));
        self.level_offsets[node.level as usize] + node.index
    }

    /// The NVM line address of `node`.
    pub fn line_of(&self, node: NodeId) -> LineAddr {
        LineAddr::new(self.meta_base + self.flat_index(node))
    }

    /// The node stored at NVM line `addr`, if `addr` is in the metadata
    /// region.
    pub fn node_at(&self, addr: LineAddr) -> Option<NodeId> {
        let idx = addr.index().checked_sub(self.meta_base)?;
        self.node_at_flat(idx)
    }

    /// The node with flat metadata index `idx`.
    pub fn node_at_flat(&self, idx: u64) -> Option<NodeId> {
        if idx >= self.total_meta_lines() {
            return None;
        }
        // Levels are few (≤ 12 even for petabyte memories): linear scan.
        for (level, (&off, &cnt)) in self
            .level_offsets
            .iter()
            .zip(&self.level_counts)
            .enumerate()
        {
            if idx < off + cnt {
                return Some(NodeId::new(level as u8, idx - off));
            }
        }
        None
    }

    /// The parent of `node`, or `None` if the parent is the on-chip root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if node.level >= self.top_level() {
            None
        } else {
            Some(NodeId::new(node.level + 1, node.index / TREE_ARITY as u64))
        }
    }

    /// The slot of `node` within its parent (0..8). Top-level nodes use
    /// their index as the slot in the on-chip root.
    pub fn parent_slot(&self, node: NodeId) -> usize {
        (node.index % TREE_ARITY as u64) as usize
    }

    /// The counter block protecting data line `data_line`, and the slot of
    /// that line's counter within it.
    ///
    /// # Panics
    ///
    /// Panics if `data_line` is out of range.
    pub fn parent_of_data(&self, data_line: u64) -> (NodeId, usize) {
        assert!(data_line < self.data_lines, "data line out of range");
        (
            NodeId::new(0, data_line / TREE_ARITY as u64),
            (data_line % TREE_ARITY as u64) as usize,
        )
    }

    /// The `slot`-th child of `node` (a node one level down, or a data
    /// line for counter blocks). Returns `None` for children past the end
    /// of a ragged last node.
    pub fn child(&self, node: NodeId, slot: usize) -> Option<NodeChild> {
        debug_assert!(slot < TREE_ARITY);
        let idx = node.index * TREE_ARITY as u64 + slot as u64;
        if node.level == 0 {
            (idx < self.data_lines).then_some(NodeChild::DataLine(idx))
        } else {
            (idx < self.level_count(node.level - 1))
                .then(|| NodeChild::Node(NodeId::new(node.level - 1, idx)))
        }
    }

    /// Iterates over the ancestors of `node`, closest first, ending at the
    /// top in-NVM level.
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut current = Some(node);
        core::iter::from_fn(move || {
            let parent = self.parent(current?);
            current = parent;
            parent
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_table1() {
        let g = SitGeometry::paper_16gb();
        assert_eq!(g.data_lines(), 1 << 28);
        assert_eq!(g.level_count(0), 1 << 25, "2^25 counter blocks");
        assert_eq!(g.levels(), 9, "paper: 9-level SIT");
        assert_eq!(g.level_count(8), 2);
        // ≈ 2.3 GB of metadata ("about 2GB" in the paper).
        let meta_bytes = g.total_meta_lines() * 64;
        assert!(meta_bytes > 2 * (1 << 30) && meta_bytes < 3 * (1 << 30));
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = SitGeometry::new(1 << 12);
        for level in 0..=g.top_level() {
            for index in [0, 1, g.level_count(level) - 1] {
                let node = NodeId::new(level, index);
                let line = g.line_of(node);
                assert_eq!(g.node_at(line), Some(node));
            }
        }
    }

    #[test]
    fn node_at_rejects_out_of_range() {
        let g = SitGeometry::new(1 << 12);
        assert_eq!(
            g.node_at(LineAddr::new(0)),
            None,
            "data line is not metadata"
        );
        assert_eq!(g.node_at(LineAddr::new(g.meta_end())), None);
    }

    #[test]
    fn parent_child_are_inverse() {
        let g = SitGeometry::new(1 << 12);
        let node = NodeId::new(1, 5);
        for slot in 0..TREE_ARITY {
            match g.child(node, slot) {
                Some(NodeChild::Node(c)) => {
                    assert_eq!(g.parent(c), Some(node));
                    assert_eq!(g.parent_slot(c), slot);
                }
                other => panic!("expected node child, got {other:?}"),
            }
        }
    }

    #[test]
    fn counter_block_children_are_data_lines() {
        let g = SitGeometry::new(1 << 12);
        let (cb, slot) = g.parent_of_data(19);
        assert_eq!(cb, NodeId::new(0, 2));
        assert_eq!(slot, 3);
        assert_eq!(g.child(cb, slot), Some(NodeChild::DataLine(19)));
    }

    #[test]
    fn top_level_has_no_parent() {
        let g = SitGeometry::new(1 << 12);
        let top = NodeId::new(g.top_level(), 0);
        assert_eq!(g.parent(top), None);
    }

    #[test]
    fn ancestors_walk_to_top() {
        let g = SitGeometry::paper_16gb();
        let node = NodeId::new(0, 12345);
        let chain: Vec<NodeId> = g.ancestors(node).collect();
        assert_eq!(chain.len(), 8, "8 ancestors above a counter block");
        assert_eq!(chain.last().unwrap().level, g.top_level());
        for pair in chain.windows(2) {
            assert_eq!(g.parent(pair[0]), Some(pair[1]));
        }
    }

    #[test]
    fn ragged_tree_handles_non_power_of_8() {
        let g = SitGeometry::new(100); // 13 counter blocks, 2 L1 nodes
        assert_eq!(g.level_count(0), 13);
        assert_eq!(g.level_count(1), 2);
        assert_eq!(g.levels(), 2);
        // Child 5 of L1#1 would be L0#13 — out of range.
        assert_eq!(g.child(NodeId::new(1, 1), 5), None);
        assert_eq!(
            g.child(NodeId::new(1, 1), 4),
            Some(NodeChild::Node(NodeId::new(0, 12)))
        );
        // Last counter block covers only data lines 96..100.
        assert_eq!(
            g.child(NodeId::new(0, 12), 3),
            Some(NodeChild::DataLine(99))
        );
        assert_eq!(g.child(NodeId::new(0, 12), 4), None);
    }

    #[test]
    fn metadata_region_is_contiguous() {
        let g = SitGeometry::new(1 << 15);
        let mut seen = std::collections::HashSet::new();
        for level in 0..=g.top_level() {
            for index in 0..g.level_count(level) {
                let flat = g.flat_index(NodeId::new(level, index));
                assert!(seen.insert(flat), "flat indices must be unique");
            }
        }
        assert_eq!(seen.len() as u64, g.total_meta_lines());
        assert_eq!(*seen.iter().max().unwrap(), g.total_meta_lines() - 1);
    }
}
