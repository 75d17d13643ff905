//! `btree`: a persistent B-tree with random-key inserts.
//!
//! Nodes hold up to 16 keys across two 64-byte lines. Inserts descend
//! from the root (loads), split full children preemptively (writes to the
//! new sibling, the split child and the parent, each persisted in split
//! order), and finally persist the leaf. Locality sits between the
//! sequential queue and the random array: leaf writes scatter, but node
//! allocation is sequential and upper levels stay hot.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;

/// Maximum keys per node (order 17 B-tree).
const MAX_KEYS: usize = 16;
/// 64-byte lines per node (16 keys × 8 B).
const NODE_LINES: u64 = 2;

#[derive(Debug, Clone)]
struct Node {
    keys: Vec<u64>,
    children: Vec<usize>,
    base_line: u64,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The persistent B-tree workload.
#[derive(Debug, Clone)]
pub struct BtreeWorkload {
    pmem: Pmem,
    nodes: Vec<Node>,
    root: usize,
    volatile: VolatileSet,
    rng: SimRng,
}

impl BtreeWorkload {
    /// An empty tree over the workload heap.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let base_line = pmem.alloc(NODE_LINES);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            nodes: vec![Node {
                keys: Vec::new(),
                children: Vec::new(),
                base_line,
            }],
            root: 0,
            volatile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Total keys stored.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.keys.len()).sum()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (for tests).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        while !self.nodes[n].is_leaf() {
            n = self.nodes[n].children[0];
            h += 1;
        }
        h
    }

    fn persist_node(&mut self, sink: &mut dyn TraceSink, idx: usize) {
        let base = self.nodes[idx].base_line;
        for l in 0..NODE_LINES {
            self.pmem.store_persist(sink, base + l);
        }
    }

    fn load_node(&mut self, sink: &mut dyn TraceSink, idx: usize) {
        let base = self.nodes[idx].base_line;
        for l in 0..NODE_LINES {
            self.pmem.load(sink, base + l);
        }
    }

    /// Splits full child `ci` of `parent`, persisting sibling → child →
    /// parent (crash-safe order).
    fn split_child(&mut self, sink: &mut dyn TraceSink, parent: usize, ci: usize) {
        let child = self.nodes[parent].children[ci];
        let mid = MAX_KEYS / 2;
        let up_key = self.nodes[child].keys[mid];
        let right_keys = self.nodes[child].keys.split_off(mid + 1);
        self.nodes[child].keys.pop(); // the separator moves up
        let right_children = if self.nodes[child].is_leaf() {
            Vec::new()
        } else {
            self.nodes[child].children.split_off(mid + 1)
        };
        let base_line = self.pmem.alloc(NODE_LINES);
        let sibling = self.nodes.len();
        self.nodes.push(Node {
            keys: right_keys,
            children: right_children,
            base_line,
        });
        self.nodes[parent].keys.insert(ci, up_key);
        self.nodes[parent].children.insert(ci + 1, sibling);

        self.persist_node(sink, sibling);
        self.pmem.fence(sink);
        self.persist_node(sink, child);
        self.pmem.fence(sink);
        self.persist_node(sink, parent);
        self.pmem.fence(sink);
    }

    fn insert(&mut self, sink: &mut dyn TraceSink, key: u64) {
        if self.nodes[self.root].keys.len() == MAX_KEYS {
            // Grow a new root and split the old one under it.
            let base_line = self.pmem.alloc(NODE_LINES);
            let new_root = self.nodes.len();
            self.nodes.push(Node {
                keys: Vec::new(),
                children: vec![self.root],
                base_line,
            });
            self.root = new_root;
            self.split_child(sink, new_root, 0);
        }
        let mut cur = self.root;
        loop {
            self.load_node(sink, cur);
            let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
            if self.nodes[cur].is_leaf() {
                self.nodes[cur].keys.insert(pos, key);
                self.persist_node(sink, cur);
                self.pmem.fence(sink);
                return;
            }
            let child = self.nodes[cur].children[pos];
            if self.nodes[child].keys.len() == MAX_KEYS {
                self.split_child(sink, cur, pos);
                // Re-route around the new separator.
                let pos = self.nodes[cur].keys.partition_point(|&k| k < key);
                cur = self.nodes[cur].children[pos];
            } else {
                cur = child;
            }
        }
    }
}

impl Workload for BtreeWorkload {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        let key: u64 = self.rng.gen_u64();
        self.pmem.work(sink, 700);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 4);
        self.insert(sink, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::VecSink;

    #[test]
    fn inserts_all_keys() {
        let mut wl = BtreeWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(1_000, &mut sink);
        assert_eq!(wl.len(), 1_000);
    }

    #[test]
    fn keys_stay_sorted_in_every_node() {
        let mut wl = BtreeWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(2_000, &mut sink);
        for node in &wl.nodes {
            assert!(node.keys.windows(2).all(|w| w[0] <= w[1]));
            assert!(node.keys.len() <= MAX_KEYS);
            if !node.is_leaf() {
                assert_eq!(node.children.len(), node.keys.len() + 1);
            }
        }
    }

    #[test]
    fn tree_grows_logarithmically() {
        let mut wl = BtreeWorkload::new(3);
        let mut sink = VecSink::new();
        wl.run(3_000, &mut sink);
        let h = wl.height();
        assert!((3..=5).contains(&h), "height {h} for 3000 keys, order 17");
    }

    #[test]
    fn splits_persist_sibling_before_parent() {
        let mut wl = BtreeWorkload::new(4);
        let mut sink = VecSink::new();
        wl.run(100, &mut sink);
        // At least one split must have happened for 100 keys.
        assert!(wl.nodes.len() > 1);
    }
}
