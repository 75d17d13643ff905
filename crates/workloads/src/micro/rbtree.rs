//! `rbtree`: a persistent red-black tree with random-key inserts.
//!
//! One 64-byte line per node. Inserts walk from the root (loads) and run
//! the classic CLRS insert-fixup; every node whose color or pointers
//! change is persisted, with a fence closing each insert. Rotations near
//! the root keep a hot, high-reuse region while leaf allocations spread —
//! a distinct locality mix from the other micros.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;
use std::collections::HashSet;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    color: Color,
    parent: usize,
    left: usize,
    right: usize,
    line: u64,
}

/// The persistent red-black-tree workload.
#[derive(Debug, Clone)]
pub struct RbtreeWorkload {
    pmem: Pmem,
    nodes: Vec<Node>,
    root: usize,
    volatile: VolatileSet,
    rng: SimRng,
    /// Nodes modified by the current insert, persisted at its end.
    touched: HashSet<usize>,
}

impl RbtreeWorkload {
    /// An empty tree over the workload heap.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            nodes: Vec::new(),
            root: NIL,
            volatile,
            rng: SimRng::seed_from_u64(seed),
            touched: HashSet::new(),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn touch(&mut self, n: usize) {
        if n != NIL {
            self.touched.insert(n);
        }
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.nodes[x].right;
        self.nodes[x].right = self.nodes[y].left;
        if self.nodes[y].left != NIL {
            let l = self.nodes[y].left;
            self.nodes[l].parent = x;
            self.touch(l);
        }
        self.nodes[y].parent = self.nodes[x].parent;
        let p = self.nodes[x].parent;
        if p == NIL {
            self.root = y;
        } else if self.nodes[p].left == x {
            self.nodes[p].left = y;
            self.touch(p);
        } else {
            self.nodes[p].right = y;
            self.touch(p);
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
        self.touch(x);
        self.touch(y);
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.nodes[x].left;
        self.nodes[x].left = self.nodes[y].right;
        if self.nodes[y].right != NIL {
            let r = self.nodes[y].right;
            self.nodes[r].parent = x;
            self.touch(r);
        }
        self.nodes[y].parent = self.nodes[x].parent;
        let p = self.nodes[x].parent;
        if p == NIL {
            self.root = y;
        } else if self.nodes[p].right == x {
            self.nodes[p].right = y;
            self.touch(p);
        } else {
            self.nodes[p].left = y;
            self.touch(p);
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
        self.touch(x);
        self.touch(y);
    }

    fn insert(&mut self, sink: &mut dyn TraceSink, key: u64) {
        self.touched.clear();
        // BST descent with loads.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            self.pmem.load(sink, self.nodes[cur].line);
            parent = cur;
            cur = if key < self.nodes[cur].key {
                self.nodes[cur].left
            } else {
                self.nodes[cur].right
            };
        }
        let line = self.pmem.alloc(1);
        let z = self.nodes.len();
        self.nodes.push(Node {
            key,
            color: Color::Red,
            parent,
            left: NIL,
            right: NIL,
            line,
        });
        self.touch(z);
        if parent == NIL {
            self.root = z;
        } else if key < self.nodes[parent].key {
            self.nodes[parent].left = z;
            self.touch(parent);
        } else {
            self.nodes[parent].right = z;
            self.touch(parent);
        }
        self.fixup(z);
        // Persist every modified node, one fence for the insert.
        let mut lines: Vec<u64> = self.touched.iter().map(|&n| self.nodes[n].line).collect();
        lines.sort_unstable();
        for l in lines {
            self.pmem.store_persist(sink, l);
        }
        self.pmem.fence(sink);
    }

    fn fixup(&mut self, mut z: usize) {
        while self.nodes[z].parent != NIL && self.nodes[self.nodes[z].parent].color == Color::Red {
            let p = self.nodes[z].parent;
            let g = self.nodes[p].parent;
            if g == NIL {
                break;
            }
            if self.nodes[g].left == p {
                let u = self.nodes[g].right;
                if u != NIL && self.nodes[u].color == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.touch(p);
                    self.touch(u);
                    self.touch(g);
                    z = g;
                } else {
                    if self.nodes[p].right == z {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.touch(p);
                    self.touch(g);
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g].left;
                if u != NIL && self.nodes[u].color == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.touch(p);
                    self.touch(u);
                    self.touch(g);
                    z = g;
                } else {
                    if self.nodes[p].left == z {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.touch(p);
                    self.touch(g);
                    self.rotate_left(g);
                }
            }
        }
        let r = self.root;
        if self.nodes[r].color != Color::Black {
            self.nodes[r].color = Color::Black;
            self.touch(r);
        }
    }

    /// Validates the red-black invariants (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root == NIL {
            return Ok(());
        }
        if self.nodes[self.root].color != Color::Black {
            return Err("root must be black".into());
        }
        fn walk(t: &RbtreeWorkload, n: usize) -> Result<usize, String> {
            if n == NIL {
                return Ok(1);
            }
            let node = &t.nodes[n];
            if node.color == Color::Red {
                for c in [node.left, node.right] {
                    if c != NIL && t.nodes[c].color == Color::Red {
                        return Err(format!("red-red violation at key {}", node.key));
                    }
                }
            }
            if node.left != NIL && t.nodes[node.left].key > node.key {
                return Err("BST order violated (left)".into());
            }
            if node.right != NIL && t.nodes[node.right].key < node.key {
                return Err("BST order violated (right)".into());
            }
            let lb = walk(t, node.left)?;
            let rb = walk(t, node.right)?;
            if lb != rb {
                return Err(format!("black-height mismatch at key {}", node.key));
            }
            Ok(lb + usize::from(node.color == Color::Black))
        }
        walk(self, self.root).map(|_| ())
    }
}

impl Workload for RbtreeWorkload {
    fn name(&self) -> &'static str {
        "rbtree"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        let key: u64 = self.rng.gen_u64();
        self.pmem.work(sink, 800);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 4);
        self.insert(sink, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::VecSink;

    #[test]
    fn invariants_hold_after_many_inserts() {
        let mut wl = RbtreeWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(2_000, &mut sink);
        assert_eq!(wl.len(), 2_000);
        wl.check_invariants().expect("red-black invariants");
    }

    #[test]
    fn sequential_keys_also_balance() {
        let mut wl = RbtreeWorkload::new(0);
        let mut sink = VecSink::new();
        for key in 0..500 {
            wl.insert(&mut sink, key);
        }
        wl.check_invariants().expect("balanced under sorted input");
    }

    #[test]
    fn every_insert_persists_and_fences() {
        let mut wl = RbtreeWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(100, &mut sink);
        assert!(sink.clwb_count() >= 100);
        let fences = sink
            .events
            .iter()
            .filter(|e| matches!(e, star_mem::MemEvent::Fence))
            .count();
        assert_eq!(fences, 100, "one fence per insert");
    }
}
