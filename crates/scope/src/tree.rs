//! The path-keyed span aggregate.
//!
//! A [`SpanTree`] is a rooted tree whose edges are `&'static str` span
//! names: the node for path `a;b` aggregates every `b` span that ran
//! directly inside an `a` span, across every call site and thread.
//! Children are kept **sorted by name**, and [`SpanTree::merge_from`] is
//! keyed addition, so the serialized structure is independent of
//! insertion and merge order — the property the deterministic-structure
//! contract of the `perf-profile` report rests on.

/// One measurement to fold into a path's node — what a closing
/// [`crate::SpanGuard`] reports, and the unit [`SpanTree::record_path`]
/// accepts directly (handy for tests and for synthetic trees).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSample {
    /// Completed invocations.
    pub count: u64,
    /// Wall-clock nanoseconds including children.
    pub incl_ns: u64,
    /// Wall-clock nanoseconds excluding direct children.
    pub excl_ns: u64,
    /// Heap allocations attributed exclusively to this span.
    pub allocs: u64,
    /// Allocated bytes attributed exclusively to this span.
    pub alloc_bytes: u64,
}

impl SpanSample {
    fn add(&mut self, other: &SpanSample) {
        self.count += other.count;
        self.incl_ns += other.incl_ns;
        self.excl_ns += other.excl_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// One aggregated node: a span name under a particular parent path.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span name (the last path component).
    pub name: &'static str,
    /// Aggregated measurements for this exact path.
    pub sample: SpanSample,
    /// Child node indices, sorted by child name.
    children: Vec<usize>,
}

/// The path-keyed aggregate of every recorded span.
///
/// Node 0 is a synthetic root whose children are the top-level spans.
/// The tree is cheap to construct empty (`const`-constructible) so it
/// can live in statics and thread-locals without lazy initialization.
#[derive(Debug, Clone)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
}

/// Index of the synthetic root node once the tree is non-empty.
pub(crate) const ROOT: usize = 0;

impl SpanTree {
    /// An empty tree. `const` so statics and `thread_local!` cells can
    /// hold one without lazy initialization (the allocator hook must
    /// never allocate on its own account).
    pub const fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Discards every recorded node.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Ensures the synthetic root exists and returns its index.
    pub(crate) fn ensure_root(&mut self) -> usize {
        if self.nodes.is_empty() {
            self.nodes.push(SpanNode {
                name: "",
                sample: SpanSample::default(),
                children: Vec::new(),
            });
        }
        ROOT
    }

    /// Finds or creates the child of `parent` named `name`, keeping the
    /// child list sorted by name.
    pub(crate) fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        match self.nodes[parent]
            .children
            .binary_search_by(|&c| self.nodes[c].name.cmp(name))
        {
            Ok(pos) => self.nodes[parent].children[pos],
            Err(pos) => {
                let idx = self.nodes.len();
                self.nodes.push(SpanNode {
                    name,
                    sample: SpanSample::default(),
                    children: Vec::new(),
                });
                self.nodes[parent].children.insert(pos, idx);
                idx
            }
        }
    }

    /// Folds `sample` into the given `node`.
    pub(crate) fn record_at(&mut self, node: usize, sample: &SpanSample) {
        self.nodes[node].sample.add(sample);
    }

    /// Folds `sample` into the node at `path` (creating it if needed).
    ///
    /// This is the whole recording model in one call: the RAII guards
    /// only differ in deriving the path from the live stack and the
    /// sample from `Instant` and the allocator counters.
    ///
    /// # Panics
    ///
    /// Panics on an empty path — the synthetic root holds no samples.
    pub fn record_path(&mut self, path: &[&'static str], sample: SpanSample) {
        assert!(!path.is_empty(), "cannot record onto the synthetic root");
        let mut node = self.ensure_root();
        for name in path {
            node = self.child_of(node, name);
        }
        self.record_at(node, &sample);
    }

    /// Adds every path of `other` into `self` (keyed addition).
    ///
    /// Because nodes are looked up by path and children stay
    /// name-sorted, merging is commutative and associative: any merge
    /// order over any partition of the same samples yields an identical
    /// tree.
    pub fn merge_from(&mut self, other: &SpanTree) {
        if other.nodes.is_empty() {
            return;
        }
        let root = self.ensure_root();
        self.merge_children(root, other, ROOT);
    }

    fn merge_children(&mut self, into: usize, other: &SpanTree, from: usize) {
        // Child index lists are append-only per node, so clone the small
        // index vector rather than fight the borrow checker with splits.
        let child_indices = other.nodes[from].children.clone();
        for theirs in child_indices {
            let child = &other.nodes[theirs];
            let mine = self.child_of(into, child.name);
            self.record_at(mine, &child.sample);
            self.merge_children(mine, other, theirs);
        }
    }

    /// Total inclusive nanoseconds of the top-level spans — the
    /// wall-clock the profiler can attribute to named scopes.
    pub fn attributed_ns(&self) -> u64 {
        self.children_of_root().map(|n| n.sample.incl_ns).sum()
    }

    /// The top-level span nodes, in name order.
    pub fn children_of_root(&self) -> impl Iterator<Item = &SpanNode> {
        let children = if self.nodes.is_empty() {
            &[][..]
        } else {
            &self.nodes[ROOT].children[..]
        };
        children.iter().map(|&i| &self.nodes[i])
    }

    /// Visits every node in DFS pre-order (children in name order),
    /// passing the full path and the node.
    pub fn for_each_path<F: FnMut(&[&'static str], &SpanNode)>(&self, mut f: F) {
        if self.nodes.is_empty() {
            return;
        }
        let mut path: Vec<&'static str> = Vec::new();
        self.visit(ROOT, &mut path, &mut f);
    }

    fn visit<F: FnMut(&[&'static str], &SpanNode)>(
        &self,
        node: usize,
        path: &mut Vec<&'static str>,
        f: &mut F,
    ) {
        for &child in &self.nodes[node].children {
            path.push(self.nodes[child].name);
            f(path, &self.nodes[child]);
            self.visit(child, path, f);
            path.pop();
        }
    }

    /// Looks up the node at `path`, if recorded.
    pub fn node_at(&self, path: &[&'static str]) -> Option<&SpanNode> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut node = ROOT;
        for name in path {
            node = *self.nodes[node]
                .children
                .iter()
                .find(|&&c| self.nodes[c].name == *name)?;
        }
        Some(&self.nodes[node])
    }
}

impl Default for SpanTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(count: u64, incl: u64, excl: u64) -> SpanSample {
        SpanSample {
            count,
            incl_ns: incl,
            excl_ns: excl,
            allocs: count,
            alloc_bytes: 8 * count,
        }
    }

    #[test]
    fn record_and_lookup() {
        let mut t = SpanTree::new();
        t.record_path(&["a", "b"], sample(1, 10, 4));
        t.record_path(&["a"], sample(1, 30, 20));
        t.record_path(&["a", "b"], sample(2, 20, 8));
        let b = t.node_at(&["a", "b"]).unwrap();
        assert_eq!(b.sample.count, 3);
        assert_eq!(b.sample.incl_ns, 30);
        assert_eq!(t.node_at(&["a"]).unwrap().sample.incl_ns, 30);
        assert!(t.node_at(&["b"]).is_none());
        assert_eq!(t.attributed_ns(), 30);
    }

    #[test]
    fn children_come_back_name_sorted_regardless_of_insertion() {
        let mut t = SpanTree::new();
        for name in ["zeta", "alpha", "mid"] {
            t.record_path(&[name], sample(1, 1, 1));
        }
        let names: Vec<_> = t.children_of_root().map(|n| n.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mk = |paths: &[&[&'static str]]| {
            let mut t = SpanTree::new();
            for (i, p) in paths.iter().enumerate() {
                t.record_path(p, sample(1 + i as u64, 10, 5));
            }
            t
        };
        let a = mk(&[&["x"], &["x", "y"], &["z"]]);
        let b = mk(&[&["x", "y"], &["w"], &["x", "q"]]);
        let c = mk(&[&["z"], &["z", "deep", "deeper"]]);

        let digest = |t: &SpanTree| {
            let mut out = String::new();
            t.for_each_path(|path, n| {
                out.push_str(&format!("{}:{:?};", path.join(";"), n.sample));
            });
            out
        };

        // Commutative: a+b == b+a.
        let mut ab = SpanTree::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = SpanTree::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(digest(&ab), digest(&ba));

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge_from(&c);
        let mut bc = SpanTree::new();
        bc.merge_from(&b);
        bc.merge_from(&c);
        let mut a_bc = SpanTree::new();
        a_bc.merge_from(&a);
        a_bc.merge_from(&bc);
        assert_eq!(digest(&ab_c), digest(&a_bc));
    }

    #[test]
    fn empty_trees_merge_and_walk_cleanly() {
        let mut t = SpanTree::new();
        t.merge_from(&SpanTree::new());
        assert!(t.is_empty());
        assert_eq!(t.attributed_ns(), 0);
        let mut visited = 0;
        t.for_each_path(|_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    #[should_panic(expected = "synthetic root")]
    fn empty_path_is_rejected() {
        SpanTree::new().record_path(&[], SpanSample::default());
    }
}
