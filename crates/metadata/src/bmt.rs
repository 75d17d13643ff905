//! A Bonsai Merkle tree (BMT) over counter blocks.
//!
//! Kept for the paper's §II comparison: a BMT node is a *hash* of its
//! children, so the whole tree can be reconstructed bottom-up from the
//! leaves — which is how Triad-NVM recovers. The SIT cannot be rebuilt
//! that way (child MACs need parent counters), and contrasting the two is
//! part of the reproduction's test suite.
//!
//! [`BonsaiMerkleTree`] is sparse. Every node left of a level's right
//! edge roots a full subtree, and while that subtree is empty its digest
//! is the level's one *empty* digest. Each level keeps that digest and
//! stores only the chunks of [`BMT_ARITY`] sibling digests that differ
//! from it: the branches a write has reached, plus the partial right
//! edge. A tree over `n` empty leaves therefore costs O(height) hashes
//! and bytes, whatever `n` is, and a tree's host memory follows the
//! written leaves, not the leaf count. [`RootBuilder`] streams leaves
//! into the root without keeping a tree at all.
//!
//! SHA-256 is a pure function of its input, so a chunk equal to the one
//! before it has that chunk's digest. [`RootBuilder`] still reuses it
//! instead of hashing again, so streaming a mostly untouched run of
//! leaves costs O(written leaves × height). The sparse tree needs no
//! such memo: its per-level empty digest is the memo.

use star_crypto::sha256::Sha256;
use star_nvm::PageHash;
use std::collections::HashMap;

/// Arity of the BMT (8, matching the SIT for comparability).
pub const BMT_ARITY: usize = 8;

/// A 32-byte BMT hash.
pub type BmtHash = [u8; 32];

/// A sparse 8-ary Merkle tree over fixed-size leaf blobs.
///
/// ```
/// use star_metadata::bmt::BonsaiMerkleTree;
/// let mut t = BonsaiMerkleTree::new(10);
/// let before = t.root();
/// t.update_leaf(3, b"counter block contents");
/// assert_ne!(t.root(), before);
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiMerkleTree {
    /// Every level below the root; `levels[0]` holds the leaves.
    levels: Vec<Level>,
    /// The root digest (the only leaf of a one-leaf tree).
    root: BmtHash,
}

/// One level of a [`BonsaiMerkleTree`] below its root.
#[derive(Debug, Clone)]
struct Level {
    /// Nodes on this level.
    len: usize,
    /// The digest of a node whose subtree is full and empty.
    empty: BmtHash,
    /// The chunks that have differed from `[empty; BMT_ARITY]`, keyed by
    /// chunk index (node index / [`BMT_ARITY`]). A partial right-edge
    /// chunk's digests past [`Level::chunk_len`] are padding.
    chunks: HashMap<u64, [BmtHash; BMT_ARITY], PageHash>,
}

impl Level {
    /// Digests in chunk `chunk`: [`BMT_ARITY`], fewer on the right edge.
    fn chunk_len(&self, chunk: usize) -> usize {
        (self.len - chunk * BMT_ARITY).min(BMT_ARITY)
    }

    fn node(&self, index: usize) -> BmtHash {
        self.chunks
            .get(&((index / BMT_ARITY) as u64))
            .map_or(self.empty, |c| c[index % BMT_ARITY])
    }

    fn chunk_mut(&mut self, chunk: usize) -> &mut [BmtHash; BMT_ARITY] {
        let empty = self.empty;
        self.chunks
            .entry(chunk as u64)
            .or_insert_with(|| [empty; BMT_ARITY])
    }

    /// The digest of chunk `chunk`'s parent node.
    fn hash_chunk(&self, chunk: usize) -> BmtHash {
        let len = self.chunk_len(chunk);
        match self.chunks.get(&(chunk as u64)) {
            Some(digests) => hash_children(&digests[..len]),
            None => hash_children(&[self.empty; BMT_ARITY][..len]),
        }
    }
}

fn hash_leaf(data: &[u8]) -> BmtHash {
    let mut h = Sha256::new();
    h.update(b"leaf");
    h.update(data);
    h.finalize()
}

fn hash_children(children: &[BmtHash]) -> BmtHash {
    // Flatten tag + children into one buffer so the hasher sees whole
    // 64-byte blocks instead of 32-byte fragments it has to re-buffer.
    let mut buf = [0u8; 4 + BMT_ARITY * 32];
    buf[..4].copy_from_slice(b"node");
    let mut len = 4;
    for c in children {
        buf[len..len + 32].copy_from_slice(c);
        len += 32;
    }
    let mut h = Sha256::new();
    h.update(&buf[..len]);
    h.finalize()
}

impl BonsaiMerkleTree {
    /// Creates a tree over `leaves` empty leaves in O(height) hashes and
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn new(leaves: usize) -> Self {
        assert!(leaves > 0, "tree needs at least one leaf");
        // Walk up the right edge: left of it every node's digest is the
        // level's `empty`, and the edge node's own digest `edge` departs
        // from it once its subtree is partial.
        let mut levels = Vec::new();
        let mut empty = hash_leaf(&[]);
        let mut edge = empty;
        let mut len = leaves;
        while len > 1 {
            let mut level = Level {
                len,
                empty,
                chunks: HashMap::default(),
            };
            let last = len - 1;
            if edge != empty {
                level.chunk_mut(last / BMT_ARITY)[last % BMT_ARITY] = edge;
            }
            let full_empty = hash_children(&[empty; BMT_ARITY]);
            edge = if edge == empty && len.is_multiple_of(BMT_ARITY) {
                full_empty
            } else {
                level.hash_chunk(last / BMT_ARITY)
            };
            empty = full_empty;
            levels.push(level);
            len = len.div_ceil(BMT_ARITY);
        }
        Self { levels, root: edge }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(1, |l| l.len)
    }

    /// Number of levels, leaves included.
    pub fn height(&self) -> usize {
        self.levels.len() + 1
    }

    /// The root hash.
    pub fn root(&self) -> BmtHash {
        self.root
    }

    /// The digest of node `index` at `level`: level 0 holds the leaf
    /// hashes and level [`height`](Self::height)` - 1` the root.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `index` is out of range.
    pub fn node(&self, level: usize, index: usize) -> BmtHash {
        match self.levels.get(level) {
            Some(l) => {
                assert!(index < l.len, "node index out of range");
                l.node(index)
            }
            None => {
                assert!(
                    level == self.levels.len() && index == 0,
                    "node out of range"
                );
                self.root
            }
        }
    }

    /// Replaces leaf `index` and rehashes its branch: O(height) hashes
    /// and one map probe per level.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut digest = hash_leaf(data);
        let mut index = index;
        for level in &mut self.levels {
            let chunk = index / BMT_ARITY;
            let len = level.chunk_len(chunk);
            let digests = level.chunk_mut(chunk);
            digests[index % BMT_ARITY] = digest;
            digest = hash_children(&digests[..len]);
            index = chunk;
        }
        self.root = digest;
    }

    /// Replaces every leaf in `leaves` (the last of repeated indices
    /// wins), then rehashes each ancestor they touch once, level by
    /// level. The result equals [`update_leaf`](Self::update_leaf) applied
    /// to the same leaves in order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn update_leaves<L: AsRef<[u8]>>(&mut self, leaves: impl IntoIterator<Item = (usize, L)>) {
        let mut touched = Vec::new();
        for (index, data) in leaves {
            assert!(index < self.leaf_count(), "leaf index out of range");
            self.set(0, index, hash_leaf(data.as_ref()));
            touched.push(index / BMT_ARITY);
        }
        touched.sort_unstable();
        for level in 0..self.levels.len() {
            // Sorted chunk indices stay sorted as they map to parents.
            touched.dedup();
            for chunk in &mut touched {
                let digest = self.levels[level].hash_chunk(*chunk);
                self.set(level + 1, *chunk, digest);
                *chunk /= BMT_ARITY;
            }
        }
    }

    /// Stores `digest` as node `index` of `level` (the root above the
    /// last stored level).
    fn set(&mut self, level: usize, index: usize, digest: BmtHash) {
        match self.levels.get_mut(level) {
            Some(l) => l.chunk_mut(index / BMT_ARITY)[index % BMT_ARITY] = digest,
            None => self.root = digest,
        }
    }
}

/// Streams leaves bottom-up into the root of the tree over them without
/// keeping the tree, as STAR's cache tree does over its set MACs: it
/// holds one pending chunk per level and allocates nothing per leaf or
/// per chunk.
/// The root equals [`BonsaiMerkleTree::root`] of a tree whose leaves were
/// set to the same contents (an empty leaf is `&[]`).
///
/// ```
/// use star_metadata::bmt::{BonsaiMerkleTree, RootBuilder};
/// let mut t = BonsaiMerkleTree::new(10);
/// t.update_leaf(3, b"counter block contents");
/// let mut b = RootBuilder::default();
/// for i in 0..10 {
///     let leaf: &[u8] = if i == 3 { b"counter block contents" } else { b"" };
///     b.push_leaf(leaf);
/// }
/// assert_eq!(b.finish(), t.root());
/// ```
#[derive(Debug, Default)]
pub struct RootBuilder {
    levels: Vec<PendingLevel>,
    /// The previous leaf and its digest, for reuse by an equal leaf.
    last_leaf: Vec<u8>,
    last_leaf_digest: Option<BmtHash>,
}

/// One level of a [`RootBuilder`].
#[derive(Debug, Default)]
struct PendingLevel {
    /// The chunk being filled; its first `len` digests are valid.
    chunk: [BmtHash; BMT_ARITY],
    len: usize,
    /// Digests pushed into this level so far.
    pushed: u64,
    /// The previous full chunk and its digest.
    last: Option<([BmtHash; BMT_ARITY], BmtHash)>,
}

impl RootBuilder {
    /// Appends the next leaf.
    pub fn push_leaf(&mut self, data: &[u8]) {
        let digest = match self.last_leaf_digest {
            Some(d) if self.last_leaf == data => d,
            _ => {
                let d = hash_leaf(data);
                self.last_leaf.clear();
                self.last_leaf.extend_from_slice(data);
                self.last_leaf_digest = Some(d);
                d
            }
        };
        self.push(0, digest);
    }

    /// Adds `digest` to `level`, carrying each chunk it fills upward.
    fn push(&mut self, mut level: usize, mut digest: BmtHash) {
        loop {
            if level == self.levels.len() {
                self.levels.push(PendingLevel::default());
            }
            let l = &mut self.levels[level];
            l.chunk[l.len] = digest;
            l.len += 1;
            l.pushed += 1;
            if l.len < BMT_ARITY {
                return;
            }
            l.len = 0;
            digest = match l.last {
                Some((prev, d)) if prev == l.chunk => d,
                _ => {
                    let d = hash_children(&l.chunk);
                    l.last = Some((l.chunk, d));
                    d
                }
            };
            level += 1;
        }
    }

    /// The root over every leaf pushed. With no leaves it is the root of
    /// a one-empty-leaf tree, `BonsaiMerkleTree::new(1).root()`.
    pub fn finish(mut self) -> BmtHash {
        if self.levels.is_empty() {
            return hash_leaf(&[]);
        }
        // The root is the first level holding a single digest; each level
        // below it flushes its partial last chunk upward.
        let mut level = 0;
        while self.levels[level].pushed > 1 {
            let l = &mut self.levels[level];
            if l.len > 0 {
                let digest = hash_children(&l.chunk[..l.len]);
                l.len = 0;
                self.push(level + 1, digest);
            }
            level += 1;
        }
        self.levels[level].chunk[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_rng::SimRng;

    /// The reference tree: every level dense, every leaf and every chunk
    /// hashed, nothing reused. Zero leaves give the one-empty-leaf tree.
    fn naive_levels(leaves: &[&[u8]]) -> Vec<Vec<BmtHash>> {
        let mut levels = vec![if leaves.is_empty() {
            vec![hash_leaf(&[])]
        } else {
            leaves.iter().map(|l| hash_leaf(l)).collect()
        }];
        while levels[levels.len() - 1].len() > 1 {
            let above = levels[levels.len() - 1]
                .chunks(BMT_ARITY)
                .map(hash_children)
                .collect();
            levels.push(above);
        }
        levels
    }

    fn naive_root(leaves: &[&[u8]]) -> BmtHash {
        naive_levels(leaves).last().expect("a root level")[0]
    }

    fn streamed_root(leaves: &[&[u8]]) -> BmtHash {
        let mut b = RootBuilder::default();
        for leaf in leaves {
            b.push_leaf(leaf);
        }
        b.finish()
    }

    const SIZES: [usize; 11] = [0, 1, 2, 7, 8, 9, 63, 64, 65, 513, 4097];
    const DENSITIES: [f64; 6] = [0.0, 0.01, 0.1, 0.5, 0.9, 1.0];
    const BLOBS: [&[u8]; 3] = [&[0xa5; 64], &[0x3c; 64], &[0; 32]];

    /// `n` leaves, written with probability `density` in runs of 1–20
    /// copies of one of [`BLOBS`], so equal neighbours are common.
    fn random_leaves(rng: &mut SimRng, n: usize, density: f64) -> Vec<&'static [u8]> {
        let mut leaves: Vec<&[u8]> = Vec::with_capacity(n);
        while leaves.len() < n {
            let run = (1 + rng.gen_index(20)).min(n - leaves.len());
            let leaf: &[u8] = if rng.gen_bool(density) {
                BLOBS[rng.gen_index(BLOBS.len())]
            } else {
                &[]
            };
            leaves.extend(std::iter::repeat_n(leaf, run));
        }
        leaves
    }

    /// Every node of `t`, not only the root, equals the dense tree's.
    fn assert_nodes_match(t: &BonsaiMerkleTree, want: &[Vec<BmtHash>], what: &str) {
        assert_eq!(t.height(), want.len(), "{what}: height");
        assert_eq!(t.leaf_count(), want[0].len(), "{what}: leaves");
        for (level, nodes) in want.iter().enumerate() {
            for (index, node) in nodes.iter().enumerate() {
                assert_eq!(t.node(level, index), *node, "{what}: node {level}/{index}");
            }
        }
        assert_eq!(t.root(), want[want.len() - 1][0], "{what}: root");
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = BonsaiMerkleTree::new(1);
        assert_eq!(t.height(), 1);
        let r0 = t.root();
        t.update_leaf(0, b"x");
        assert_ne!(t.root(), r0);
    }

    #[test]
    fn incremental_matches_reconstruction() {
        let mut t = BonsaiMerkleTree::new(20);
        let blobs: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 64]).collect();
        for (i, b) in blobs.iter().enumerate() {
            t.update_leaf(i, b);
        }
        let leaves: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        assert_eq!(
            t.root(),
            streamed_root(&leaves),
            "Triad-NVM-style rebuild must agree"
        );
    }

    /// Reused digests are exact: the streamed root equals the naive
    /// rebuild over sizes around every chunk boundary and densities from
    /// empty to full, with runs of identical non-empty leaves and a lone
    /// written leaf inside a long empty run.
    #[test]
    fn memoized_roots_match_the_naive_rebuild() {
        let mut rng = SimRng::seed_from_u64(0x626d_745f_6d65_6d6f);
        for n in SIZES {
            let empty = vec![&[][..]; n];
            assert_eq!(streamed_root(&empty), naive_root(&empty), "n={n} empty");
            for density in DENSITIES {
                let leaves = random_leaves(&mut rng, n, density);
                let want = naive_root(&leaves);
                assert_eq!(streamed_root(&leaves), want, "n={n} density={density}");
            }
            if n > 2 {
                let mut lone = empty.clone();
                lone[n / 2] = BLOBS[0];
                assert_eq!(streamed_root(&lone), naive_root(&lone), "n={n} lone");
                assert_ne!(streamed_root(&lone), naive_root(&empty), "n={n} lone");
            }
        }
    }

    /// The sparse tree is the dense one: after `new(n)`, after writes one
    /// at a time, and after a written leaf is set back to empty, every
    /// node equals the naive tree's, and a bulk update of the same leaves
    /// in shuffled order (the reset leaf appearing twice) builds the same
    /// tree.
    #[test]
    fn every_sparse_node_matches_a_dense_naive_tree() {
        let mut rng = SimRng::seed_from_u64(0x7370_6172_7365);
        for n in SIZES.into_iter().filter(|&n| n > 0) {
            assert_nodes_match(
                &BonsaiMerkleTree::new(n),
                &naive_levels(&vec![&[][..]; n]),
                &format!("n={n} new"),
            );
            for density in DENSITIES {
                let what = format!("n={n} density={density}");
                let mut leaves = random_leaves(&mut rng, n, density);
                let mut writes: Vec<(usize, &[u8])> = leaves
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.is_empty())
                    .map(|(i, &l)| (i, l))
                    .collect();
                let mut one_by_one = BonsaiMerkleTree::new(n);
                for &(i, leaf) in &writes {
                    one_by_one.update_leaf(i, leaf);
                }
                assert_nodes_match(&one_by_one, &naive_levels(&leaves), &what);

                if let Some(&(reset, _)) = writes.first() {
                    one_by_one.update_leaf(reset, &[]);
                    leaves[reset] = &[];
                    writes.push((reset, &[]));
                }
                let want = naive_levels(&leaves);
                assert_nodes_match(&one_by_one, &want, &format!("{what} reset"));

                // Fisher–Yates, keeping the reset after the write it undoes.
                let last = writes.len().saturating_sub(1);
                for i in (1..last).rev() {
                    writes.swap(i, rng.gen_index(i + 1));
                }
                let mut bulk = BonsaiMerkleTree::new(n);
                bulk.update_leaves(writes.iter().copied());
                assert_nodes_match(&bulk, &want, &format!("{what} bulk"));
            }
        }
    }

    #[test]
    fn node_reads_every_level_up_to_the_root() {
        let mut t = BonsaiMerkleTree::new(65);
        t.update_leaf(64, b"last");
        assert_eq!(t.node(0, 64), hash_leaf(b"last"));
        assert_eq!(t.node(1, 8), hash_children(&[hash_leaf(b"last")]));
        assert_eq!(t.node(t.height() - 1, 0), t.root());
    }

    #[test]
    fn any_leaf_change_changes_root() {
        let mut t = BonsaiMerkleTree::new(64);
        let base = t.root();
        for i in [0, 7, 8, 63] {
            let mut t2 = t.clone();
            t2.update_leaf(i, b"tampered");
            assert_ne!(t2.root(), base, "leaf {i}");
        }
        t.update_leaf(0, b"tampered");
        assert_ne!(t.root(), base);
    }

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(BonsaiMerkleTree::new(8).height(), 2);
        assert_eq!(BonsaiMerkleTree::new(9).height(), 3);
        assert_eq!(BonsaiMerkleTree::new(64).height(), 3);
        assert_eq!(BonsaiMerkleTree::new(65).height(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_update_panics() {
        BonsaiMerkleTree::new(4).update_leaf(4, b"");
    }
}
