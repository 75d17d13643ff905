//! A Bonsai Merkle tree (BMT) over counter blocks.
//!
//! Kept for the paper's §II comparison: a BMT node is a *hash* of its
//! children, so the whole tree can be reconstructed bottom-up from the
//! leaves — which is how Triad-NVM recovers. The SIT cannot be rebuilt
//! that way (child MACs need parent counters), and contrasting the two is
//! part of the reproduction's test suite.
//!
//! This is an in-memory model over an arbitrary number of leaves, with
//! incremental updates and per-node reads, plus [`RootBuilder`], which
//! streams leaves into the root without keeping the tree.
//!
//! SHA-256 is a pure function of its input, so a chunk equal to the one
//! before it has that chunk's digest. Both [`BonsaiMerkleTree::new`] and
//! [`RootBuilder`] reuse it instead of hashing again: a tree of identical
//! empty leaves costs O(height) hashes, and rebuilding a mostly untouched
//! tree costs O(written leaves × height).

use star_crypto::sha256::Sha256;

/// Arity of the BMT (8, matching the SIT for comparability).
pub const BMT_ARITY: usize = 8;

/// A 32-byte BMT hash.
pub type BmtHash = [u8; 32];

/// An 8-ary Merkle tree over fixed-size leaf blobs.
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
    /// `levels[0]` are the leaf hashes; `levels.last()` has length 1.
    levels: Vec<Vec<BmtHash>>,
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

/// The level above `below`: one digest per chunk of [`BMT_ARITY`]
/// children, reusing the previous chunk's digest when a chunk repeats it.
fn hash_level(below: &[BmtHash]) -> Vec<BmtHash> {
    let mut prev: Option<(&[BmtHash], BmtHash)> = None;
    below
        .chunks(BMT_ARITY)
        .map(|chunk| {
            let digest = match prev {
                Some((p, d)) if p == chunk => d,
                _ => hash_children(chunk),
            };
            prev = Some((chunk, digest));
            digest
        })
        .collect()
}

impl BonsaiMerkleTree {
    /// Creates a tree over `leaves` empty leaves.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn new(leaves: usize) -> Self {
        assert!(leaves > 0, "tree needs at least one leaf");
        let mut levels = vec![vec![hash_leaf(&[]); leaves]];
        while levels.last().expect("nonempty").len() > 1 {
            let level = hash_level(levels.last().expect("nonempty"));
            levels.push(level);
        }
        Self { levels }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Number of levels, leaves included.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The root hash.
    pub fn root(&self) -> BmtHash {
        self.levels.last().expect("nonempty")[0]
    }

    /// The digest of node `index` at `level`: level 0 holds the leaf
    /// hashes and level [`height`](Self::height)` - 1` the root.
    ///
    /// # Panics
    ///
    /// Panics if `level` or `index` is out of range.
    pub fn node(&self, level: usize, index: usize) -> BmtHash {
        self.levels[level][index]
    }

    /// Replaces leaf `index` and rehashes its branch (O(height)).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.leaf_count(), "leaf index out of range");
        self.levels[0][index] = hash_leaf(data);
        let mut child = index;
        for lvl in 1..self.levels.len() {
            let parent = child / BMT_ARITY;
            let start = parent * BMT_ARITY;
            let end = (start + BMT_ARITY).min(self.levels[lvl - 1].len());
            let digest = hash_children(&self.levels[lvl - 1][start..end]);
            self.levels[lvl][parent] = digest;
            child = parent;
        }
    }
}

/// Streams leaves bottom-up into the root of the tree over them, as
/// Triad-NVM does on recovery, without keeping the tree: it holds one
/// pending chunk per level and allocates nothing per leaf or per chunk.
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

    /// The reference rebuild: every leaf and every chunk hashed, level by
    /// level, nothing reused.
    fn naive_root(leaves: &[&[u8]]) -> BmtHash {
        let mut level: Vec<BmtHash> = if leaves.is_empty() {
            vec![hash_leaf(&[])]
        } else {
            leaves.iter().map(|l| hash_leaf(l)).collect()
        };
        while level.len() > 1 {
            level = level.chunks(BMT_ARITY).map(hash_children).collect();
        }
        level[0]
    }

    fn streamed_root(leaves: &[&[u8]]) -> BmtHash {
        let mut b = RootBuilder::default();
        for leaf in leaves {
            b.push_leaf(leaf);
        }
        b.finish()
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

    /// Reused digests are exact: the streamed root, the incremental tree
    /// and `new(n)` all equal the naive rebuild, over sizes around every
    /// chunk boundary and densities from empty to full, with runs of
    /// identical non-empty leaves and a lone written leaf inside a long
    /// empty run.
    #[test]
    fn memoized_roots_match_the_naive_rebuild() {
        let mut rng = SimRng::seed_from_u64(0x626d_745f_6d65_6d6f);
        let blobs: [&[u8]; 3] = [&[0xa5; 64], &[0x3c; 64], &[0; 32]];
        for n in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 513, 4097] {
            let empty = vec![&[][..]; n];
            assert_eq!(streamed_root(&empty), naive_root(&empty), "n={n} empty");
            if n > 0 {
                assert_eq!(BonsaiMerkleTree::new(n).root(), naive_root(&empty), "n={n}");
            }
            for density in [0.0, 0.01, 0.1, 0.5, 0.9, 1.0] {
                // Written leaves come in runs of 1–20 copies of one of
                // three blobs, so equal neighbours are common.
                let mut leaves: Vec<&[u8]> = Vec::with_capacity(n);
                while leaves.len() < n {
                    let run = (1 + rng.gen_index(20)).min(n - leaves.len());
                    let leaf: &[u8] = if rng.gen_bool(density) {
                        blobs[rng.gen_index(blobs.len())]
                    } else {
                        &[]
                    };
                    leaves.extend(std::iter::repeat_n(leaf, run));
                }
                let want = naive_root(&leaves);
                assert_eq!(streamed_root(&leaves), want, "n={n} density={density}");
                if n > 0 {
                    let mut t = BonsaiMerkleTree::new(n);
                    for (i, leaf) in leaves.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
                        t.update_leaf(i, leaf);
                    }
                    assert_eq!(t.root(), want, "n={n} density={density}");
                }
            }
            if n > 2 {
                let mut lone = empty.clone();
                lone[n / 2] = blobs[0];
                assert_eq!(streamed_root(&lone), naive_root(&lone), "n={n} lone");
                assert_ne!(streamed_root(&lone), naive_root(&empty), "n={n} lone");
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
