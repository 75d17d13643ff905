//! Security-metadata formats and integrity-tree structure.
//!
//! The paper's security metadata are 64-byte blocks of two kinds with the
//! *same* layout: counter blocks (the leaves of the SGX integrity tree,
//! which encrypt user data) and SIT nodes. Each holds eight 56-bit
//! counters and one 64-bit MAC field; the MAC itself is 54 bits, leaving
//! 10 bits that STAR reuses for the parent-counter LSBs.
//!
//! * [`node`] — [`node::Node64`] (the 64-byte node) and
//!   [`node::MacField`] (54-bit MAC ∥ 10-bit LSBs).
//! * [`data`] — [`data::DataLine`], a user-data line with its
//!   Synergy-style co-located MAC field.
//! * [`geometry`] — [`geometry::SitGeometry`]: the 8-ary, 9-level tree
//!   over 16 GB, node addressing, parent/child maps and the metadata
//!   region layout.
//! * [`sit`] — the MAC binding: how a node's (or data line's) MAC is
//!   computed from its address, its content, the corresponding counter in
//!   its parent, and the stored LSBs.
//! * [`bmt`] — a Bonsai Merkle tree, kept for the Triad-NVM comparison:
//!   it *can* be rebuilt bottom-up from leaves, which is exactly what SIT
//!   cannot do (the property motivating STAR).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bmt;
pub mod data;
pub mod geometry;
pub mod node;
pub mod sit;

pub use data::DataLine;
pub use geometry::{NodeChild, NodeId, SitGeometry};
pub use node::{MacField, Node64, COUNTER_MASK, TREE_ARITY};
pub use sit::SitMac;
