//! Cryptographic primitives for the STAR secure-NVM model.
//!
//! Everything is implemented from scratch so that the workspace has no
//! external cryptography dependencies:
//!
//! * [`aes`] — the AES-128 block cipher (FIPS-197), used to generate
//!   counter-mode one-time pads.
//! * [`ctr`] — counter-mode encryption: the one-time pad derived from
//!   `(key, line address, counter)` that the paper's Fig. 1(b) describes.
//! * [`sha256`] — SHA-256 (FIPS-180-4), used by the Bonsai Merkle tree and
//!   the cache-tree set-MACs.
//! * [`siphash`] — SipHash-2-4, the fast keyed hash behind the 54-bit node
//!   MACs.
//! * [`mac`] — [`mac::Mac54`], the truncated 54-bit MAC whose 10 spare bits
//!   STAR reuses for counter-MAC synergization, plus [`mac::MacInput`], a
//!   canonical serializer for the fields that enter a node/data MAC.
//!
//! # Example
//!
//! ```
//! use star_crypto::mac::{MacInput, MacKey};
//!
//! let key = MacKey::from_seed(7);
//! let mac = MacInput::new()
//!     .u64(0xdead_beef)         // node address
//!     .bytes(&[1, 2, 3, 4])     // payload
//!     .mac54(&key);
//! assert!(mac.as_u64() < (1 << 54));
//! ```

// Unsafe is denied crate-wide; the two exceptions are the hardware
// AES-NI round path in `aes` and the SHA-NI compression in `sha256`,
// which need `core::arch` intrinsics and each carry their own scoped
// allow plus a runtime feature gate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod mac;
pub mod sha256;
pub mod siphash;

pub use aes::Aes128;
pub use ctr::one_time_pad;
pub use mac::{Mac54, MacInput, MacKey};
pub use sha256::Sha256;
pub use siphash::SipHash24;
