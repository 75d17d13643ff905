//! SipHash-2-4 (Aumasson & Bernstein), the fast keyed hash used for the
//! 54-bit node MACs.
//!
//! SipHash is a PRF with a 128-bit key and 64-bit output, designed for
//! short inputs — exactly the shape of a 64-byte metadata node plus a few
//! address/counter words. The implementation follows the reference
//! description and is validated against the reference test vectors.

/// A SipHash-2-4 instance keyed with `(k0, k1)`.
///
/// ```
/// use star_crypto::SipHash24;
/// let h = SipHash24::new(1, 2);
/// assert_eq!(h.hash(b"abc"), SipHash24::new(1, 2).hash(b"abc"));
/// assert_ne!(h.hash(b"abc"), SipHash24::new(1, 3).hash(b"abc"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

impl SipHash24 {
    /// Creates a hasher from the two 64-bit key halves.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1 }
    }

    /// Hashes `data` to a 64-bit value.
    #[inline]
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut v = [
            self.k0 ^ 0x736f_6d65_7073_6575,
            self.k1 ^ 0x646f_7261_6e64_6f6d,
            self.k0 ^ 0x6c79_6765_6e65_7261,
            self.k1 ^ 0x7465_6462_7974_6573,
        ];
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().unwrap());
            v[3] ^= m;
            sip_round(&mut v);
            sip_round(&mut v);
            v[0] ^= m;
        }
        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = data.len() as u8;
        let m = u64::from_le_bytes(last);
        v[3] ^= m;
        sip_round(&mut v);
        sip_round(&mut v);
        v[0] ^= m;

        v[2] ^= 0xff;
        for _ in 0..4 {
            sip_round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's key for its published vectors.
    fn reference_hasher() -> SipHash24 {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        SipHash24::new(k0, k1)
    }

    /// First few vectors from the SipHash reference implementation
    /// (`vectors_sip64` in the reference `siphash.c`): input is the byte
    /// string `00 01 02 ...` of increasing length.
    #[test]
    fn reference_vectors() {
        let expect: [u64; 8] = [
            u64::from_le_bytes([0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            u64::from_le_bytes([0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            u64::from_le_bytes([0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d]),
            u64::from_le_bytes([0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
            u64::from_le_bytes([0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf]),
            u64::from_le_bytes([0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18]),
            u64::from_le_bytes([0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb]),
            u64::from_le_bytes([0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab]),
        ];
        let h = reference_hasher();
        let input: Vec<u8> = (0..8).map(|i| i as u8).collect();
        for (len, want) in expect.iter().enumerate() {
            assert_eq!(h.hash(&input[..len]), *want, "length {len}");
        }
    }

    #[test]
    fn longer_inputs_cross_block_boundary() {
        let h = reference_hasher();
        let a: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..64).map(|i| (i as u8) ^ 1).collect();
        assert_ne!(h.hash(&a), h.hash(&b));
    }

    #[test]
    fn empty_input_is_defined() {
        // From the reference vectors: hash of the empty string.
        let want = u64::from_le_bytes([0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]);
        assert_eq!(reference_hasher().hash(&[]), want);
    }
}
