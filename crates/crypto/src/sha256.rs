//! SHA-256 (FIPS-180-4).
//!
//! Used where the paper calls for a cryptographic hash tree: the Bonsai
//! Merkle tree nodes and the cache-tree set-MAC combination. A streaming
//! [`Sha256`] hasher is provided so callers can feed fields incrementally.
//!
//! The compression function dispatches at runtime to the x86 SHA
//! extensions when the host has them and to the portable software rounds
//! otherwise. Both compute the same FIPS-180-4 function, so digests are
//! identical across hosts; the software path is the differential oracle
//! for the hardware one in the tests.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// ```
/// use star_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Convenience: hash `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        star_scope::span!("crypto/sha256");
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
            if rest.is_empty() {
                // Everything fit in the buffer; falling through would
                // clobber `buffered` with the empty remainder.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(64);
        for chunk in &mut chunks {
            let block: [u8; 64] = chunk.try_into().unwrap();
            self.compress(&block);
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        star_scope::span!("crypto/sha256");
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Build the padded tail in place: 0x80, zeros to the length field.
        // If the marker lands past byte 55 the length spills into a second
        // block.
        self.buffer[self.buffered] = 0x80;
        for b in &mut self.buffer[self.buffered + 1..] {
            *b = 0;
        }
        if self.buffered >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::try_compress(&mut self.state, block) {
            return;
        }
        compress_soft(&mut self.state, block);
    }
}

/// One FIPS-180-4 compression of `block` into `state`, in portable Rust.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let delta = [a, b, c, d, e, f, g, h];
    for (s, d) in state.iter_mut().zip(delta) {
        *s = s.wrapping_add(d);
    }
}

/// The hardware path: the SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`) run two rounds, or one message-schedule step on four
/// words, per instruction. The state lives in the `ABEF`/`CDGH` register
/// split those instructions expect, converted on entry and exit.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether the host CPU has every feature [`compress`] enables (the
    /// result is cached by the detection macro).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `block` into `state` if the host has the SHA
    /// extensions; returns false (state untouched) otherwise.
    #[inline]
    pub fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: gated on runtime detection of every feature `compress`
        // enables (`sha`, `ssse3`, `sse4.1`; `sse2` is baseline x86_64).
        unsafe { compress(state, block) };
        true
    }

    /// Four message-schedule words `W[i..i+4]` from the sixteen before
    /// them, held as `w0 = W[i-16..i-12]` up to `w3 = W[i-4..i]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // W[i-16] + σ0(W[i-15]), plus W[i-7], then σ1(W[i-2]).
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// One compression of `block` into `state`.
    ///
    /// # Safety
    ///
    /// The caller must have verified [`available`] on this host.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte order within each 32-bit word: the block is big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Every load and store below stays inside `state` (two 16-byte
        // halves), `block` (four 16-byte quarters) or `K` (sixteen).
        // Names list lanes high to low, as Intel's ABEF/CDGH do: the state
        // words load as `dcba` and `hgfe` and are regrouped into the two
        // halves `sha256rnds2` works on.
        let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xb1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let k = &K;
        let mut w: [__m128i; 4] = core::array::from_fn(|i| {
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), be_words)
        });
        for i in 0..16 {
            if i >= 4 {
                // The oldest slot becomes the next four schedule words.
                w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            }
            let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(k.as_ptr().add(4 * i).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        // Back to `dcba` and `hgfe`.
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_rng::SimRng;

    /// A compression path: one block into the state.
    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The SHA-NI compression, or `None` when the host lacks it.
    fn hardware() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return Some(|state, block| assert!(shani::try_compress(state, block)));
        }
        None
    }

    /// Every compression path the host can run: the software rounds
    /// always, the SHA extensions where present.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("soft", compress_soft)];
        paths.extend(hardware().map(|c| ("sha-ni", c)));
        paths
    }

    /// One-shot SHA-256 over `compress`, padding the whole message up
    /// front — independent of the streaming hasher's buffering.
    fn digest_with(data: &[u8], compress: Compress) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// NIST FIPS-180-4 example vectors, through the dispatching hasher
    /// and through every compression path.
    #[test]
    fn nist_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(hex(&Sha256::digest(data)), want, "{} bytes", data.len());
            for (name, compress) in paths() {
                assert_eq!(hex(&digest_with(data, compress)), want, "{name}");
            }
        }
    }

    /// One million 'a' characters — exercises the streaming path.
    #[test]
    fn nist_long_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The SHA-NI kernel equals the software rounds on random states and
    /// blocks. Skips (passes vacuously) on a host without SHA-NI.
    #[test]
    fn sha_ni_matches_soft_compression() {
        let Some(hw) = hardware() else {
            eprintln!("host lacks SHA-NI: differential test skipped");
            return;
        };
        let mut rng = SimRng::seed_from_u64(0x7368_615f_6e69_5f64);
        for _ in 0..2_000 {
            let mut state: [u32; 8] = core::array::from_fn(|_| rng.gen_u32());
            let block: [u8; 64] = core::array::from_fn(|_| rng.gen_u8());
            let mut want = state;
            compress_soft(&mut want, &block);
            hw(&mut state, &block);
            assert_eq!(state, want);
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
        for len in 0..200 {
            let want = digest_with(&data[..len], compress_soft);
            assert_eq!(Sha256::digest(&data[..len]), want, "len {len}");
        }
    }
}
