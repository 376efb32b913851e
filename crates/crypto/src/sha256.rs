//! SHA-256 (FIPS 180-4), implemented from scratch, hardware-dispatched via
//! `std::arch`, with a scalar fallback and identical digests.
//!
//! This is the conventional secure one-way hash `h` used throughout the
//! compliance architecture: tuple hashes inside ADD-HASH and `Hs`, page-read
//! hashes, `SHREDDED` content hashes, and the Lamport signature scheme.
//!
//! Every digest goes through one block-compression entry point,
//! `compress_blocks`. On x86-64 CPUs with the SHA extensions it runs a
//! kernel built on the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions
//! (selected at run time, per call, through `std`'s cached CPU-feature
//! detection); everywhere else it runs the textbook 64-round scalar
//! compression function. Both kernels compute the same FIPS 180-4 function,
//! so the choice never changes a digest: the unit tests cross-check them
//! block for block and pin digests computed before the hardware kernel
//! existed. The incremental (`update`/`finalize`) interface hands the
//! kernel every whole block of an `update` at once, so a 4 KiB page pays
//! one dispatch, and `finalize` compresses its one or two padding blocks
//! directly.

/// A 256-bit digest.
pub type Digest = [u8; 32];

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

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block not yet compressed.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return self;
            }
            compress_blocks(&mut self.state, core::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Finishes the computation, producing the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 64-bit big-endian bit length — one block if
        // the partial block leaves room for the 9 bytes, else two.
        let n = self.buf_len;
        let mut tail = [[0u8; 64]; 2];
        tail[0][..n].copy_from_slice(&self.buf[..n]);
        tail[0][n] = 0x80;
        let blocks = if n < 56 { 1 } else { 2 };
        tail[blocks - 1][56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..blocks]);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Runs the SHA-256 compression function over `blocks` in order, updating
/// `state` — the one entry point every digest in the crate goes through.
///
/// Uses the x86-64 SHA extensions when this CPU has them and the portable
/// scalar rounds otherwise; both give the same result.
#[allow(unsafe_code)]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_selected() {
        // SAFETY: `sha_ni_selected` returned true only after
        // `sha_ni::available()` confirmed at run time that this CPU has the
        // `sha`, `ssse3` and `sse4.1` features `sha_ni::compress` is
        // compiled for.
        return unsafe { sha_ni::compress(state, blocks) };
    }
    compress_portable(state, blocks);
}

#[cfg(test)]
thread_local! {
    /// Test-only: routes this thread's hashing through the portable kernel,
    /// so the golden tests run on both kernels on SHA-capable hosts.
    static FORCE_PORTABLE: core::cell::Cell<bool> = const { core::cell::Cell::new(false) };
}

/// Whether [`compress_blocks`] runs the SHA-NI kernel (on this thread).
#[cfg(target_arch = "x86_64")]
fn sha_ni_selected() -> bool {
    #[cfg(test)]
    if FORCE_PORTABLE.with(core::cell::Cell::get) {
        return false;
    }
    sha_ni::available()
}

/// The portable kernel: the textbook 64-round compression, one block at a
/// time.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress_block(state, block);
    }
}

fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI kernel. The state lives in two registers in the layout
/// `sha256rnds2` expects — `(a, b, e, f)` and `(c, d, g, h)`, highest lane
/// first — for all blocks of one call, and is shuffled in and out once.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::K;

    /// Whether this CPU can run [`compress`]; `std` caches the detection.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words: &[[u8; 16]; 4] = block.as_chunks().0.try_into().expect("4 x 16 bytes");
            let [mut w0, mut w1, mut w2, mut w3] = words.each_ref().map(|w| load_be_words(w));
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Message groups 4..16, each from the four before it; the ring
            // of four stays in registers.
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|w| w as u32);
    }

    /// Four big-endian message words, lowest word in the lowest lane.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_be_words(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` refers to 16 initialized bytes, exactly what the
        // load reads, and `_mm_loadu_si128` has no alignment requirement.
        let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(v, bswap)
    }

    /// Rounds `4i .. 4i+4` with message group `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        let wk =
            _mm_add_epi32(w, _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32));
        // Two rounds per instruction; after each pair the old (a, b, e, f)
        // becomes the new (c, d, g, h).
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next message group from the previous four, `w0` oldest.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of two byte strings, without allocating.
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
pub(crate) mod tests {
    use ccdb_common::SplitMix64;

    use super::*;
    use crate::to_hex;

    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The SHA-NI kernel, called directly, where this CPU can run it.
    #[allow(unsafe_code)]
    pub(crate) fn sha_ni_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            return Some(|state, blocks| {
                // SAFETY: this closure is only handed out after
                // `sha_ni::available()` confirmed the CPU features
                // `sha_ni::compress` is compiled for.
                unsafe { sha_ni::compress(state, blocks) }
            });
        }
        None
    }

    /// Runs `f` with this thread's hashing on the portable kernel.
    fn on_portable<R>(f: impl FnOnce() -> R) -> R {
        FORCE_PORTABLE.with(|c| c.set(true));
        let r = f();
        FORCE_PORTABLE.with(|c| c.set(false));
        r
    }

    /// Runs `check` once on each kernel this CPU can run, naming the kernel;
    /// prints a note where the SHA-NI half has to be skipped.
    pub(crate) fn on_each_kernel(check: impl Fn(&str)) {
        on_portable(|| check("portable"));
        if sha_ni_kernel().is_some() {
            check("sha-ni");
        } else {
            println!(
                "note: this CPU lacks the SHA extensions; only the portable kernel was checked"
            );
        }
    }

    #[test]
    fn reports_the_selected_kernel() {
        let kernel = if sha_ni_kernel().is_some() {
            "sha-ni (x86-64 SHA extensions)"
        } else {
            "portable (scalar rounds)"
        };
        println!("sha256 kernel selected on this CPU: {kernel}");
    }

    #[test]
    fn kernels_agree_on_random_state_block_pairs() {
        let Some(sha_ni) = sha_ni_kernel() else {
            println!("note: this CPU lacks the SHA extensions; differential check skipped");
            return;
        };
        let mut rng = SplitMix64::seed_from_u64(0x5AA_D1FF);
        let mut blocks = [[0u8; 64]; 8];
        for case in 0..100_000u32 {
            let state: [u32; 8] = core::array::from_fn(|_| rng.next_u64() as u32);
            // Mostly single blocks; every 16th case a run of up to eight, so
            // the state also carries across blocks inside one call.
            let n = if case % 16 == 0 { rng.gen_range(2..=8usize) } else { 1 };
            for b in &mut blocks[..n] {
                rng.fill_bytes(b);
            }
            let (mut portable, mut hw) = (state, state);
            compress_portable(&mut portable, &blocks[..n]);
            sha_ni(&mut hw, &blocks[..n]);
            assert_eq!(portable, hw, "case {case}: state {state:08x?}, {n} block(s)");
        }
    }

    #[test]
    fn every_length_and_chunking_agrees_on_each_kernel() {
        let mut data = vec![0u8; 1100];
        SplitMix64::seed_from_u64(0x1100).fill_bytes(&mut data);
        let reference: Vec<Digest> =
            on_portable(|| (0..=data.len()).map(|n| sha256(&data[..n])).collect());
        on_each_kernel(|kernel| {
            for (n, want) in reference.iter().enumerate() {
                let msg = &data[..n];
                assert_eq!(&sha256(msg), want, "{kernel}: one-shot, length {n}");
                for chunk in [1usize, 3, 55, 56, 63, 64, 65] {
                    let mut h = Sha256::new();
                    for c in msg.chunks(chunk) {
                        h.update(c);
                    }
                    assert_eq!(&h.finalize(), want, "{kernel}: chunks of {chunk}, length {n}");
                }
            }
        });
    }

    #[test]
    fn nist_vectors_on_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        on_each_kernel(|kernel| {
            for (msg, want) in vectors {
                assert_eq!(to_hex(&sha256(msg)), want, "{kernel}: {}-byte vector", msg.len());
            }
        });
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let expected = sha256(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn pair_matches_concatenation() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
        assert_eq!(sha256_pair(b"", b"abc"), sha256(b"abc"));
    }

    #[test]
    fn exactly_55_56_63_64_byte_messages() {
        // Padding edge cases around the block boundary.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0x5Au8; n];
            let one = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), one, "length {n}");
        }
    }
}
