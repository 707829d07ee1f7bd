//! CRC-32 (IEEE 802.3) checksums for checkpoint integrity.
//!
//! A checkpoint that is half-written when a node dies must be detected as
//! invalid during recovery; the storage layer stamps every record with a
//! CRC32 and `CheckpointStore::latest_valid` skips corrupt files. Every
//! caller — the codec seal and `Cursor::open`, stripe manifests, wire
//! frames, the cluster's shard digest — goes through [`crc32`] or
//! [`Hasher`], so all of them get the fastest kernel the host has.
//!
//! Two kernels compute the same function:
//!
//! * **Carry-less multiply** (x86_64 with `pclmulqdq` and `sse4.1`, inputs
//!   of at least 64 bytes). Four 128-bit lanes fold 64 bytes per step with
//!   PCLMULQDQ, then fold into one lane, reduce 128 → 64 bits and finish
//!   with a Barrett reduction to 32 bits, after Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//!   (Intel, 2009). It runs at memory bandwidth on whole checkpoint
//!   buffers. The kernel is chosen by runtime CPU detection only.
//! * **Slicing-by-8** for everything else: shorter inputs, the sub-16-byte
//!   tail the folding kernel leaves, other architectures and CPUs without
//!   the instructions. Eight 256-entry tables consume 8 bytes per round.
//!
//! Both are bit-identical to the classic byte-at-a-time table walk
//! (`crc32_bytewise` in the dev-only `lowdiff-testkit` crate, the oracle
//! for equivalence tests and benchmarks). [`crc32_combine`] derives the
//! CRC of a concatenation from the CRCs of its parts, so data already
//! checksummed piecewise is never read a second time.

/// The CRC-32 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Lazily-built slicing-by-8 tables (reflected polynomial [`POLY`]).
/// `tables()[0]` is the classic single-byte table.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Compute the CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// The CRC32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, without reading either buffer.
///
/// zlib's construction: appending `len_b` zero bytes to `a` is a linear
/// operator on the 32-bit CRC register, a 32×32 matrix over GF(2). The
/// operator for one zero bit is squared up to one zero byte and then
/// applied by square-and-multiply over the bits of `len_b`, so the cost is
/// O(log len_b) matrix squarings.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    // Row n of a matrix is the image of register bit n.
    let mut odd = [0u32; 32];
    odd[0] = POLY; // one zero bit: shift right, reduce by the polynomial
    for (n, row) in odd.iter_mut().enumerate().skip(1) {
        *row = 1 << (n - 1);
    }
    let mut even = gf2_square(&odd); // two zero bits
    odd = gf2_square(&even); // four zero bits

    let (mut crc, mut len) = (crc_a, len_b);
    loop {
        // The first squaring turns four zero bits into one zero byte.
        even = gf2_square(&odd);
        if len & 1 != 0 {
            crc = gf2_times(&even, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        odd = gf2_square(&even);
        if len & 1 != 0 {
            crc = gf2_times(&odd, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    crc ^ crc_b
}

/// `mat · vec` over GF(2).
fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    for row in mat {
        if vec == 0 {
            break;
        }
        if vec & 1 != 0 {
            sum ^= row;
        }
        vec >>= 1;
    }
    sum
}

/// `mat · mat` over GF(2).
fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|n| gf2_times(mat, mat[n]))
}

/// Streaming CRC32 hasher for data produced in chunks (the checkpoint codec
/// serializes tensor-by-tensor without materializing one big buffer).
#[derive(Clone, Debug)]
pub struct Hasher {
    /// The CRC register (pre-inversion), carried as-is between calls.
    state: u32,
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes: the carry-less-multiply kernel for inputs of at
    /// least 64 bytes when the CPU has it, slicing-by-8 otherwise.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::detected() {
            // SAFETY: `clmul::detected()` has just confirmed that this CPU
            // supports `pclmulqdq` and `sse4.1`, the target features
            // `clmul::update` is compiled with.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = update_sliced(self.state, data);
    }

    /// Final digest.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// The portable kernel: advance the CRC register `c` over `data`,
/// slicing-by-8 (8 bytes per table round, then a bytewise tail).
fn update_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for ch in chunks.by_ref() {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The PCLMULQDQ folding kernel (x86_64). Its `#[target_feature]`
/// functions stay private to this module tree; [`Hasher::update`] is the
/// only caller, behind [`clmul::detected`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel takes: the four lanes load 64 bytes.
    pub(super) const MIN_LEN: usize = 64;

    // Fold and reduction constants for the bit-reflected polynomial,
    // `k(n) = reflect32(x^n mod P(x)) << 1`. The `derived_constants` test
    // recomputes every one of them from `POLY`.
    /// Fold a lane forward by 512 bits: `k(4·128 + 32)`.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    /// `k(4·128 − 32)`.
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// Fold a lane forward by 128 bits: `k(128 + 32)`.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    /// `k(128 − 32)`; also the 128 → 96-bit step of the final reduction.
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// The 96 → 64-bit step: `k(64)`.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// `P(x)` bit-reflected over its 33 bits.
    pub(super) const P_X: u64 = 0x1_DB71_0641;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, bit-reflected over its 33 bits.
    pub(super) const MU: u64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Load 16 bytes (unaligned).
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("folding blocks are 16 bytes");
        // SAFETY: `block` is 16 readable bytes and `_mm_loadu_si128` has no
        // alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Fold `acc` forward over the distance `keys` encodes and add `next`:
    /// `acc.lo · keys.lo ⊕ acc.hi · keys.hi ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance the CRC register `state` over `data` (at least [`MIN_LEN`]
    /// bytes). Whole 64- and 16-byte blocks are folded; the last < 16
    /// bytes go through the portable kernel.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let mut quads = data.chunks_exact(64);
        let first = quads.next().expect("callers pass at least MIN_LEN bytes");
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..16 * i + 16]));
        // The register enters as the first 32 bits of the message.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        // Fold by 4: each lane jumps 512 bits over the other three.
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for quad in quads.by_ref() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, load(&quad[16 * i..16 * i + 16]), k1k2);
            }
        }

        // Fold the four lanes into one, then by 1 over the 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in blocks.by_ref() {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 96 bits: the low half times K4, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times K5, plus the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, 64 → 32 bits (bit-reflected variant):
        // T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, CRC = (R ⊕ T2) / x^32.
        let pu = _mm_set_epi64x(MU as i64, P_X as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_sliced(crc, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Hasher::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data: Vec<u8> = (0..1024u32).map(|x| x as u8).collect();
        let clean = crc32(&data);
        for bit in [0usize, 100 * 8 + 3, 1023 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }

    /// Pseudo-random bytes, reproducible per seed.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::DetRng::new(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    /// One-shot portable CRC.
    fn sliced(data: &[u8]) -> u32 {
        update_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_equals_portable_kernel() {
        if !clmul::detected() {
            eprintln!("pclmulqdq/sse4.1 not detected: folding kernel not exercised");
            return;
        }
        let data = noise(1024 + 16, 2);
        for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
            for align in 0..16 {
                for len in clmul::MIN_LEN..=1024 {
                    let s = &data[align..align + len];
                    // SAFETY: `clmul::detected()` returned true above, so
                    // this CPU supports `pclmulqdq` and `sse4.1`.
                    let got = unsafe { clmul::update(state, s) };
                    assert_eq!(got, update_sliced(state, s), "align={align} len={len}");
                }
            }
        }
        let big = noise((1 << 20) + 3, 3);
        // SAFETY: as above, `clmul::detected()` returned true.
        let got = unsafe { clmul::update(0xFFFF_FFFF, &big) };
        assert_eq!(got, update_sliced(0xFFFF_FFFF, &big));
    }

    #[test]
    fn streaming_in_random_pieces_equals_oneshot() {
        let data = noise(200_000, 4);
        let want = sliced(&data);
        let mut rng = crate::DetRng::new(4);
        for _ in 0..20 {
            let mut h = Hasher::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                // Mostly pieces under 64 bytes, some large ones.
                let cap = if rng.below(4) == 0 { 20_000 } else { 70 };
                let n = (rng.below(cap) as usize).min(rest.len());
                h.update(&rest[..n]);
                rest = &rest[n..];
            }
            assert_eq!(h.finalize(), want);
        }
    }

    /// `x^n mod P(x)` in the unreflected domain.
    fn xpow_mod(n: u32) -> u32 {
        let p = POLY.reverse_bits();
        let mut r = 1u32;
        for _ in 0..n {
            let carry = r & 0x8000_0000 != 0;
            r <<= 1;
            if carry {
                r ^= p;
            }
        }
        r
    }

    /// `⌊x^64 / P(x)⌋` (33 bits) in the unreflected domain.
    fn barrett_mu() -> u64 {
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut rem, mut q) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                rem ^= p << bit;
                q |= 1 << bit;
            }
        }
        q
    }

    #[test]
    fn derived_constants() {
        let k = |n: u32| (xpow_mod(n).reverse_bits() as u64) << 1;
        assert_eq!(POLY.reverse_bits(), 0x04C1_1DB7, "the normal polynomial");
        #[cfg(target_arch = "x86_64")]
        {
            let reflect33 = |x: u64| x.reverse_bits() >> 31;
            assert_eq!(clmul::K1, k(4 * 128 + 32));
            assert_eq!(clmul::K2, k(4 * 128 - 32));
            assert_eq!(clmul::K3, k(128 + 32));
            assert_eq!(clmul::K4, k(128 - 32));
            assert_eq!(clmul::K5, k(64));
            assert_eq!(
                clmul::P_X,
                reflect33((1 << 32) | POLY.reverse_bits() as u64)
            );
            assert_eq!(clmul::MU, reflect33(barrett_mu()));
        }
        // Sanity of the derivation itself: x^32 mod P is P without its
        // leading term, and μ is the textbook CRC-32 value.
        assert_eq!(k(32), (POLY as u64) << 1);
        assert_eq!(barrett_mu(), 0x1_04D1_01DF);
    }

    #[test]
    fn combine_with_a_long_second_part() {
        // Every split of short buffers is a property test; here a length
        // with many bits set takes the operator through many squarings.
        let big = noise(3 << 20, 6);
        let (a, b) = big.split_at(12_345);
        assert_eq!(
            crc32_combine(crc32(a), crc32(b), b.len() as u64),
            crc32(&big)
        );
    }
}
