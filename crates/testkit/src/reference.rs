//! The pre-bulk, per-element codec, retained verbatim in behavior:
//! element-at-a-time `to_le_bytes` loops, a full payload copy at seal
//! time, and a full input copy before decoding — exactly the costs the
//! bulk codec in `lowdiff_storage::codec` removed. It writes the legacy v1
//! layouts (no aux trailer, raw `u32` sparse indices), which makes it the
//! fabricator of v1 blobs for backward-compatibility tests; property tests
//! assert the bulk encoder's region bytes equal its output, and
//! `bench_hotpath` times the gap.
//!
//! [`decode_full_checkpoint`] is the two-pass full-checkpoint decoder
//! (whole-body CRC, then parse) whose verdict the one-pass decoder must
//! reproduce for every input.
//!
//! [`crc32_bytewise`] is the classic byte-at-a-time table walk the
//! slicing-by-8 `lowdiff_util::crc32` is proven equal to.
//!
//! [`matmul_nt_scalar`] is the one-dot-per-output `A · Bᵀ` the
//! register-blocked `lowdiff_tensor::ops::matmul_nt` is proven bit-identical
//! to.

use lowdiff_compress::{AuxState, CompressedGrad, CompressorCfg, CompressorKind, QuantPolicyState};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::codec::{
    CodecError, DiffEntry, FullCheckpoint, FULL_VERSION_V2, MAGIC_DIFF, MAGIC_FULL, VERSION,
};
use lowdiff_tensor::Tensor;
use lowdiff_util::crc::crc32;
use rayon::prelude::*;
use std::sync::OnceLock;

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.reserve(xs.len() * 4);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    buf.reserve(xs.len() * 4);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Seal with the old copy semantics (`BytesMut::to_vec`).
fn seal_copy(buf: &mut Vec<u8>) -> Vec<u8> {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.clone()
}

/// Per-element serialization of a full checkpoint (v1 layout).
pub fn encode_model_state(state: &ModelState) -> Vec<u8> {
    let psi = state.params.len();
    let mut buf = Vec::with_capacity(34 + psi * 12);
    buf.extend_from_slice(MAGIC_FULL);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&state.iteration.to_le_bytes());
    buf.extend_from_slice(&(psi as u64).to_le_bytes());
    buf.extend_from_slice(&state.opt.t.to_le_bytes());
    put_f32s(&mut buf, &state.params);
    put_f32s(&mut buf, &state.opt.m);
    put_f32s(&mut buf, &state.opt.v);
    seal_copy(&mut buf)
}

/// Split `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if rest.len() < n {
        return Err(CodecError::Corrupt("truncated"));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

fn take_u64(rest: &mut &[u8]) -> Result<u64, CodecError> {
    Ok(u64::from_le_bytes(take(rest, 8)?.try_into().unwrap()))
}

/// Per-element deserialization of a v1 full checkpoint, with the old
/// upfront input copy.
pub fn decode_model_state(data: &[u8]) -> Result<ModelState, CodecError> {
    // The pre-bulk decoder copied the input into an owned buffer first.
    let owned = data.to_vec();
    let body_len = owned
        .len()
        .checked_sub(4)
        .ok_or(CodecError::Corrupt("too short for crc"))?;
    let (body, tail) = owned.split_at(body_len);
    if crc32(body) != u32::from_le_bytes(tail.try_into().unwrap()) {
        return Err(CodecError::CrcMismatch);
    }
    let mut rest = body;
    if take(&mut rest, 4)? != MAGIC_FULL {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(take(&mut rest, 2)?.try_into().unwrap());
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let iteration = take_u64(&mut rest)?;
    let psi = take_u64(&mut rest)? as usize;
    let adam_t = take_u64(&mut rest)?;
    if psi > rest.len() / 12 {
        return Err(CodecError::Corrupt("truncated"));
    }
    let mut read_f32s = || -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::with_capacity(psi);
        for _ in 0..psi {
            out.push(f32::from_le_bytes(take(&mut rest, 4)?.try_into().unwrap()));
        }
        Ok(out)
    };
    let params = read_f32s()?;
    let m = read_f32s()?;
    let v = read_f32s()?;
    if !rest.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    Ok(ModelState {
        iteration,
        params,
        opt: AdamState { m, v, t: adam_t },
    })
}

/// Per-element serialization of a differential batch (v1 layout).
pub fn encode_diff_batch(entries: &[DiffEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC_DIFF);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        buf.extend_from_slice(&e.iteration.to_le_bytes());
        match &e.grad {
            CompressedGrad::Sparse(s) => {
                buf.push(0);
                buf.extend_from_slice(&(s.dense_len as u64).to_le_bytes());
                buf.extend_from_slice(&(s.nnz() as u32).to_le_bytes());
                put_u32s(&mut buf, &s.indices);
                put_f32s(&mut buf, &s.values);
            }
            CompressedGrad::Quant(q) => {
                buf.push(1);
                buf.extend_from_slice(&(q.dense_len as u64).to_le_bytes());
                buf.push(q.bits);
                buf.extend_from_slice(&q.scale.to_le_bytes());
                buf.extend_from_slice(&q.zero.to_le_bytes());
                buf.extend_from_slice(&(q.codes.len() as u32).to_le_bytes());
                buf.extend_from_slice(&q.codes);
            }
            CompressedGrad::Dense(d) => {
                buf.push(2);
                buf.extend_from_slice(&(d.len() as u64).to_le_bytes());
                put_f32s(&mut buf, d);
            }
        }
    }
    seal_copy(&mut buf)
}

/// Reference byte-at-a-time CRC-32 (IEEE 802.3, reflected polynomial
/// 0xEDB88320). Slower than `lowdiff_util::crc32`; exists so tests can
/// assert the slicing-by-8 path is a pure speedup, and so `bench_hotpath`
/// has a baseline to time against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let t = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Reference `C = A(m×k) · B(n×k)ᵀ`: one serial `acc += a[i,p] * b[j,p]`
/// chain per output, rows of C spread over the pool. Every output starts at
/// `+0.0` and sums in `p` order, so it is the exact result the blocked
/// `lowdiff_tensor::ops::matmul_nt` must reproduce bit for bit, and the
/// baseline `bench_hotpath` times it against.
pub fn matmul_nt_scalar(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        let arow = &ad[i * k..(i + 1) * k];
        for (j, r) in row.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *r = acc;
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// Aux flag bits of the v2 full-checkpoint trailer (the wire's, restated).
const AUX_FLAG_RESIDUAL: u8 = 1 << 0;
const AUX_FLAG_COMPRESSOR: u8 = 1 << 1;
const AUX_FLAG_RNG: u8 = 1 << 2;
const AUX_FLAG_QUANT_POLICY: u8 = 1 << 3;
const AUX_FLAGS_KNOWN: u8 =
    AUX_FLAG_RESIDUAL | AUX_FLAG_COMPRESSOR | AUX_FLAG_RNG | AUX_FLAG_QUANT_POLICY;

/// The two-pass LDFC decoder (v1 and v2) that the one-pass
/// `lowdiff_storage::codec::decode_full_checkpoint` replaced: one CRC pass
/// over the whole body, then a parse that bulk-copies each Ψ-sized region
/// into a fresh `Vec`. Its verdict for every input — the value on `Ok`,
/// the exact [`CodecError`] on `Err` — is what the one-pass decoder must
/// return, and `bench_hotpath` times the gap.
pub fn decode_full_checkpoint(data: &[u8]) -> Result<FullCheckpoint, CodecError> {
    let mut cur = Reader::open(data, MAGIC_FULL)?;
    let version = cur.get_u16("truncated header")?;
    if version != VERSION && version != FULL_VERSION_V2 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let iteration = cur.get_u64("truncated header")?;
    let psi = cur.get_u64("truncated header")?;
    let adam_t = cur.get_u64("truncated header")?;
    let params = cur.get_f32s(psi, "truncated f32 array")?;
    let m = cur.get_f32s(psi, "truncated f32 array")?;
    let v = cur.get_f32s(psi, "truncated f32 array")?;
    let mut aux = AuxState::default();
    if version >= FULL_VERSION_V2 {
        let flags = cur.get_u8("missing aux flags")?;
        if flags & !AUX_FLAGS_KNOWN != 0 {
            return Err(CodecError::Corrupt("unknown aux flags"));
        }
        if flags & AUX_FLAG_COMPRESSOR != 0 {
            let kind = CompressorKind::from_u8(cur.get_u8("truncated compressor cfg")?)
                .ok_or(CodecError::Corrupt("unknown compressor kind"))?;
            let ratio = f64::from_le_bytes(cur.get("truncated compressor cfg")?);
            let bits = cur.get_u8("truncated compressor cfg")?;
            aux.compressor = Some(CompressorCfg { kind, ratio, bits });
        }
        if flags & AUX_FLAG_RNG != 0 {
            let mut rng = [0u64; 4];
            for w in &mut rng {
                *w = cur.get_u64("truncated rng cursor")?;
            }
            aux.rng = Some(rng);
        }
        if flags & AUX_FLAG_RESIDUAL != 0 {
            aux.residual = Some(cur.get_f32s(psi, "truncated f32 array")?);
        }
        if flags & AUX_FLAG_QUANT_POLICY != 0 {
            let bits = cur.get_u8("truncated quant policy")?;
            let streak = cur.get_u8("truncated quant policy")?;
            let adaptive = cur.get_u8("truncated quant policy")? != 0;
            let floor_bits = cur.get_u8("truncated quant policy")?;
            let max_err = f32::from_le_bytes(cur.get("truncated quant policy")?);
            if !matches!(bits, 4 | 8 | 16) || !matches!(floor_bits, 4 | 8 | 16) {
                return Err(CodecError::Corrupt("invalid quant policy width"));
            }
            aux.quant = Some(QuantPolicyState {
                bits,
                streak,
                adaptive,
                max_err,
                floor_bits,
            });
        }
    }
    if !cur.data.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    let lossy = aux.is_empty();
    Ok(FullCheckpoint {
        state: ModelState {
            iteration,
            params,
            opt: AdamState { m, v, t: adam_t },
        },
        aux,
        lossy,
        version,
    })
}

/// The borrowing read cursor of [`decode_full_checkpoint`]: CRC first,
/// then magic, then getters that fail with `Corrupt(what)` on underflow.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn open(data: &'a [u8], magic: &[u8; 4]) -> Result<Self, CodecError> {
        if data.len() < 4 {
            return Err(CodecError::Corrupt("too short for crc"));
        }
        let (body, tail) = data.split_at(data.len() - 4);
        if crc32(body) != u32::from_le_bytes(tail.try_into().unwrap()) {
            return Err(CodecError::CrcMismatch);
        }
        let mut cur = Self { data: body };
        match cur.take(4, "missing magic") {
            Ok(m) if m == magic => Ok(cur),
            _ => Err(CodecError::BadMagic),
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        take(&mut self.data, n).map_err(|_| CodecError::Corrupt(what))
    }

    fn get<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        Ok(self.take(N, what)?.try_into().unwrap())
    }

    fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.get(what).map(u16::from_le_bytes)
    }

    fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.get(what).map(u64::from_le_bytes)
    }

    /// `n` little-endian f32s after the length cap (`n ≤ remaining / 4`),
    /// bulk-copied on little-endian targets.
    fn get_f32s(&mut self, n: u64, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.data.len() / 4)
            .ok_or(CodecError::Corrupt(what))?;
        let bytes = self.take(n * 4, what)?;
        #[cfg(target_endian = "little")]
        {
            let mut out: Vec<f32> = Vec::with_capacity(n);
            // SAFETY: `bytes` holds exactly n*4 initialized bytes and `out`
            // has capacity for n f32s; every bit pattern is a valid f32, so
            // copying the bytes in is a valid bit-reinterpretation on LE,
            // and `set_len` only exposes the freshly written prefix.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 4);
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(target_endian = "big")]
        {
            Ok(bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
    }
}
