//! The pre-bulk, per-element codec, retained verbatim in behavior:
//! element-at-a-time `to_le_bytes` loops, a full payload copy at seal
//! time, and a full input copy before decoding — exactly the costs the
//! bulk codec in `lowdiff_storage::codec` removed. It writes the legacy v1
//! layouts (no aux trailer, raw `u32` sparse indices), which makes it the
//! fabricator of v1 blobs for backward-compatibility tests; property tests
//! assert the bulk encoder's region bytes equal its output, and
//! `bench_hotpath` times the gap.
//!
//! [`crc32_bytewise`] is the classic byte-at-a-time table walk the
//! slicing-by-8 `lowdiff_util::crc32` is proven equal to.

use lowdiff_compress::CompressedGrad;
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::codec::{CodecError, DiffEntry, MAGIC_DIFF, MAGIC_FULL, VERSION};
use lowdiff_util::crc::crc32;
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
