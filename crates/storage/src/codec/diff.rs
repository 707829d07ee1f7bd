//! The batched differential `C^B` (magic `LDDB`): one encoder kernel and
//! one parser, under both [`decode_diff_batch`] and [`inspect_diff_batch`].

use super::{
    put_f32, put_f32s, put_u16, put_u32, put_u64, put_varint, seal, CodecError, Cursor,
    DIFF_VERSION_V2, DIFF_VERSION_V3, MAGIC_DIFF,
};
use lowdiff_compress::{CompressedGrad, QuantGrad, SparseGrad};

/// Elements per v3 value-block chunk. Each chunk carries its own width
/// byte and (when quantized) lo/scale header, so the width adapts to the
/// local value range at an amortized cost of ≤ 9 bytes per 256 values.
pub const QUANT_CHUNK: usize = 256;

/// The smallest wire size of a batch entry: iteration (8), tag (1) and the
/// shortest record header, a dense length (8).
const MIN_ENTRY_BYTES: usize = 17;

/// v3 per-chunk value quantization parameters — the codec half of the
/// adaptive precision policy. `bits` is the preferred width; when
/// `max_err > 0` a chunk whose range would violate the bound is promoted
/// up the 4 → 8 → 16 → f32 ladder until it fits, and (when `adaptive`) a
/// chunk that fits at a narrower width is demoted down to `floor_bits`.
/// The chooser is stateless — width is a pure function of the chunk's
/// value range — so re-encoding after a crash-resume is deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantizedValues {
    /// Preferred (and, with `max_err <= 0`, fixed) bit width: 4, 8 or 16.
    pub bits: u8,
    /// Hard per-element reconstruction bound; `<= 0` pins `bits`.
    pub max_err: f32,
    /// Allow demotion below `bits` when a chunk fits the bound anyway.
    pub adaptive: bool,
    /// Narrowest width demotion may reach.
    pub floor_bits: u8,
}

/// Value-plane encoding for diff batches: raw f32 (the bit-exact v2 wire
/// format) or per-chunk quantized (v3, lossy but bounded).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ValueCodec {
    /// Raw little-endian f32 values — writes `DIFF_VERSION_V2`.
    #[default]
    F32,
    /// Per-chunk quantized values — writes `DIFF_VERSION_V3`.
    Quantized(QuantizedValues),
}

/// One differential entry: the iteration it advances *from* (applying it to
/// `M_t` yields `M_{t+1}`) and the reused compressed gradient.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntry {
    pub iteration: u64,
    pub grad: CompressedGrad,
}

/// Number of quantization levels at `width` bits.
fn chunk_levels(width: u8) -> f32 {
    ((1u32 << width) - 1) as f32
}

/// Bytes the values of a v3 chunk of `len` elements take at `width` bits
/// (raw f32 at 32).
fn chunk_code_bytes(width: u8, len: usize) -> usize {
    (len * usize::from(width)).div_ceil(8)
}

/// Pick the v3 chunk width for a value range — stateless, so re-encoding
/// the same values always yields the same bytes. Walks the 4 → 8 → 16
/// ladder from the narrowest width the config admits and returns the
/// first one whose worst-case step error meets the bound; 32 means f32
/// passthrough (exact).
fn chunk_value_width(lo: f32, hi: f32, q: &QuantizedValues) -> u8 {
    if q.max_err <= 0.0 {
        return q.bits;
    }
    let narrowest = if q.adaptive {
        q.floor_bits.min(q.bits)
    } else {
        q.bits
    };
    for width in [4u8, 8, 16] {
        if width < narrowest {
            continue;
        }
        if (hi - lo) / (2.0 * chunk_levels(width)) <= q.max_err {
            return width;
        }
    }
    32
}

/// Encode `values` as a v3 value block: `QUANT_CHUNK`-sized chunks, each
/// prefixed by its width byte and (unless f32 passthrough) a lo/scale
/// header, codes packed at the chunk's width.
fn put_value_block(buf: &mut Vec<u8>, values: &[f32], q: &QuantizedValues) {
    for chunk in values.chunks(QUANT_CHUNK) {
        let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let width = chunk_value_width(lo, hi, q);
        buf.push(width);
        if width == 32 {
            put_f32s(buf, chunk);
            continue;
        }
        let scale = if hi > lo {
            (hi - lo) / chunk_levels(width)
        } else {
            0.0
        };
        put_f32(buf, lo);
        put_f32(buf, scale);
        let code = |v: f32| -> u32 {
            if scale == 0.0 {
                0
            } else {
                (((v - lo) / scale).round() as i64).clamp(0, chunk_levels(width) as i64) as u32
            }
        };
        match width {
            4 => {
                for pair in chunk.chunks(2) {
                    let hi_nibble = pair.get(1).map_or(0, |&b| code(b) as u8);
                    buf.push(code(pair[0]) as u8 | (hi_nibble << 4));
                }
            }
            8 => buf.extend(chunk.iter().map(|&v| code(v) as u8)),
            16 => {
                for &v in chunk {
                    put_u16(buf, code(v) as u16);
                }
            }
            _ => unreachable!(),
        }
    }
}

/// A value plane in the codec's format: raw f32 (v2) or a value block (v3).
fn put_values(buf: &mut Vec<u8>, values: &[f32], codec: &ValueCodec) {
    match codec {
        ValueCodec::F32 => put_f32s(buf, values),
        ValueCodec::Quantized(q) => put_value_block(buf, values, q),
    }
}

/// One gradient record. Sparse indices are written as varint deltas — this
/// relies on the `SparseGrad` invariant that indices
/// are strictly increasing (Top-K sorts before constructing), so every
/// delta after the first is ≥ 1. `Quant` records are stored as-is in both
/// versions: already quantized, and gradient-replay determinism depends on
/// exact code recovery.
fn put_compressed(buf: &mut Vec<u8>, g: &CompressedGrad, codec: &ValueCodec) {
    match g {
        CompressedGrad::Sparse(s) => {
            debug_assert!(
                s.indices.windows(2).all(|w| w[0] < w[1]),
                "delta encoding requires strictly increasing indices"
            );
            buf.push(0);
            put_u64(buf, s.dense_len as u64);
            put_u32(buf, s.nnz() as u32);
            let mut prev = 0u32;
            for &idx in &s.indices {
                put_varint(buf, u64::from(idx - prev));
                prev = idx;
            }
            put_values(buf, &s.values, codec);
        }
        CompressedGrad::Quant(q) => {
            buf.push(1);
            put_u64(buf, q.dense_len as u64);
            buf.push(q.bits);
            put_f32(buf, q.scale);
            put_f32(buf, q.zero);
            put_u32(buf, q.codes.len() as u32);
            buf.extend_from_slice(&q.codes);
        }
        CompressedGrad::Dense(d) => {
            buf.push(2);
            put_u64(buf, d.len() as u64);
            put_values(buf, d, codec);
        }
    }
}

/// Serialize a batch of differential checkpoints (`C^B` in §4.2: one write
/// I/O for `BS` reused gradients) in the v2 f32 format — the
/// `Vec`-returning convenience over [`encode_diff_batch_into`].
pub fn encode_diff_batch(entries: &[DiffEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_diff_batch_into(
        entries.iter().map(|e| (e.iteration, &e.grad)),
        &ValueCodec::F32,
        &mut buf,
    );
    buf
}

/// The diff-batch encoder: serialize `(iteration, gradient)` pairs into
/// `buf` in the format `codec` selects ([`ValueCodec::F32`] writes v2,
/// [`ValueCodec::Quantized`] writes v3). Gradients are borrowed, so a
/// buffer of `Arc<CompressedGrad>` handles (the batched writer) serializes
/// straight from the shared handles, never through an owned clone. The
/// buffer is cleared first — stale bytes from a previous longer encode
/// never survive — and its allocation is reused.
pub fn encode_diff_batch_into<'a>(
    entries: impl ExactSizeIterator<Item = (u64, &'a CompressedGrad)>,
    codec: &ValueCodec,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.extend_from_slice(MAGIC_DIFF);
    put_u16(
        buf,
        match codec {
            ValueCodec::F32 => DIFF_VERSION_V2,
            ValueCodec::Quantized(_) => DIFF_VERSION_V3,
        },
    );
    put_u32(buf, entries.len() as u32);
    for (iteration, grad) in entries {
        put_u64(buf, iteration);
        put_compressed(buf, grad, codec);
    }
    seal(buf);
}

/// Decode a v3 value block of `n` elements, dequantizing each chunk into
/// plain f32s (`v = lo + code · scale`) so downstream consumers see a
/// standard sparse/dense gradient. Each chunk's width is appended to
/// `widths`.
fn take_value_block(
    cur: &mut Cursor<'_>,
    n: u64,
    widths: &mut Vec<u8>,
) -> Result<Vec<f32>, CodecError> {
    // 4-bit codes are the densest packing: two values per byte.
    cur.capped_len(n.div_ceil(2), 1, "truncated value block")?;
    let n = usize::try_from(n).map_err(|_| CodecError::Corrupt("truncated value block"))?;
    let mut out = Vec::with_capacity(n);
    for start in (0..n).step_by(QUANT_CHUNK) {
        let len = (n - start).min(QUANT_CHUNK);
        let width = cur.get_u8("truncated value block")?;
        if !matches!(width, 4 | 8 | 16 | 32) {
            return Err(CodecError::Corrupt("unknown value-block width"));
        }
        widths.push(width);
        if width == 32 {
            out.extend(cur.get_f32s(len as u64, "truncated value chunk")?);
            continue;
        }
        let lo = cur.get_f32("truncated value chunk")?;
        let scale = cur.get_f32("truncated value chunk")?;
        let codes = cur.take(chunk_code_bytes(width, len), "truncated value chunk")?;
        let dequant = |c: u16| lo + f32::from(c) * scale;
        match width {
            4 => out.extend(
                (0..len).map(|i| dequant(u16::from((codes[i / 2] >> (4 * (i % 2))) & 0x0F))),
            ),
            8 => out.extend(codes.iter().map(|&c| dequant(c.into()))),
            _ => out.extend(
                codes
                    .chunks_exact(2)
                    .map(|p| dequant(u16::from_le_bytes([p[0], p[1]]))),
            ),
        }
    }
    Ok(out)
}

/// A value plane of `n` elements in the batch's format.
fn take_values(
    cur: &mut Cursor<'_>,
    version: u16,
    n: u64,
    widths: &mut Vec<u8>,
) -> Result<Vec<f32>, CodecError> {
    if version >= DIFF_VERSION_V3 {
        take_value_block(cur, n, widths)
    } else {
        cur.get_f32s(n, "truncated f32 array")
    }
}

fn take_compressed(
    cur: &mut Cursor<'_>,
    version: u16,
    widths: &mut Vec<u8>,
) -> Result<CompressedGrad, CodecError> {
    match cur.get_u8("missing grad tag")? {
        0 => {
            let dense_len = cur.get_u64("truncated sparse grad")?;
            // Every stored element spends at least one index byte.
            let nnz = cur.get_len_u32(1, "truncated sparse grad")?;
            let mut indices = Vec::with_capacity(nnz);
            let mut acc: u64 = 0;
            for i in 0..nnz {
                let delta = cur.get_varint("truncated sparse index delta")?;
                if i > 0 && delta == 0 {
                    return Err(CodecError::Corrupt("non-increasing sparse index"));
                }
                acc = acc
                    .checked_add(delta)
                    .ok_or(CodecError::Corrupt("sparse index overflow"))?;
                if acc >= dense_len || acc > u64::from(u32::MAX) {
                    return Err(CodecError::Corrupt("sparse index out of range"));
                }
                indices.push(acc as u32);
            }
            let values = take_values(cur, version, nnz as u64, widths)?;
            let dense_len = usize::try_from(dense_len)
                .map_err(|_| CodecError::Corrupt("sparse dense length overflow"))?;
            Ok(CompressedGrad::Sparse(SparseGrad::new(
                dense_len, indices, values,
            )))
        }
        1 => {
            let dense_len = usize::try_from(cur.get_u64("truncated quant grad")?)
                .map_err(|_| CodecError::Corrupt("quant dense length overflow"))?;
            let bits = cur.get_u8("truncated quant grad")?;
            let scale = cur.get_f32("truncated quant grad")?;
            let zero = cur.get_f32("truncated quant grad")?;
            let n = cur.get_u32("truncated quant grad")? as usize;
            // The code plane must hold exactly `dense_len` codes at `bits`,
            // or dequantizing the record would index past it.
            let want = match bits {
                16 => dense_len.checked_mul(2),
                8 => Some(dense_len),
                4 => Some(dense_len.div_ceil(2)),
                _ => return Err(CodecError::Corrupt("unknown quant width")),
            };
            if want != Some(n) {
                return Err(CodecError::Corrupt("quant code plane length mismatch"));
            }
            let codes = cur.take(n, "truncated quant codes")?.to_vec();
            Ok(CompressedGrad::Quant(QuantGrad {
                dense_len,
                bits,
                codes,
                scale,
                zero,
            }))
        }
        2 => {
            let n = cur.get_u64("truncated dense grad")?;
            Ok(CompressedGrad::Dense(take_values(cur, version, n, widths)?))
        }
        _ => Err(CodecError::Corrupt("unknown grad tag")),
    }
}

/// A parsed batch: its wire version, and every entry with its v3 chunk
/// widths.
type ParsedBatch = (u16, Vec<(DiffEntry, Vec<u8>)>);

/// The one LDDB parser, under [`decode_diff_batch`] and
/// [`inspect_diff_batch`]: CRC, magic and version are checked once, then
/// every entry is decoded and paired with its v3 chunk widths (empty for
/// v2 entries and tag-1 quant records).
fn parse_diff_batch(data: &[u8]) -> Result<ParsedBatch, CodecError> {
    let mut cur = Cursor::open(data, MAGIC_DIFF)?;
    let version = cur.get_u16("truncated header")?;
    if !(DIFF_VERSION_V2..=DIFF_VERSION_V3).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let count = cur.get_len_u32(MIN_ENTRY_BYTES, "truncated header")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let iteration = cur.get_u64("truncated diff entry")?;
        let mut widths = Vec::new();
        let grad = take_compressed(&mut cur, version, &mut widths)?;
        out.push((DiffEntry { iteration, grad }, widths));
    }
    cur.finish()?;
    Ok((version, out))
}

/// Deserialize a differential batch, v2 or v3 (a chain may mix the two,
/// so recovery replays a chain whose blobs switch value codecs).
pub fn decode_diff_batch(data: &[u8]) -> Result<Vec<DiffEntry>, CodecError> {
    let (_, parsed) = parse_diff_batch(data)?;
    Ok(parsed.into_iter().map(|(entry, _)| entry).collect())
}

/// Per-entry metadata surfaced by [`inspect_diff_batch`].
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntryInspect {
    pub iteration: u64,
    /// Gradient representation: "sparse", "quant" or "dense".
    pub repr: &'static str,
    /// Dense length Ψ of the gradient this entry reconstructs.
    pub dense_len: usize,
    /// Number of values actually stored (nnz for sparse, Ψ otherwise).
    pub stored_values: usize,
    /// v3 per-chunk widths in stream order (empty for v2 entries and
    /// tag-1 quant records, whose width lives in the record itself).
    pub chunk_widths: Vec<u8>,
}

/// Structural summary of a diff-batch blob — what `lowdiff-ctl inspect`
/// prints.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffInspect {
    /// Wire version (2 or 3).
    pub version: u16,
    /// Total blob size including header and CRC.
    pub encoded_len: usize,
    /// Bytes spent on the value plane as stored (incl. chunk headers).
    pub value_bytes: usize,
    /// Bytes the same values would take as raw f32 (4 × stored_values).
    pub raw_value_bytes: usize,
    pub entries: Vec<DiffEntryInspect>,
}

/// Stored size of an `n`-value plane: raw f32 when there are no chunk
/// widths (v2), else the v3 chunks those widths describe.
fn value_plane_bytes(n: usize, widths: &[u8]) -> usize {
    if widths.is_empty() {
        return n * 4;
    }
    widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            // width byte, lo/scale header unless f32 passthrough, values
            let header = if w == 32 { 1 } else { 1 + 8 };
            header + chunk_code_bytes(w, (n - i * QUANT_CHUNK).min(QUANT_CHUNK))
        })
        .sum()
}

/// Summarize a diff-batch blob through the one parser: wire version,
/// per-entry representation and (for v3) per-chunk bit widths, plus
/// stored-vs-raw value-plane byte counts for a compression ratio. The CRC
/// is verified first — a torn blob fails with [`CodecError::CrcMismatch`].
pub fn inspect_diff_batch(data: &[u8]) -> Result<DiffInspect, CodecError> {
    let (version, parsed) = parse_diff_batch(data)?;
    let mut inspect = DiffInspect {
        version,
        encoded_len: data.len(),
        value_bytes: 0,
        raw_value_bytes: 0,
        entries: Vec::with_capacity(parsed.len()),
    };
    for (entry, chunk_widths) in parsed {
        let (repr, dense_len, stored_values, value_bytes) = match &entry.grad {
            CompressedGrad::Sparse(s) => (
                "sparse",
                s.dense_len,
                s.nnz(),
                value_plane_bytes(s.nnz(), &chunk_widths),
            ),
            CompressedGrad::Quant(q) => ("quant", q.dense_len, q.dense_len, q.codes.len()),
            CompressedGrad::Dense(d) => (
                "dense",
                d.len(),
                d.len(),
                value_plane_bytes(d.len(), &chunk_widths),
            ),
        };
        inspect.value_bytes += value_bytes;
        // A quant record's Ψ is a bare header field: saturate, don't wrap.
        inspect.raw_value_bytes = inspect
            .raw_value_bytes
            .saturating_add(stored_values.saturating_mul(4));
        inspect.entries.push(DiffEntryInspect {
            iteration: entry.iteration,
            repr,
            dense_len,
            stored_values,
            chunk_widths,
        });
    }
    Ok(inspect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_model_state, encode_model_state};
    use lowdiff_util::DetRng;

    fn refs(entries: &[DiffEntry]) -> impl ExactSizeIterator<Item = (u64, &CompressedGrad)> {
        entries.iter().map(|e| (e.iteration, &e.grad))
    }

    fn encode_with(entries: &[DiffEntry], codec: &ValueCodec) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_diff_batch_into(refs(entries), codec, &mut buf);
        buf
    }

    fn fixed_q(bits: u8) -> ValueCodec {
        ValueCodec::Quantized(QuantizedValues {
            bits,
            max_err: 0.0,
            adaptive: false,
            floor_bits: bits,
        })
    }

    fn sparse_entries(n: usize, seed: u64) -> Vec<DiffEntry> {
        let mut rng = DetRng::new(seed);
        let mut indices: Vec<u32> = (0..n as u32).collect();
        indices.retain(|_| rng.next_u64().is_multiple_of(100));
        let values: Vec<f32> = indices.iter().map(|_| rng.normal() as f32).collect();
        vec![DiffEntry {
            iteration: 9,
            grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values)),
        }]
    }

    /// Reference quantize∘dequantize at a fixed width over QUANT_CHUNK
    /// chunks — the exact transform the v3 round-trip must equal.
    fn quant_roundtrip_reference(values: &[f32], bits: u8) -> Vec<f32> {
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(QUANT_CHUNK) {
            let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let levels = ((1u32 << bits) - 1) as f32;
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            for &v in chunk {
                let c = if scale == 0.0 {
                    0
                } else {
                    (((v - lo) / scale).round() as i64).clamp(0, levels as i64) as u32
                };
                out.push(lo + c as f32 * scale);
            }
        }
        out
    }

    #[test]
    fn diff_batch_roundtrip_all_representations() {
        let entries = vec![
            DiffEntry {
                iteration: 10,
                grad: CompressedGrad::Sparse(SparseGrad::new(
                    100,
                    vec![1, 50, 99],
                    vec![0.5, -1.0, 2.0],
                )),
            },
            DiffEntry {
                iteration: 11,
                grad: CompressedGrad::Dense(vec![1.0, 2.0, 3.0]),
            },
            DiffEntry {
                iteration: 12,
                grad: CompressedGrad::Quant(QuantGrad {
                    dense_len: 5,
                    bits: 8,
                    codes: vec![0, 64, 128, 192, 255],
                    scale: 0.01,
                    zero: -1.0,
                }),
            },
        ];
        let bytes = encode_diff_batch(&entries);
        assert_eq!(decode_diff_batch(&bytes).unwrap(), entries);
    }

    #[test]
    fn encode_into_reuses_allocation_without_stale_bytes() {
        // Encode a long batch into a buffer, then a strictly shorter one
        // into the same buffer: the result must be byte-identical to a
        // fresh encode (no stale suffix), reusing the same allocation — in
        // both value codecs.
        let long = vec![DiffEntry {
            iteration: 1,
            grad: CompressedGrad::Dense(vec![1.0; 4096]),
        }];
        let short = sparse_entries(2_000, 17);
        for codec in [ValueCodec::F32, fixed_q(8)] {
            let mut buf = Vec::new();
            encode_diff_batch_into(refs(&long), &codec, &mut buf);
            let cap = buf.capacity();
            let ptr = buf.as_ptr();
            encode_diff_batch_into(refs(&short), &codec, &mut buf);
            assert_eq!(buf, encode_with(&short, &codec), "stale bytes leaked");
            assert_eq!(buf.capacity(), cap, "allocation was not reused");
            assert_eq!(buf.as_ptr(), ptr, "allocation was not reused");
        }
    }

    #[test]
    fn v2_varint_rejects_corrupt_deltas() {
        // A zero delta after the first index means non-increasing indices;
        // decode must fail cleanly rather than panic in SparseGrad::new.
        let entries = vec![DiffEntry {
            iteration: 7,
            grad: CompressedGrad::Sparse(SparseGrad::new(10, vec![1, 2], vec![1.0, 2.0])),
        }];
        let mut bytes = encode_diff_batch(&entries);
        bytes.truncate(bytes.len() - 4); // strip crc
                                         // Layout: magic(4) version(2) count(4) iter(8) tag(1) dense_len(8)
                                         // nnz(4) → first delta byte at offset 31, second at 32.
        bytes[32] = 0; // delta 1 → 0
        seal(&mut bytes);
        let err = decode_diff_batch(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn empty_diff_batch() {
        let bytes = encode_diff_batch(&[]);
        assert!(decode_diff_batch(&bytes).unwrap().is_empty());
    }

    #[test]
    fn wrong_magic_rejected() {
        let full = encode_model_state(&lowdiff_optim::ModelState::new(vec![1.0; 8]));
        assert_eq!(decode_diff_batch(&full).unwrap_err(), CodecError::BadMagic);
        let diff = encode_diff_batch(&[]);
        assert_eq!(decode_model_state(&diff).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn v3_roundtrip_equals_quantize_dequantize_reference() {
        for bits in [4u8, 8, 16] {
            let entries = sparse_entries(60_000, u64::from(bits));
            let back = decode_diff_batch(&encode_with(&entries, &fixed_q(bits))).unwrap();
            let (orig, got) = match (&entries[0].grad, &back[0].grad) {
                (CompressedGrad::Sparse(a), CompressedGrad::Sparse(b)) => (a, b),
                other => panic!("representation changed: {other:?}"),
            };
            assert_eq!(got.indices, orig.indices, "indices must survive exactly");
            assert_eq!(
                got.values,
                quant_roundtrip_reference(&orig.values, bits),
                "{bits}-bit decode must equal the reference transform bit-for-bit"
            );
        }
    }

    #[test]
    fn v3_dense_roundtrip_all_widths() {
        let mut rng = DetRng::new(31);
        // Deliberately not a multiple of QUANT_CHUNK: exercises the tail.
        let dense: Vec<f32> = (0..QUANT_CHUNK * 2 + 37)
            .map(|_| rng.normal() as f32)
            .collect();
        for bits in [4u8, 8, 16] {
            let entries = vec![DiffEntry {
                iteration: 3,
                grad: CompressedGrad::Dense(dense.clone()),
            }];
            let back = decode_diff_batch(&encode_with(&entries, &fixed_q(bits))).unwrap();
            match &back[0].grad {
                CompressedGrad::Dense(d) => {
                    assert_eq!(d, &quant_roundtrip_reference(&dense, bits))
                }
                other => panic!("representation changed: {other:?}"),
            }
        }
    }

    #[test]
    fn v3_quant_records_stay_lossless() {
        // Tag-1 (already quantized) records must be stored losslessly in
        // v3 — replay determinism depends on exact code recovery.
        let entries = vec![DiffEntry {
            iteration: 12,
            grad: CompressedGrad::Quant(QuantGrad {
                dense_len: 5,
                bits: 8,
                codes: vec![0, 64, 128, 192, 255],
                scale: 0.01,
                zero: -1.0,
            }),
        }];
        let bytes = encode_with(&entries, &fixed_q(4));
        assert_eq!(decode_diff_batch(&bytes).unwrap(), entries);
    }

    #[test]
    fn quant_record_code_plane_must_fit_its_width() {
        let batch = |dense_len: usize, bits: u8, codes: usize| {
            encode_diff_batch(&[DiffEntry {
                iteration: 1,
                grad: CompressedGrad::Quant(QuantGrad {
                    dense_len,
                    bits,
                    codes: vec![0x5a; codes],
                    scale: 1.0,
                    zero: 0.0,
                }),
            }])
        };
        for (n, bits, codes) in [(5, 16, 10), (5, 8, 5), (5, 4, 3), (4, 4, 2), (0, 4, 0)] {
            assert!(
                decode_diff_batch(&batch(n, bits, codes)).is_ok(),
                "{bits}-bit n={n}"
            );
        }
        for (n, bits, codes, why) in [
            (5, 3, 5, "unknown quant width"),
            (5, 32, 20, "unknown quant width"),
            (5, 16, 9, "quant code plane length mismatch"),
            (5, 8, 6, "quant code plane length mismatch"),
            (5, 4, 2, "quant code plane length mismatch"),
            (4, 4, 4, "quant code plane length mismatch"),
            // 2·n overflows.
            (
                usize::MAX / 2 + 1,
                16,
                0,
                "quant code plane length mismatch",
            ),
        ] {
            assert_eq!(
                decode_diff_batch(&batch(n, bits, codes)),
                Err(CodecError::Corrupt(why)),
                "{bits}-bit n={n} codes={codes}"
            );
        }
    }

    #[test]
    fn v3_unknown_chunk_width_rejected() {
        let entries = sparse_entries(3_000, 23);
        let buf = encode_with(&entries, &fixed_q(8));
        // The first value chunk's width byte sits right after the varint
        // index plane: magic(4) ver(2) count(4) iter(8) tag(1) dense_len(8)
        // nnz(4), then the deltas (re-encoded here to measure them).
        let mut deltas = Vec::new();
        let mut prev = 0;
        for &i in &entries[0].grad.as_sparse().unwrap().indices {
            put_varint(&mut deltas, u64::from(i - prev));
            prev = i;
        }
        let width_at = 31 + deltas.len();
        let mut body = buf[..buf.len() - 4].to_vec();
        assert_eq!(body[width_at], 8, "located byte must be the width tag");
        body[width_at] = 7; // not a legal width
        seal(&mut body);
        let err = decode_diff_batch(&body).unwrap_err();
        assert_eq!(err, CodecError::Corrupt("unknown value-block width"));
        assert_eq!(
            inspect_diff_batch(&body).unwrap_err(),
            CodecError::Corrupt("unknown value-block width")
        );
    }

    #[test]
    fn v3_8bit_much_smaller_than_v2() {
        // The headline number: ~5 bytes/stored element in v2 (varint + f32)
        // vs ~2 in v3@8 (varint + code + amortized chunk headers).
        let entries = sparse_entries(200_000, 3);
        let v2 = encode_diff_batch(&entries);
        let v3 = encode_with(&entries, &fixed_q(8));
        assert!(
            (v3.len() as f64) < 0.5 * v2.len() as f64,
            "v3@8 ({}) should be well under half of v2 ({})",
            v3.len(),
            v2.len()
        );
    }

    #[test]
    fn v3_adaptive_chunk_promotion_meets_bound() {
        // One calm chunk and one wild chunk: the calm one narrows, the wild
        // one is promoted (possibly to f32 passthrough), and every decoded
        // element honors max_err.
        let mut values = vec![0.0f32; QUANT_CHUNK * 2];
        let mut rng = DetRng::new(8);
        for v in values.iter_mut().take(QUANT_CHUNK) {
            *v = rng.normal() as f32 * 1e-4; // calm
        }
        for v in values.iter_mut().skip(QUANT_CHUNK) {
            *v = rng.normal() as f32 * 1e4; // wild
        }
        let indices: Vec<u32> = (0..values.len() as u32).collect();
        let entries = vec![DiffEntry {
            iteration: 0,
            grad: CompressedGrad::Sparse(SparseGrad::new(values.len(), indices, values.clone())),
        }];
        let max_err = 1e-3f32;
        let codec = ValueCodec::Quantized(QuantizedValues {
            bits: 8,
            max_err,
            adaptive: true,
            floor_bits: 4,
        });
        let buf = encode_with(&entries, &codec);
        let info = inspect_diff_batch(&buf).unwrap();
        assert_eq!(info.version, DIFF_VERSION_V3);
        let widths = &info.entries[0].chunk_widths;
        assert_eq!(widths.len(), 2);
        assert!(
            widths[0] < widths[1],
            "calm chunk must use a narrower width"
        );
        let back = decode_diff_batch(&buf).unwrap();
        let decoded = &back[0].grad.as_sparse().unwrap().values;
        for (a, b) in values.iter().zip(decoded) {
            assert!(
                (a - b).abs() <= max_err + 1e-6,
                "bound violated: {a} vs {b}"
            );
        }
    }

    #[test]
    fn inspect_reports_versions_and_sizes() {
        let entries = sparse_entries(20_000, 13);
        let nnz = entries[0].grad.as_sparse().unwrap().nnz();
        let v2 = encode_diff_batch(&entries);
        let info = inspect_diff_batch(&v2).unwrap();
        assert_eq!(info.version, DIFF_VERSION_V2);
        assert_eq!(info.encoded_len, v2.len());
        assert_eq!(info.value_bytes, nnz * 4);
        assert_eq!(info.raw_value_bytes, nnz * 4);
        assert_eq!(info.entries[0].repr, "sparse");
        assert_eq!(info.entries[0].stored_values, nnz);
        assert!(info.entries[0].chunk_widths.is_empty());

        let v3 = encode_with(&entries, &fixed_q(8));
        let info3 = inspect_diff_batch(&v3).unwrap();
        assert_eq!(info3.version, DIFF_VERSION_V3);
        assert_eq!(
            info3.entries[0].chunk_widths.len(),
            nnz.div_ceil(QUANT_CHUNK)
        );
        assert!(info3.entries[0].chunk_widths.iter().all(|&w| w == 8));
        assert!(info3.value_bytes < info3.raw_value_bytes / 2);
        // The widths account for every value-plane byte: the v3 blob is the
        // v2 blob with its f32 plane swapped for the chunked one.
        assert_eq!(
            v3.len() - info3.value_bytes,
            v2.len() - info.value_bytes,
            "value_bytes must match the stored chunk sizes"
        );

        // Torn blob: inspect must fail the CRC, not parse garbage.
        let mut torn = v3.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0xFF;
        assert_eq!(
            inspect_diff_batch(&torn).unwrap_err(),
            CodecError::CrcMismatch
        );
    }
}
