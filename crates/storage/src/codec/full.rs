//! The full checkpoint `C^F` (magic `LDFC`): one encoder — which can stop
//! short of the CRC seal, so capture and seal may run on different
//! threads — and one decoder.

use super::{
    combined_crc, put_f32s, seal, split_seal, CodecError, Cursor, FULL_VERSION_V2, MAGIC_FULL,
    VERSION,
};
use lowdiff_compress::{AuxState, AuxView, CompressorCfg, CompressorKind, QuantPolicyState};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_util::crc::crc32;
use lowdiff_util::par::chunk_ranges;
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Aux flag bits in the v2 full-checkpoint trailer.
const AUX_FLAG_RESIDUAL: u8 = 1 << 0;
const AUX_FLAG_COMPRESSOR: u8 = 1 << 1;
const AUX_FLAG_RNG: u8 = 1 << 2;
const AUX_FLAG_QUANT_POLICY: u8 = 1 << 3;
const AUX_FLAGS_KNOWN: u8 =
    AUX_FLAG_RESIDUAL | AUX_FLAG_COMPRESSOR | AUX_FLAG_RNG | AUX_FLAG_QUANT_POLICY;

/// A decoded full checkpoint: the model state plus whatever auxiliary
/// training state the blob carried.
#[derive(Clone, Debug, PartialEq)]
pub struct FullCheckpoint {
    pub state: ModelState,
    pub aux: AuxState,
    /// True when the blob carries *no* auxiliary state (a v1 blob, or a v2
    /// written without aux): resuming an error-feedback run from it loses
    /// the residual and may diverge from the uninterrupted run. The final
    /// word on lossiness belongs to the resume path, which knows whether
    /// error feedback is even enabled.
    pub lossy: bool,
    /// Wire version the blob was decoded from (1 or 2).
    pub version: u16,
}

/// Serialize a full checkpoint (current v2 format, no auxiliary state)
/// into a fresh buffer.
pub fn encode_model_state(state: &ModelState) -> Vec<u8> {
    encode_full_checkpoint(state, &AuxView::NONE)
}

/// Serialize a full checkpoint with auxiliary state (v2).
pub fn encode_full_checkpoint(state: &ModelState, aux: &AuxView<'_>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_full_checkpoint_into(state, aux, &mut buf);
    buf
}

/// Serialize a full checkpoint with auxiliary state (v2) into `buf`,
/// reusing its allocation. The buffer is cleared first, so a pooled buffer
/// from a previous (possibly longer) encode never leaks stale bytes into
/// this one.
///
/// The Ψ-sized regions are appended with one memcpy each; only the gaps
/// before them — header and small aux sections, a few dozen bytes — are
/// zero-filled, then stamped by the section writer.
pub fn encode_full_checkpoint_into(state: &ModelState, aux: &AuxView<'_>, buf: &mut Vec<u8>) {
    encode_full_frame_into(state, aux, buf);
    seal(buf);
}

/// [`encode_full_checkpoint_into`] without the CRC trailer: the **unsealed**
/// frame, with room reserved for the seal. [`seal_frame`] later turns it
/// into exactly the blob `encode_full_checkpoint_into` produces, without
/// reallocating — so a writer can capture the state on one thread and pay
/// the CRC pass on another.
pub fn encode_full_frame_into(state: &ModelState, aux: &AuxView<'_>, buf: &mut Vec<u8>) {
    let psi = state.params.len();
    let layout = full_frame_layout(psi, aux);
    buf.clear();
    buf.reserve(layout.body_len + 4);
    let regions = [
        Some((layout.params_off, &state.params[..])),
        Some((layout.m_off, &state.opt.m[..])),
        Some((layout.v_off, &state.opt.v[..])),
        layout.residual_off.zip(aux.residual),
    ];
    for (off, xs) in regions.into_iter().flatten() {
        debug_assert!(buf.len() <= off, "region lengths must equal Ψ");
        buf.resize(off, 0);
        put_f32s(buf, xs);
    }
    buf.resize(layout.body_len, 0);
    write_frame_sections(buf, &layout, state.iteration, psi, state.opt.t, aux);
}

/// Byte offsets of a v2 full-checkpoint frame — the only place they are
/// computed. The large regions sit at fixed offsets (the header and every
/// aux section except the residual have static sizes), so a reader of an
/// encoded frame can index params / m / v without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FullFrameLayout {
    /// Offset of the `params` region (`Ψ × 4` bytes, f32 LE).
    pub params_off: usize,
    /// Offset of the Adam `m` region (`Ψ × 4` bytes, f32 LE).
    pub m_off: usize,
    /// Offset of the Adam `v` region (`Ψ × 4` bytes, f32 LE).
    pub v_off: usize,
    /// Offset of the error-feedback residual region (`Ψ × 4` bytes, f32
    /// LE), when the aux view carries one.
    pub residual_off: Option<usize>,
    /// Frame length before the 4-byte CRC seal.
    pub body_len: usize,
    /// Offset of the aux flags byte; the compressor and RNG sections
    /// follow it back to back.
    flags_off: usize,
    /// Offset of the quant-policy section, when present.
    quant_off: Option<usize>,
}

/// Compute the [`FullFrameLayout`] of a v2 full checkpoint for `psi`
/// parameters and the aux sections present in `aux` (only *which* sections
/// are present matters, not their contents — but a residual must be Ψ
/// long).
pub fn full_frame_layout(psi: usize, aux: &AuxView<'_>) -> FullFrameLayout {
    if let Some(r) = aux.residual {
        assert_eq!(r.len(), psi, "residual length must equal parameter count");
    }
    // magic(4) + version(2) + iteration(8) + psi(8) + adam_t(8)
    let params_off = 30usize;
    let m_off = params_off + psi * 4;
    let v_off = m_off + psi * 4;
    let flags_off = v_off + psi * 4;
    let mut off = flags_off + 1;
    if aux.compressor.is_some() {
        off += 1 + 8 + 1; // kind u8, ratio f64, bits u8
    }
    if aux.rng.is_some() {
        off += 4 * 8;
    }
    let residual_off = aux.residual.is_some().then_some(off);
    if aux.residual.is_some() {
        off += psi * 4;
    }
    let quant_off = aux.quant.is_some().then_some(off);
    if aux.quant.is_some() {
        off += 4 + 4; // bits/streak/adaptive/floor_bits u8×4, max_err f32
    }
    FullFrameLayout {
        params_off,
        m_off,
        v_off,
        residual_off,
        body_len: off,
        flags_off,
        quant_off,
    }
}

/// The aux-section presence bitmask of a view (the frame's flags byte).
fn aux_flag_bits(aux: &AuxView<'_>) -> u8 {
    let mut flags = 0u8;
    if aux.residual.is_some() {
        flags |= AUX_FLAG_RESIDUAL;
    }
    if aux.compressor.is_some() {
        flags |= AUX_FLAG_COMPRESSOR;
    }
    if aux.rng.is_some() {
        flags |= AUX_FLAG_RNG;
    }
    if aux.quant.is_some() {
        flags |= AUX_FLAG_QUANT_POLICY;
    }
    flags
}

/// Copy `bytes` into `frame` at `*off` and advance it.
fn put_at(frame: &mut [u8], off: &mut usize, bytes: &[u8]) {
    frame[*off..*off + bytes.len()].copy_from_slice(bytes);
    *off += bytes.len();
}

/// The one writer of a v2 frame's header and small aux sections (flags,
/// compressor, RNG cursor, quant policy): stamps them into a body-length
/// `frame` at the offsets `layout` names and leaves the Ψ-sized region
/// bytes untouched.
fn write_frame_sections(
    frame: &mut [u8],
    layout: &FullFrameLayout,
    iteration: u64,
    psi: usize,
    opt_t: u64,
    aux: &AuxView<'_>,
) {
    debug_assert_eq!(frame.len(), layout.body_len);
    let mut off = 0;
    put_at(frame, &mut off, MAGIC_FULL);
    put_at(frame, &mut off, &FULL_VERSION_V2.to_le_bytes());
    put_at(frame, &mut off, &iteration.to_le_bytes());
    put_at(frame, &mut off, &(psi as u64).to_le_bytes());
    put_at(frame, &mut off, &opt_t.to_le_bytes());
    debug_assert_eq!(off, layout.params_off);
    let mut off = layout.flags_off;
    put_at(frame, &mut off, &[aux_flag_bits(aux)]);
    if let Some(c) = aux.compressor {
        put_at(frame, &mut off, &[c.kind as u8]);
        put_at(frame, &mut off, &c.ratio.to_le_bytes());
        put_at(frame, &mut off, &[c.bits]);
    }
    if let Some(rng) = aux.rng {
        for w in rng {
            put_at(frame, &mut off, &w.to_le_bytes());
        }
    }
    // Written last so quantization-off checkpoints stay byte-identical to
    // the pre-policy format.
    if let (Some(q), Some(mut off)) = (aux.quant, layout.quant_off) {
        put_at(
            frame,
            &mut off,
            &[q.bits, q.streak, u8::from(q.adaptive), q.floor_bits],
        );
        put_at(frame, &mut off, &q.max_err.to_le_bytes());
    }
}

/// Seal a frame from [`encode_full_frame_into`]: append the CRC32 of
/// everything written so far.
pub fn seal_frame(buf: &mut Vec<u8>) {
    seal(buf);
}

/// Deserialize a full checkpoint (model state only), accepting both v1 and
/// v2 layouts; any v2 auxiliary state is decoded and dropped.
pub fn decode_model_state(data: &[u8]) -> Result<ModelState, CodecError> {
    Ok(decode_full_checkpoint(data)?.state)
}

/// Target size of one piece of the one-pass full decode. The pieces are
/// `chunk_ranges(body, ⌈body / DECODE_PIECE_BYTES⌉)` — a function of the
/// blob length only, never of the pool width — and one piece is small
/// enough that its CRC pass leaves it in cache for the copy that follows.
const DECODE_PIECE_BYTES: usize = 1 << 20;

/// Deserialize a full checkpoint with its auxiliary state, validating
/// magic, version and CRC. Accepts v1 (no aux, lossy) and v2.
///
/// One pass over the blob: the header and the small aux sections are
/// parsed from the still-unverified body (the same bounds checks and
/// length caps as every decoder here, so every allocation is bounded by
/// the blob's length), then the body is walked in pieces on the pool —
/// each piece is CRC'd and its overlap with the params / m / v / residual
/// regions copied straight into the output arrays — and the piece CRCs
/// are folded in order with `crc32_combine`. Nothing decoded is returned
/// unless the combined CRC equals the seal. A body that does not parse
/// reports its structural error only behind a valid seal, and
/// [`CodecError::CrcMismatch`] otherwise: exactly the verdict of
/// verifying the CRC first and parsing second.
pub fn decode_full_checkpoint(data: &[u8]) -> Result<FullCheckpoint, CodecError> {
    decode_full_in_pieces(data, DECODE_PIECE_BYTES)
}

/// [`decode_full_checkpoint`] with an explicit piece size (the unit tests
/// pin that the result does not depend on it).
fn decode_full_in_pieces(data: &[u8], piece_bytes: usize) -> Result<FullCheckpoint, CodecError> {
    let (body, stored) = split_seal(data)?;
    let plan = match parse_full(body) {
        Ok(plan) => plan,
        Err(e) if crc32(body) == stored => return Err(e),
        Err(_) => return Err(CodecError::CrcMismatch),
    };
    let psi = plan.psi;
    let mut outs: Vec<Vec<f32>> = plan
        .regions
        .iter()
        .map(|_| Vec::with_capacity(psi))
        .collect();
    let mut dsts: Vec<&mut [MaybeUninit<u8>]> =
        outs.iter_mut().map(|v| spare_bytes(v, psi)).collect();
    // Pair every piece with its overlap of each region; the regions are
    // walked in order, so each overlap is the next prefix of its output.
    let pieces: Vec<Piece<'_>> = chunk_ranges(body.len(), body.len().div_ceil(piece_bytes))
        .into_iter()
        .map(|r| {
            let mut copies = Vec::new();
            for (&off, dst) in plan.regions.iter().zip(&mut dsts) {
                let (lo, hi) = (r.start.max(off), r.end.min(off + 4 * psi));
                if lo < hi {
                    let (head, tail) = std::mem::take(dst).split_at_mut(hi - lo);
                    *dst = tail;
                    copies.push((&body[lo..hi], head));
                }
            }
            Piece {
                bytes: &body[r],
                copies,
            }
        })
        .collect();
    // Every output byte belongs to exactly one piece: the pieces partition
    // the body and every region lies inside it.
    assert!(dsts.iter().all(|d| d.is_empty()), "regions not covered");
    let crcs: Vec<(u32, u64)> = pieces
        .into_par_iter()
        .with_min_len(1)
        .map(|p| {
            let crc = crc32(p.bytes);
            for (src, dst) in p.copies {
                copy_bytes(src, dst);
            }
            (crc, p.bytes.len() as u64)
        })
        .collect();
    if combined_crc(crcs) != stored {
        return Err(CodecError::CrcMismatch);
    }
    for v in &mut outs {
        // SAFETY: `v` has capacity ≥ psi and the assert above shows its
        // whole `psi × 4`-byte spare prefix was handed out to pieces, each
        // of which copied exactly its slice's length into it; every bit
        // pattern is a valid f32.
        unsafe { v.set_len(psi) };
        #[cfg(target_endian = "big")]
        for x in v.iter_mut() {
            *x = f32::from_bits(u32::from_le(x.to_bits()));
        }
    }
    let mut outs = outs.into_iter();
    let mut next = || outs.next().expect("one output per region");
    let (params, m, v) = (next(), next(), next());
    let mut aux = plan.aux;
    aux.residual = plan.has_residual.then(next);
    let lossy = aux.is_empty();
    Ok(FullCheckpoint {
        state: ModelState {
            iteration: plan.iteration,
            params,
            opt: AdamState {
                m,
                v,
                t: plan.adam_t,
            },
        },
        aux,
        lossy,
        version: plan.version,
    })
}

/// One piece of the one-pass decode: its body bytes (CRC'd) and the
/// slices of them that land in each output array.
struct Piece<'a> {
    bytes: &'a [u8],
    copies: Vec<(&'a [u8], &'a mut [MaybeUninit<u8>])>,
}

/// What [`parse_full`] learns from a body without copying a region.
struct FullPlan {
    version: u16,
    iteration: u64,
    psi: usize,
    adam_t: u64,
    /// Body offsets of the `psi × 4`-byte regions in output order:
    /// params, m, v, then the residual when present.
    regions: Vec<usize>,
    has_residual: bool,
    /// The small aux sections (never a residual).
    aux: AuxState,
}

/// The structure of an LDFC body: every check, in the order of the wire,
/// that decoding makes — except the CRC, which the caller gates on.
fn parse_full(body: &[u8]) -> Result<FullPlan, CodecError> {
    let mut cur = Cursor::after_magic(body, MAGIC_FULL)?;
    let version = cur.get_u16("truncated header")?;
    if version != VERSION && version != FULL_VERSION_V2 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let iteration = cur.get_u64("truncated header")?;
    let psi = cur.get_u64("truncated header")?;
    let adam_t = cur.get_u64("truncated header")?;
    let mut regions = Vec::with_capacity(4);
    let mut region = |cur: &mut Cursor<'_>| -> Result<(), CodecError> {
        regions.push(body.len() - cur.remaining());
        cur.skip_f32s(psi, "truncated f32 array").map(drop)
    };
    for _ in 0..3 {
        region(&mut cur)?;
    }
    let mut aux = AuxState::default();
    let mut has_residual = false;
    if version >= FULL_VERSION_V2 {
        let flags = cur.get_u8("missing aux flags")?;
        if flags & !AUX_FLAGS_KNOWN != 0 {
            return Err(CodecError::Corrupt("unknown aux flags"));
        }
        if flags & AUX_FLAG_COMPRESSOR != 0 {
            let kind = CompressorKind::from_u8(cur.get_u8("truncated compressor cfg")?)
                .ok_or(CodecError::Corrupt("unknown compressor kind"))?;
            let ratio = cur.get_f64("truncated compressor cfg")?;
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
            region(&mut cur)?;
            has_residual = true;
        }
        if flags & AUX_FLAG_QUANT_POLICY != 0 {
            let bits = cur.get_u8("truncated quant policy")?;
            let streak = cur.get_u8("truncated quant policy")?;
            let adaptive = cur.get_u8("truncated quant policy")? != 0;
            let floor_bits = cur.get_u8("truncated quant policy")?;
            let max_err = cur.get_f32("truncated quant policy")?;
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
    cur.finish()?;
    Ok(FullPlan {
        version,
        iteration,
        // Within the body's length: `skip_f32s` applied the length cap.
        psi: psi as usize,
        adam_t,
        regions,
        has_residual,
        aux,
    })
}

/// The first `n` f32s of `v`'s spare capacity as uninitialized bytes.
fn spare_bytes(v: &mut Vec<f32>, n: usize) -> &mut [MaybeUninit<u8>] {
    let spare = &mut v.spare_capacity_mut()[..n];
    // SAFETY: `spare` is `n` exclusively borrowed `MaybeUninit<f32>`s, i.e.
    // `4n` bytes that may be uninitialized — exactly what a slice of
    // `MaybeUninit<u8>` (alignment 1) over the same memory describes.
    unsafe { std::slice::from_raw_parts_mut(spare.as_mut_ptr().cast(), n * 4) }
}

/// Copy `src` into the equally long `dst`.
fn copy_bytes(src: &[u8], dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(src.len(), dst.len());
    // SAFETY: both slices are `src.len()` bytes long, `dst` is exclusively
    // borrowed (so writable and not overlapping `src`), and writing bytes
    // into `MaybeUninit<u8>` is always valid.
    unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr().cast(), src.len()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_util::DetRng;

    fn demo_state(psi: usize, seed: u64) -> ModelState {
        let mut rng = DetRng::new(seed);
        let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        st.iteration = 1234;
        st.opt.t = 1234;
        rng.fill_normal_f32(&mut st.opt.m, 0.1);
        rng.fill_normal_f32(&mut st.opt.v, 0.01);
        st
    }

    fn full_aux(psi: usize) -> AuxState {
        AuxState {
            residual: Some((0..psi).map(|i| i as f32 * 0.5 - 7.0).collect()),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([7, 8, 9, u64::MAX]),
            quant: Some(QuantPolicyState {
                bits: 8,
                streak: 2,
                adaptive: true,
                max_err: 0.05,
                floor_bits: 4,
            }),
        }
    }

    /// The f32 LE bytes of `xs`, element by element.
    fn le_bytes(xs: &[f32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn model_state_roundtrip() {
        let st = demo_state(1000, 1);
        let bytes = encode_model_state(&st);
        let back = decode_model_state(&bytes).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn full_v2_roundtrips_aux_state() {
        let st = demo_state(300, 21);
        let aux = full_aux(300);
        let bytes = encode_full_checkpoint(&st, &aux.view());
        let fc = decode_full_checkpoint(&bytes).unwrap();
        assert_eq!(fc.state, st);
        assert_eq!(fc.aux, aux);
        assert!(!fc.lossy);
        assert_eq!(fc.version, FULL_VERSION_V2);
        // Model-state-only decode drops the aux without complaint.
        assert_eq!(decode_model_state(&bytes).unwrap(), st);
    }

    #[test]
    fn full_v2_partial_aux_sections() {
        let st = demo_state(40, 22);
        for aux in [
            AuxState {
                compressor: Some(CompressorCfg::quant(8)),
                ..AuxState::default()
            },
            AuxState {
                rng: Some([1, 2, 3, 4]),
                ..AuxState::default()
            },
            AuxState {
                residual: Some(vec![0.5; 40]),
                ..AuxState::default()
            },
            AuxState {
                quant: Some(QuantPolicyState {
                    bits: 16,
                    streak: 0,
                    adaptive: false,
                    max_err: 0.0,
                    floor_bits: 4,
                }),
                ..AuxState::default()
            },
        ] {
            let bytes = encode_full_checkpoint(&st, &aux.view());
            let fc = decode_full_checkpoint(&bytes).unwrap();
            assert_eq!(fc.aux, aux);
            assert!(!fc.lossy);
        }
        // No aux at all: decodes fine, flagged lossy.
        let bytes = encode_model_state(&st);
        let fc = decode_full_checkpoint(&bytes).unwrap();
        assert!(fc.aux.is_empty());
        assert!(fc.lossy);
    }

    #[test]
    fn unsealed_frame_seals_to_the_blocking_encode_without_reallocating() {
        // The split capture path: the unsealed frame holds every region at
        // the offset `full_frame_layout` names, and sealing it later
        // reproduces the one-shot encoder's blob exactly — within the
        // reservation, also when a larger stale frame is reused.
        let mut framed = Vec::new();
        for (psi, seed, aux) in [
            (301, 32, full_aux(301)),
            (300, 31, AuxState::default()),
            (
                64,
                33,
                AuxState {
                    rng: Some([1, 2, 3, 4]),
                    quant: Some(QuantPolicyState {
                        bits: 16,
                        streak: 0,
                        adaptive: false,
                        max_err: 0.0,
                        floor_bits: 4,
                    }),
                    ..AuxState::default()
                },
            ),
        ] {
            let st = demo_state(psi, seed);
            let view = aux.view();
            encode_full_frame_into(&st, &view, &mut framed);
            let layout = full_frame_layout(psi, &view);
            assert_eq!(framed.len(), layout.body_len);
            let region = |off: usize| &framed[off..off + 4 * psi];
            assert_eq!(region(layout.params_off), le_bytes(&st.params));
            assert_eq!(region(layout.m_off), le_bytes(&st.opt.m));
            assert_eq!(region(layout.v_off), le_bytes(&st.opt.v));
            match (view.residual, layout.residual_off) {
                (Some(r), Some(off)) => assert_eq!(region(off), le_bytes(r)),
                (None, None) => {}
                _ => panic!("residual region without a residual (or vice versa)"),
            }
            let ptr = framed.as_ptr();
            seal_frame(&mut framed);
            assert_eq!(framed.as_ptr(), ptr, "the seal must fit the reservation");
            assert_eq!(
                framed,
                encode_full_checkpoint(&st, &view),
                "frame+seal diverged at psi={psi}"
            );
        }
    }

    #[test]
    fn encode_into_reuses_allocation_without_stale_bytes() {
        let st = demo_state(512, 11);
        let mut fb = Vec::new();
        encode_full_checkpoint_into(&st, &full_aux(512).view(), &mut fb);
        let cap = fb.capacity();
        let small = demo_state(8, 12);
        encode_full_checkpoint_into(&small, &AuxView::NONE, &mut fb);
        assert_eq!(fb, encode_model_state(&small), "stale bytes leaked");
        assert_eq!(fb.capacity(), cap, "allocation was not reused");
    }

    #[test]
    fn decode_does_not_depend_on_the_piece_size() {
        // Pieces as small as one byte split every region (and the header)
        // mid-element; the verdict — value or error — must not move, for
        // intact blobs, torn ones and re-sealed mutants alike.
        let st = demo_state(9, 41);
        let blobs = [
            encode_full_checkpoint(&st, &full_aux(9).view()),
            encode_model_state(&st),
        ];
        let reseal = |body: &[u8]| {
            let mut b = body.to_vec();
            seal(&mut b);
            b
        };
        for blob in &blobs {
            let body = &blob[..blob.len() - 4];
            let mut mutants = vec![blob.clone()];
            for at in 0..blob.len() {
                let mut flipped = blob.clone();
                flipped[at] ^= 0x10;
                mutants.push(flipped);
                mutants.push(blob[..at].to_vec());
                let mut resealed = body.to_vec();
                if at < body.len() {
                    resealed[at] = resealed[at].wrapping_add(1);
                }
                mutants.push(reseal(&resealed));
                mutants.push(reseal(&body[..at.min(body.len())]));
            }
            for m in &mutants {
                let whole = decode_full_in_pieces(m, usize::MAX);
                for piece in [1, 3, 7, 64] {
                    assert_eq!(decode_full_in_pieces(m, piece), whole, "piece {piece}");
                }
            }
        }
    }

    #[test]
    fn full_v2_rejects_unknown_aux_flags() {
        let st = demo_state(8, 24);
        let mut bytes = encode_model_state(&st);
        bytes.truncate(bytes.len() - 4); // strip crc
        let flags_at = bytes.len() - 1; // empty aux → flags is the last body byte
        bytes[flags_at] = 0x80;
        seal(&mut bytes);
        assert!(matches!(
            decode_full_checkpoint(&bytes).unwrap_err(),
            CodecError::Corrupt("unknown aux flags")
        ));
    }

    #[test]
    fn crc_detects_flips_anywhere() {
        let st = demo_state(64, 2);
        let bytes = encode_model_state(&st);
        for pos in [0usize, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = decode_model_state(&bad).unwrap_err();
            assert!(
                matches!(err, CodecError::CrcMismatch | CodecError::BadMagic),
                "flip at {pos} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let st = demo_state(64, 3);
        let bytes = encode_model_state(&st);
        // A torn write: only the first half hit the disk.
        let torn = &bytes[..bytes.len() / 2];
        assert!(decode_model_state(torn).is_err());
    }

    #[test]
    fn malformed_but_crc_valid_record_errors_cleanly() {
        // Body claims Ψ larger than the payload actually carries; the CRC
        // is valid (we seal after corrupting the length), so decoding must
        // fail structurally, not panic.
        let st = demo_state(16, 6);
        let mut bytes = encode_model_state(&st);
        bytes.truncate(bytes.len() - 4); // strip crc
        bytes[14] = 0xFF; // blow up the psi field (offset 4+2+8 = 14)
        seal(&mut bytes);
        let err = decode_model_state(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn encoded_size_matches_payload_accounting() {
        // Size ≈ header + 3Ψ·4 + crc; the cost model assumes 3Ψ·4 dominates.
        let st = demo_state(10_000, 5);
        let bytes = encode_model_state(&st);
        let payload = st.payload_bytes();
        assert!(bytes.len() >= payload);
        assert!(bytes.len() < payload + 64, "header overhead too large");
    }
}
