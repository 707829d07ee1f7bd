//! The full checkpoint `C^F` (magic `LDFC`): one encoder, one frame
//! builder for incremental capture on top of the same section writer, and
//! one decoder.

use super::{put_f32s, seal, CodecError, Cursor, FULL_VERSION_V2, MAGIC_FULL, VERSION};
use lowdiff_compress::{AuxState, AuxView, CompressorCfg, CompressorKind, QuantPolicyState};
use lowdiff_optim::{AdamState, ModelState};

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
/// zero-filled, then stamped by the same section writer the incremental
/// capture frame uses.
pub fn encode_full_checkpoint_into(state: &ModelState, aux: &AuxView<'_>, buf: &mut Vec<u8>) {
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
    seal(buf);
}

/// Byte offsets of a v2 full-checkpoint frame — the only place they are
/// computed. The large lazily-capturable regions sit at fixed offsets (the
/// header and every aux section except the residual have static sizes),
/// which is what lets an incremental snapshot capture chunks **directly
/// into the wire image**: filling the regions of a
/// [`reframe_full_frame_into`] frame and sealing yields a blob
/// byte-identical to [`encode_full_checkpoint_into`] on the same state.
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

/// Frame an **unsealed** v2 full checkpoint in `buf` for incremental
/// capture: the header and every small aux section carry their final
/// bytes; the params / m / v / residual regions sit at the offsets the
/// returned [`FullFrameLayout`] names. Once every region byte has been
/// filled (f32 LE, e.g. chunk by chunk), [`seal_frame`] appends the CRC and
/// the blob is byte-identical to [`encode_full_checkpoint_into`] for the
/// state the regions were filled from — the incremental-snapshot
/// byte-identity invariant, pinned by
/// `frame_fill_seal_matches_blocking_encode`.
///
/// When `buf` already holds a frame of the **same shape** (same `psi`,
/// same aux-section mix — e.g. a recycled capture ticket) only the header
/// and small sections are rewritten in place; the region bytes still hold
/// the *previous* capture's bytes, and the caller's contract is exactly the
/// frame-filling one: every region byte is overwritten before
/// [`seal_frame`]. Skipping the multi-MB placeholder zeroing is the point:
/// on the training thread that memset is a milliseconds-scale stall for
/// nothing. Any other buffer (empty, wrong length, different section mix)
/// is rebuilt from scratch with zero-filled regions and room for the seal.
///
/// `aux.residual` contributes only its *presence* (its length must equal
/// `psi`); the contents are captured into the region later.
pub fn reframe_full_frame_into(
    iteration: u64,
    opt_t: u64,
    psi: usize,
    aux: &AuxView<'_>,
    buf: &mut Vec<u8>,
) -> FullFrameLayout {
    let layout = full_frame_layout(psi, aux);
    // A sealed previous frame is body + 4 CRC bytes; an unsealed one
    // (abandoned capture) is bare body. The flags byte pins the section
    // mix, and with it every offset this in-place rewrite relies on.
    let reusable = (buf.len() == layout.body_len || buf.len() == layout.body_len + 4)
        && buf.get(layout.flags_off).copied() == Some(aux_flag_bits(aux));
    if reusable {
        buf.truncate(layout.body_len);
    } else {
        buf.clear();
        buf.reserve(layout.body_len + 4);
        buf.resize(layout.body_len, 0);
    }
    write_frame_sections(buf, &layout, iteration, psi, opt_t, aux);
    layout
}

/// Seal a filled frame: append the CRC32 of everything written so far.
pub fn seal_frame(buf: &mut Vec<u8>) {
    seal(buf);
}

/// Deserialize a full checkpoint (model state only), accepting both v1 and
/// v2 layouts; any v2 auxiliary state is decoded and dropped.
pub fn decode_model_state(data: &[u8]) -> Result<ModelState, CodecError> {
    Ok(decode_full_checkpoint(data)?.state)
}

/// Deserialize a full checkpoint with its auxiliary state, validating
/// magic, version and CRC. Accepts v1 (no aux, lossy) and v2.
pub fn decode_full_checkpoint(data: &[u8]) -> Result<FullCheckpoint, CodecError> {
    let mut cur = Cursor::open(data, MAGIC_FULL)?;
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
            aux.residual = Some(cur.get_f32s(psi, "truncated f32 array")?);
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

    /// Overwrite an f32 region of a frame element by element.
    fn fill(buf: &mut [u8], off: usize, xs: &[f32]) {
        for (i, &x) in xs.iter().enumerate() {
            buf[off + i * 4..off + i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
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
    fn frame_fill_seal_matches_blocking_encode() {
        // The incremental-capture byte-identity invariant at the codec
        // layer: framing an empty buffer, filling the regions from the
        // state, and sealing must reproduce the blocking encoder's blob
        // exactly — without the seal reallocating.
        for (psi, seed, aux) in [
            (300, 31, AuxState::default()),
            (301, 32, full_aux(301)),
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
            let blocking = encode_full_checkpoint(&st, &view);
            let mut framed = Vec::new();
            let layout = reframe_full_frame_into(st.iteration, st.opt.t, psi, &view, &mut framed);
            assert_eq!(layout, full_frame_layout(psi, &view));
            assert_eq!(framed.len(), layout.body_len);
            assert!(framed.capacity() >= layout.body_len + 4, "seal must fit");
            fill(&mut framed, layout.params_off, &st.params);
            fill(&mut framed, layout.m_off, &st.opt.m);
            fill(&mut framed, layout.v_off, &st.opt.v);
            if let Some(r) = view.residual {
                fill(&mut framed, layout.residual_off.unwrap(), r);
            } else {
                assert!(layout.residual_off.is_none());
            }
            seal_frame(&mut framed);
            assert_eq!(framed, blocking, "frame+fill+seal diverged at psi={psi}");
        }
    }

    #[test]
    fn reframe_reuses_matching_buffers_and_rebuilds_others() {
        let aux = AuxState {
            residual: Some((0..200).map(|i| i as f32 * 0.25).collect()),
            compressor: Some(CompressorCfg::topk(0.02)),
            rng: Some([4, 5, 6, 7]),
            quant: None,
        };
        let view = aux.view();
        let complete = |st: &ModelState, buf: &mut Vec<u8>, layout: FullFrameLayout| {
            fill(buf, layout.params_off, &st.params);
            fill(buf, layout.m_off, &st.opt.m);
            fill(buf, layout.v_off, &st.opt.v);
            fill(buf, layout.residual_off.unwrap(), view.residual.unwrap());
            seal_frame(buf);
        };
        // First frame from scratch, filled and sealed.
        let st1 = demo_state(200, 41);
        let mut buf = Vec::new();
        let layout = reframe_full_frame_into(st1.iteration, st1.opt.t, 200, &view, &mut buf);
        complete(&st1, &mut buf, layout);
        assert_eq!(buf, encode_full_checkpoint(&st1, &view));

        // Reframe over the sealed buffer: in-place fast path — no
        // reallocation, stale region bytes — must still seal to exactly
        // the blocking encoder's output once refilled.
        let mut st2 = demo_state(200, 42);
        st2.iteration = 1234;
        st2.opt.t = 1234;
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let layout = reframe_full_frame_into(st2.iteration, st2.opt.t, 200, &view, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "fast path must not reallocate");
        complete(&st2, &mut buf, layout);
        assert_eq!(buf, encode_full_checkpoint(&st2, &view));

        // A different section mix (flags mismatch at the same offset
        // math) falls back to the full rebuild and still round-trips.
        let bare = AuxView {
            residual: None,
            compressor: Some(CompressorCfg::topk(0.02)),
            rng: Some([4, 5, 6, 7]),
            quant: None,
        };
        let st3 = demo_state(200, 43);
        let layout = reframe_full_frame_into(st3.iteration, st3.opt.t, 200, &bare, &mut buf);
        assert!(layout.residual_off.is_none());
        fill(&mut buf, layout.params_off, &st3.params);
        fill(&mut buf, layout.m_off, &st3.opt.m);
        fill(&mut buf, layout.v_off, &st3.opt.v);
        seal_frame(&mut buf);
        assert_eq!(buf, encode_full_checkpoint(&st3, &bare));
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
