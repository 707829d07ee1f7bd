//! Versioned binary checkpoint formats with CRC32 integrity.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! full checkpoint (v2)          diff batch (v2 and v3)
//! ┌────────────────────────┐    ┌──────────────────────┐
//! │ magic "LDFC"           │    │ magic "LDDB"         │
//! │ version u16 = 2        │    │ version u16 (2 or 3) │
//! │ iteration u64          │    │ count u32            │
//! │ psi u64                │    │ count × {            │
//! │ adam_t u64             │    │   iteration u64      │
//! │ params  f32×Ψ          │    │   CompressedGrad     │
//! │ adam_m  f32×Ψ          │    │ }                    │
//! │ adam_v  f32×Ψ          │    │ crc32 u32            │
//! │ aux flags u8           │    └──────────────────────┘
//! │ [compressor cfg]       │
//! │ [rng cursor 4×u64]     │
//! │ [residual f32×Ψ]       │
//! │ [quant policy 8 B]     │
//! │ crc32 u32              │
//! └────────────────────────┘
//! ```
//!
//! Full checkpoints are **v2**, written and read: the model state, then
//! the auxiliary training state that makes resume bit-exact (see
//! `lowdiff_compress::aux`): a flags byte (bit 0 = error-feedback
//! residual present, bit 1 = compressor config, bit 2 = RNG cursor, bit 3
//! = quant policy) followed by the present sections — compressor (kind u8,
//! ratio f64, bits u8), RNG (4 × u64 state words), residual (Ψ × f32),
//! quant policy (bits, streak, adaptive, floor bits u8 × 4, max_err f32).
//! A blob whose flags byte is 0 carries no aux and decodes with the
//! *lossy* flag set: resume still works, but an error-feedback run
//! restarts its residual from zero and may diverge from the uninterrupted
//! run.
//!
//! Diff batches are **v2 or v3** (chosen by [`ValueCodec`]), written and
//! read; a chain may mix the two and recovers cleanly. Both store the
//! sparse indices, which Top-K sorts strictly increasing, as LEB128 varint
//! **deltas** (`idx[0], idx[1]-idx[0], …`): at ~1% density the average
//! gap is ~100, so almost every delta fits one byte. v2 stores the values
//! as bulk-LE `f32`.
//!
//! **v3** keeps the v2 index encoding but quantizes the value plane per
//! [`QUANT_CHUNK`]-element chunk: each chunk opens with a width byte
//! (4, 8, 16, or 32 = f32 passthrough) and, when quantized, an
//! `lo f32, scale f32` header followed by codes packed at that width
//! (4-bit pairs low-nibble-first, 8-bit bytes, 16-bit LE). Width is chosen
//! statelessly from the chunk's value range against the configured error
//! bound (see [`QuantizedValues`]), so re-encoding identical values is
//! deterministic. Already-quantized `Quant` records stay tag-1 and
//! lossless in both versions — gradient-replay determinism depends on it.
//!
//! Every other version of either format fails with
//! [`CodecError::UnsupportedVersion`]; recovery treats such a blob like
//! any other unreadable one.
//!
//! The CRC covers every preceding byte; a checkpoint that fails its CRC (a
//! torn write at failure time) is treated as absent during recovery.
//!
//! ## One cursor, one seal, one length cap
//!
//! Every format in this crate — LDFC and LDDB here, the LDSM stripe
//! manifest (`crate::stripe`) and the LDGM global manifest
//! (`crate::shard`) — is sealed by the same CRC trailer writer and parsed
//! by the same borrowing `Cursor`. LDDB, LDSM and LDGM open it with the
//! CRC first, then the magic. LDFC, whose blobs are the largest, is
//! decoded in one pass instead: its small header and aux sections are
//! parsed first, then CRC and region copy run together piece by piece,
//! and nothing is returned before the combined CRC matches the seal —
//! the same verdict, byte for byte, as CRC first (see
//! [`decode_full_checkpoint`]). Each format has one encoder and one
//! parser. Every length field read from a blob passes
//! the **length-cap rule** before anything is allocated: `n` elements that
//! each take at least `min_size` bytes on the wire must fit in the bytes
//! still unread (`n ≤ remaining / min_size`, no overflow possible). A
//! CRC-valid blob that claims more than it carries therefore fails with
//! [`CodecError::Corrupt`]; no decoder panics on hostile bytes or
//! allocates more than a small multiple of its input.
//!
//! ## Hot-path encoding
//!
//! `f32` arrays dominate the payload (3Ψ floats for a full checkpoint).
//! They are moved as **single bulk byte copies** on little-endian targets —
//! the in-memory representation already *is* the wire format — instead of
//! one `to_le_bytes` round per element; big-endian targets fall back to
//! the per-element loop. Sealing appends the CRC in place (no copy of the
//! payload), and decoding parses borrowed slices (no upfront copy of the
//! input). The pre-bulk per-element codec lives on as a test oracle in the
//! dev-only `lowdiff-testkit` crate.

mod diff;
mod full;

pub use diff::{
    decode_diff_batch, encode_diff_batch, encode_diff_batch_into, inspect_diff_batch, DiffEntry,
    DiffEntryInspect, DiffInspect, QuantizedValues, ValueCodec, QUANT_CHUNK,
};
pub use full::{
    decode_full_checkpoint, decode_model_state, encode_full_checkpoint,
    encode_full_checkpoint_into, encode_full_frame_into, encode_model_state, full_frame_layout,
    seal_frame, state_crc, FullCheckpoint, FullFrameLayout,
};

use lowdiff_util::crc::{crc32, crc32_combine};

pub const MAGIC_FULL: &[u8; 4] = b"LDFC";
pub const MAGIC_DIFF: &[u8; 4] = b"LDDB";
/// Diff-batch v2 format: varint-delta sparse indices, raw f32 values.
pub const DIFF_VERSION_V2: u16 = 2;
/// Diff-batch v3 format: varint-delta indices as in v2, values quantized
/// per chunk (width ∈ {4, 8, 16} with per-chunk lo/scale headers, or f32
/// passthrough when the error bound demands it).
pub const DIFF_VERSION_V3: u16 = 3;
/// Current full-checkpoint write format: ModelState + auxiliary state.
pub const FULL_VERSION_V2: u16 = 2;

/// Decode failure reasons.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    BadMagic,
    UnsupportedVersion(u16),
    Corrupt(&'static str),
    CrcMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt record: {what}"),
            CodecError::CrcMismatch => write!(f, "crc mismatch (torn or corrupted write)"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- write helpers (append to a plain Vec<u8>) -----------------------------

#[inline]
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The codec's one byte view of an `f32` array: hand `xs` to `sink` as
/// its little-endian wire bytes — in place, as one slice, on LE targets.
fn with_le_bytes(xs: &[f32], mut sink: impl FnMut(&[u8])) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f32 has no padding bytes and u8 has alignment 1, so
        // viewing an initialized f32 slice as bytes is always valid; on a
        // little-endian target the in-memory byte order is the wire order.
        sink(unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), xs.len() * 4) });
    }
    #[cfg(target_endian = "big")]
    for x in xs {
        sink(&x.to_le_bytes());
    }
}

/// Append `xs` in little-endian order: one memcpy on LE targets.
fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    with_le_bytes(xs, |bytes| buf.extend_from_slice(bytes));
}

/// Append `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation). A `u64` takes at most 10 bytes; small values take one.
#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append the CRC32 of everything written so far — in place, no payload
/// copy. Every format in this crate ends with this trailer.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    put_u32(buf, crc);
}

/// The CRC32 of consecutive pieces' concatenation from each piece's
/// `(crc, len)`, in order — how a reader that checksums a blob in pieces
/// (stripes, decode pieces) still reads each byte once.
pub(crate) fn combined_crc(pieces: impl IntoIterator<Item = (u32, u64)>) -> u32 {
    pieces
        .into_iter()
        .fold(crc32(&[]), |acc, (crc, len)| crc32_combine(acc, crc, len))
}

// --- the one read cursor ----------------------------------------------------

/// Borrowing read cursor under every decoder in this crate. Getters return
/// `Err(Corrupt)` on underflow and every length field passes
/// [`Cursor::capped_len`], so a record that passes its CRC but is
/// structurally malformed — or hostile — fails decoding instead of
/// panicking or allocating. The byte-level getters are `#[inline]`: the
/// parsers live in sibling modules (other codegen units), and the varint
/// index loop calls them once per byte.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
}

/// Split a sealed blob into its body and the CRC32 its trailer stores.
fn split_seal(data: &[u8]) -> Result<(&[u8], u32), CodecError> {
    if data.len() < 4 {
        return Err(CodecError::Corrupt("too short for crc"));
    }
    let (body, tail) = data.split_at(data.len() - 4);
    let stored = Cursor { data: tail }.get_u32("too short for crc")?;
    Ok((body, stored))
}

impl<'a> Cursor<'a> {
    /// Verify a sealed blob's CRC32 trailer, then its magic; the cursor
    /// starts right after the magic and ends before the trailer.
    pub(crate) fn open(data: &'a [u8], magic: &[u8; 4]) -> Result<Self, CodecError> {
        let (body, stored) = split_seal(data)?;
        if crc32(body) != stored {
            return Err(CodecError::CrcMismatch);
        }
        Self::after_magic(body, magic)
    }

    /// Check `body`'s magic and start right after it — **without** the CRC
    /// check. Only a parser whose caller gates every result on the seal
    /// (the one-pass full decoder) may read an unverified body.
    fn after_magic(body: &'a [u8], magic: &[u8; 4]) -> Result<Self, CodecError> {
        let mut cur = Self { data: body };
        match cur.take(4, "missing magic") {
            Ok(m) if m == magic => Ok(cur),
            _ => Err(CodecError::BadMagic),
        }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.data.len() < n {
            return Err(CodecError::Corrupt(what));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn get<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    #[inline]
    fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.get(what).map(u16::from_le_bytes)
    }

    pub(crate) fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.get(what).map(u32::from_le_bytes)
    }

    pub(crate) fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.get(what).map(u64::from_le_bytes)
    }

    fn get_f32(&mut self, what: &'static str) -> Result<f32, CodecError> {
        self.get(what).map(f32::from_le_bytes)
    }

    fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        self.get(what).map(f64::from_le_bytes)
    }

    /// Decode an LEB128 varint. Rejects encodings longer than 10 bytes (the
    /// `u64` maximum) so corrupt-but-CRC-valid data errors instead of
    /// reading unbounded continuation bytes.
    #[inline]
    fn get_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8(what)?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("varint overflow"))
    }

    /// The length-cap rule: trust a length field only as far as the unread
    /// bytes can back it. `n` elements of at least `min_size` wire bytes
    /// each must fit in what is left — checked by division, so no hostile
    /// `n` can overflow — or the blob is corrupt. Every count is checked
    /// here before it sizes an allocation.
    fn capped_len(&self, n: u64, min_size: usize, what: &'static str) -> Result<usize, CodecError> {
        debug_assert!(min_size > 0);
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.data.len() / min_size)
            .ok_or(CodecError::Corrupt(what))
    }

    /// Read a `u32` element count and apply [`capped_len`](Self::capped_len) to it.
    pub(crate) fn get_len_u32(
        &mut self,
        min_size: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let n = self.get_u32(what)?;
        self.capped_len(n.into(), min_size, what)
    }

    /// Step over `n` little-endian f32s, after the length cap, and return
    /// their `n × 4` wire bytes undecoded.
    fn skip_f32s(&mut self, n: u64, what: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.capped_len(n, 4, what)?;
        self.take(n * 4, what)
    }

    /// Bulk-decode `n` little-endian f32s, after the length cap: one
    /// memcpy on LE targets.
    fn get_f32s(&mut self, n: u64, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let bytes = self.skip_f32s(n, what)?;
        let n = bytes.len() / 4;
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
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect())
        }
    }

    /// Decode `n` little-endian u32s, after the length cap. Only short
    /// lists use it (LDGM chunk ids), so it reads element by element.
    pub(crate) fn get_u32s(&mut self, n: u64, what: &'static str) -> Result<Vec<u32>, CodecError> {
        let n = self.capped_len(n, 4, what)?;
        (0..n).map(|_| self.get_u32(what)).collect()
    }

    /// Every byte must be consumed: trailing bytes are corruption.
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt("trailing bytes"))
        }
    }
}
