//! Decoder mutation suite over the test corpus (every storage format in
//! every version its writer produces: LDFC v2 with each aux mix, LDDB
//! v2/v3 at every value width with sparse, dense and quant records, LDSM
//! and LDGM).
//!
//! Mutations are structure-aware by exhaustion: every byte offset is tried
//! as the start of a 1-, 4- and 8-byte little-endian field, so every real
//! length, count, tag and flag field is inflated, deflated and zeroed
//! wherever it sits (the only 2-byte field, the version, has its own
//! permutation test, which also requires every LDFC/LDDB version the
//! writers do not produce to fail with `UnsupportedVersion`). On top of
//! that come bit flips, truncation
//! at every offset, version and aux-flag permutations, decoding each blob
//! under every other format's magic, and random splices of two valid
//! blobs. Except where a test says otherwise, every mutant is *re-sealed*
//! with a valid CRC so it reaches the parser instead of stopping at the
//! checksum.
//!
//! The contract: no decoder panics, and a mutant either fails with an
//! error or decodes to a value whose re-encode round-trips byte for byte
//! and whose quant records dequantize without panicking.
//! On top of that, every LDFC input — intact, torn, flipped or re-sealed —
//! must get exactly the verdict of the two-pass oracle
//! (`lowdiff_testkit::reference::decode_full_checkpoint`) from the
//! one-pass decoder, at pool widths 1 and 4: the same bits on `Ok`, the
//! same [`codec::CodecError`] on `Err` — so a torn blob stays
//! `CrcMismatch` wherever the CRC-first order made it one.

mod corpus;

use corpus::{corpus, Blob, Format};
use lowdiff_compress::quant::dequantize;
use lowdiff_compress::CompressedGrad;
use lowdiff_storage::codec;
use lowdiff_storage::shard::GlobalManifest;
use lowdiff_storage::stripe;
use lowdiff_storage::FullCheckpoint;
use lowdiff_testkit::reference;
use lowdiff_util::crc32;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const FORMATS: [(Format, &[u8; 4]); 4] = [
    (Format::Full, codec::MAGIC_FULL),
    (Format::Diff, codec::MAGIC_DIFF),
    (Format::StripeManifest, stripe::MAGIC_MANIFEST),
    (Format::GlobalManifest, lowdiff_storage::shard::MAGIC_GLOBAL),
];

/// A blob body (everything before the CRC trailer).
fn body(blob: &Blob) -> &[u8] {
    &blob.bytes[..blob.bytes.len() - 4]
}

/// `body` followed by its CRC32: a mutant that passes the seal.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Decode `bytes` as `format`. On success, re-encode the decoded value and
/// require decode ∘ encode to reproduce those bytes exactly (compared as
/// bytes, so NaN payloads count). Returns whether decoding succeeded.
fn decode_roundtrips(format: Format, bytes: &[u8]) -> bool {
    match format {
        Format::Full => {
            let full = codec::decode_full_checkpoint(bytes);
            assert_same_verdict_as_oracle(bytes);
            assert_eq!(full.is_ok(), codec::decode_model_state(bytes).is_ok());
            let Ok(fc) = full else { return false };
            let re = codec::encode_full_checkpoint(&fc.state, &fc.aux.view());
            let back = codec::decode_full_checkpoint(&re).expect("re-encode must decode");
            assert_eq!(
                codec::encode_full_checkpoint(&back.state, &back.aux.view()),
                re
            );
        }
        Format::Diff => {
            let decoded = codec::decode_diff_batch(bytes);
            let inspected = codec::inspect_diff_batch(bytes);
            assert_eq!(
                decoded.is_ok(),
                inspected.is_ok(),
                "decode/inspect disagree"
            );
            let Ok(entries) = decoded else { return false };
            assert_eq!(inspected.unwrap().entries.len(), entries.len());
            // A decoded quant record must dequantize without panicking.
            for e in &entries {
                if let CompressedGrad::Quant(q) = &e.grad {
                    assert_eq!(dequantize(q).len(), q.dense_len);
                }
            }
            let re = codec::encode_diff_batch(&entries);
            let back = codec::decode_diff_batch(&re).expect("re-encode must decode");
            assert_eq!(codec::encode_diff_batch(&back), re);
        }
        Format::StripeManifest => {
            let Ok(m) = stripe::decode_manifest(bytes) else {
                return false;
            };
            let re = stripe::encode_manifest(&m);
            assert_eq!(stripe::decode_manifest(&re).unwrap(), m);
            if m.total_len <= 1 << 16 {
                // Stripe arithmetic over a hostile manifest must not panic.
                let _ = stripe::validate(&vec![0; m.total_len as usize], &m);
            }
        }
        Format::GlobalManifest => {
            let Ok(m) = GlobalManifest::decode(bytes) else {
                return false;
            };
            assert_eq!(GlobalManifest::decode(&m.encode()).unwrap(), m);
        }
    }
    true
}

/// A decoded full as comparable bits: lossiness and the canonical
/// encoding (every f32 by its bit pattern, NaNs included).
fn full_bits(fc: &FullCheckpoint) -> (bool, Vec<u8>) {
    (
        fc.lossy,
        codec::encode_full_checkpoint(&fc.state, &fc.aux.view()),
    )
}

/// The one-pass decoder's verdict on `bytes` equals the two-pass oracle's
/// at pool widths 1 and 4.
fn assert_same_verdict_as_oracle(bytes: &[u8]) {
    let oracle = reference::decode_full_checkpoint(bytes);
    for width in [1, 4] {
        let got = rayon::pool::with_num_threads(width, || codec::decode_full_checkpoint(bytes));
        match (&got, &oracle) {
            (Ok(a), Ok(b)) => assert_eq!(full_bits(a), full_bits(b), "width {width}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "width {width}"),
            _ => panic!(
                "width {width}: one-pass {:?} vs oracle {:?}",
                got.as_ref().map(|_| ()),
                oracle.as_ref().map(|_| ())
            ),
        }
    }
}

/// [`decode_roundtrips`], turning any panic into a test failure that names
/// the mutant.
fn check(format: Format, bytes: &[u8], mutant: impl Fn() -> String) -> bool {
    catch_unwind(AssertUnwindSafe(|| decode_roundtrips(format, bytes)))
        .unwrap_or_else(|_| panic!("panic (decode or round-trip) on {}", mutant()))
}

#[test]
fn corpus_decodes_and_roundtrips() {
    for blob in corpus() {
        assert!(
            check(blob.format, &blob.bytes, || blob.id()),
            "{} must decode",
            blob.id()
        );
    }
}

#[test]
fn truncation_at_every_offset() {
    for blob in corpus() {
        for cut in 0..blob.bytes.len() {
            // A torn write (no re-seal) is never accepted...
            let torn = &blob.bytes[..cut];
            let ok = check(blob.format, torn, || format!("{} torn at {cut}", blob.id()));
            assert!(!ok, "{} torn at {cut} decoded", blob.id());
            // ...and a re-sealed prefix never panics.
            let prefix = reseal(&body(&blob)[..cut.min(blob.bytes.len() - 4)]);
            check(blob.format, &prefix, || {
                format!("{} re-sealed prefix {cut}", blob.id())
            });
        }
    }
}

#[test]
fn every_bit_flip() {
    for blob in corpus() {
        for at in 0..blob.bytes.len() {
            for bit in 0..8 {
                // The CRC catches every single-bit error...
                let mut torn = blob.bytes.clone();
                torn[at] ^= 1 << bit;
                let ok = check(blob.format, &torn, || {
                    format!("{} bit {bit} of byte {at}", blob.id())
                });
                assert!(
                    !ok,
                    "{} bit {bit} of byte {at} slipped past the crc",
                    blob.id()
                );
                // ...and behind a valid seal the parser copes.
                if at < blob.bytes.len() - 4 {
                    check(blob.format, &reseal(&torn[..torn.len() - 4]), || {
                        format!("{} re-sealed bit {bit} of byte {at}", blob.id())
                    });
                }
            }
        }
    }
}

/// A full large enough that the one-pass decoder splits it into several
/// pieces, mutated at the edges that matter — every piece boundary and
/// every region boundary (±1 byte), plus the header: each single-bit flip
/// and truncation without re-sealing, and each re-sealed byte rewrite and
/// prefix. The verdict must equal the oracle's throughout.
#[test]
fn multi_piece_fulls_match_the_oracle() {
    let psi = 90_001; // 4 regions × 360 004 B: a 1.44 MB body, 2 pieces
    for (name, aux) in corpus::aux_mixes(psi) {
        if !matches!(name, "all" | "none") {
            continue;
        }
        let blob = codec::encode_full_checkpoint(&corpus::model_state(psi, 5), &aux.view());
        let body_len = blob.len() - 4;
        let mut edges = vec![0, 4, 6, 14, 22, 30, body_len - 1];
        for k in 1..=4 {
            edges.push(30 + 4 * psi * k);
        }
        // The decoder's pieces: ⌈body / 1 MiB⌉ balanced ranges.
        for r in lowdiff_util::par::chunk_ranges(body_len, body_len.div_ceil(1 << 20)) {
            edges.push(r.end);
        }
        let mut offsets: Vec<usize> = edges
            .iter()
            .flat_map(|&e| [e.saturating_sub(1), e, e + 1])
            .filter(|&at| at < blob.len())
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_same_verdict_as_oracle(&blob);
        for &at in &offsets {
            assert_same_verdict_as_oracle(&blob[..at]);
            for bit in [0, 7] {
                let mut torn = blob.clone();
                torn[at] ^= 1 << bit;
                assert_same_verdict_as_oracle(&torn);
            }
            if at < body_len {
                let mut mutant = blob[..body_len].to_vec();
                mutant[at] = mutant[at].wrapping_add(0x81);
                assert_same_verdict_as_oracle(&reseal(&mutant));
                assert_same_verdict_as_oracle(&reseal(&blob[..at]));
            }
        }
    }
}

#[test]
fn every_field_inflated_deflated_and_zeroed() {
    for blob in corpus() {
        let body = body(&blob);
        for width in [1usize, 4, 8] {
            let max = u64::MAX >> (64 - 8 * width);
            for at in 0..=body.len().saturating_sub(width) {
                let mut le = [0u8; 8];
                le[..width].copy_from_slice(&body[at..at + width]);
                let old = u64::from_le_bytes(le);
                for new in [
                    0,
                    1,
                    2,
                    old.wrapping_add(1),
                    old.wrapping_sub(1),
                    max / 2 + 1,
                    max,
                ] {
                    let mut mutant = body.to_vec();
                    mutant[at..at + width].copy_from_slice(&(new & max).to_le_bytes()[..width]);
                    check(blob.format, &reseal(&mutant), || {
                        format!("{} u{} at {at}: {old} -> {new}", blob.id(), 8 * width)
                    });
                }
            }
        }
    }
}

#[test]
fn version_and_aux_flag_permutations() {
    for blob in corpus() {
        let body = body(&blob);
        // Every format opens with magic(4) then version u16.
        for version in [0u16, 1, 2, 3, 4, u16::MAX] {
            let mut mutant = body.to_vec();
            mutant[4..6].copy_from_slice(&version.to_le_bytes());
            let mutant = reseal(&mutant);
            check(blob.format, &mutant, || {
                format!("{} as version {version}", blob.id())
            });
            // Only the versions the writers produce are read.
            let unsupported = || Err(codec::CodecError::UnsupportedVersion(version));
            match blob.format {
                Format::Full if version != codec::FULL_VERSION_V2 => {
                    assert_eq!(
                        codec::decode_full_checkpoint(&mutant).map(drop),
                        unsupported()
                    );
                    assert_eq!(
                        reference::decode_full_checkpoint(&mutant).map(drop),
                        unsupported()
                    );
                }
                Format::Diff
                    if !matches!(version, codec::DIFF_VERSION_V2 | codec::DIFF_VERSION_V3) =>
                {
                    assert_eq!(codec::decode_diff_batch(&mutant).map(drop), unsupported());
                    assert_eq!(codec::inspect_diff_batch(&mutant).map(drop), unsupported());
                }
                _ => {}
            }
        }
        // A full's flags byte follows the three Ψ-sized regions.
        if blob.format == Format::Full {
            let psi = u64::from_le_bytes(body[14..22].try_into().unwrap()) as usize;
            let flags_at = 30 + 12 * psi;
            for flags in 0..=u8::MAX {
                let mut mutant = body.to_vec();
                mutant[flags_at] = flags;
                check(blob.format, &reseal(&mutant), || {
                    format!("{} with aux flags {flags:#04x}", blob.id())
                });
            }
        }
    }
}

#[test]
fn every_blob_through_every_decoder() {
    for blob in corpus() {
        for (format, magic) in FORMATS {
            let mut mutant = body(&blob).to_vec();
            mutant[..4].copy_from_slice(magic);
            let ok = check(format, &reseal(&mutant), || {
                format!("{} read as {format:?}", blob.id())
            });
            assert!(ok || format != blob.format, "{} lost itself", blob.id());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Splice the head of one valid blob onto the tail of another (either
    /// format), re-seal, and decode the result as both formats.
    #[test]
    fn random_splices(
        pick in (0usize..1000, 0usize..1000),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let blobs = corpus();
        let (a, b) = (&blobs[pick.0 % blobs.len()], &blobs[pick.1 % blobs.len()]);
        let (body_a, body_b) = (body(a), body(b));
        let head = (body_a.len() as f64 * cut_a) as usize;
        let tail = (body_b.len() as f64 * cut_b) as usize;
        let spliced = reseal(&[&body_a[..head], &body_b[tail..]].concat());
        for format in [a.format, b.format] {
            check(format, &spliced, || {
                format!("{}[..{head}] + {}[{tail}..] as {format:?}", a.id(), b.id())
            });
        }
    }

    /// Several random byte rewrites at once, re-sealed.
    #[test]
    fn random_multi_byte_rewrites(
        pick in 0usize..1000,
        edits in prop::collection::vec((0.0f64..1.0, any::<u8>()), 1..8),
    ) {
        let blobs = corpus();
        let blob = &blobs[pick % blobs.len()];
        let mut mutant = body(blob).to_vec();
        for &(at, byte) in &edits {
            let at = (mutant.len() as f64 * at) as usize;
            mutant[at] = byte;
        }
        check(blob.format, &reseal(&mutant), || format!("{} with edits {edits:?}", blob.id()));
    }
}
