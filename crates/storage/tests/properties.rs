//! Property-based tests for the checkpoint codec and store.

use lowdiff_compress::{AuxState, AuxView, CompressedGrad, CompressorCfg, QuantGrad, SparseGrad};
use lowdiff_optim::{AdamState, ModelState};
use lowdiff_storage::codec::{self, DiffEntry, ValueCodec};
use lowdiff_storage::shard::stitch_fulls;
use lowdiff_storage::{CheckpointStore, FullCheckpoint, MemoryBackend, ShardSpec, StorageBackend};
use lowdiff_testkit::reference;
use lowdiff_util::DetRng;
use proptest::prelude::*;
use std::sync::Arc;

/// [`codec::encode_diff_batch_into`] over owned entries, into a fresh buffer.
fn encode_with(entries: &[DiffEntry], value_codec: &ValueCodec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(entries, value_codec, &mut buf);
    buf
}

fn encode_into(entries: &[DiffEntry], value_codec: &ValueCodec, buf: &mut Vec<u8>) {
    codec::encode_diff_batch_into(
        entries.iter().map(|e| (e.iteration, &e.grad)),
        value_codec,
        buf,
    );
}

fn arb_state() -> impl Strategy<Value = ModelState> {
    (
        prop::collection::vec(-1e6f32..1e6, 1..200),
        0u64..u64::MAX / 2,
        0u64..u64::MAX / 2,
    )
        .prop_map(|(params, iteration, t)| {
            let m: Vec<f32> = params.iter().map(|x| x * 0.5).collect();
            let v: Vec<f32> = params.iter().map(|x| x.abs() * 0.1).collect();
            ModelState {
                iteration,
                params,
                opt: AdamState { m, v, t },
            }
        })
}

fn arb_grad(max_len: usize) -> impl Strategy<Value = CompressedGrad> {
    prop_oneof![
        // Sparse with valid sorted unique indices.
        (1..max_len).prop_flat_map(|n| {
            prop::collection::btree_set(0..n as u32, 0..n.min(40)).prop_map(move |idx| {
                let indices: Vec<u32> = idx.into_iter().collect();
                let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 0.25 - 3.0).collect();
                CompressedGrad::Sparse(SparseGrad::new(n, indices, values))
            })
        }),
        // Dense.
        prop::collection::vec(-10.0f32..10.0, 1..60).prop_map(CompressedGrad::Dense),
        // Quantized.
        (1usize..60, 0u8..3).prop_map(|(n, w)| {
            let bits = [4u8, 8, 16][w as usize];
            let codes = match bits {
                16 => (0..n * 2).map(|i| (i * 11 % 256) as u8).collect(),
                8 => (0..n).map(|i| (i * 7 % 256) as u8).collect(),
                _ => (0..n.div_ceil(2)).map(|i| (i * 13 % 256) as u8).collect(),
            };
            CompressedGrad::Quant(QuantGrad {
                dense_len: n,
                bits,
                codes,
                scale: 0.01,
                zero: -1.0,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode ∘ encode = identity for model states.
    #[test]
    fn model_state_roundtrip(st in arb_state()) {
        let bytes = codec::encode_model_state(&st);
        let back = codec::decode_model_state(&bytes).unwrap();
        prop_assert_eq!(st, back);
    }

    /// decode ∘ encode = identity for differential batches of any mix of
    /// representations — in the current v2 (varint-delta) layout.
    #[test]
    fn diff_batch_roundtrip(
        grads in prop::collection::vec(arb_grad(100), 0..6),
        start in 0u64..1000,
    ) {
        let entries: Vec<DiffEntry> = grads
            .into_iter()
            .enumerate()
            .map(|(i, grad)| DiffEntry { iteration: start + i as u64, grad })
            .collect();
        let bytes = codec::encode_diff_batch(&entries);
        prop_assert_eq!(codec::decode_diff_batch(&bytes).unwrap(), entries);
    }

    /// Backward compatibility: blobs written in the legacy v1 layout decode
    /// to exactly the same entries as their v2 counterparts.
    #[test]
    fn v1_diff_blobs_still_decode(
        grads in prop::collection::vec(arb_grad(100), 0..6),
        start in 0u64..1000,
    ) {
        let entries: Vec<DiffEntry> = grads
            .into_iter()
            .enumerate()
            .map(|(i, grad)| DiffEntry { iteration: start + i as u64, grad })
            .collect();
        let v1 = reference::encode_diff_batch(&entries);
        prop_assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries.clone());
        let v2 = codec::encode_diff_batch(&entries);
        prop_assert_eq!(
            codec::decode_diff_batch(&v1).unwrap(),
            codec::decode_diff_batch(&v2).unwrap()
        );
        let info = codec::inspect_diff_batch(&v1).unwrap();
        prop_assert_eq!(info.version, codec::VERSION);
        prop_assert_eq!(info.entries.len(), entries.len());
    }

    /// `encode_*_into` with a dirty reused buffer is byte-identical to a
    /// fresh encode: a longer previous encode never leaks a stale suffix.
    #[test]
    fn encode_into_never_leaks_stale_bytes(
        st in arb_state(),
        grads in prop::collection::vec(arb_grad(80), 0..5),
        junk in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let entries: Vec<DiffEntry> = grads
            .into_iter()
            .enumerate()
            .map(|(i, grad)| DiffEntry { iteration: i as u64, grad })
            .collect();
        let mut buf = junk.clone();
        encode_into(&entries, &ValueCodec::F32, &mut buf);
        prop_assert_eq!(&buf, &codec::encode_diff_batch(&entries));
        let mut buf = junk;
        codec::encode_full_checkpoint_into(&st, &AuxView::NONE, &mut buf);
        prop_assert_eq!(&buf, &codec::encode_model_state(&st));
    }

    /// Any single-byte corruption is detected (CRC or structural error) —
    /// decode never silently returns wrong data.
    #[test]
    fn corruption_never_silent(st in arb_state(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let bytes = codec::encode_model_state(&st);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        match codec::decode_model_state(&bad) {
            Err(_) => {} // detected: good
            Ok(decoded) => prop_assert_eq!(decoded, st, "silent corruption!"),
        }
    }

    /// The bulk (memcpy) encoder must be byte-identical to the retained
    /// per-element reference encoder: the v2 blob's params / m / v regions
    /// (at the offsets `full_frame_layout` names) hold exactly the bytes
    /// the per-element v1 writer puts at the same offsets — v1 and v2
    /// share the 30-byte header shape. This is what let the bulk rewrite
    /// ship without a format version bump.
    #[test]
    fn bulk_encoding_byte_identical_to_reference(st in arb_state()) {
        let bulk = codec::encode_model_state(&st);
        let per_element = reference::encode_model_state(&st);
        let layout = codec::full_frame_layout(st.params.len(), &AuxView::NONE);
        let regions = layout.params_off..layout.v_off + st.params.len() * 4;
        prop_assert_eq!(&bulk[regions.clone()], &per_element[regions]);
        prop_assert_eq!(&bulk[..4], &per_element[..4]);
        prop_assert_eq!(&bulk[6..layout.params_off], &per_element[6..layout.params_off]);
    }

    /// Legacy v1 full-checkpoint blobs keep decoding, flagged lossy; v2
    /// blobs with auxiliary state roundtrip it exactly.
    #[test]
    fn full_checkpoint_versions_decode(
        st in arb_state(),
        rng_seed in 0u64..u64::MAX,
        ratio in 0.001f64..1.0,
    ) {
        let rng_words = [rng_seed, rng_seed ^ 0xABCD, rng_seed.rotate_left(17), !rng_seed];
        let v1 = reference::encode_model_state(&st);
        let fc = codec::decode_full_checkpoint(&v1).unwrap();
        prop_assert_eq!(&fc.state, &st);
        prop_assert!(fc.lossy, "v1 must be flagged lossy");
        prop_assert!(fc.aux.is_empty());
        prop_assert_eq!(fc.version, codec::VERSION);
        prop_assert_eq!(&codec::decode_model_state(&v1).unwrap(), &st);
        prop_assert_eq!(&reference::decode_model_state(&v1).unwrap(), &st);

        let aux = lowdiff_compress::AuxState {
            residual: Some(st.params.iter().map(|p| p * 0.5).collect()),
            compressor: Some(lowdiff_compress::CompressorCfg::topk(ratio)),
            rng: Some(rng_words),
            quant: Some(lowdiff_compress::QuantPolicyState {
                bits: 8,
                streak: (rng_seed % 3) as u8,
                adaptive: rng_seed % 2 == 0,
                max_err: ratio as f32,
                floor_bits: 4,
            }),
        };
        let v2 = codec::encode_full_checkpoint(&st, &aux.view());
        let fc2 = codec::decode_full_checkpoint(&v2).unwrap();
        prop_assert_eq!(fc2.state, st);
        prop_assert_eq!(fc2.aux, aux);
        prop_assert!(!fc2.lossy);
    }

    /// Adversarial v1 sparse payloads (duplicate, unsorted, or out-of-range
    /// indices) must fail decoding cleanly — never construct a `SparseGrad`
    /// that would make sharded (`+=`) and dense (overwrite) recovery paths
    /// disagree, and never panic.
    #[test]
    fn v1_sparse_index_payloads_validated(
        dense_len in 1u64..100,
        indices in prop::collection::vec(0u32..120, 0..12),
    ) {
        // Hand-roll a v1 diff batch with one sparse entry carrying the raw
        // (possibly invalid) index list.
        let mut body = Vec::new();
        body.extend_from_slice(b"LDDB");
        body.extend_from_slice(&1u16.to_le_bytes()); // version 1
        body.extend_from_slice(&1u32.to_le_bytes()); // count
        body.extend_from_slice(&5u64.to_le_bytes()); // iteration
        body.push(0); // sparse tag
        body.extend_from_slice(&dense_len.to_le_bytes());
        body.extend_from_slice(&(indices.len() as u32).to_le_bytes());
        for &i in &indices {
            body.extend_from_slice(&i.to_le_bytes());
        }
        for &i in &indices {
            body.extend_from_slice(&(i as f32).to_le_bytes());
        }
        let crc = lowdiff_util::crc::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let valid = indices.windows(2).all(|w| w[0] < w[1])
            && indices.last().is_none_or(|&l| u64::from(l) < dense_len);
        match codec::decode_diff_batch(&body) {
            Ok(entries) => {
                prop_assert!(valid, "invalid indices decoded successfully");
                let s = entries[0].grad.as_sparse().unwrap();
                prop_assert!(s.indices.windows(2).all(|w| w[0] < w[1]));
            }
            Err(_) => prop_assert!(!valid, "valid indices failed to decode"),
        }
    }

    /// v3 round-trip at every bit width equals the quantize∘dequantize
    /// reference transform exactly: per QUANT_CHUNK chunk, codes are
    /// `round((v - lo)/scale)` and decode is `lo + code·scale`.
    #[test]
    fn v3_roundtrip_equals_quant_reference(
        values in prop::collection::vec(-100.0f32..100.0, 1..700),
        start in 0u64..1000,
        w in 0u8..3,
    ) {
        let bits = [4u8, 8, 16][w as usize];
        let n = values.len();
        let indices: Vec<u32> = (0..n as u32).collect();
        let entries = vec![DiffEntry {
            iteration: start,
            grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values.clone())),
        }];
        let q = codec::ValueCodec::Quantized(codec::QuantizedValues {
            bits,
            max_err: 0.0,
            adaptive: false,
            floor_bits: bits,
        });
        let back = codec::decode_diff_batch(&encode_with(&entries, &q)).unwrap();
        let got = &back[0].grad.as_sparse().unwrap().values;

        let mut expect = Vec::with_capacity(n);
        for chunk in values.chunks(codec::QUANT_CHUNK) {
            let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let levels = ((1u32 << bits) - 1) as f32;
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            for &v in chunk {
                let c = if scale == 0.0 { 0 } else {
                    (((v - lo) / scale).round() as i64).clamp(0, levels as i64) as u32
                };
                expect.push(lo + c as f32 * scale);
            }
        }
        prop_assert_eq!(got, &expect);
    }

    /// Mixed-version chains: the same entries encoded as v1, v2 and v3 all
    /// decode; v1/v2 exactly, v3 with identical structure (indices,
    /// iteration, representation) and quantized values.
    #[test]
    fn mixed_version_chain_recovers(
        grads in prop::collection::vec(arb_grad(100), 1..5),
        start in 0u64..1000,
    ) {
        let entries: Vec<DiffEntry> = grads
            .into_iter()
            .enumerate()
            .map(|(i, grad)| DiffEntry { iteration: start + i as u64, grad })
            .collect();
        let v1 = reference::encode_diff_batch(&entries);
        let v2 = codec::encode_diff_batch(&entries);
        let q = codec::ValueCodec::Quantized(codec::QuantizedValues {
            bits: 8, max_err: 0.0, adaptive: false, floor_bits: 8,
        });
        let v3 = encode_with(&entries, &q);
        prop_assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries.clone());
        prop_assert_eq!(codec::decode_diff_batch(&v2).unwrap(), entries.clone());
        let d3 = codec::decode_diff_batch(&v3).unwrap();
        prop_assert_eq!(d3.len(), entries.len());
        for (a, b) in d3.iter().zip(&entries) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(a.grad.dense_len(), b.grad.dense_len());
            match (&a.grad, &b.grad) {
                (CompressedGrad::Sparse(x), CompressedGrad::Sparse(y)) => {
                    prop_assert_eq!(&x.indices, &y.indices);
                }
                (CompressedGrad::Quant(x), CompressedGrad::Quant(y)) => {
                    // Tag-1 records are lossless in every version.
                    prop_assert_eq!(x, y);
                }
                (CompressedGrad::Dense(_), CompressedGrad::Dense(_)) => {}
                other => prop_assert!(false, "representation changed: {:?}", other),
            }
        }
    }

    /// The v3 encoder with a dirty reused buffer is byte-identical to a
    /// fresh encode — pooled-buffer reuse never leaks a stale suffix.
    #[test]
    fn v3_encode_into_never_leaks_stale_bytes(
        grads in prop::collection::vec(arb_grad(80), 0..5),
        junk in prop::collection::vec(0u8..=255, 0..4096),
        w in 0u8..3,
    ) {
        let bits = [4u8, 8, 16][w as usize];
        let entries: Vec<DiffEntry> = grads
            .into_iter()
            .enumerate()
            .map(|(i, grad)| DiffEntry { iteration: i as u64, grad })
            .collect();
        let q = codec::ValueCodec::Quantized(codec::QuantizedValues {
            bits, max_err: 0.0, adaptive: false, floor_bits: bits,
        });
        let mut buf = junk;
        encode_into(&entries, &q, &mut buf);
        prop_assert_eq!(buf, encode_with(&entries, &q));
    }

    /// Store discovery: the latest valid full checkpoint is always the one
    /// with the highest iteration among the uncorrupted writes.
    #[test]
    fn latest_valid_full_is_max_uncorrupted(
        iters in prop::collection::btree_set(0u64..500, 1..8),
        corrupt_mask in prop::collection::vec(prop::bool::ANY, 8),
    ) {
        let mem = Arc::new(MemoryBackend::new());
        let store = CheckpointStore::new(mem.clone() as Arc<dyn StorageBackend>);
        let iters: Vec<u64> = iters.into_iter().collect();
        let mut expected: Option<u64> = None;
        for (i, &iter) in iters.iter().enumerate() {
            let mut st = ModelState::new(vec![iter as f32; 4]);
            st.iteration = iter;
            store.save_full(&st).unwrap();
            if corrupt_mask[i % corrupt_mask.len()] {
                mem.truncate_blob(&format!("full-{iter:010}.ckpt"), 3);
            } else {
                expected = Some(expected.map_or(iter, |e: u64| e.max(iter)));
            }
        }
        let got = store.latest_valid_full().unwrap().map(|s| s.iteration);
        prop_assert_eq!(got, expected);
    }
}

/// 1% density over 100k elements: gaps ≈ 100 fit one varint byte, so the
/// v2 delta encoding is well under the v1 raw-index layout.
#[test]
fn v2_sparse_smaller_than_v1() {
    let mut rng = DetRng::new(77);
    let n = 100_000usize;
    let indices: Vec<u32> = (0..n as u32)
        .filter(|_| rng.next_u64().is_multiple_of(100))
        .collect();
    let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 0.5).collect();
    let entries = vec![DiffEntry {
        iteration: 42,
        grad: CompressedGrad::Sparse(SparseGrad::new(n, indices, values)),
    }];
    let v2 = codec::encode_diff_batch(&entries);
    let v1 = reference::encode_diff_batch(&entries);
    assert_eq!(codec::decode_diff_batch(&v2).unwrap(), entries);
    assert_eq!(codec::decode_diff_batch(&v1).unwrap(), entries);
    assert!(
        (v2.len() as f64) < 0.7 * v1.len() as f64,
        "v2 ({}) should be well under v1 ({})",
        v2.len(),
        v1.len()
    );
}

/// The stitch as it was before the gather: clone every shard state, zero
/// Ψ-sized globals and scatter each shard into them.
fn stitch_by_scatter(psi: usize, parts: &[(ShardSpec, FullCheckpoint)]) -> FullCheckpoint {
    let mut state = ModelState::new(vec![0.0; psi]);
    let first = parts[0].1.clone();
    state.iteration = first.state.iteration;
    state.opt.t = first.state.opt.t;
    let mut residual = first.aux.residual.as_ref().map(|_| vec![0.0; psi]);
    for (spec, fc) in parts {
        let st = fc.state.clone();
        spec.scatter_slice_into(&st.params, &mut state.params)
            .unwrap();
        spec.scatter_slice_into(&st.opt.m, &mut state.opt.m)
            .unwrap();
        spec.scatter_slice_into(&st.opt.v, &mut state.opt.v)
            .unwrap();
        if let (Some(out), Some(r)) = (&mut residual, &fc.aux.residual) {
            spec.scatter_slice_into(r, out).unwrap();
        }
    }
    FullCheckpoint {
        state,
        aux: AuxState {
            residual,
            ..first.aux
        },
        lossy: parts.iter().any(|(_, fc)| fc.lossy),
        version: first.version,
    }
}

/// A full's every f32 by its bit pattern, plus the scalars.
fn full_bits(fc: &FullCheckpoint) -> Vec<u64> {
    let bits = |xs: &[f32]| {
        xs.iter()
            .map(|x| u64::from(x.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut out = vec![fc.state.iteration, fc.state.opt.t, u64::from(fc.lossy)];
    out.push(u64::from(fc.version));
    out.extend(bits(&fc.state.params));
    out.extend(bits(&fc.state.opt.m));
    out.extend(bits(&fc.state.opt.v));
    if let Some(r) = &fc.aux.residual {
        out.push(u64::MAX);
        out.extend(bits(r));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 2–5 shards over random chunk assignments of an odd Ψ, residual
    /// present or absent: the clone-free gather equals the clone-and-
    /// scatter stitch bit for bit (random bit patterns, NaNs included).
    #[test]
    fn stitch_fulls_equals_scatter_oracle(
        half in 0usize..1500,
        num_chunks in 1u32..40,
        ranks in 2usize..=5,
        seed in any::<u64>(),
        with_residual in any::<bool>(),
    ) {
        let psi = 2 * half + 1;
        let mut rng = DetRng::new(seed);
        let mut arb = |n: usize| -> Vec<f32> {
            (0..n).map(|_| f32::from_bits(rng.next_u64() as u32)).collect()
        };
        let full = ModelState {
            iteration: 77,
            params: arb(psi),
            opt: AdamState { m: arb(psi), v: arb(psi), t: 77 },
        };
        let aux = AuxState {
            residual: with_residual.then(|| arb(psi)),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let mut owned = vec![Vec::new(); ranks];
        for c in 0..num_chunks {
            owned[rng.below(ranks as u64) as usize].push(c);
        }
        let parts: Vec<(ShardSpec, FullCheckpoint)> = owned
            .into_iter()
            .map(|chunks| {
                let spec = ShardSpec::new(psi, num_chunks, chunks).unwrap();
                let fc = FullCheckpoint {
                    state: spec.project_state(&full),
                    aux: spec.project_aux(&aux.view()),
                    lossy: false,
                    version: codec::FULL_VERSION_V2,
                };
                (spec, fc)
            })
            .collect();
        let stitched = stitch_fulls(psi, &parts).unwrap();
        prop_assert_eq!(full_bits(&stitched), full_bits(&stitch_by_scatter(psi, &parts)));
        prop_assert_eq!(stitched.aux.compressor, aux.compressor);
        prop_assert_eq!(stitched.aux.rng, aux.rng);
    }
}
