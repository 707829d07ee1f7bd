//! A fixed, deterministic corpus of blobs in every storage format, shared
//! by the wire-pin and decoder-mutation test binaries, each written by its
//! production encoder in a version the decoders accept: LDFC v2 with each
//! aux-section mix, LDDB v2 and v3 at every value width (fixed 4/8/16 and
//! adaptive), an LDSM stripe manifest and an LDGM global manifest. Values
//! come from integer RNG arithmetic only, so the bytes are identical on
//! every IEEE-754 host — which is what lets a test pin their lengths and
//! CRCs.

use lowdiff_compress::{
    AuxState, CompressedGrad, CompressorCfg, QuantGrad, QuantPolicyState, SparseGrad,
};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{self, DiffEntry, QuantizedValues, ValueCodec, QUANT_CHUNK};
use lowdiff_storage::shard::{GlobalManifest, ShardSeal};
use lowdiff_storage::stripe::{encode_manifest, StripeManifest};
use lowdiff_util::DetRng;

/// Which decoder a corpus blob belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// `LDFC` — `codec::decode_full_checkpoint`.
    Full,
    /// `LDDB` — `codec::decode_diff_batch` / `inspect_diff_batch`.
    Diff,
    /// `LDSM` — `stripe::decode_manifest`.
    StripeManifest,
    /// `LDGM` — `GlobalManifest::decode`.
    GlobalManifest,
}

/// One named corpus blob.
#[derive(Clone, Debug)]
pub struct Blob {
    pub name: &'static str,
    pub format: Format,
    pub bytes: Vec<u8>,
}

impl Blob {
    /// `Format/name`, unique across the corpus.
    pub fn id(&self) -> String {
        format!("{:?}/{}", self.format, self.name)
    }
}

/// Parameter count of the corpus full checkpoints: small, and a multiple
/// of nothing in particular.
pub const PSI: usize = 23;

/// A deterministic model state of `psi` parameters.
pub fn model_state(psi: usize, seed: u64) -> ModelState {
    let mut rng = DetRng::new(seed);
    let mut st = ModelState::new((0..psi).map(|_| rng.uniform_f32(2.0)).collect());
    st.iteration = 1234;
    st.opt.t = 1234;
    for m in &mut st.opt.m {
        *m = rng.uniform_f32(0.1);
    }
    for v in &mut st.opt.v {
        *v = rng.uniform_f32(0.01).abs();
    }
    st
}

/// Every aux-section mix a v2 full checkpoint can carry: none, each
/// section alone, and all four together.
pub fn aux_mixes(psi: usize) -> Vec<(&'static str, AuxState)> {
    let residual: Vec<f32> = (0..psi).map(|i| i as f32 * 0.25 - 2.0).collect();
    let quant = QuantPolicyState {
        bits: 8,
        streak: 1,
        adaptive: true,
        max_err: 0.01,
        floor_bits: 4,
    };
    vec![
        ("none", AuxState::default()),
        (
            "residual",
            AuxState {
                residual: Some(residual.clone()),
                ..AuxState::default()
            },
        ),
        (
            "compressor",
            AuxState {
                compressor: Some(CompressorCfg::topk(0.01)),
                ..AuxState::default()
            },
        ),
        (
            "rng",
            AuxState {
                rng: Some([1, 2, 3, u64::MAX]),
                ..AuxState::default()
            },
        ),
        (
            "quant",
            AuxState {
                quant: Some(quant),
                ..AuxState::default()
            },
        ),
        (
            "all",
            AuxState {
                residual: Some(residual),
                compressor: Some(CompressorCfg::topk(0.01)),
                rng: Some([1, 2, 3, u64::MAX]),
                quant: Some(quant),
            },
        ),
    ]
}

/// A batch mixing every record kind: a sparse gradient of `nnz` values
/// (with one- and two-byte index deltas; values past the first
/// [`QUANT_CHUNK`] are narrow, so an adaptive v3 codec picks a different
/// width for the tail chunk), a dense gradient, a tag-1 quant record and
/// an empty sparse gradient.
pub fn diff_entries(seed: u64, nnz: usize) -> Vec<DiffEntry> {
    let mut rng = DetRng::new(seed);
    let mut indices = Vec::with_capacity(nnz);
    let mut at = 0u32;
    for _ in 0..nnz {
        at += 1 + rng.below(200) as u32;
        indices.push(at);
    }
    let values = (0..nnz)
        .map(|i| rng.uniform_f32(if i < QUANT_CHUNK { 1.0 } else { 1e-3 }))
        .collect();
    vec![
        DiffEntry {
            iteration: 100,
            grad: CompressedGrad::Sparse(SparseGrad::new(1 << 16, indices, values)),
        },
        DiffEntry {
            iteration: 101,
            grad: CompressedGrad::Dense((0..40).map(|_| rng.uniform_f32(0.5)).collect()),
        },
        DiffEntry {
            iteration: 102,
            grad: CompressedGrad::Quant(QuantGrad {
                dense_len: 10,
                bits: 8,
                codes: (0..10).map(|i| i * 25).collect(),
                scale: 0.01,
                zero: -1.0,
            }),
        },
        DiffEntry {
            iteration: 103,
            grad: CompressedGrad::Sparse(SparseGrad::new(50, Vec::new(), Vec::new())),
        },
    ]
}

/// The v3 value codecs of the corpus: each fixed width, then adaptive.
pub fn value_codecs() -> Vec<(&'static str, ValueCodec)> {
    let fixed = |bits| QuantizedValues {
        bits,
        max_err: 0.0,
        adaptive: false,
        floor_bits: bits,
    };
    vec![
        ("v3-4", ValueCodec::Quantized(fixed(4))),
        ("v3-8", ValueCodec::Quantized(fixed(8))),
        ("v3-16", ValueCodec::Quantized(fixed(16))),
        (
            "v3-adaptive",
            ValueCodec::Quantized(QuantizedValues {
                bits: 8,
                max_err: 1e-3,
                adaptive: true,
                floor_bits: 4,
            }),
        ),
    ]
}

/// The corpus global manifest: three ranks over eight chunks.
pub fn global_manifest() -> GlobalManifest {
    GlobalManifest {
        iteration: 40,
        psi: 1000,
        num_chunks: 8,
        shards: vec![
            ShardSeal {
                rank: 0,
                chunks: vec![0, 3, 6],
                len: 4096,
                crc: 0xDEAD_BEEF,
            },
            ShardSeal {
                rank: 1,
                chunks: vec![1, 4, 7],
                len: 4100,
                crc: 0x1234_5678,
            },
            ShardSeal {
                rank: 2,
                chunks: vec![2, 5],
                len: 2048,
                crc: 7,
            },
        ],
    }
}

/// Build the whole corpus, in a fixed order.
pub fn corpus() -> Vec<Blob> {
    let blob = |name, format, bytes| Blob {
        name,
        format,
        bytes,
    };
    let state = model_state(PSI, 7);
    let mut out: Vec<Blob> = aux_mixes(PSI)
        .into_iter()
        .map(|(name, aux)| {
            let bytes = codec::encode_full_checkpoint(&state, &aux.view());
            blob(name, Format::Full, bytes)
        })
        .collect();

    // The f32 layouts stay small (their structure does not depend on the
    // value count); the v3 batch spans two value chunks.
    let entries = diff_entries(11, 24);
    out.push(blob("v2", Format::Diff, codec::encode_diff_batch(&entries)));
    out.push(blob(
        "v2-empty",
        Format::Diff,
        codec::encode_diff_batch(&[]),
    ));
    let chunked = diff_entries(11, QUANT_CHUNK + 4);
    for (name, vc) in value_codecs() {
        let mut bytes = Vec::new();
        let refs = chunked.iter().map(|e| (e.iteration, &e.grad));
        codec::encode_diff_batch_into(refs, &vc, &mut bytes);
        out.push(blob(name, Format::Diff, bytes));
    }

    let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
    out.push(blob(
        "3-stripes",
        Format::StripeManifest,
        encode_manifest(&StripeManifest::describe(&data, 3)),
    ));
    out.push(blob(
        "3-ranks",
        Format::GlobalManifest,
        global_manifest().encode(),
    ));
    out
}
