//! Standalone layer probes: direct timed calls into public functions on
//! the workload's own Ψ-sized data, each repeated and reported as a median.

use crate::stats::{median, Lane, NO_PARENT};
use crate::Ctx;
use lowdiff::CompressorCfg;
use lowdiff_cluster::rt::worker::shard_digest;
use lowdiff_compress::{AuxView, CompressedGrad, ErrorFeedback, TopK};
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{self, DiffEntry};
use lowdiff_util::{crc32, DetRng};
use std::hint::black_box;

pub const TOPK_RATIO: f64 = 0.01;
const REPS: usize = 21;

/// CRC over params ‖ m ‖ v (the cluster's shard digest, over the whole
/// state): one number that pins a final state across stores and runs.
pub fn state_crc(state: &ModelState) -> u32 {
    shard_digest(state).1
}

/// Seeded probe gradient, scaled like a real one.
pub fn probe_gradient(rng: &mut DetRng, psi: usize) -> Vec<f32> {
    let mut g = vec![0.0f32; psi];
    rng.fill_normal_f32(&mut g, 0.05);
    g
}

/// Time `f` `reps` times (after one untimed warm call); median in ms.
pub fn time_ms<R>(cx: &Ctx, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|rep| {
            let start_ns = cx.trace.now_ns();
            black_box(f());
            let end_ns = cx.trace.now_ns();
            cx.trace
                .record(name, start_ns, end_ns, NO_PARENT, rep as u64, Lane::Main);
            (end_ns - start_ns) as f64 / 1e6
        })
        .collect();
    median(&samples)
}

/// The host's copy bandwidth and the repo's CRC32 against it: the
/// roofline every byte-touching stage is compared to.
pub fn host_probes(cx: &mut Ctx, buf: &[u8]) {
    let mut dst = vec![0u8; buf.len()];
    let copy_ms = time_ms(cx, "probe.memcpy", REPS, || {
        dst.copy_from_slice(black_box(buf));
        dst[buf.len() / 2]
    });
    let crc_ms = time_ms(cx, "probe.crc32", REPS, || crc32(black_box(buf)));
    let gbps = |ms: f64| buf.len() as f64 / 1e9 / (ms / 1e3);
    cx.metrics.set("host.memcpy_gbps", gbps(copy_ms));
    cx.metrics.set("util.crc32_gbps", gbps(crc_ms));
}

/// `compress`, `optim`, `codec` and `util` probes on a state of the
/// workload's shape (its values are the workload's live state).
pub fn layer_probes(cx: &mut Ctx, state: &ModelState) {
    let psi = state.num_params();
    let adam = Adam::default();
    let mut rng = DetRng::new(cx.seed ^ 0x9e0b);
    let grads: Vec<Vec<f32>> = (0..3).map(|_| probe_gradient(&mut rng, psi)).collect();

    // compress: Top-K with error feedback, the trainer's default path.
    let mut ef = ErrorFeedback::new(TopK::new(TOPK_RATIO), psi);
    let mut turn = 0usize;
    let topk_ms = time_ms(cx, "probe.topk_ef", REPS, || {
        turn += 1;
        ef.compress(&grads[turn % grads.len()])
    });
    let sparse: Vec<CompressedGrad> = grads.iter().map(|g| ef.compress(g)).collect();
    cx.metrics.set("compress.topk_ef_ms_p50", topk_ms);
    cx.metrics
        .set("compress.diff_bytes", sparse[0].payload_bytes() as f64);

    // optim: the update the trainer and the replay loop both run.
    let mut scratch = state.clone();
    let to_dense_ms = time_ms(cx, "probe.to_dense", REPS, || sparse[0].to_dense());
    let dense = sparse[0].to_dense();
    let step_ms = time_ms(cx, "probe.adam_step", REPS, || {
        scratch.apply_gradient(&adam, &dense)
    });
    let hook_ms = time_ms(cx, "probe.adam_step_hook", REPS, || {
        scratch.apply_gradient_with_hook(&adam, &dense, |r| {
            black_box(r);
        })
    });
    drop(scratch);
    cx.metrics.set("optim.to_dense_ms_p50", to_dense_ms);
    cx.metrics.set("optim.adam_step_ms_p50", step_ms);
    cx.metrics.set("optim.adam_step_hook_ms_p50", hook_ms);

    // codec: full checkpoints carry the error-feedback residual.
    let residual = ef.residual().to_vec();
    let aux = AuxView {
        residual: Some(&residual),
        compressor: Some(CompressorCfg::topk(TOPK_RATIO)),
        rng: Some(DetRng::new(cx.seed).state()),
        quant: None,
    };
    let encode_ms = time_ms(cx, "probe.encode_full", REPS, || {
        codec::encode_full_checkpoint(state, &aux)
    });
    let full = codec::encode_full_checkpoint(state, &aux);
    let decode_ms = time_ms(cx, "probe.decode_full", REPS, || {
        codec::decode_full_checkpoint(&full).expect("own encoding decodes")
    });
    let entries: Vec<DiffEntry> = (0..crate::train::DIFF_BATCH)
        .map(|i| DiffEntry {
            iteration: i as u64,
            grad: sparse[i % sparse.len()].clone(),
        })
        .collect();
    let enc_batch_ms = time_ms(cx, "probe.encode_diff_batch", REPS, || {
        codec::encode_diff_batch(&entries)
    });
    let batch = codec::encode_diff_batch(&entries);
    let dec_batch_ms = time_ms(cx, "probe.decode_diff_batch", REPS, || {
        codec::decode_diff_batch(&batch).expect("own encoding decodes")
    });
    host_probes(cx, &full);
    let m = &mut cx.metrics;
    m.set("codec.encode_full_ms_p50", encode_ms);
    m.set(
        "codec.encode_full_gbps",
        full.len() as f64 / 1e9 / (encode_ms / 1e3),
    );
    m.set("codec.decode_full_ms_p50", decode_ms);
    m.set("codec.encode_diff_batch_ms_p50", enc_batch_ms);
    m.set("codec.decode_diff_batch_ms_p50", dec_batch_ms);
    m.set("codec.full_bytes", full.len() as f64);
    m.set("codec.diff_batch_bytes", batch.len() as f64);
    let memcpy_ms = full.len() as f64 / 1e9 / m.get("host.memcpy_gbps") * 1e3;
    m.set("codec.encode_frac_of_memcpy", encode_ms / memcpy_ms);
}
