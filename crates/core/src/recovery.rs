//! Recovery: Algorithm 1's recovery process (lines 16–24) with the
//! *parallel recovery module* of §6 — one source walk, one replay kernel.
//!
//! * `walk` — per recovery source, in priority order: newest valid full
//!   checkpoint, then the differential chain past it, fetched only when
//!   the caller's gate says the chain will be replayed. An I/O error on a
//!   source falls through to the next one.
//! * `replay_chain` — the only chain-replay kernel. Adam is elementwise,
//!   so Ψ is cut into `width` contiguous shards and every shard replays the
//!   whole chain over its own disjoint windows of params/m/v. The result is
//!   bit-identical to a serial diff-by-diff replay at any width.
//!
//! Every recovery entry point is these two pieces: [`recover_serial`]
//! (width 1, the paper's serial baseline for Exp. 5), [`recover_sharded`]
//! (width n), and `Trainer::resume` / `resume_tiered` / `resume_from_parts`
//! (width = pool threads; see [`crate::trainer`]).
//!
//! [`merge_deltas_parallel`] is the paper's pairwise tree merge for
//! *additive delta* differentials (Naïve DC) — a different semantics,
//! not a chain replay.

use crate::trainer::ResumeReport;
use lowdiff_compress::{CompressedGrad, SparseGrad};
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{DiffEntry, FullCheckpoint};
use lowdiff_storage::CheckpointStore;
use lowdiff_util::par::chunk_ranges;
use rayon::prelude::*;
use std::io;
use std::ops::Range;

/// Serial exact recovery (Algorithm 1, recovery process): the newest
/// valid full checkpoint plus its differential chain replayed through
/// Adam on one shard. Model state only — use `Trainer::resume` to restore
/// the whole training state.
pub fn recover_serial(
    store: &CheckpointStore,
    adam: &Adam,
) -> io::Result<Option<(ModelState, ResumeReport)>> {
    recover_sharded(store, adam, 1)
}

/// [`recover_serial`] with the replay partitioned into `shards` parameter
/// shards run concurrently (Exp. 5's parallel recovery). Bit-identical to
/// the serial result.
pub fn recover_sharded(
    store: &CheckpointStore,
    adam: &Adam,
    shards: usize,
) -> io::Result<Option<(ModelState, ResumeReport)>> {
    assert!(shards >= 1);
    let Some((_, fc, chain)) = walk(&[store], false, |_| Ok(true))? else {
        return Ok(None);
    };
    let mut state = fc.state;
    let full_iteration = state.iteration;
    replay_chain(&mut state, adam, &chain, shards);
    let report = ResumeReport {
        resumed_iteration: state.iteration,
        full_iteration,
        replayed: chain.len(),
        lossy: false,
        source: None,
    };
    Ok(Some((state, report)))
}

/// The recovery walk: the first of `stores` holding a valid full
/// checkpoint anchors the recovery. Returns that store's index, its newest
/// valid full, and the chain past it — fetched only when `plan(&full)`
/// returns `true`, empty otherwise. With `sweep`, unsealed striped
/// leftovers are swept from each store first. The chain ends before the
/// first entry whose dense length is not the full's Ψ, as it ends before
/// a corrupt batch: such an entry cannot replay onto that state.
///
/// An I/O error while sweeping, loading the anchor or loading the chain
/// skips that store; only when no store anchors is the first such error
/// returned (all empty = `Ok(None)`, a cold start). An error from `plan`
/// itself is returned at once.
pub(crate) fn walk(
    stores: &[&CheckpointStore],
    sweep: bool,
    mut plan: impl FnMut(&FullCheckpoint) -> io::Result<bool>,
) -> io::Result<Option<(usize, FullCheckpoint, Vec<DiffEntry>)>> {
    let mut first_err = None;
    for (i, store) in stores.iter().enumerate() {
        let anchor = if sweep {
            store
                .sweep_unsealed()
                .and_then(|_| store.latest_valid_full_checkpoint())
        } else {
            store.latest_valid_full_checkpoint()
        };
        let fc = match anchor {
            Ok(Some(fc)) => fc,
            Ok(None) => continue,
            Err(e) => {
                first_err.get_or_insert(e);
                continue;
            }
        };
        let chain = if plan(&fc)? {
            match store.diff_chain_from(fc.state.iteration) {
                Ok(mut chain) => {
                    let psi = fc.state.num_params();
                    let fits = chain.iter().take_while(|e| e.grad.dense_len() == psi);
                    chain.truncate(fits.count());
                    chain
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                    continue;
                }
            }
        } else {
            Vec::new()
        };
        return Ok(Some((i, fc, chain)));
    }
    first_err.map_or(Ok(None), Err)
}

/// Elements per replay block: params, m, v and the gradient scratch of one
/// block take 4 × 64 KiB, which stays in a core's L2 while every chain
/// entry is applied to it.
const REPLAY_BLOCK: usize = 16 * 1024;

/// Replay `chain` (the differentials after `state`'s iteration, in order)
/// through Adam: `M_{j+1} = M_j + Adam(Comp⁻¹(G_j))` for every entry.
///
/// Ψ is partitioned with [`chunk_ranges`]`(Ψ, width)`; each shard owns
/// disjoint `&mut` windows of params, m and v plus one block-sized
/// gradient scratch. A shard walks its window in [`REPLAY_BLOCK`]-element
/// blocks and replays every entry on a block, with the global step number
/// `base_t + k + 1` for bias correction, before moving to the next block,
/// so params/m/v stream through DRAM once per replay rather than once per
/// entry. Adam is elementwise, so any width and any blocking give the same
/// bits as replaying the whole vector entry by entry.
pub(crate) fn replay_chain(state: &mut ModelState, adam: &Adam, chain: &[DiffEntry], width: usize) {
    let base_t = state.opt.t;
    if !chain.is_empty() {
        let (mut params, mut m, mut v) = (
            &mut state.params[..],
            &mut state.opt.m[..],
            &mut state.opt.v[..],
        );
        let shards: Vec<_> = chunk_ranges(params.len(), width)
            .into_iter()
            .map(|r| {
                let (p, rest) = std::mem::take(&mut params).split_at_mut(r.len());
                params = rest;
                let (mm, rest) = std::mem::take(&mut m).split_at_mut(r.len());
                m = rest;
                let (vv, rest) = std::mem::take(&mut v).split_at_mut(r.len());
                v = rest;
                (r, p, mm, vv)
            })
            .collect();
        // Few, coarse items: one shard per chunk, past the element-count
        // heuristic. `step_range` is serial: the shards occupy the pool.
        shards
            .into_par_iter()
            .with_min_len(1)
            .for_each(|(range, p, m, v)| {
                let mut grad = vec![0.0f32; REPLAY_BLOCK.min(range.len())];
                for lo in (0..range.len()).step_by(REPLAY_BLOCK) {
                    let hi = (lo + REPLAY_BLOCK).min(range.len());
                    let block = range.start + lo..range.start + hi;
                    let (p, m, v) = (&mut p[lo..hi], &mut m[lo..hi], &mut v[lo..hi]);
                    let grad = &mut grad[..hi - lo];
                    for (k, entry) in chain.iter().enumerate() {
                        fill_range_dense(&entry.grad, &block, grad);
                        adam.step_range(p, m, v, grad, base_t + k as u64 + 1);
                    }
                }
            });
    }
    state.opt.t = base_t + chain.len() as u64;
    state.iteration += chain.len() as u64;
}

/// Write the window `range` of `grad`'s dense form into `out`
/// (`out.len() == range.len()`), bit for bit what `grad.to_dense()[range]`
/// holds.
fn fill_range_dense(grad: &CompressedGrad, range: &Range<usize>, out: &mut [f32]) {
    match grad {
        CompressedGrad::Sparse(s) => {
            // `to_dense` accumulates into zeros: same here. Indices are
            // sorted, so binary-search the window.
            out.fill(0.0);
            let lo = s.indices.partition_point(|&i| (i as usize) < range.start);
            let hi = s.indices.partition_point(|&i| (i as usize) < range.end);
            for k in lo..hi {
                out[s.indices[k] as usize - range.start] += s.values[k];
            }
        }
        CompressedGrad::Dense(d) => out.copy_from_slice(&d[range.clone()]),
        // Windowed dequantize: each shard decodes only its own slice
        // instead of expanding the full Ψ-sized gradient per entry.
        CompressedGrad::Quant(q) => {
            lowdiff_compress::quant::dequantize_range(q, range.clone(), out)
        }
    }
}

/// Pairwise-parallel merge of additive deltas (the paper's log-n tree).
/// Returns the combined delta, equal to the sequential sum up to `f32`
/// rounding: the tree adds in a different order, and `f32` addition is
/// not associative.
pub fn merge_deltas_parallel(deltas: &[SparseGrad]) -> Option<SparseGrad> {
    if deltas.is_empty() {
        return None;
    }
    let dense_len = deltas[0].dense_len;
    Some(
        deltas
            .par_iter()
            .with_min_len(1)
            .cloned()
            .reduce_with(|a, b| a.merge(&b))
            .unwrap_or_else(|| SparseGrad::new(dense_len, Vec::new(), Vec::new())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::NoCheckpoint;
    use crate::trainer::{Trainer, TrainerConfig};
    use lowdiff_compress::quant::UniformQuant;
    use lowdiff_compress::{Compressor, QuantGrad, TopK};
    use lowdiff_model::builders::mlp;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;
    use std::sync::Arc;

    /// The oracle: expand each entry to a Ψ-sized dense gradient and take
    /// one whole-vector Adam step, entry by entry.
    fn oracle_replay(state: &mut ModelState, adam: &Adam, chain: &[DiffEntry]) {
        for entry in chain {
            state.apply_gradient(adam, &entry.grad.to_dense());
        }
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!("{what}: element {i} is {:e}, oracle {:e}", got[i], want[i]);
        }
    }

    fn assert_bit_identical(got: &ModelState, want: &ModelState, what: &str) {
        assert_bits_eq(&got.params, &want.params, &format!("{what}: params"));
        assert_bits_eq(&got.opt.m, &want.opt.m, &format!("{what}: Adam m"));
        assert_bits_eq(&got.opt.v, &want.opt.v, &format!("{what}: Adam v"));
        assert_eq!(got.opt.t, want.opt.t, "{what}: Adam t");
        assert_eq!(got.iteration, want.iteration, "{what}: iteration");
    }

    /// Floats that stress bit-exactness: signed zeros, denormals of both
    /// signs, and ordinary values.
    fn awkward(rng: &mut DetRng) -> f32 {
        match rng.below(6) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
            3 => -f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
            _ => rng.normal() as f32 * 0.1,
        }
    }

    /// A state a few real steps in, with awkward values sprinkled into
    /// params and both moments.
    fn start_state(psi: usize, rng: &mut DetRng) -> ModelState {
        let adam = Adam::default();
        let mut st = ModelState::new((0..psi).map(|_| awkward(rng)).collect());
        for _ in 0..2 {
            let g: Vec<f32> = (0..psi).map(|_| awkward(rng)).collect();
            st.apply_gradient(&adam, &g);
        }
        for i in (0..psi).step_by(5) {
            st.opt.m[i] = awkward(rng);
            st.opt.v[i] = awkward(rng).abs();
        }
        st
    }

    /// A chain cycling through every entry kind: dense and sparse (awkward
    /// values; sparse entries follow dense ones, so a shard scratch left
    /// stale would show), quantized at 8/4/16 bits, a hand-built quantized
    /// entry whose dequantized values are denormals, and one with
    /// `zero = -0.0` and a negative scale, whose code 0 dequantizes to
    /// `-0.0`.
    fn mixed_chain(psi: usize, n: usize, rng: &mut DetRng) -> Vec<DiffEntry> {
        (0..n)
            .map(|k| {
                let dense: Vec<f32> = (0..psi).map(|_| awkward(rng)).collect();
                let grad = match k % 8 {
                    0 => CompressedGrad::Dense(dense),
                    1 | 3 => {
                        let idx = rng.sample_indices(psi, psi.div_ceil(3));
                        let vals = idx.iter().map(|_| awkward(rng)).collect();
                        CompressedGrad::Sparse(SparseGrad::new(psi, idx, vals))
                    }
                    2 => UniformQuant::new(8).compress(&dense),
                    4 => UniformQuant::new(16).compress(&dense),
                    5 => UniformQuant::new(4).compress(&dense),
                    6 => CompressedGrad::Quant(QuantGrad {
                        dense_len: psi,
                        bits: 8,
                        codes: (0..psi).map(|_| rng.below(256) as u8).collect(),
                        scale: f32::from_bits(1),
                        zero: -f32::from_bits(0x40),
                    }),
                    _ => CompressedGrad::Quant(QuantGrad {
                        dense_len: psi,
                        bits: 8,
                        codes: (0..psi).map(|_| rng.below(3) as u8).collect(),
                        scale: -1e-3,
                        zero: -0.0,
                    }),
                };
                DiffEntry {
                    iteration: k as u64,
                    grad,
                }
            })
            .collect()
    }

    #[test]
    fn replay_chain_equals_oracle_at_every_width() {
        let adam = Adam::default();
        let mut rng = DetRng::new(0x0a11);
        // Ψ not divisible by the widths, Ψ below the widest width, a
        // single element, one Ψ past Adam's parallel block size, and one
        // spanning several replay blocks per shard with a ragged tail.
        for (psi, n) in [
            (403usize, 13usize),
            (5, 12),
            (1, 6),
            ((1 << 15) + 5, 6),
            (7 * REPLAY_BLOCK + 333, 9),
        ] {
            let start = start_state(psi, &mut rng);
            let chain = mixed_chain(psi, n, &mut rng);
            for len in [0, 1, n] {
                let mut want = start.clone();
                oracle_replay(&mut want, &adam, &chain[..len]);
                for threads in [1usize, 4] {
                    for width in [1usize, 2, 3, 4, 7] {
                        let mut got = start.clone();
                        rayon::pool::with_num_threads(threads, || {
                            replay_chain(&mut got, &adam, &chain[..len], width)
                        });
                        let what = format!("psi={psi} len={len} threads={threads} width={width}");
                        assert_bit_identical(&got, &want, &what);
                    }
                }
            }
        }
    }

    /// Stores holding one full plus a chain in batches of three — Top-K
    /// gradients (what LowDiff writes), quantized entries at 8, 4 and 16
    /// bits, and the mixed chain — each with the state the oracle reaches.
    fn stores(psi: usize) -> Vec<(&'static str, CheckpointStore, ModelState)> {
        let mut rng = DetRng::new(42);
        let start = start_state(psi, &mut rng);
        let mut dense = || -> Vec<f32> { (0..psi).map(|_| rng.normal() as f32 * 0.1).collect() };
        let mut topk = TopK::new(0.2);
        let topk: Vec<_> = (0..12).map(|_| topk.compress(&dense())).collect();
        let quant: Vec<_> = [8u8, 4, 16]
            .iter()
            .flat_map(|&b| [b; 5])
            .map(|b| UniformQuant::new(b).compress(&dense()))
            .collect();
        let mixed = mixed_chain(psi, 13, &mut rng)
            .into_iter()
            .map(|e| e.grad)
            .collect();
        [("topk", topk), ("quant", quant), ("mixed", mixed)]
            .into_iter()
            .map(|(name, grads)| {
                let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
                store.save_full(&start).unwrap();
                let chain: Vec<DiffEntry> = (start.iteration..)
                    .zip(grads)
                    .map(|(iteration, grad)| DiffEntry { iteration, grad })
                    .collect();
                for batch in chain.chunks(3) {
                    store.save_diff_batch(batch).unwrap();
                }
                let mut live = start.clone();
                oracle_replay(&mut live, &Adam::default(), &chain);
                (name, store, live)
            })
            .collect()
    }

    #[test]
    fn resume_equals_serial_and_sharded_recovery() {
        let dims = [6, 40, 3];
        let psi = mlp(&dims, 1).num_params();
        let adam = Adam::default();
        let cfg = TrainerConfig {
            error_feedback: false,
            ..TrainerConfig::default()
        };
        for (name, store, live) in stores(psi) {
            let (serial, report) = recover_serial(&store, &adam).unwrap().unwrap();
            assert_bit_identical(&serial, &live, &format!("{name}: serial"));
            assert_eq!(report.full_iteration, 2);
            assert_eq!(report.resumed_iteration, live.iteration);
            for width in [2usize, 3, 4, 7] {
                let (sharded, rep) = recover_sharded(&store, &adam, width).unwrap().unwrap();
                assert_bit_identical(&sharded, &live, &format!("{name}: sharded({width})"));
                assert_eq!(rep.replayed, report.replayed);
            }
            let (tr, rep) = Trainer::resume(
                mlp(&dims, 1),
                adam,
                NoCheckpoint::new(),
                cfg.clone(),
                &store,
            )
            .unwrap()
            .unwrap();
            assert_bit_identical(tr.state(), &live, &format!("{name}: Trainer::resume"));
            assert_eq!(rep.replayed, report.replayed);
        }
    }

    #[test]
    fn recovery_from_empty_store_is_none() {
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        assert!(recover_serial(&store, &Adam::default()).unwrap().is_none());
        assert!(recover_sharded(&store, &Adam::default(), 4)
            .unwrap()
            .is_none());
    }

    #[test]
    fn recovery_survives_torn_tail() {
        // Corrupting the *last* diff batch loses only that batch.
        let (_, store, _) = stores(200).remove(0);
        let keys = store.diff_keys().unwrap();
        let last = keys.last().unwrap().key.clone();
        store.backend().put(&last, b"garbage").unwrap();
        let (rec, report) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
        assert_eq!(report.replayed, 9, "only the intact prefix replays");
        assert_eq!(rec.iteration, 2 + 9);
    }

    /// A store holding `start` as its full plus one batch of `grads`
    /// right after it.
    fn full_plus_batch(start: &ModelState, grads: Vec<CompressedGrad>) -> CheckpointStore {
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        store.save_full(start).unwrap();
        let batch: Vec<DiffEntry> = (start.iteration..)
            .zip(grads)
            .map(|(iteration, grad)| DiffEntry { iteration, grad })
            .collect();
        store.save_diff_batch(&batch).unwrap();
        store
    }

    #[test]
    fn hostile_quant_record_resumes_at_the_full() {
        // A CRC-valid batch whose quant record has no decodable width is
        // corrupt: recovery resumes at the full instead of panicking in
        // the replay's dequantize.
        let psi = 8;
        let start = start_state(psi, &mut DetRng::new(3));
        let hostile = CompressedGrad::Quant(QuantGrad {
            dense_len: psi,
            bits: 3,
            codes: vec![0x55; psi],
            scale: 1.0,
            zero: 0.0,
        });
        let store = full_plus_batch(&start, vec![hostile]);
        let (state, report) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
        assert_eq!(report.replayed, 0);
        assert_bit_identical(&state, &start, "resumed at the full");
    }

    #[test]
    fn wrong_length_entry_ends_the_chain() {
        // A short dense entry after a good one: the good one replays, the
        // chain ends at the short one instead of panicking in the replay.
        let psi = 8;
        let adam = Adam::default();
        let start = start_state(psi, &mut DetRng::new(4));
        let good = CompressedGrad::Dense(vec![0.5; psi]);
        let store = full_plus_batch(
            &start,
            vec![
                good.clone(),
                CompressedGrad::Dense(vec![1.0; 3]),
                good.clone(),
            ],
        );
        let mut want = start.clone();
        oracle_replay(
            &mut want,
            &adam,
            &[DiffEntry {
                iteration: 0,
                grad: good,
            }],
        );
        for shards in [1, 3] {
            let (state, report) = recover_sharded(&store, &adam, shards).unwrap().unwrap();
            assert_eq!(report.replayed, 1);
            assert_bit_identical(&state, &want, &format!("{shards} shards"));
        }
    }

    #[test]
    fn tree_merge_equals_sequential_sum() {
        let mut rng = DetRng::new(7);
        let deltas: Vec<SparseGrad> = (0..17)
            .map(|_| {
                let idx = rng.sample_indices(300, 30);
                let vals = idx.iter().map(|_| rng.normal() as f32).collect();
                SparseGrad::new(300, idx, vals)
            })
            .collect();
        let tree = merge_deltas_parallel(&deltas).unwrap();
        let seq = SparseGrad::merge_all(300, deltas.iter());
        // Algebraically identical; float addition reorders under the tree,
        // so compare within a few ulps rather than bitwise.
        let (td, sd) = (tree.to_dense(), seq.to_dense());
        assert_eq!(tree.indices, seq.indices);
        for (i, (a, b)) in td.iter().zip(&sd).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0),
                "index {i}: tree {a} vs seq {b}"
            );
        }
    }

    #[test]
    fn empty_delta_merge_is_none() {
        assert!(merge_deltas_parallel(&[]).is_none());
    }
}
