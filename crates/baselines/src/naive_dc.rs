//! Naïve differential checkpointing (Check-N-Run transplanted to dense
//! models) — the paper's "Naïve DC" baseline.
//!
//! Per differential interval, ON THE TRAINING THREAD (this is the point):
//!
//! 1. compute the parameter delta `x_{t+1} − x_t` (needs the previous
//!    state retained in memory — the §3.4 data-dependency/memory cost),
//! 2. Top-K-compress the delta (Challenge 1's compression stall),
//! 3. write it synchronously together with the **dense, uncompressed**
//!    optimizer moments (Check-N-Run does not sparsify optimizer state —
//!    Challenge 2's transmission stall and Exp. 7's storage pathology).
//!
//! The synchronous-on-the-training-thread shape maps to an *inline*
//! [`CheckpointEngine`]: `NaiveDcPolicy::wants_capture` is the schedule, and
//! every persist stalls the submit call by construction.
//!
//! Blob layout (custom key space `ndc-…` on the shared backend):
//! param delta as a sparse record, then the full `m`/`v` vectors. Recovery
//! applies param deltas in order (approximate — Top-K drops mass) and
//! restores the moments from the newest blob (exact).

use lowdiff::batched::BatchedWriter;
use lowdiff::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, Job, TierStack,
};
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::sparsify::TopK;
use lowdiff_compress::{AuxView, Compressor};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{self, ValueCodec};
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Instant;

/// The whole Check-N-Run-style scheme: full base checkpoints, Top-K'd
/// parameter deltas, dense moments blobs — all persisted inline.
struct NaiveDcPolicy {
    tiers: TierStack,
    /// Differential interval (iterations).
    diff_every: u64,
    /// Full-checkpoint interval (iterations).
    full_every: u64,
    rho: f64,
    /// Parameters of the last checkpoint — the next delta's parent — read
    /// out of its captured frame (the §3.4 memory cost of retaining state).
    prev_params: Vec<f32>,
    /// The dense moments blob, rebuilt in place every interval.
    moments: Vec<u8>,
    /// Batch-size-1 f32 writer: each delta is its own differential write.
    writer: BatchedWriter,
    has_base: bool,
    /// Set when a write failure invalidated the differential chain; the
    /// next full checkpoint that lands is a forced re-anchor.
    reanchor_pending: bool,
}

/// The f32 values of a little-endian wire region.
fn f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
}

impl CheckpointPolicy for NaiveDcPolicy {
    fn name(&self) -> &'static str {
        "naive-dc"
    }

    fn wants_capture(&self, iteration: u64) -> bool {
        !self.has_base
            || iteration.is_multiple_of(self.full_every)
            || iteration.is_multiple_of(self.diff_every)
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        let Job::Full(mut ticket) = job else {
            debug_assert!(false, "naive-dc submits full snapshots");
            return;
        };
        let (iteration, psi) = (ticket.iteration(), ticket.psi());
        // params / m / v sit at fixed offsets whatever aux sections follow.
        let layout = codec::full_frame_layout(psi, &AuxView::NONE);
        if !self.has_base || iteration.is_multiple_of(self.full_every) {
            // The first checkpoint is always a full base (Equation (2)
            // needs a C^F to anchor the differential chain), persisted
            // synchronously as Check-N-Run does.
            if cx.persist_capture(&self.tiers, &mut ticket, &FullOpts::durable()) {
                self.has_base = true;
                if self.reanchor_pending {
                    self.reanchor_pending = false;
                    cx.with_stats(|s| s.forced_fulls += 1);
                }
            } else {
                // No base landed: leave `has_base` unset so the next call
                // re-attempts the full — the chain must stay anchored.
                self.has_base = false;
            }
        } else {
            // A differential interval reads the captured frame back and
            // never seals it.
            let frame = ticket.bytes();
            debug_assert_eq!(self.prev_params.len(), psi, "a delta needs its parent");
            // 1. delta computation (training thread).
            let delta: Vec<f32> = f32s(&frame[layout.params_off..layout.m_off])
                .zip(&self.prev_params)
                .map(|(new, &old)| new - old)
                .collect();
            // 2. compression stall (Challenge 1).
            let mut topk = TopK::new(self.rho);
            // 3. synchronous write of delta + dense moments
            //    (Challenge 2 + Exp. 7). iteration−1 because the delta
            //    advances M_{t-1} → M_t.
            self.writer
                .offload(iteration - 1, Arc::new(topk.compress(&delta)));
            if cx.persist_batch(&self.tiers, &mut self.writer) {
                cx.with_stats(|s| s.diff_checkpoints += 1);
                // The Adam step, then m and v back to back — exactly
                // their wire bytes in the frame.
                self.moments.clear();
                self.moments
                    .extend_from_slice(&ticket.adam_t().to_le_bytes());
                self.moments
                    .extend_from_slice(&frame[layout.m_off..layout.v_off + 4 * psi]);
                // Recovery tolerates a missing moments blob (params
                // still replayable); a failed put only degrades.
                cx.persist_blob(
                    &self.tiers,
                    &NaiveDcStrategy::moments_key(iteration - 1),
                    &self.moments,
                );
            } else {
                // Dropped delta: the chain past the last full is now
                // broken, so force a fresh base next interval.
                self.has_base = false;
                self.reanchor_pending = true;
            }
        }
        self.prev_params.clear();
        self.prev_params
            .extend(f32s(&ticket.bytes()[layout.params_off..layout.m_off]));
    }
}

/// Naïve DC baseline strategy.
pub struct NaiveDcStrategy {
    engine: CheckpointEngine,
}

impl NaiveDcStrategy {
    pub fn new(store: Arc<CheckpointStore>, diff_every: u64, full_every: u64, rho: f64) -> Self {
        Self::with_engine_config(store, diff_every, full_every, rho, EngineConfig::default())
    }

    /// Full-control constructor (crash injection, retry tuning, …). The
    /// engine stays inline — synchronous persist *is* the scheme.
    pub fn with_engine_config(
        store: Arc<CheckpointStore>,
        diff_every: u64,
        full_every: u64,
        rho: f64,
        cfg: EngineConfig,
    ) -> Self {
        assert!(diff_every >= 1 && full_every >= diff_every);
        let policy = NaiveDcPolicy {
            tiers: TierStack::durable(Arc::clone(&store)),
            diff_every,
            full_every,
            rho,
            prev_params: Vec::new(),
            moments: Vec::new(),
            writer: BatchedWriter::new(1, ValueCodec::F32),
            has_base: false,
            reanchor_pending: false,
        };
        let engine = CheckpointEngine::inline(store, policy, cfg);
        Self { engine }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.engine.store()
    }

    /// Storage key for a Naïve-DC moments blob (the differential itself is
    /// kept in the `diff-` space so [`CheckpointStore::diff_chain_from`]
    /// discovers it, but the grad is a *delta*, and the moments ride along
    /// as dense payloads).
    fn moments_key(iteration: u64) -> String {
        format!("ndcmoments-{iteration:010}")
    }

    /// Recover: latest full checkpoint + parameter deltas (merged with the
    /// paper's parallel tree merge) + moments from the newest blob.
    pub fn recover(store: &CheckpointStore) -> std::io::Result<Option<(ModelState, usize)>> {
        let Some(mut state) = store.latest_valid_full()? else {
            return Ok(None);
        };
        let chain = store.diff_chain_from(state.iteration)?;
        let replayed = chain.len();
        if replayed > 0 {
            let deltas: Vec<_> = chain
                .iter()
                .filter_map(|e| e.grad.as_sparse().cloned())
                .collect();
            if let Some(merged) = lowdiff::recovery::merge_deltas_parallel(&deltas) {
                merged.add_into(&mut state.params);
            }
            // Moments from the newest differential blob.
            let last_iter = chain.last().unwrap().iteration;
            if let Ok(bytes) = store.backend().get(&Self::moments_key(last_iter)) {
                let psi = state.params.len();
                if bytes.len() == psi * 8 + 8 {
                    let t = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                    state.opt.t = t;
                    for i in 0..psi {
                        let off = 8 + i * 4;
                        state.opt.m[i] =
                            f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                    }
                    for i in 0..psi {
                        let off = 8 + (psi + i) * 4;
                        state.opt.v[i] =
                            f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                    }
                }
            }
            state.iteration += replayed as u64;
        }
        Ok(Some((state, replayed)))
    }
}

impl CheckpointStrategy for NaiveDcStrategy {
    fn name(&self) -> &'static str {
        "naive-dc"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.engine.prime_capture(state, aux);
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        if !self.engine.wants_capture(state.iteration) {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        self.engine.submit_full(t0, state, aux).stall
    }

    fn flush(&mut self) -> Secs {
        self.engine.flush()
    }

    fn stats(&self) -> StrategyStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_optim::Adam;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    /// Train with real Adam updates and NaiveDC attached.
    fn run(st: Arc<CheckpointStore>, iters: u64, full_every: u64) -> ModelState {
        run_rho(st, iters, full_every, 0.05)
    }

    fn run_rho(st: Arc<CheckpointStore>, iters: u64, full_every: u64, rho: f64) -> ModelState {
        let adam = Adam::default();
        let mut rng = DetRng::new(3);
        let mut state = ModelState::new(vec![0.5; 200]);
        let mut s = NaiveDcStrategy::new(st, 1, full_every, rho);
        s.after_update(&state, &AuxView::NONE); // iteration 0: base full checkpoint
        for _ in 0..iters {
            let g: Vec<f32> = (0..200).map(|_| rng.normal() as f32 * 0.1).collect();
            state.apply_gradient(&adam, &g);
            s.after_update(&state, &AuxView::NONE);
        }
        state
    }

    #[test]
    fn writes_fulls_and_diffs() {
        let st = store();
        run(Arc::clone(&st), 10, 100);
        assert_eq!(st.full_iterations().unwrap(), vec![0]);
        assert_eq!(st.diff_keys().unwrap().len(), 10);
    }

    #[test]
    fn recovery_moments_exact_params_approximate() {
        let st = store();
        // Generous ρ: with white-noise gradients the delta has no heavy
        // tail, so a tiny Top-K would capture little mass (real
        // recommendation-model deltas, Check-N-Run's target, are sparse).
        let live = run_rho(Arc::clone(&st), 8, 100, 0.5);
        let (rec, replayed) = NaiveDcStrategy::recover(&st).unwrap().unwrap();
        assert_eq!(replayed, 8);
        assert_eq!(rec.iteration, live.iteration);
        // Moments restored exactly from the dense blob.
        assert_eq!(rec.opt.m, live.opt.m);
        assert_eq!(rec.opt.v, live.opt.v);
        assert_eq!(rec.opt.t, live.opt.t);
        // Params approximate: Top-K dropped delta mass, but the recovered
        // state must be closer to live than the base checkpoint was.
        let base = st.load_full(0).unwrap();
        let err_rec: f32 = rec
            .params
            .iter()
            .zip(&live.params)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let err_base: f32 = base
            .params
            .iter()
            .zip(&live.params)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            err_rec < err_base * 0.5,
            "diffs did not help: rec {err_rec} vs base {err_base}"
        );
    }

    #[test]
    fn full_checkpoint_resets_diff_base() {
        let st = store();
        run(Arc::clone(&st), 10, 5);
        // Fulls at 0, 5, 10 → recovery starts at 10, replays nothing.
        let (_, replayed) = NaiveDcStrategy::recover(&st).unwrap().unwrap();
        assert_eq!(replayed, 0);
    }

    #[test]
    fn storage_dominated_by_dense_moments() {
        // Exp. 7's pathology: with ρ=0.05 on Ψ=200 f32 params, each diff is
        // ~10 sparse pairs (80 B) + 1608 B of dense moments.
        let st = store();
        run(Arc::clone(&st), 4, 100);
        let moment_bytes: u64 = (0..4)
            .map(|i| {
                st.backend()
                    .get(&NaiveDcStrategy::moments_key(i))
                    .map(|b| b.len() as u64)
                    .unwrap_or(0)
            })
            .sum();
        let delta_bytes: u64 = st
            .diff_keys()
            .unwrap()
            .iter()
            .map(|k| st.backend().get(&k.key).unwrap().len() as u64)
            .sum();
        assert!(
            moment_bytes > delta_bytes * 5,
            "moments {moment_bytes} should dwarf deltas {delta_bytes}"
        );
    }

    #[test]
    fn dropped_diff_forces_reanchor_full() {
        use lowdiff_storage::{FaultConfig, FaultyBackend, StorageBackend};
        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let adam = Adam::default();
        let mut state = ModelState::new(vec![0.5; 64]);
        let mut s = NaiveDcStrategy::with_engine_config(
            Arc::clone(&st),
            1,
            1000,
            0.5,
            EngineConfig {
                retry: lowdiff_storage::RetryPolicy {
                    max_retries: 1,
                    base_delay: std::time::Duration::from_micros(100),
                    max_delay: std::time::Duration::from_micros(500),
                },
                ..EngineConfig::default()
            },
        );
        s.after_update(&state, &AuxView::NONE); // iteration 0: base full
        let g = vec![0.1; 64];
        state.apply_gradient(&adam, &g); // iteration 1
        s.after_update(&state, &AuxView::NONE);
        // Outage drops the iteration-2 diff.
        faulty.fail_all_puts();
        state.apply_gradient(&adam, &g); // iteration 2
        s.after_update(&state, &AuxView::NONE);
        faulty.heal();
        // Next interval re-anchors with a forced full instead of a diff.
        state.apply_gradient(&adam, &g); // iteration 3
        s.after_update(&state, &AuxView::NONE);
        let stats = s.stats();
        // The whole ledger: full 0, diff 1 (+ moments), the dropped diff
        // at 2 (one retry, one error), the forced full at 3.
        let ledger = (
            stats.full_checkpoints,
            stats.diff_checkpoints,
            stats.writes,
            stats.bytes_written,
            stats.diff_bytes_written,
        );
        assert_eq!(ledger, (2, 1, 4, 2321, 195));
        assert_eq!(
            (stats.dropped_diffs, stats.dropped_batches),
            (1, 1),
            "a dropped single-diff write is one dropped batch, counted once"
        );
        assert_eq!(
            (stats.forced_fulls, stats.io_errors, stats.io_retries),
            (1, 1, 1)
        );
        assert!(stats.degraded);
        assert_eq!(st.full_iterations().unwrap(), vec![0, 3]);
        // Recovery lands on the re-anchor, not the broken chain.
        let (rec, replayed) = NaiveDcStrategy::recover(&st).unwrap().unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(rec.iteration, 3);
        assert_eq!(rec.params, state.params);
    }

    /// Only a full interval pays the capture's CRC seal: a differential
    /// interval reads the unsealed frame back and encodes just its delta.
    #[test]
    fn diff_intervals_never_seal_the_capture() {
        let adam = Adam::default();
        let mut state = ModelState::new(vec![0.5; 200]);
        let mut s = NaiveDcStrategy::new(store(), 1, 100, 0.05);
        s.after_update(&state, &AuxView::NONE); // base full
        for _ in 0..6 {
            state.apply_gradient(&adam, &[0.1; 200]);
            s.after_update(&state, &AuxView::NONE);
        }
        let stats = s.stats();
        assert_eq!((stats.full_checkpoints, stats.diff_checkpoints), (1, 6));
        assert_eq!(
            stats.engine.encode.count,
            1 + 6,
            "one seal for the base, one delta encode per differential"
        );
    }

    #[test]
    fn blocking_writes_stall_training() {
        let st = store();
        let adam = Adam::default();
        let mut state = ModelState::new(vec![0.0; 50_000]);
        let mut s = NaiveDcStrategy::new(st, 1, 1000, 0.01);
        s.after_update(&state, &AuxView::NONE);
        state.apply_gradient(&adam, &vec![0.1; 50_000]);
        let stall = s.after_update(&state, &AuxView::NONE);
        assert!(stall.as_f64() > 0.0, "sync diff write must stall");
    }
}
