//! [`ShardedStrategy`]: the per-rank Ψ/n persistence adapter for
//! multi-process cluster mode.
//!
//! A cluster worker trains the **full** model (deterministic replicated
//! compute stands in for allreduce — every rank sees identical gradients),
//! but persists only its own parameter shard. This wrapper sits between
//! the trainer and a [`LowDiffStrategy`], so the inner engine's full
//! checkpoints, differentials and manifests all describe the rank's Ψ/n
//! [`ShardSpec`].
//!
//! A shard full is the gathered case of the one full capture: `new` hands
//! the spec to the inner strategy once, and from then on its every full
//! gathers the shard's ranges of params, m, v and the EF residual straight
//! into the pooled frame — one copy, no allocation. `prime` and
//! `after_update` forward the whole state unchanged. Only the synced
//! gradient is projected, because its sparse coordinates are the
//! differential.
//!
//! ## Why projection is exact
//!
//! Adam is elementwise — `params[i]`, `m[i]`, `v[i]` evolve from `grad[i]`
//! and the shared step count alone. Projecting the state and the gradient
//! stream onto a shard therefore commutes with training: the shard of the
//! full run equals the full run of the shard (pinned by
//! `lowdiff_storage::shard` tests). Stitching every rank's shard
//! checkpoint back together reproduces the global state bit-for-bit.
//!
//! ## Restrictions
//!
//! * **Quantized gradients are not shardable** — a [`CompressedGrad::Quant`]
//!   payload carries a *global* scale/zero-point, and re-quantizing a slice
//!   would change the codes. [`ShardSpec::project_grad`] returns `None` for
//!   them; this wrapper counts the drop in
//!   [`ShardedStrategy::unshardable_grads`] and persists nothing for that
//!   iteration, leaving a gap that stitching would reject. Cluster mode
//!   runs with Top-K or no compression.

use crate::engine::FullOutcome;
use crate::lowdiff::LowDiffStrategy;
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_storage::ShardSpec;
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Duration;

/// Wraps a [`LowDiffStrategy`] so it checkpoints only this rank's shard.
/// See the module docs for exactness and restrictions.
pub struct ShardedStrategy {
    spec: ShardSpec,
    inner: LowDiffStrategy,
    unshardable: u64,
}

impl ShardedStrategy {
    pub fn new(spec: ShardSpec, mut inner: LowDiffStrategy) -> Self {
        inner.gather_shard(&spec);
        Self {
            spec,
            inner,
            unshardable: 0,
        }
    }

    /// Gradients dropped because their encoding carries global state that
    /// a shard slice cannot preserve (quantized payloads). Non-zero here
    /// means the differential chain has gaps — the run is misconfigured
    /// for cluster mode.
    pub fn unshardable_grads(&self) -> u64 {
        self.unshardable
    }

    /// Whether this rank's shard full at `iteration` is durable, waiting
    /// up to `wait`: [`LowDiffStrategy::full_outcome`].
    pub fn full_outcome(&self, iteration: u64, wait: Duration) -> Option<FullOutcome> {
        self.inner.full_outcome(iteration, wait)
    }
}

impl CheckpointStrategy for ShardedStrategy {
    fn name(&self) -> &'static str {
        "lowdiff-sharded"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.inner.prime(state, aux);
    }

    // `on_layer_gradient` is intentionally not forwarded: layer ranges
    // address the *global* flat gradient and carry no meaning inside a
    // shard-projected engine.

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        _aux: &AuxView<'_>,
    ) -> Secs {
        let Some(shard_grad) = self.spec.project_grad(grad) else {
            self.unshardable += 1;
            return Secs::ZERO;
        };
        // LowDiff persists the gradient alone here; the aux state rides
        // on the fulls.
        self.inner
            .on_synced_gradient(iteration, &Arc::new(shard_grad), &AuxView::NONE)
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        self.inner.after_update(state, aux)
    }

    fn flush(&mut self) -> Secs {
        self.inner.flush()
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowdiff::{LowDiffConfig, LowDiffStrategy};
    use crate::trainer::{ResumeOpts, Trainer, TrainerConfig};
    use lowdiff_model::builders::mlp;
    use lowdiff_model::data::Regression;
    use lowdiff_model::loss::mse;
    use lowdiff_optim::Adam;
    use lowdiff_storage::shard::{stitch_diff_chains, stitch_fulls};
    use lowdiff_storage::{CheckpointStore, MemoryBackend};
    use std::sync::Arc as StdArc;

    fn train_cfg() -> TrainerConfig {
        TrainerConfig {
            compress_ratio: Some(0.25),
            error_feedback: true,
            data_seed: 11,
            ..TrainerConfig::default()
        }
    }

    fn ld_cfg() -> LowDiffConfig {
        LowDiffConfig {
            full_every: 5,
            batch_size: 1,
            ..LowDiffConfig::default()
        }
    }

    fn data_step(
        task: Regression,
    ) -> impl FnMut(
        &mut lowdiff_model::Network,
        u64,
        &mut lowdiff_util::DetRng,
    ) -> (f64, lowdiff_tensor::Tensor) {
        move |net, _t, rng| {
            let (x, y) = task.batch(rng, 8);
            let pred = net.forward(&x);
            mse(&pred, &y)
        }
    }

    fn run_one(store: StdArc<CheckpointStore>, spec: Option<ShardSpec>, iters: u64) -> ModelState {
        let net = mlp(&[4, 8, 2], 3);
        let psi = net.num_params();
        let inner = LowDiffStrategy::new(store, ld_cfg());
        let task = Regression::new(4, 2, 7);
        match spec {
            Some(spec) => {
                assert_eq!(spec.psi(), psi);
                let strategy = ShardedStrategy::new(spec, inner);
                let mut tr = Trainer::new(net, Adam::default(), strategy, train_cfg());
                tr.run_with_data(iters, data_step(task));
                assert_eq!(tr.strategy().unshardable_grads(), 0);
                tr.state().clone()
            }
            None => {
                let mut tr = Trainer::new(net, Adam::default(), inner, train_cfg());
                tr.run_with_data(iters, data_step(task));
                tr.state().clone()
            }
        }
    }

    /// Three sharded runs (same training, different persisted shards)
    /// stitch to exactly what one unsharded run persists — full
    /// checkpoint, aux, and diff chain alike.
    #[test]
    fn sharded_checkpoints_stitch_to_the_unsharded_ones() {
        let psi = mlp(&[4, 8, 2], 3).num_params();
        let num_chunks = 4u32;
        let assign: [Vec<u32>; 3] = [vec![0], vec![1, 3], vec![2]];
        let specs: Vec<ShardSpec> = assign
            .iter()
            .map(|c| ShardSpec::new(psi, num_chunks, c.clone()).unwrap())
            .collect();

        let global = StdArc::new(CheckpointStore::new(StdArc::new(MemoryBackend::new())));
        let g_state = run_one(global.clone(), None, 12);

        let mut parts_full = Vec::new();
        let mut parts_chain = Vec::new();
        let mut s_state = None;
        for spec in &specs {
            let store = StdArc::new(CheckpointStore::new(StdArc::new(MemoryBackend::new())));
            let st = run_one(store.clone(), Some(spec.clone()), 12);
            match &s_state {
                None => s_state = Some(st),
                Some(prev) => assert_eq!(prev.max_abs_diff(&st), 0.0),
            }
            let fc = store.latest_valid_full_checkpoint().unwrap().unwrap();
            let chain = store.diff_chain_from(fc.state.iteration).unwrap();
            parts_full.push((spec.clone(), fc));
            parts_chain.push((spec.clone(), chain));
        }

        // In-memory model state is identical across sharded/unsharded runs
        // (the wrapper never touches training).
        assert_eq!(g_state.max_abs_diff(s_state.as_ref().unwrap()), 0.0);

        let g_fc = global.latest_valid_full_checkpoint().unwrap().unwrap();
        let g_chain = global.diff_chain_from(g_fc.state.iteration).unwrap();

        let stitched = stitch_fulls(psi, &parts_full).unwrap();
        assert_eq!(stitched.state.iteration, g_fc.state.iteration);
        assert_eq!(stitched.state.max_abs_diff(&g_fc.state), 0.0);
        assert_eq!(stitched.aux.residual, g_fc.aux.residual);
        assert_eq!(stitched.aux.rng, g_fc.aux.rng);
        assert_eq!(stitched.aux.compressor, g_fc.aux.compressor);

        let chain = stitch_diff_chains(psi, &parts_chain).unwrap();
        assert_eq!(chain.len(), g_chain.len());
        for (a, b) in chain.iter().zip(g_chain.iter()) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.grad.to_dense(), b.grad.to_dense());
        }
    }

    /// Resume-from-stitched-parts lands on the same state an uninterrupted
    /// run reaches: the cluster recovery path end to end, in-process.
    #[test]
    fn resume_from_stitched_parts_matches_uninterrupted_run() {
        let psi = mlp(&[4, 8, 2], 3).num_params();
        let specs: Vec<ShardSpec> = [vec![0u32], vec![1, 3], vec![2]]
            .iter()
            .map(|c| ShardSpec::new(psi, 4, c.clone()).unwrap())
            .collect();

        // Reference: one uninterrupted 18-iteration run.
        let global = StdArc::new(CheckpointStore::new(StdArc::new(MemoryBackend::new())));
        let reference = run_one(global, None, 18);

        // Crashed cluster: 12 iterations persisted per shard.
        let mut parts_full = Vec::new();
        let mut parts_chain = Vec::new();
        for spec in &specs {
            let store = StdArc::new(CheckpointStore::new(StdArc::new(MemoryBackend::new())));
            run_one(store.clone(), Some(spec.clone()), 12);
            let fc = store.latest_valid_full_checkpoint().unwrap().unwrap();
            let chain = store.diff_chain_from(fc.state.iteration).unwrap();
            parts_full.push((spec.clone(), fc));
            parts_chain.push((spec.clone(), chain));
        }
        let fc = stitch_fulls(psi, &parts_full).unwrap();
        let chain = stitch_diff_chains(psi, &parts_chain).unwrap();

        // Resume (error-feedback residual anchors at the full — the chain
        // is ignored there, exactly as in the single-store path), then
        // train up to iteration 18 and compare.
        let net = mlp(&[4, 8, 2], 3);
        let store = StdArc::new(CheckpointStore::new(StdArc::new(MemoryBackend::new())));
        let strategy = LowDiffStrategy::new(store, ld_cfg());
        let (mut tr, report) = Trainer::resume_from_parts(
            net,
            Adam::default(),
            strategy,
            train_cfg(),
            fc,
            chain,
            ResumeOpts::default(),
        )
        .unwrap();
        assert!(!report.lossy);
        let remaining = 18 - report.resumed_iteration;
        tr.run_with_data(remaining, data_step(Regression::new(4, 2, 7)));
        assert_eq!(tr.state().iteration, 18);
        assert_eq!(tr.state().max_abs_diff(&reference), 0.0);
    }
}
