//! `torch.save` baseline: blocking full checkpoints.

use lowdiff::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, Job, TierStack,
};
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Instant;

/// The whole scheme: a durable full every `every` iterations, written
/// inline. A failed write is skipped (recovery falls back).
struct TorchSavePolicy {
    tiers: TierStack,
    every: u64,
}

impl CheckpointPolicy for TorchSavePolicy {
    fn name(&self) -> &'static str {
        "torch-save"
    }

    fn wants_capture(&self, iteration: u64) -> bool {
        iteration.is_multiple_of(self.every)
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        match job {
            Job::Full(mut ticket) => {
                cx.persist_capture(&self.tiers, &mut ticket, &FullOpts::durable());
            }
            _ => debug_assert!(false, "torch-save submits full snapshots"),
        }
    }
}

/// Synchronous full checkpointing every `every` iterations — the whole
/// serialize+write sits on the training thread's critical path, so the
/// strategy runs on an *inline* (thread-less) [`CheckpointEngine`]: the
/// submit stall is the persist cost, by design.
pub struct TorchSaveStrategy {
    engine: CheckpointEngine,
}

impl TorchSaveStrategy {
    pub fn new(store: Arc<CheckpointStore>, every: u64) -> Self {
        Self::with_engine_config(store, every, EngineConfig::default())
    }

    /// Full-control constructor (crash injection, retry tuning, …). The
    /// engine stays inline — synchronous persist *is* the scheme.
    pub fn with_engine_config(store: Arc<CheckpointStore>, every: u64, cfg: EngineConfig) -> Self {
        assert!(every >= 1);
        let policy = TorchSavePolicy {
            tiers: TierStack::durable(Arc::clone(&store)),
            every,
        };
        let engine = CheckpointEngine::inline(store, policy, cfg);
        Self { engine }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.engine.store()
    }
}

impl CheckpointStrategy for TorchSaveStrategy {
    fn name(&self) -> &'static str {
        "torch-save"
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
    use lowdiff_storage::MemoryBackend;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    fn advance(state: &mut ModelState) {
        // Cheap fake update: just bump the iteration counter.
        state.iteration += 1;
    }

    #[test]
    fn writes_on_schedule() {
        let st = store();
        let mut s = TorchSaveStrategy::new(Arc::clone(&st), 5);
        let mut state = ModelState::new(vec![0.0; 32]);
        for _ in 0..12 {
            advance(&mut state);
            s.after_update(&state, &AuxView::NONE);
        }
        assert_eq!(st.full_iterations().unwrap(), vec![5, 10]);
        assert_eq!(s.stats().full_checkpoints, 2);
        // Accounting means "bytes that hit storage": the encoded blob
        // length, which the backend counted independently.
        assert_eq!(s.stats().bytes_written, st.backend().bytes_written());
        assert!(s.stats().bytes_written >= 2 * 32 * 12);
    }

    #[test]
    fn stall_is_nonzero_for_real_writes() {
        let st = store();
        let mut s = TorchSaveStrategy::new(st, 1);
        let mut state = ModelState::new(vec![0.0; 100_000]);
        advance(&mut state);
        let stall = s.after_update(&state, &AuxView::NONE);
        assert!(stall.as_f64() > 0.0, "synchronous write must stall");
    }

    #[test]
    fn recovery_roundtrip() {
        let st = store();
        let mut s = TorchSaveStrategy::new(Arc::clone(&st), 2);
        let mut state = ModelState::new(vec![1.5; 16]);
        for _ in 0..4 {
            advance(&mut state);
            state.params[0] += 1.0;
            s.after_update(&state, &AuxView::NONE);
        }
        let rec = st.latest_valid_full().unwrap().unwrap();
        assert_eq!(rec.iteration, 4);
        assert_eq!(rec.params[0], state.params[0]);
    }
}
