//! Gemini: CPU-memory checkpointing with periodic durable persistence
//! (Wang et al., SOSP '23).
//!
//! Gemini writes checkpoints to the CPU memory of peer machines (fast
//! tier) and only periodically to durable storage. The scheme is *pure
//! policy*: every snapshot goes to a `[Tier::Memory]` stack, every
//! `persist_every`-th through a `[Tier::Memory, Tier::Durable]` stack —
//! the engine encodes once, fans the same bytes across both tiers, and
//! runs the memory tier's deterministic retention GC (keep the newest
//! `retention` fulls, evict oldest-first).
//!
//! Recovery prefers the memory tier ([`GeminiStrategy::recover_memory`])
//! and falls back to durable storage when the machine holding the replica
//! is lost ([`GeminiStrategy::recover_durable`]) — the tier stack's
//! recovery-priority order.

use lowdiff::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, Job, Tier, TierStack,
};
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Instant;

/// Two-tier persistence as stack selection: every snapshot through the
/// memory-only stack, every `persist_every`-th through memory+durable.
/// The memory tier acknowledges and the durable tier trails best-effort —
/// a lost write on either tier degrades, never aborts, and never fails the
/// memory-tier checkpoint.
struct GeminiPolicy {
    mem_only: TierStack,
    both: TierStack,
    persist_every: u64,
}

impl CheckpointPolicy for GeminiPolicy {
    fn name(&self) -> &'static str {
        "gemini"
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        match job {
            Job::Full(mut ticket) => {
                // Memory-tier copy (peer CPU RAM over the network in the
                // real system); aligned iterations also ride the durable
                // tier, written from the same sealed frame.
                let tiers = if ticket.iteration().is_multiple_of(self.persist_every) {
                    &self.both
                } else {
                    &self.mem_only
                };
                cx.persist_capture(tiers, &mut ticket, &FullOpts::durable());
            }
            _ => debug_assert!(false, "gemini submits full snapshots"),
        }
    }
}

/// Gemini checkpointing strategy.
pub struct GeminiStrategy {
    /// Memory-tier interval (iterations); Gemini targets 1 where bandwidth
    /// allows.
    mem_every: u64,
    persist_every: u64,
    mem_store: Arc<CheckpointStore>,
    engine: CheckpointEngine,
}

impl GeminiStrategy {
    pub fn new(durable_store: Arc<CheckpointStore>, mem_every: u64, persist_every: u64) -> Self {
        Self::with_engine_config(
            durable_store,
            mem_every,
            persist_every,
            EngineConfig::default(),
        )
    }

    /// Like [`GeminiStrategy::new`] but keeping the newest `retention`
    /// checkpoints in the memory tier instead of the default single one.
    pub fn with_retention(
        durable_store: Arc<CheckpointStore>,
        mem_every: u64,
        persist_every: u64,
        retention: u64,
    ) -> Self {
        Self::build(
            durable_store,
            mem_every,
            persist_every,
            retention,
            EngineConfig::default(),
        )
    }

    /// Full-control constructor (crash injection, retry tuning, …). The
    /// depth-2 queue is part of the scheme, so `queue_capacity` is always
    /// pinned to 2 regardless of `cfg`.
    pub fn with_engine_config(
        durable_store: Arc<CheckpointStore>,
        mem_every: u64,
        persist_every: u64,
        cfg: EngineConfig,
    ) -> Self {
        Self::build(durable_store, mem_every, persist_every, 1, cfg)
    }

    fn build(
        durable_store: Arc<CheckpointStore>,
        mem_every: u64,
        persist_every: u64,
        retention: u64,
        cfg: EngineConfig,
    ) -> Self {
        assert!(mem_every >= 1 && persist_every >= mem_every);
        let mem_store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let mem_tier = Tier::Memory {
            store: Arc::clone(&mem_store),
            keep: retention,
        };
        let policy = GeminiPolicy {
            mem_only: TierStack::new(vec![mem_tier.clone()]),
            both: TierStack::new(vec![
                mem_tier,
                Tier::Durable {
                    store: Arc::clone(&durable_store),
                    keep: None,
                },
            ]),
            persist_every,
        };
        // Depth-2 queue: Gemini's traffic scheduler lets a couple of
        // checkpoints be in flight to the memory tier.
        let engine = CheckpointEngine::spawn(
            durable_store,
            policy,
            EngineConfig {
                queue_capacity: 2,
                ..cfg
            },
        );
        Self {
            mem_every,
            persist_every,
            mem_store,
            engine,
        }
    }

    pub fn persist_every(&self) -> u64 {
        self.persist_every
    }

    /// Fast recovery from the memory tier (machine survived).
    pub fn recover_memory(&self) -> std::io::Result<Option<ModelState>> {
        self.mem_store.latest_valid_full()
    }

    /// Fallback recovery from durable storage (replica host lost).
    pub fn recover_durable(&self) -> std::io::Result<Option<ModelState>> {
        self.engine.store().latest_valid_full()
    }
}

impl CheckpointStrategy for GeminiStrategy {
    fn name(&self) -> &'static str {
        "gemini"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.engine.prime_capture(state, aux);
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        if !state.iteration.is_multiple_of(self.mem_every) {
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
    use lowdiff_storage::MemoryBackend as Mem;

    fn durable() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(Mem::new())))
    }

    fn run(s: &mut GeminiStrategy, iters: u64) -> ModelState {
        let mut state = ModelState::new(vec![0.0; 32]);
        for i in 0..iters {
            state.iteration += 1;
            state.params[0] = i as f32;
            s.after_update(&state, &AuxView::NONE);
        }
        s.flush();
        state
    }

    #[test]
    fn memory_tier_is_fresher_than_durable() {
        let d = durable();
        let mut s = GeminiStrategy::new(Arc::clone(&d), 1, 5);
        run(&mut s, 13);
        let mem = s.recover_memory().unwrap().unwrap();
        let dur = s.recover_durable().unwrap().unwrap();
        assert_eq!(mem.iteration, 13, "memory tier: every iteration");
        assert_eq!(dur.iteration, 10, "durable: every 5th");
        assert!(mem.iteration >= dur.iteration);
    }

    #[test]
    fn memory_tier_keeps_single_checkpoint() {
        let d = durable();
        let mut s = GeminiStrategy::new(Arc::clone(&d), 1, 100);
        run(&mut s, 8);
        assert_eq!(
            s.mem_store.full_iterations().unwrap().len(),
            1,
            "memory tier must be GC'd to the latest"
        );
    }

    #[test]
    fn memory_retention_evicts_oldest_first() {
        let d = durable();
        let mut s = GeminiStrategy::with_retention(Arc::clone(&d), 2, 100, 3);
        run(&mut s, 12); // memory fulls at 2,4,…,12
        assert_eq!(
            s.mem_store.full_iterations().unwrap(),
            vec![8, 10, 12],
            "retention 3 keeps exactly the newest three, oldest evicted first"
        );
    }

    #[test]
    fn stats_distinguish_tiers() {
        let d = durable();
        let mut s = GeminiStrategy::new(Arc::clone(&d), 2, 4);
        run(&mut s, 8);
        let stats = s.stats();
        assert_eq!(stats.diff_checkpoints, 4, "memory-tier ckpts at 2,4,6,8");
        assert_eq!(stats.full_checkpoints, 2, "durable at 4,8");
        // The per-tier ledger mirrors the stack: memory first (primary),
        // durable second, with every byte accounted.
        assert_eq!(stats.tiers.len(), 2);
        assert_eq!(stats.tiers[0].name, "memory");
        assert_eq!(stats.tiers[0].acks, 4);
        assert_eq!(stats.tiers[1].name, "durable");
        assert_eq!(stats.tiers[1].acks, 2);
        assert_eq!(
            stats.tiers[1].bytes,
            stats.bytes_written / 3,
            "durable landed 2 of the 6 tier writes, all the same encoded size"
        );
    }

    #[test]
    fn no_durable_checkpoint_before_first_interval() {
        let d = durable();
        let mut s = GeminiStrategy::new(Arc::clone(&d), 1, 50);
        run(&mut s, 10);
        assert!(s.recover_durable().unwrap().is_none());
        assert!(s.recover_memory().unwrap().is_some());
    }
}
