//! Periodic full checkpointing: the `torch.save`, CheckFreq and Gemini
//! baselines as schedules over one engine.
//!
//! All three capture a full model snapshot every `k` iterations and
//! persist it through a [`TierStack`]. They differ in three values only:
//!
//! * the **schedule** — `(period, stack)` pairs. A full is captured when
//!   the first pair's period divides the iteration, and persisted through
//!   the *last* pair whose period divides it (Gemini: memory every
//!   `mem_every`-th iteration, memory + durable where `persist_every`
//!   lines up too);
//! * the **queue depth** — CheckFreq's depth-1 snapshot/persist pipeline
//!   is a capacity-1 job queue, Gemini lets two checkpoints be in flight;
//! * **inline** (depth 0) — `torch.save` writes on the training thread,
//!   so the submit stall is the persist cost, by design.
//!
//! A failed write is skipped; recovery falls back to an older full.

use lowdiff::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, Job, Tier, TierStack,
};
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff::RecoverySource;
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Instant;

/// The whole scheme: persist each captured full through the last stack
/// whose period divides its iteration.
struct PeriodicFullPolicy {
    name: &'static str,
    schedule: Vec<(u64, TierStack)>,
}

impl CheckpointPolicy for PeriodicFullPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        match job {
            Job::Full(mut ticket) => {
                let t = ticket.iteration();
                let (_, tiers) = self
                    .schedule
                    .iter()
                    .rfind(|(every, _)| t.is_multiple_of(*every))
                    .expect("the first period gates every capture");
                cx.persist_capture(tiers, &mut ticket, &FullOpts::durable());
            }
            _ => debug_assert!(false, "{} submits full snapshots", self.name),
        }
    }
}

/// A full checkpoint every `every` iterations through a fixed tier
/// schedule; built by [`Self::torch_save`], [`Self::checkfreq`] or
/// [`Self::gemini`].
pub struct PeriodicFullStrategy {
    name: &'static str,
    /// The first schedule period: the capture gate.
    every: u64,
    sources: Vec<RecoverySource>,
    engine: CheckpointEngine,
}

impl PeriodicFullStrategy {
    /// The `torch.save` baseline: a blocking durable full every `every`
    /// iterations, serialized and written on the training thread.
    pub fn torch_save(store: Arc<CheckpointStore>, every: u64, cfg: EngineConfig) -> Self {
        let tiers = TierStack::durable(Arc::clone(&store));
        Self::build("torch-save", store, vec![(every, tiers)], 0, cfg)
    }

    /// CheckFreq (Mohan et al., FAST '21): a blocking in-memory *snapshot*
    /// on the training thread, an async *persist* behind it. The pipeline
    /// has depth 1, so `queue_capacity` is pinned to 1 whatever `cfg`
    /// says: a snapshot due while the previous persist still runs stalls
    /// training, which is how CheckFreq degrades at high frequency.
    pub fn checkfreq(store: Arc<CheckpointStore>, every: u64, cfg: EngineConfig) -> Self {
        let tiers = TierStack::durable(Arc::clone(&store));
        Self::build("checkfreq", store, vec![(every, tiers)], 1, cfg)
    }

    /// Gemini (Wang et al., SOSP '23): a full to (peer) CPU memory every
    /// `mem_every` iterations, kept to the newest one, and to `durable`
    /// as well where `persist_every` lines up. The engine encodes once
    /// and fans the same bytes across both tiers. Gemini's traffic
    /// scheduler lets a couple of checkpoints be in flight, so
    /// `queue_capacity` is pinned to 2 whatever `cfg` says.
    pub fn gemini(
        durable: Arc<CheckpointStore>,
        mem_every: u64,
        persist_every: u64,
        cfg: EngineConfig,
    ) -> Self {
        assert!(persist_every >= mem_every);
        let memory = Tier::Memory {
            store: Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new()))),
            keep: 1,
        };
        let schedule = vec![
            (mem_every, TierStack::new(vec![memory.clone()])),
            (
                persist_every,
                TierStack::new(vec![
                    memory,
                    Tier::Durable {
                        store: Arc::clone(&durable),
                        keep: None,
                    },
                ]),
            ),
        ];
        Self::build("gemini", durable, schedule, 2, cfg)
    }

    /// `depth` 0 runs the policy inline; otherwise it is the job queue's
    /// capacity.
    fn build(
        name: &'static str,
        store: Arc<CheckpointStore>,
        schedule: Vec<(u64, TierStack)>,
        depth: usize,
        cfg: EngineConfig,
    ) -> Self {
        let every = schedule[0].0;
        assert!(every >= 1);
        // The last stack is the widest: it holds every tier, in recovery
        // order.
        let sources = schedule[schedule.len() - 1]
            .1
            .iter()
            .filter_map(|tier| match tier {
                Tier::Durable { store, .. } | Tier::Memory { store, .. } => Some(RecoverySource {
                    tier: tier.name().to_string(),
                    store: Arc::clone(store),
                }),
                Tier::Peer(_) => None,
            })
            .collect();
        let policy = PeriodicFullPolicy { name, schedule };
        let engine = if depth == 0 {
            CheckpointEngine::inline(store, policy, cfg)
        } else {
            let cfg = EngineConfig {
                queue_capacity: depth,
                ..cfg
            };
            CheckpointEngine::spawn(store, policy, cfg)
        };
        Self {
            name,
            every,
            sources,
            engine,
        }
    }

    /// The store tiers in recovery order (fastest first), the shape
    /// [`lowdiff::Trainer::resume_tiered`] takes.
    pub fn recovery_sources(&self) -> Vec<RecoverySource> {
        self.sources.clone()
    }
}

impl CheckpointStrategy for PeriodicFullStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.engine.prime_capture(state, aux);
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        if !state.iteration.is_multiple_of(self.every) {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        // Snapshot into a pooled frame, then enqueue for persist (or
        // persist inline). A dead persist thread degrades the run instead
        // of aborting training.
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
    use lowdiff_storage::{FaultConfig, FaultyBackend, StorageBackend};
    use std::time::Duration;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    /// The newest valid full in the tier named `tier`.
    fn recover(s: &PeriodicFullStrategy, tier: &str) -> std::io::Result<Option<ModelState>> {
        let sources = s.recovery_sources();
        let source = sources.iter().find(|src| src.tier == tier).unwrap();
        source.store.latest_valid_full()
    }

    /// Every put sleeps `spike`.
    fn slow_store(spike: Duration) -> Arc<CheckpointStore> {
        let slow = FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig {
                latency_spike_rate: 1.0,
                latency_spike: spike,
                ..FaultConfig::default()
            },
        );
        Arc::new(CheckpointStore::new(Arc::new(slow)))
    }

    // ------------------------------------------------------- torch.save

    fn advance(state: &mut ModelState) {
        // Cheap fake update: just bump the iteration counter.
        state.iteration += 1;
    }

    #[test]
    fn writes_on_schedule() {
        let st = store();
        let mut s = PeriodicFullStrategy::torch_save(Arc::clone(&st), 5, EngineConfig::default());
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
        let mut s = PeriodicFullStrategy::torch_save(st, 1, EngineConfig::default());
        let mut state = ModelState::new(vec![0.0; 100_000]);
        advance(&mut state);
        let stall = s.after_update(&state, &AuxView::NONE);
        assert!(stall.as_f64() > 0.0, "synchronous write must stall");
    }

    #[test]
    fn torch_save_stall_covers_the_whole_write() {
        // Every put sleeps 50 ms: an inline persist puts all of it on the
        // training thread, a spawned worker would hide it.
        let cfg = EngineConfig {
            export_health: false,
            ..EngineConfig::default()
        };
        let mut s = PeriodicFullStrategy::torch_save(slow_store(Duration::from_millis(50)), 1, cfg);
        let mut state = ModelState::new(vec![0.0; 1_000]);
        advance(&mut state);
        let stall = s.after_update(&state, &AuxView::NONE);
        assert!(
            stall.as_f64() >= 0.05,
            "persist left the training thread: {stall}"
        );
    }

    #[test]
    fn recovery_roundtrip() {
        let st = store();
        let mut s = PeriodicFullStrategy::torch_save(Arc::clone(&st), 2, EngineConfig::default());
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

    // -------------------------------------------------------- checkfreq

    #[test]
    fn persists_asynchronously_on_schedule() {
        let st = store();
        let mut s = PeriodicFullStrategy::checkfreq(Arc::clone(&st), 3, EngineConfig::default());
        let mut state = ModelState::new(vec![0.0; 64]);
        for _ in 0..9 {
            state.iteration += 1;
            s.after_update(&state, &AuxView::NONE);
        }
        s.flush();
        assert_eq!(st.full_iterations().unwrap(), vec![3, 6, 9]);
        assert_eq!(s.stats().full_checkpoints, 3);
    }

    #[test]
    fn snapshot_returns_before_persist_completes() {
        // Every put sleeps a full second, so a snapshot that waited on its
        // persist would blow the bound below: persist happens off-thread.
        let cfg = EngineConfig {
            export_health: false,
            ..EngineConfig::default()
        };
        let mut s = PeriodicFullStrategy::checkfreq(slow_store(Duration::from_secs(1)), 1, cfg);
        let mut state = ModelState::new(vec![0.0; 50_000]);
        state.iteration = 1;
        let stall = s.after_update(&state, &AuxView::NONE);
        // Snapshot = capture + enqueue only; generous CI bound.
        assert!(stall.as_f64() < 0.2, "snapshot blocked on persist: {stall}");
        s.flush();
        assert_eq!(s.stats().full_checkpoints, 1);
    }

    #[test]
    fn recovery_gets_last_persisted() {
        let st = store();
        let mut s = PeriodicFullStrategy::checkfreq(Arc::clone(&st), 2, EngineConfig::default());
        let mut state = ModelState::new(vec![0.0; 8]);
        for i in 0..5 {
            state.iteration += 1;
            state.params[0] = i as f32;
            s.after_update(&state, &AuxView::NONE);
        }
        s.flush();
        let rec = st.latest_valid_full().unwrap().unwrap();
        assert_eq!(rec.iteration, 4);
        assert_eq!(rec.params[0], 3.0);
    }

    #[test]
    fn storage_outage_skips_checkpoints_without_panic() {
        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let mut s = PeriodicFullStrategy::checkfreq(
            Arc::clone(&st),
            1,
            EngineConfig {
                retry: lowdiff_storage::RetryPolicy {
                    max_retries: 1,
                    base_delay: Duration::from_micros(100),
                    max_delay: Duration::from_micros(500),
                },
                ..EngineConfig::default()
            },
        );
        let mut state = ModelState::new(vec![0.0; 16]);
        state.iteration = 1;
        s.after_update(&state, &AuxView::NONE);
        s.flush();
        faulty.fail_all_puts();
        state.iteration = 2;
        s.after_update(&state, &AuxView::NONE);
        s.flush();
        faulty.heal();
        state.iteration = 3;
        s.after_update(&state, &AuxView::NONE);
        s.flush();
        let stats = s.stats();
        assert!(stats.io_errors >= 1);
        assert!(stats.degraded);
        assert_eq!(
            st.full_iterations().unwrap(),
            vec![1, 3],
            "outage checkpoint skipped, later ones land"
        );
        assert_eq!(st.latest_valid_full().unwrap().unwrap().iteration, 3);
    }

    #[test]
    fn drop_without_flush_joins_cleanly() {
        let st = store();
        let mut s = PeriodicFullStrategy::checkfreq(st, 1, EngineConfig::default());
        let mut state = ModelState::new(vec![0.0; 8]);
        state.iteration = 1;
        s.after_update(&state, &AuxView::NONE);
        drop(s); // must not hang
    }

    // ----------------------------------------------------------- gemini

    fn gemini(
        durable: &Arc<CheckpointStore>,
        mem_every: u64,
        persist_every: u64,
    ) -> PeriodicFullStrategy {
        PeriodicFullStrategy::gemini(
            Arc::clone(durable),
            mem_every,
            persist_every,
            EngineConfig::default(),
        )
    }

    fn run(s: &mut PeriodicFullStrategy, iters: u64) -> ModelState {
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
        let d = store();
        let mut s = gemini(&d, 1, 5);
        run(&mut s, 13);
        let mem = recover(&s, "memory").unwrap().unwrap();
        let dur = recover(&s, "durable").unwrap().unwrap();
        assert_eq!(mem.iteration, 13, "memory tier: every iteration");
        assert_eq!(dur.iteration, 10, "durable: every 5th");
        assert!(mem.iteration >= dur.iteration);
    }

    #[test]
    fn memory_tier_keeps_single_checkpoint() {
        let d = store();
        let mut s = gemini(&d, 1, 100);
        run(&mut s, 8);
        let sources = s.recovery_sources();
        assert_eq!(
            sources[0].store.full_iterations().unwrap().len(),
            1,
            "memory tier must be GC'd to the latest"
        );
    }

    #[test]
    fn stats_distinguish_tiers() {
        let d = store();
        let mut s = gemini(&d, 2, 4);
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
        let d = store();
        let mut s = gemini(&d, 1, 50);
        run(&mut s, 10);
        assert!(recover(&s, "durable").unwrap().is_none());
        assert!(recover(&s, "memory").unwrap().is_some());
    }

    #[test]
    fn recovery_sources_list_the_store_tiers_fastest_first() {
        let tiers = |s: &PeriodicFullStrategy| -> Vec<String> {
            s.recovery_sources()
                .into_iter()
                .map(|src| src.tier)
                .collect()
        };
        let cfg = EngineConfig::default;
        assert_eq!(
            tiers(&PeriodicFullStrategy::torch_save(store(), 1, cfg())),
            ["durable"]
        );
        assert_eq!(
            tiers(&PeriodicFullStrategy::checkfreq(store(), 1, cfg())),
            ["durable"]
        );
        let d = store();
        let s = gemini(&d, 1, 2);
        assert_eq!(tiers(&s), ["memory", "durable"]);
        assert!(Arc::ptr_eq(&s.recovery_sources()[1].store, &d));
    }
}
