//! [`LowDiffStrategy`] — Algorithm 1: reuse compressed gradients as
//! differential checkpoints.
//!
//! Wiring (one instance per worker; mirrors the architecture figure):
//!
//! ```text
//! training thread                      checkpointing thread (CheckpointEngine)
//! ───────────────                      ───────────────────────────────────────
//! sync'd Ĝ_t ──Job::Diff(zero-copy)──▶ offload → BatchedWriter → C^B → store
//! M_t (every FCF iters) ──Job::Full──▶ persist_capture → C^F → store (+ GC)
//! ```
//!
//! The strategy is a thin adapter over [`crate::engine::CheckpointEngine`]:
//! the scheme decisions (batch boundaries, full-checkpoint cadence) live in
//! a private `LowDiffPolicy`; GC depth is the durable tier's `keep`
//! ([`LowDiffConfig::keep_fulls`]); all mechanism (bounded queue, worker
//! thread, retry/backoff, degraded mode, stats) lives in the engine.
//!
//! The training thread never waits for storage: its only costs are the
//! `Arc` clone into the job queue (pointer-sized; backpressure only if the
//! checkpointer lags by more than the queue capacity) and, every FCF
//! iterations, one in-memory snapshot of the model state.

use crate::batched::BatchedWriter;
use crate::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, FullOutcome, Job,
    PolicyCtl, Tier, TierStack,
};
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::ValueCodec;
use lowdiff_storage::{CheckpointStore, ShardSpec};
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for [`LowDiffStrategy`].
#[derive(Clone, Debug)]
pub struct LowDiffConfig {
    /// Full-checkpoint interval in iterations (FCF); tuned by
    /// [`crate::config::ConfigOptimizer`] in production setups.
    pub full_every: u64,
    /// Batching size (BS) for differential writes.
    pub batch_size: usize,
    /// If set, keep only the newest `k` full checkpoints on the durable
    /// store (older fulls and their differential chains are
    /// garbage-collected).
    pub keep_fulls: Option<u64>,
    /// Value-plane wire format for differential batches: raw f32 (v2,
    /// bit-exact recovery) or per-chunk quantized (v3, bounded-lossy,
    /// ~2–3× smaller diff writes at 8 bits).
    pub value_codec: ValueCodec,
    /// The checkpoint engine underneath: job-queue capacity before
    /// backpressure, the retry/backoff every storage write goes through
    /// (once exhausted the batch is dropped and an early full forced —
    /// training is never aborted), striped persist and crash injection.
    pub engine: EngineConfig,
}

impl Default for LowDiffConfig {
    fn default() -> Self {
        Self {
            full_every: 20,
            batch_size: 2,
            keep_fulls: None,
            value_codec: ValueCodec::F32,
            engine: EngineConfig::default(),
        }
    }
}

/// The scheme half of LowDiff: batches differentials, persists fulls with
/// re-anchor-on-failure semantics. Runs on the engine's checkpointing
/// thread; every write fans across the recovery tier stack through
/// [`EngineCtx`] (plain LowDiff runs a single durable tier; a peer-first
/// stack from [`LowDiffStrategy::with_tier_stack`] leaves this logic
/// untouched), whose store tiers garbage-collect old fulls.
struct LowDiffPolicy {
    tiers: TierStack,
    writer: BatchedWriter,
    label: &'static str,
}

impl CheckpointPolicy for LowDiffPolicy {
    fn name(&self) -> &'static str {
        self.label
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        match job {
            // Differential gradients (Q.get, Algorithm 1 line 11):
            Job::Diff { iteration, grad } => {
                self.writer.offload(iteration, grad);
                cx.with_stats(|s| s.diff_checkpoints += 1);
                if self.writer.batch_ready() {
                    cx.persist_batch(&self.tiers, &mut self.writer);
                }
            }
            Job::Full(mut ticket) => {
                let opts = FullOpts {
                    // A full that never lands must be re-attempted soon:
                    // without it, a previously dropped batch would leave
                    // the recovery window unbounded.
                    reanchor_on_failure: true,
                };
                cx.persist_capture(&self.tiers, &mut ticket, &opts);
            }
            Job::Dense { .. } => debug_assert!(false, "lowdiff submits compressed gradients"),
        }
    }

    fn flush(&mut self, cx: &mut EngineCtx<'_>) {
        cx.persist_batch(&self.tiers, &mut self.writer);
    }

    fn control(&mut self, ctl: PolicyCtl, cx: &mut EngineCtx<'_>) {
        let PolicyCtl::SetBatchSize(bs) = ctl;
        // Complete the in-flight batch at the old size, then switch:
        // differential chains stay consecutive.
        cx.persist_batch(&self.tiers, &mut self.writer);
        self.writer.set_batch_size(bs);
    }
}

/// The LowDiff checkpointing strategy (paper's core contribution).
pub struct LowDiffStrategy {
    cfg: LowDiffConfig,
    optimizer: Option<crate::config::ConfigOptimizer>,
    engine: CheckpointEngine,
    label: &'static str,
}

impl LowDiffStrategy {
    pub fn new(store: Arc<CheckpointStore>, cfg: LowDiffConfig) -> Self {
        let tiers = TierStack::new(vec![Tier::Durable {
            store: Arc::clone(&store),
            keep: cfg.keep_fulls,
        }]);
        Self::with_tier_stack(store, cfg, tiers)
    }

    /// Run the unchanged LowDiff scheme over another recovery-tier stack.
    /// Checkmate-style peer replication is
    /// `[Tier::Peer(k), Tier::Durable { keep: cfg.keep_fulls }]`: every
    /// diff and full streams to `k` ring peers and lands on a peer ack,
    /// the durable store trails best-effort, and a lost rank is rebuilt
    /// from a surviving peer's replicas
    /// ([`crate::engine::peer_recovery_stores`]). `store` stays the
    /// durable store recovery and the health blob talk to; the stack's own
    /// tiers carry the GC depth. The strategy reports as `"lowdiff-peer"`
    /// when the stack's front tier is a peer tier, `"lowdiff"` otherwise.
    pub fn with_tier_stack(
        store: Arc<CheckpointStore>,
        cfg: LowDiffConfig,
        tiers: TierStack,
    ) -> Self {
        assert!(cfg.full_every >= 1 && cfg.batch_size >= 1);
        let label = match tiers.iter().next() {
            Some(Tier::Peer(_)) => "lowdiff-peer",
            _ => "lowdiff",
        };
        let policy = LowDiffPolicy {
            tiers,
            writer: BatchedWriter::new(cfg.batch_size, cfg.value_codec),
            label,
        };
        let engine = CheckpointEngine::spawn(store, policy, cfg.engine.clone());
        Self {
            cfg,
            optimizer: None,
            engine,
            label,
        }
    }

    /// Attach the Eq.-(5) configuration optimizer so the strategy retunes
    /// itself as [`LowDiffStrategy::observe_runtime`] feeds it fresh MTBF
    /// and bandwidth estimates (the paper's "adapts to runtime metrics
    /// using stepwise adjustments").
    pub fn with_optimizer(mut self, optimizer: crate::config::ConfigOptimizer) -> Self {
        self.cfg.full_every = optimizer.fcf_iters;
        self.set_batch_size(optimizer.batch_size as usize);
        self.optimizer = Some(optimizer);
        self
    }

    /// Retune the batching size at runtime: the policy completes its
    /// in-flight batch at the old size, then switches (differential chains
    /// stay consecutive).
    pub fn set_batch_size(&mut self, batch_size: usize) {
        assert!(batch_size >= 1);
        self.cfg.batch_size = batch_size;
        self.engine.control(PolicyCtl::SetBatchSize(batch_size));
    }

    /// Feed fresh runtime estimates to the attached optimizer; applies the
    /// damped step to the live configuration. Returns the (FCF, BS) now in
    /// effect, or `None` when no optimizer is attached.
    pub fn observe_runtime(
        &mut self,
        mtbf: lowdiff_util::units::Secs,
        write_bw: lowdiff_util::units::Bandwidth,
    ) -> Option<(u64, u64)> {
        let opt = self.optimizer.as_mut()?;
        let (fcf, bs) = opt.observe(mtbf, write_bw);
        if fcf != self.cfg.full_every {
            self.cfg.full_every = fcf;
        }
        if bs as usize != self.cfg.batch_size {
            self.set_batch_size(bs as usize);
        }
        Some((fcf, bs))
    }

    pub fn config(&self) -> &LowDiffConfig {
        &self.cfg
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.engine.store()
    }

    /// Times the training thread hit queue backpressure.
    pub fn backpressure_events(&self) -> u64 {
        self.engine.backpressure_events()
    }

    /// Checkpoint only `spec`'s shard from now on: every full gathers
    /// its ranges of the state and residual straight into the frame. Set
    /// once, by [`crate::ShardedStrategy::new`], before any capture.
    pub(crate) fn gather_shard(&mut self, spec: &ShardSpec) {
        self.engine.gather(spec.ranges().collect());
    }

    /// Whether the full captured at `iteration` is durable, waiting up to
    /// `wait` for its persist to finish: landed (with its state CRC),
    /// failed (a forced re-anchor at a later iteration does not change
    /// that), or `None` still in flight. See
    /// [`CheckpointEngine::full_outcome`].
    pub fn full_outcome(&self, iteration: u64, wait: Duration) -> Option<FullOutcome> {
        self.engine.full_outcome(iteration, wait)
    }
}

impl CheckpointStrategy for LowDiffStrategy {
    fn name(&self) -> &'static str {
        self.label
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.engine.prime_capture(state, aux);
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        _aux: &AuxView<'_>,
    ) -> Secs {
        let t0 = Instant::now();
        // Zero-copy reuse: clone the handle, not the payload (Q.put). A
        // dead checkpointing thread degrades the run; training continues.
        self.engine
            .submit(
                t0,
                Job::Diff {
                    iteration,
                    grad: Arc::clone(grad),
                },
            )
            .stall
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        let scheduled = state.iteration.is_multiple_of(self.cfg.full_every);
        // A dropped differential batch forces an early full checkpoint:
        // the full re-anchors the chain past the gap.
        let forced = self.engine.take_reanchor();
        if !scheduled && !forced {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        // Snapshot: the state + aux (EF residual, compressor, RNG cursor)
        // captured into a pooled frame — no allocation in steady state —
        // so the full is resume-exact, not just parameter-exact; the write
        // happens on the checkpointing thread.
        let sub = self.engine.submit_full(t0, state, aux);
        if sub.delivered {
            if forced {
                self.engine.with_stats(|s| s.forced_fulls += 1);
            }
        } else if forced {
            // Nobody will write the re-anchor; keep the request alive.
            self.engine.request_reanchor();
        }
        sub.stall
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
    use crate::recovery::{recover_serial, recover_sharded};
    use lowdiff_compress::{Compressor, TopK};
    use lowdiff_optim::Adam;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    /// Simulate a training loop with LowDiff attached; return the live
    /// state and the strategy (flushed).
    fn run_training(
        store: Arc<CheckpointStore>,
        cfg: LowDiffConfig,
        psi: usize,
        iters: u64,
    ) -> (ModelState, LowDiffStrategy) {
        let adam = Adam::default();
        let mut comp = TopK::new(0.1);
        let mut rng = DetRng::new(1);
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffStrategy::new(store, cfg);
        // Initial full checkpoint so recovery has an anchor at iter 0.
        strat.after_update(&state, &AuxView::NONE);
        for _ in 0..iters {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            let dense = cg.to_dense();
            state.apply_gradient(&adam, &dense);
            strat.after_update(&state, &AuxView::NONE);
        }
        strat.flush();
        (state, strat)
    }

    #[test]
    fn per_iteration_diffs_and_periodic_fulls() {
        let st = store();
        let cfg = LowDiffConfig {
            full_every: 10,
            batch_size: 3,
            ..LowDiffConfig::default()
        };
        let (_, strat) = run_training(Arc::clone(&st), cfg, 200, 25);
        let stats = strat.stats();
        assert_eq!(stats.diff_checkpoints, 25, "one diff per iteration");
        // Fulls at iterations 0, 10, 20.
        assert_eq!(stats.full_checkpoints, 3);
        assert_eq!(st.full_iterations().unwrap(), vec![0, 10, 20]);
        // 25 diffs at BS=3 → 9 diff writes (8 full batches + flush tail).
        let diff_writes = st.diff_keys().unwrap().len();
        assert_eq!(diff_writes, 9);
    }

    #[test]
    fn recovery_after_crash_is_bit_exact() {
        let st = store();
        let cfg = LowDiffConfig {
            full_every: 7,
            batch_size: 2,
            ..LowDiffConfig::default()
        };
        let (live, strat) = run_training(Arc::clone(&st), cfg, 300, 23);
        drop(strat); // "crash" after flush
        let adam = Adam::default();
        let (rec, report) = recover_serial(&st, &adam).unwrap().unwrap();
        assert_eq!(report.full_iteration, 21);
        assert_eq!(rec.iteration, live.iteration);
        assert_eq!(rec.params, live.params);
        assert_eq!(rec.opt.m, live.opt.m);
        assert_eq!(rec.opt.v, live.opt.v);

        let (rec2, _) = recover_sharded(&st, &adam, 4).unwrap().unwrap();
        assert_eq!(rec2.params, live.params);
    }

    #[test]
    fn unflushed_tail_loses_at_most_a_batch() {
        // Without flush, diffs still buffered in the writer are lost — the
        // "half-batch lost on failure" phenomenon the wasted-time model's
        // b/2 term describes. Recovery must land within batch_size of the
        // crash point.
        let st = store();
        let adam = Adam::default();
        let mut comp = TopK::new(0.1);
        let mut rng = DetRng::new(2);
        let psi = 100;
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 1000, // only the initial full
                batch_size: 4,
                ..LowDiffConfig::default()
            },
        );
        strat.after_update(&state, &AuxView::NONE); // full at 0 — wait, iteration 0 % n == 0
        let iters = 10u64;
        for _ in 0..iters {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
        }
        // Give the async checkpointer a moment, then crash WITHOUT flush.
        std::thread::sleep(std::time::Duration::from_millis(100));
        drop(strat);
        let (rec, _) = recover_serial(&st, &adam).unwrap().unwrap();
        assert!(rec.iteration <= iters);
        assert!(
            rec.iteration >= iters - 4,
            "lost more than one batch: recovered to {} of {iters}",
            rec.iteration
        );
    }

    #[test]
    fn gc_keeps_configured_fulls() {
        let st = store();
        let cfg = LowDiffConfig {
            full_every: 5,
            batch_size: 2,
            keep_fulls: Some(2),
            ..LowDiffConfig::default()
        };
        let (_, strat) = run_training(Arc::clone(&st), cfg, 100, 26);
        drop(strat);
        let fulls = st.full_iterations().unwrap();
        assert_eq!(fulls.len(), 2, "GC must keep exactly 2 fulls: {fulls:?}");
        assert_eq!(fulls, vec![20, 25]);
        // No orphaned diffs from before the oldest kept full.
        for dk in st.diff_keys().unwrap() {
            assert!(dk.end >= 20, "stale diff {dk:?} survived GC");
        }
    }

    #[test]
    fn runtime_retuning_applies_damped_steps() {
        use crate::config::{ConfigOptimizer, WastedTimeModel};
        use lowdiff_util::units::{Bandwidth, ByteSize};

        let st = store();
        let model = WastedTimeModel {
            n_gpus: 8.0,
            mtbf: Secs(30.0),
            write_bw: Bandwidth(146.25e9),
            full_size: ByteSize::f32s(3 * 117_000_000),
            job_time: Secs(3600.0),
            load_full: Secs(0.5),
            merge_diff: Secs(0.024),
            iter_time: Secs(0.12),
        };
        let opt = ConfigOptimizer::new(model, 4, 1);
        let mut strat = LowDiffStrategy::new(st, LowDiffConfig::default()).with_optimizer(opt);
        // Feed the same estimates repeatedly; the config must converge to
        // the Eq.-(5) target (20, 2) through damped steps.
        let mut last = (0, 0);
        for _ in 0..16 {
            last = strat
                .observe_runtime(Secs(30.0), Bandwidth(146.25e9))
                .unwrap();
        }
        assert_eq!(last, (20, 2), "did not converge to the Eq.(5) optimum");
        assert_eq!(strat.config().full_every, 20);
        assert_eq!(strat.config().batch_size, 2);
        strat.flush();
    }

    #[test]
    fn retuned_batch_size_changes_write_granularity() {
        let st = store();
        let adam = Adam::default();
        let mut comp = TopK::new(0.2);
        let mut rng = DetRng::new(3);
        let psi = 64;
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 1000,
                batch_size: 2,
                ..LowDiffConfig::default()
            },
        );
        strat.after_update(&state, &AuxView::NONE); // base full at 0
                                                    // 6 diffs at BS=2 -> 3 writes.
        for _ in 0..6 {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
        }
        strat.flush();
        let before = st.diff_keys().unwrap().len();
        assert_eq!(before, 3);
        // Retune to BS=3 via the public control path. The retune queues
        // behind the jobs before it on the engine's one FIFO, so the new
        // size is in effect for every diff submitted after it.
        strat.set_batch_size(3);
        strat.flush();
        for _ in 0..6 {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
        }
        strat.flush();
        let after = st.diff_keys().unwrap().len();
        assert_eq!(after - before, 2, "6 diffs at BS=3 must be 2 writes");
        // Chain must still be fully consecutive and replayable.
        let (rec, _) = recover_serial(&st, &adam).unwrap().unwrap();
        assert_eq!(rec.params, state.params);
    }

    #[test]
    fn dropped_batch_forces_early_full_and_degrades() {
        use lowdiff_storage::{FaultConfig, FaultyBackend, MemoryBackend, StorageBackend};

        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let adam = Adam::default();
        let mut comp = TopK::new(0.2);
        let mut rng = DetRng::new(7);
        let psi = 64;
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 1000, // no scheduled fulls besides the anchor
                batch_size: 2,
                engine: EngineConfig {
                    retry: lowdiff_storage::RetryPolicy {
                        max_retries: 1,
                        base_delay: std::time::Duration::from_micros(100),
                        max_delay: std::time::Duration::from_micros(500),
                    },
                    ..EngineConfig::default()
                },
                ..LowDiffConfig::default()
            },
        );
        strat.after_update(&state, &AuxView::NONE); // anchor full at 0
        strat.flush();
        assert_eq!(st.full_iterations().unwrap(), vec![0]);

        // Storage goes down: the next batch exhausts its retries and must
        // be dropped — never panicking, never blocking training.
        faulty.fail_all_puts();
        for _ in 0..2 {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
            strat.after_update(&state, &AuxView::NONE);
        }
        strat.flush(); // syncs with the worker; ack must still arrive
        let stats = strat.stats();
        assert!(stats.io_errors >= 1, "exhausted retries must be counted");
        assert!(stats.io_retries >= 1);
        assert_eq!(stats.dropped_batches, 1);
        assert_eq!(stats.dropped_diffs, 2);
        assert!(stats.degraded, "dropped data must flag degraded mode");

        // Storage heals: the very next update must carry the forced full,
        // re-anchoring recovery past the gap.
        faulty.heal();
        let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
        let cg = Arc::new(comp.compress(&g));
        strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &AuxView::NONE); // iteration 3: off-schedule, forced
        strat.flush();
        let stats = strat.stats();
        assert_eq!(stats.forced_fulls, 1, "early full must be scheduled");
        assert_eq!(
            st.full_iterations().unwrap(),
            vec![0, state.iteration],
            "forced full re-anchors at the current iteration"
        );
        let (rec, report) = recover_serial(&st, &Adam::default()).unwrap().unwrap();
        assert_eq!(report.full_iteration, state.iteration);
        assert_eq!(rec.params, state.params, "re-anchored recovery is exact");
    }

    /// The hook's capture is complete when it returns: a hand-driven
    /// caller may overwrite the state at once, even while the worker is
    /// still in an earlier write and has not touched the full yet.
    #[test]
    fn after_update_completes_its_capture_before_returning() {
        use lowdiff_storage::codec::encode_full_checkpoint;
        use lowdiff_storage::{FaultConfig, FaultyBackend};

        // Every put stalls, so the full queues behind the differential's.
        let slow = FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig {
                latency_spike_rate: 1.0,
                latency_spike: std::time::Duration::from_millis(100),
                ..FaultConfig::default()
            },
        );
        let st = Arc::new(CheckpointStore::new(Arc::new(slow)));
        let psi = 70_000;
        let mut rng = DetRng::new(9);
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        rng.fill_normal_f32(&mut state.opt.m, 0.1);
        rng.fill_normal_f32(&mut state.opt.v, 0.01);
        (state.iteration, state.opt.t) = (1, 1);
        let mut residual: Vec<f32> = (0..psi).map(|i| i as f32).collect();
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 1,
                batch_size: 1,
                ..LowDiffConfig::default()
            },
        );
        let grad = Arc::new(TopK::new(0.1).compress(&vec![0.5; psi]));
        strat.on_synced_gradient(0, &grad, &AuxView::NONE);
        let aux = AuxView {
            residual: Some(&residual),
            ..AuxView::NONE
        };
        let want = encode_full_checkpoint(&state, &aux);
        strat.after_update(&state, &aux);
        state.params.fill(-1.0);
        state.opt.m.fill(f32::NAN);
        state.opt.v.fill(7.0);
        residual.fill(3.0);
        strat.flush();
        let got = st.backend().get(&CheckpointStore::full_key(1)).unwrap();
        assert!(got == want, "the stored full holds post-return mutations");
    }

    /// A full that failed stays failed for the per-iteration query, even
    /// after the forced re-anchor one iteration later lands.
    #[test]
    fn failed_full_is_not_answered_by_the_reanchor_after_it() {
        use lowdiff_storage::{FaultConfig, FaultyBackend, StorageBackend};

        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let adam = Adam::default();
        let mut comp = TopK::new(0.2);
        let mut rng = DetRng::new(4);
        let psi = 64;
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 2,
                // No differential write before the final flush.
                batch_size: 100,
                engine: EngineConfig {
                    retry: lowdiff_storage::RetryPolicy::none(),
                    ..EngineConfig::default()
                },
                ..LowDiffConfig::default()
            },
        );
        let mut step = |strat: &mut LowDiffStrategy, state: &mut ModelState| {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
            strat.after_update(state, &AuxView::NONE);
        };
        let wait = Duration::from_secs(10);
        faulty.fail_all_puts();
        step(&mut strat, &mut state);
        step(&mut strat, &mut state); // the scheduled full at 2 fails
        assert_eq!(strat.full_outcome(2, wait), Some(FullOutcome::Failed));
        faulty.heal();
        step(&mut strat, &mut state); // the forced re-anchor at 3 lands
        assert!(matches!(
            strat.full_outcome(3, wait),
            Some(FullOutcome::Landed { .. })
        ));
        assert_eq!(
            strat.full_outcome(2, Duration::ZERO),
            Some(FullOutcome::Failed)
        );
        assert_eq!(strat.full_outcome(1, Duration::ZERO), None, "no full at 1");
        strat.flush();
        assert_eq!(st.full_iterations().unwrap(), vec![3]);
    }

    /// The checkpointing thread refreshes the health blob after each
    /// landed full, before the full's outcome reads "landed": no flush
    /// needed. With `export_health` off it writes none.
    #[test]
    fn landed_full_refreshes_the_health_blob_without_a_flush() {
        for export_health in [true, false] {
            use crate::trainer::{Trainer, TrainerConfig};
            use lowdiff_model::builders::mlp;
            use lowdiff_model::data::Regression;

            let st = store();
            let strat = LowDiffStrategy::new(
                Arc::clone(&st),
                LowDiffConfig {
                    full_every: 3,
                    batch_size: 100,
                    engine: EngineConfig {
                        export_health,
                        ..EngineConfig::default()
                    },
                    ..LowDiffConfig::default()
                },
            );
            let mut tr = Trainer::new(
                mlp(&[4, 8, 2], 1),
                Adam::default(),
                strat,
                TrainerConfig::default(),
            );
            let task = Regression::new(4, 2, 3);
            tr.run_unflushed(4, |net, _t, rng| {
                let (x, y) = task.batch(rng, 8);
                let pred = net.forward(&x);
                lowdiff_model::loss::mse(&pred, &y)
            });
            let strat = tr.strategy();
            assert!(matches!(
                strat.full_outcome(3, Duration::from_secs(10)),
                Some(FullOutcome::Landed { .. })
            ));
            let blob = st.backend().get(crate::engine::HEALTH_KEY);
            if !export_health {
                assert!(blob.is_err(), "health exported with export_health off");
                continue;
            }
            let json = String::from_utf8(blob.expect("health blob after a landed full")).unwrap();
            let count: u64 = json
                .split("\"persist_count\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no persist_count in {json}"));
            assert!(count >= 1, "{json}");
        }
    }

    /// What a test-local [`HealthPuts`] backend does with a health put.
    #[derive(Clone, Copy)]
    enum HealthPut {
        Store,
        Sleep(Duration),
        Fail,
    }

    /// An in-memory backend that counts [`crate::engine::HEALTH_KEY`]
    /// puts and can slow them down or fail them.
    struct HealthPuts {
        inner: MemoryBackend,
        mode: HealthPut,
        puts: std::sync::atomic::AtomicU64,
    }

    impl HealthPuts {
        fn new(mode: HealthPut) -> Arc<Self> {
            Arc::new(Self {
                inner: MemoryBackend::new(),
                mode,
                puts: Default::default(),
            })
        }

        fn health_puts(&self) -> u64 {
            self.puts.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl lowdiff_storage::StorageBackend for HealthPuts {
        fn put(&self, key: &str, data: &[u8]) -> std::io::Result<()> {
            if key == crate::engine::HEALTH_KEY {
                self.puts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                match self.mode {
                    HealthPut::Store => {}
                    HealthPut::Sleep(d) => std::thread::sleep(d),
                    HealthPut::Fail => return Err(std::io::Error::other("health sink down")),
                }
            }
            self.inner.put(key, data)
        }
        fn get(&self, key: &str) -> std::io::Result<Vec<u8>> {
            self.inner.get(key)
        }
        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
        fn delete(&self, key: &str) -> std::io::Result<()> {
            self.inner.delete(key)
        }
        fn bytes_written(&self) -> u64 {
            self.inner.bytes_written()
        }
    }

    /// Run `iters` iterations of LowDiff with a full at every iteration
    /// on `backend`, sleeping `pause` in each step, without a flush; then
    /// wait for every full's outcome and assert that it landed.
    fn full_every_iteration(
        backend: Arc<HealthPuts>,
        iters: u64,
        pause: Duration,
    ) -> crate::trainer::Trainer<LowDiffStrategy> {
        use crate::trainer::{Trainer, TrainerConfig};
        use lowdiff_model::builders::mlp;
        use lowdiff_model::data::Regression;

        let st = Arc::new(CheckpointStore::new(backend));
        let strat = LowDiffStrategy::new(
            st,
            LowDiffConfig {
                full_every: 1,
                ..LowDiffConfig::default()
            },
        );
        let mut tr = Trainer::new(
            mlp(&[4, 8, 2], 1),
            Adam::default(),
            strat,
            TrainerConfig::default(),
        );
        let task = Regression::new(4, 2, 3);
        tr.run_unflushed(iters, |net, _t, rng| {
            std::thread::sleep(pause);
            let (x, y) = task.batch(rng, 8);
            let pred = net.forward(&x);
            lowdiff_model::loss::mse(&pred, &y)
        });
        for t in 1..=iters {
            let outcome = tr.strategy().full_outcome(t, Duration::from_secs(10));
            assert!(
                matches!(outcome, Some(FullOutcome::Landed { .. })),
                "full at {t}: {outcome:?}"
            );
        }
        tr
    }

    /// The `persist_count` of the health blob in `backend`.
    fn health_persist_count(backend: &HealthPuts) -> u64 {
        use lowdiff_storage::StorageBackend;
        let blob = backend.get(crate::engine::HEALTH_KEY).expect("health blob");
        let json = String::from_utf8(blob).unwrap();
        json.split("\"persist_count\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no persist_count in {json}"))
    }

    /// Where a refresh costs far less than the gap between fulls, every
    /// landed full refreshes the health blob before its outcome reads
    /// "landed".
    #[test]
    fn every_landed_full_refreshes_a_cheap_health_blob() {
        let backend = HealthPuts::new(HealthPut::Store);
        let fulls = 5;
        let _tr = full_every_iteration(Arc::clone(&backend), fulls, Duration::from_millis(60));
        assert_eq!(backend.health_puts(), fulls);
    }

    /// A slow health put is refreshed within the time budget: the first
    /// landed full refreshes, later ones only once the budget allows, and
    /// every full still lands. The flush exports a blob that counts every
    /// write.
    #[test]
    fn slow_health_refresh_is_budgeted() {
        let backend = HealthPuts::new(HealthPut::Sleep(Duration::from_millis(40)));
        let fulls = 8;
        let mut tr = full_every_iteration(Arc::clone(&backend), fulls, Duration::from_millis(5));
        let puts = backend.health_puts();
        assert!(
            (1..fulls).contains(&puts),
            "{puts} refreshes for {fulls} fulls"
        );
        tr.strategy_mut().flush();
        let stats = tr.strategy().stats();
        assert!(stats.writes > stats.full_checkpoints, "no batch written");
        assert_eq!(health_persist_count(&backend), stats.writes);
    }

    /// A health sink that fails never costs a checkpoint: every full
    /// lands and the run stays healthy.
    #[test]
    fn failing_health_puts_leave_the_run_healthy() {
        let backend = HealthPuts::new(HealthPut::Fail);
        let mut tr = full_every_iteration(Arc::clone(&backend), 4, Duration::ZERO);
        tr.strategy_mut().flush();
        let stats = tr.strategy().stats();
        assert!(backend.health_puts() >= 1, "no health put attempted");
        assert_eq!(stats.io_errors, 0);
        assert!(!stats.degraded);
        assert!(stats.healthy());
    }

    #[test]
    fn zero_copy_reuse_counted() {
        let st = store();
        let (_, strat) = run_training(Arc::clone(&st), LowDiffConfig::default(), 50, 10);
        // Stall must be microseconds-scale per iteration (pointer moves),
        // not storage-scale. Allow a generous bound for CI noise.
        let stats = strat.stats();
        assert!(
            stats.stall.as_f64() < 0.5,
            "training stall {} too large for zero-copy",
            stats.stall
        );
        assert_eq!(strat.backpressure_events(), 0);
    }

    #[test]
    fn engine_counters_populated() {
        let st = store();
        let cfg = LowDiffConfig {
            full_every: 10,
            batch_size: 3,
            ..LowDiffConfig::default()
        };
        let (_, strat) = run_training(Arc::clone(&st), cfg, 100, 25);
        let e = strat.stats().engine;
        assert_eq!(e.queue_capacity, 64);
        assert_eq!(e.snapshot.count, 28, "25 diffs + 3 fulls submitted");
        assert!(e.persist.count >= 12, "9 diff writes + 3 fulls persisted");
        assert!(e.encode.total.as_f64() >= 0.0);
        assert!(!e.queue_saturated(), "flushed engine must drain its queue");
        // The engine exports its health blob on flush.
        let blob = st.backend().get(crate::engine::HEALTH_KEY).unwrap();
        assert!(!blob.is_empty(), "health blob exported on flush");
    }

    /// LowDiff over `[Tier::Peer(replicas), Tier::Durable { keep }]`.
    fn peer_first(
        store: &Arc<CheckpointStore>,
        cfg: LowDiffConfig,
        net: &Arc<lowdiff_comm::ReplicaNet>,
        replicas: usize,
    ) -> LowDiffStrategy {
        let tiers = TierStack::new(vec![
            Tier::Peer(Arc::new(crate::engine::PeerTier::new(
                Arc::clone(net),
                0,
                replicas,
            ))),
            Tier::Durable {
                store: Arc::clone(store),
                keep: cfg.keep_fulls,
            },
        ]);
        LowDiffStrategy::with_tier_stack(Arc::clone(store), cfg, tiers)
    }

    #[test]
    fn the_label_follows_the_front_tier() {
        let net = lowdiff_comm::ReplicaNet::new(2);
        let st = store();
        let peer = peer_first(&st, LowDiffConfig::default(), &net, 1);
        assert_eq!(peer.name(), "lowdiff-peer");
        let durable_first = TierStack::new(vec![Tier::Durable {
            store: Arc::clone(&st),
            keep: None,
        }]);
        let plain = LowDiffStrategy::with_tier_stack(st, LowDiffConfig::default(), durable_first);
        assert_eq!(plain.name(), "lowdiff");
    }

    /// `keep_fulls` garbage-collects the durable store behind the peer
    /// tier, never the peer replicas: those keep every full and every
    /// differential batch the rank streamed.
    #[test]
    fn keep_fulls_gcs_the_durable_store_not_the_peer_replicas() {
        let store = store();
        let net = lowdiff_comm::ReplicaNet::new(2);
        let cfg = LowDiffConfig {
            full_every: 4,
            batch_size: 2,
            keep_fulls: Some(2),
            ..LowDiffConfig::default()
        };
        let mut strat = peer_first(&store, cfg, &net, 1);
        let (adam, mut comp, mut rng) = (Adam::default(), TopK::new(0.25), DetRng::new(5));
        let mut state = ModelState::new(vec![0.0; 64]);
        strat.prime(&state, &AuxView::NONE);
        for _ in 0..18 {
            let g: Vec<f32> = (0..64).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
            strat.after_update(&state, &AuxView::NONE);
        }
        strat.flush();
        assert_eq!(store.full_iterations().unwrap(), vec![12, 16]);
        assert!(store.diff_keys().unwrap().iter().all(|k| k.end >= 12));
        let peers = crate::engine::peer_recovery_stores(&net, 0);
        assert_eq!(peers.len(), 1);
        let replica = &peers[0].1;
        assert_eq!(replica.full_iterations().unwrap(), vec![4, 8, 12, 16]);
        let diffs: Vec<(u64, u64)> = replica
            .diff_keys()
            .unwrap()
            .iter()
            .map(|k| (k.start, k.end))
            .collect();
        assert_eq!(diffs.len(), 9, "{diffs:?}");
        let stats = strat.stats();
        assert_eq!(stats.tiers[0].name, "peer");
        assert_eq!(stats.tiers[1].name, "durable");
        assert_eq!(stats.full_checkpoints, 4);
    }
}
