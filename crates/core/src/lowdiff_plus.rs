//! [`LowDiffPlusStrategy`] — Algorithm 2: gradient reuse *without*
//! compression (§5).
//!
//! Three mechanisms, matching the paper's design:
//!
//! * **Layer-wise reuse & snapshotting** — each layer's gradient is copied
//!   to host memory the moment the backward pass produces it, and the
//!   placement into the staging buffer runs on a snapshot thread pool
//!   (`P_s`), overlapping with the remainder of backpropagation.
//! * **CPU-resident model replica** — the checkpointing thread owns a full
//!   `M^C` copy of the model state and applies Adam to it with the reused
//!   gradients, keeping an always-up-to-date *in-memory checkpoint*
//!   (per-iteration frequency, Exp. 4's LowDiff+(S)).
//! * **Asynchronous persistence** — every `persist_every` iterations the
//!   replica is captured into a frame from the engine's ticket pool and
//!   written to storage as a plain full checkpoint, off the training
//!   thread's critical path (LowDiff+(P)). No differential blobs
//!   are ever written: gradients are *fused* into the replica instead
//!   (the §5.2 write-volume argument).
//!
//! The strategy is an adapter over [`crate::engine::CheckpointEngine`]:
//! the staging pool stays on the training side (it *is* the snapshot
//! stage), while the replica update + persistence run as
//! a private `LowDiffPlusPolicy` on the engine's checkpointing thread.
//!
//! Failure model (§5.3): a **software** failure leaves the checkpointing
//! thread's memory intact → recover instantly from the replica
//! ([`LowDiffPlusStrategy::recover_software`]); a **hardware** failure
//! loses host memory → recover from the last persisted full checkpoint
//! ([`LowDiffPlusStrategy::recover_hardware`]).

use crate::engine::{
    CheckpointEngine, CheckpointPolicy, EngineConfig, EngineCtx, FullOpts, Job, TierStack,
};
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_comm::SyncPool;
use lowdiff_compress::AuxView;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use lowdiff_util::BufferPool;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`LowDiffPlusStrategy`].
#[derive(Clone, Debug)]
pub struct LowDiffPlusConfig {
    /// Persist the CPU replica to storage every this many iterations.
    pub persist_every: u64,
    /// Snapshot thread-pool size (`P_s`).
    pub snapshot_threads: usize,
    /// Optimizer the replica loop applies the reused gradients with. MUST
    /// match the trainer's Adam hyperparameters or the replica drifts from
    /// the live model (the update `M^C ← Adam(M^C, g)` replays training).
    pub adam: Adam,
    /// The checkpoint engine underneath. Its retry policy covers
    /// persisting the replica: a persist that fails even after retries is
    /// skipped — the replica itself stays correct and the next persist
    /// interval re-anchors durable recovery.
    pub engine: EngineConfig,
}

/// Dense staging buffers preallocated at attach time. Each in-flight
/// iteration (queued behind a slow persist) holds one Ψ-sized buffer, so
/// this is the pipeline depth the strategy absorbs without allocating on
/// the training thread; deeper bursts fall back to allocation. Memory cost:
/// `STAGING_DEPTH × 4Ψ` bytes.
const STAGING_DEPTH: usize = 24;

impl Default for LowDiffPlusConfig {
    fn default() -> Self {
        Self {
            persist_every: 10,
            snapshot_threads: 4,
            adam: Adam::default(),
            engine: EngineConfig::default(),
        }
    }
}

/// The scheme half of Algorithm 2 (lines 8–13): apply reused gradients to
/// the CPU replica, persist it periodically. Runs on the engine's
/// checkpointing thread.
struct LowDiffPlusPolicy {
    tiers: TierStack,
    /// The CPU-resident replica `M^C` (shared with the adapter for
    /// software-failure recovery).
    replica: Arc<Mutex<ModelState>>,
    persist_every: u64,
    adam: Adam,
    /// Returns consumed staged gradients to the adapter's staging pool so
    /// the per-iteration dense buffer is recycled, not reallocated.
    staging_pool: Arc<BufferPool<f32>>,
}

impl CheckpointPolicy for LowDiffPlusPolicy {
    fn name(&self) -> &'static str {
        "lowdiff+"
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        let Job::Dense {
            iteration,
            grad,
            compressor,
            rng,
        } = job
        else {
            debug_assert!(false, "lowdiff+ submits dense gradients");
            return;
        };
        let mut m_c = self.replica.lock();
        debug_assert_eq!(m_c.iteration, iteration, "replica fell out of step");
        m_c.apply_gradient(&self.adam, &grad); // update in CPU (line 12)

        // A persist interval captures the replica plus the aux state of the
        // job whose fusion produced it, so the full is resume-exact, not
        // just parameter-exact.
        let aux = AuxView {
            residual: None, // the non-compression scenario has no EF
            compressor,
            rng,
            quant: None, // no compression, so no precision policy
        };
        let ticket = if m_c.iteration.is_multiple_of(self.persist_every) {
            cx.capture(&m_c, &aux)
        } else {
            None
        };
        drop(m_c); // never hold the replica lock across storage I/O
        self.staging_pool.put(grad); // recycle the staged dense buffer
        cx.with_stats(|s| s.diff_checkpoints += 1); // one in-memory ckpt per iter
        if let Some(mut ticket) = ticket {
            // A persist that fails is skipped: the in-memory replica is
            // still exact (software recovery unaffected); durable recovery
            // falls back to the previous persisted full until the next
            // interval lands. Hence no re-anchor request.
            cx.persist_capture(&self.tiers, &mut ticket, &FullOpts::durable());
        }
    }
}

/// LowDiff+ checkpointing strategy.
pub struct LowDiffPlusStrategy {
    cfg: LowDiffPlusConfig,
    psi: usize,
    /// Host-memory staging buffer the snapshot pool writes into.
    staging: Arc<Mutex<Vec<f32>>>,
    /// Recycles staged dense buffers: the policy returns each consumed
    /// `Job::Dense` gradient here, `on_synced_gradient` reuses it as the
    /// next staging buffer (double-buffered — no steady-state allocation).
    staging_pool: Arc<BufferPool<f32>>,
    /// Recycles the per-layer D2H copies made in `on_layer_gradient`.
    layer_pool: Arc<BufferPool<f32>>,
    pool: SyncPool,
    /// The CPU-resident replica `M^C` (shared with the policy).
    replica: Arc<Mutex<ModelState>>,
    engine: CheckpointEngine,
}

impl LowDiffPlusStrategy {
    /// `initial` must equal the training-side model state at attach time
    /// (the paper initializes `M^C` with a deep copy of the GPU model).
    pub fn new(store: Arc<CheckpointStore>, cfg: LowDiffPlusConfig, initial: ModelState) -> Self {
        assert!(cfg.persist_every >= 1);
        let psi = initial.num_params();
        let staging = Arc::new(Mutex::new(vec![0.0f32; psi]));
        // The staging ring: preallocate the whole pipeline depth so a
        // burst of iterations queued behind a slow persist recycles these
        // instead of allocating per iteration on the training thread.
        let staging_pool = Arc::new(BufferPool::new(STAGING_DEPTH));
        for _ in 0..STAGING_DEPTH {
            staging_pool.put(Vec::with_capacity(psi));
        }
        let layer_pool = Arc::new(BufferPool::new(2 * cfg.snapshot_threads.max(1)));
        let replica = Arc::new(Mutex::new(initial));
        let policy = LowDiffPlusPolicy {
            tiers: TierStack::durable(Arc::clone(&store)),
            replica: Arc::clone(&replica),
            persist_every: cfg.persist_every,
            adam: cfg.adam,
            staging_pool: Arc::clone(&staging_pool),
        };
        let engine = CheckpointEngine::spawn(store, policy, cfg.engine.clone());
        Self {
            pool: SyncPool::new(cfg.snapshot_threads),
            cfg,
            psi,
            staging,
            staging_pool,
            layer_pool,
            replica,
            engine,
        }
    }

    pub fn config(&self) -> &LowDiffPlusConfig {
        &self.cfg
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.engine.store()
    }

    /// Software-failure recovery: the checkpointing side survived, so the
    /// in-memory replica *is* the checkpoint. O(copy), no storage I/O.
    pub fn recover_software(&self) -> ModelState {
        self.replica.lock().clone()
    }

    /// Hardware-failure recovery: host memory is gone; reload the newest
    /// valid persisted full checkpoint.
    pub fn recover_hardware(store: &CheckpointStore) -> std::io::Result<Option<ModelState>> {
        store.latest_valid_full()
    }

    /// Iteration the in-memory replica has reached (for tests/metrics).
    pub fn replica_iteration(&self) -> u64 {
        self.replica.lock().iteration
    }

    /// Adam instance the replica loop applies gradients with; configured
    /// via [`LowDiffPlusConfig::adam`] and must match the trainer's.
    pub fn replica_adam(&self) -> Adam {
        self.cfg.adam
    }
}

impl CheckpointStrategy for LowDiffPlusStrategy {
    fn name(&self) -> &'static str {
        "lowdiff+"
    }

    fn on_layer_gradient(
        &mut self,
        _iteration: u64,
        _layer: usize,
        range: Range<usize>,
        grad: &[f32],
    ) -> Secs {
        let t0 = Instant::now();
        // Own the layer gradient (the D2H copy, into a pooled buffer),
        // then let the snapshot pool place it into the staging buffer
        // concurrently with the rest of backpropagation.
        let mut owned = self.layer_pool.get();
        owned.extend_from_slice(grad);
        let staging = Arc::clone(&self.staging);
        let layer_pool = Arc::clone(&self.layer_pool);
        self.pool.execute(move || {
            {
                let mut buf = staging.lock();
                buf[range].copy_from_slice(&owned);
            }
            layer_pool.put(owned);
        });
        self.engine.note_stall(t0)
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        _grad: &Arc<lowdiff_compress::CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        let t0 = Instant::now();
        // H_s.wait(): all layer snapshots of this iteration must be staged.
        self.pool.wait();
        // Hand the complete gradient to the replica thread and reset the
        // staging buffer for the next iteration. The replacement comes
        // from the staging pool (fed by the policy once it has fused the
        // previous gradient), so steady state swaps between two buffers.
        let mut fresh = self.staging_pool.get(); // cleared: resize zero-fills
        fresh.resize(self.psi, 0.0);
        let grad = {
            let mut buf = self.staging.lock();
            std::mem::replace(&mut *buf, fresh)
        };
        self.engine
            .submit(
                t0,
                Job::Dense {
                    iteration,
                    grad,
                    compressor: aux.compressor,
                    rng: aux.rng,
                },
            )
            .stall
    }

    fn flush(&mut self) -> Secs {
        let t0 = Instant::now();
        self.pool.wait();
        let staged = self.engine.note_stall(t0);
        staged + self.engine.flush()
    }

    fn stats(&self) -> StrategyStats {
        self.engine.stats()
    }
}

impl Drop for LowDiffPlusStrategy {
    fn drop(&mut self) {
        // Settle the snapshot pool before the engine (dropped after this
        // body) closes its queue, drains outstanding gradients into the
        // replica, and joins the worker.
        self.pool.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{Trainer, TrainerConfig};
    use lowdiff_model::builders::mlp;
    use lowdiff_model::data::Regression;
    use lowdiff_model::loss::mse;
    use lowdiff_model::Network;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    fn step_fn(seed: u64) -> impl FnMut(&mut Network, u64) -> (f64, lowdiff_tensor::Tensor) {
        let task = Regression::new(5, 2, 99);
        let mut rng = DetRng::new(seed);
        move |net, _| {
            let (x, y) = task.batch(&mut rng, 8);
            let pred = net.forward(&x);
            mse(&pred, &y)
        }
    }

    fn make_trainer(st: Arc<CheckpointStore>, persist_every: u64) -> Trainer<LowDiffPlusStrategy> {
        let net = mlp(&[5, 16, 2], 21);
        let initial = ModelState::new(net.params_flat());
        let strat = LowDiffPlusStrategy::new(
            st,
            LowDiffPlusConfig {
                persist_every,
                snapshot_threads: 3,
                ..LowDiffPlusConfig::default()
            },
            initial,
        );
        Trainer::new(
            net,
            Adam::default(),
            strat,
            // LowDiff+ is the non-compression scenario.
            TrainerConfig {
                compress_ratio: None,
                error_feedback: false,
                ..TrainerConfig::default()
            },
        )
    }

    #[test]
    fn replica_tracks_training_state_exactly() {
        let st = store();
        let mut tr = make_trainer(Arc::clone(&st), 5);
        tr.run(12, step_fn(1));
        let live = tr.state().clone();
        // In-memory checkpoint == live state (software-failure recovery).
        let replica = tr.strategy().recover_software();
        assert_eq!(replica.iteration, live.iteration);
        assert_eq!(
            replica.params, live.params,
            "replica drifted from GPU state"
        );
        assert_eq!(replica.opt.m, live.opt.m);
        assert_eq!(replica.opt.v, live.opt.v);
    }

    #[test]
    fn software_recovery_is_instant_and_exact_mid_run() {
        let st = store();
        let mut tr = make_trainer(Arc::clone(&st), 100); // rarely persists
        tr.run(7, step_fn(2));
        let live = tr.state().clone();
        let rec = tr.strategy().recover_software();
        assert_eq!(rec.iteration, 7);
        assert_eq!(rec.params, live.params);
    }

    #[test]
    fn hardware_recovery_uses_persisted_fulls() {
        let st = store();
        let mut tr = make_trainer(Arc::clone(&st), 4);
        tr.run(10, step_fn(3));
        drop(tr); // hardware failure: replica memory gone
        let rec = LowDiffPlusStrategy::recover_hardware(&st).unwrap().unwrap();
        // Persists happened at replica iterations 4 and 8.
        assert_eq!(rec.iteration, 8);
        assert_eq!(st.full_iterations().unwrap(), vec![4, 8]);
    }

    #[test]
    fn no_differential_blobs_are_written() {
        // §5.2: gradients are fused into the replica, never persisted
        // separately.
        let st = store();
        let mut tr = make_trainer(Arc::clone(&st), 3);
        tr.run(9, step_fn(4));
        drop(tr);
        assert!(st.diff_keys().unwrap().is_empty());
        assert_eq!(st.full_iterations().unwrap().len(), 3);
    }

    #[test]
    fn failed_persist_is_skipped_replica_stays_exact() {
        use lowdiff_storage::{FaultConfig, FaultyBackend, StorageBackend};

        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let net = mlp(&[5, 16, 2], 21);
        let initial = ModelState::new(net.params_flat());
        let strat = LowDiffPlusStrategy::new(
            Arc::clone(&st),
            LowDiffPlusConfig {
                persist_every: 4,
                snapshot_threads: 2,
                engine: EngineConfig {
                    retry: lowdiff_storage::RetryPolicy {
                        max_retries: 1,
                        base_delay: std::time::Duration::from_micros(100),
                        max_delay: std::time::Duration::from_micros(500),
                    },
                    ..EngineConfig::default()
                },
                ..LowDiffPlusConfig::default()
            },
            initial,
        );
        let mut tr = Trainer::new(
            net,
            Adam::default(),
            strat,
            TrainerConfig {
                compress_ratio: None,
                error_feedback: false,
                ..TrainerConfig::default()
            },
        );
        // Outage spans the first persist point (iteration 4): it must be
        // skipped without panicking, and the replica must stay exact.
        faulty.fail_all_puts();
        tr.run(5, step_fn(6));
        faulty.heal();
        tr.run(5, step_fn(7)); // persist at replica iteration 8 lands
        let live = tr.state().clone();
        let rec = tr.strategy().recover_software();
        assert_eq!(rec.params, live.params, "replica must survive the outage");
        let stats = tr.strategy().stats();
        assert!(stats.io_errors >= 1, "skipped persist must be counted");
        assert!(stats.degraded);
        drop(tr);
        let durable = LowDiffPlusStrategy::recover_hardware(&st).unwrap().unwrap();
        assert_eq!(durable.iteration, 8, "post-outage persist re-anchors");
    }

    /// Replica fulls go through one pooled frame: after several persist
    /// intervals the pool has built exactly one, and each stored full is
    /// the blocking encode of the replica plus the aux state its fusion
    /// carried.
    #[test]
    fn replica_fulls_reuse_one_frame_and_match_the_blocking_encode() {
        use lowdiff_compress::CompressorCfg;
        use lowdiff_storage::codec::encode_full_checkpoint;
        let st = store();
        let psi = 40;
        let mut rng = DetRng::new(8);
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        let mut strat = LowDiffPlusStrategy::new(
            Arc::clone(&st),
            LowDiffPlusConfig {
                persist_every: 3,
                snapshot_threads: 2,
                ..LowDiffPlusConfig::default()
            },
            state.clone(),
        );
        let dummy = Arc::new(lowdiff_compress::CompressedGrad::Sparse(
            lowdiff_compress::SparseGrad::new(psi, Vec::new(), Vec::new()),
        ));
        let adam = Adam::default();
        let mut want = Vec::new();
        for t in 0..10u64 {
            let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
            let aux = AuxView {
                compressor: Some(CompressorCfg::topk(0.01 * (t + 1) as f64)),
                rng: Some([t, 2 * t, 3 * t, 4 * t]),
                ..AuxView::NONE
            };
            strat.on_layer_gradient(t, 0, 0..psi, &g);
            strat.on_synced_gradient(t, &dummy, &aux);
            state.apply_gradient(&adam, &g);
            if state.iteration.is_multiple_of(3) {
                want.push((state.iteration, encode_full_checkpoint(&state, &aux)));
            }
        }
        strat.flush();
        assert_eq!(
            strat.engine.tickets_built(),
            1,
            "one frame serves every full"
        );
        assert_eq!(st.full_iterations().unwrap(), vec![3, 6, 9]);
        for (it, bytes) in want {
            let got = st.backend().get(&CheckpointStore::full_key(it)).unwrap();
            assert!(
                got == bytes,
                "replica full {it} differs from the blocking encode"
            );
        }
    }

    #[test]
    fn in_memory_checkpoint_frequency_is_per_iteration() {
        let st = store();
        let mut tr = make_trainer(Arc::clone(&st), 1000);
        let report = tr.run(15, step_fn(5));
        assert_eq!(
            report.stats.diff_checkpoints, 15,
            "one in-memory checkpoint per iteration"
        );
        assert_eq!(tr.strategy().replica_iteration(), 15);
    }
}
