//! CheckFreq: snapshot/persist pipelining (Mohan et al., FAST '21).
//!
//! The checkpoint operation is split in two:
//!
//! * **snapshot** — copy the model state out of the "GPU" (blocking; the
//!   model update of the next iteration must not overwrite state being
//!   checkpointed — the WAR dependency §3.4 discusses);
//! * **persist** — write the snapshot to storage on a background thread.
//!
//! The pipeline has depth 1: if the previous persist has not finished when
//! the next snapshot is due, the training thread stalls — exactly how
//! CheckFreq degrades at high checkpoint frequency (Exp. 1/4).
//!
//! Implemented as a [`CheckpointEngine`] with `queue_capacity = 1`: the
//! bounded job queue *is* the depth-1 pipeline (one persist running, one
//! snapshot queued; the next submit blocks).

use lowdiff::engine::{
    CheckpointEngine, CheckpointPolicy, CowTicket, EngineConfig, EngineCtx, FullOpts, Job,
    TierStack,
};
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use std::sync::Arc;
use std::time::Instant;

/// The persist side of CheckFreq: write each snapshot as a durable full; a
/// failed write is skipped (recovery falls back to the previous full).
struct CheckFreqPolicy {
    tiers: TierStack,
}

impl CheckpointPolicy for CheckFreqPolicy {
    fn name(&self) -> &'static str {
        "checkfreq"
    }

    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>) {
        match job {
            Job::Full(snap) => {
                cx.persist_full(&self.tiers, &snap.state, &snap.aux(), &FullOpts::durable());
                cx.recycle_state(snap);
            }
            Job::IncrementalFull(ticket) => {
                // Incremental capture: sweep cold chunks, seal, persist the
                // finished frame (byte-identical to the blocking path).
                if cx.finish_capture(&ticket) {
                    cx.persist_full_encoded(
                        &self.tiers,
                        ticket.iteration(),
                        ticket.sealed_bytes(),
                        &FullOpts::durable(),
                    );
                }
                cx.release_ticket(ticket);
            }
            _ => debug_assert!(false, "checkfreq submits full snapshots"),
        }
    }
}

/// CheckFreq checkpointing strategy.
pub struct CheckFreqStrategy {
    every: u64,
    engine: CheckpointEngine,
}

impl CheckFreqStrategy {
    pub fn new(store: Arc<CheckpointStore>, every: u64) -> Self {
        Self::with_engine_config(store, every, EngineConfig::default())
    }

    /// Full-control constructor (crash injection, health export, …). The
    /// depth-1 pipeline is part of the scheme, so `queue_capacity` is
    /// always pinned to 1 regardless of `cfg`.
    pub fn with_engine_config(store: Arc<CheckpointStore>, every: u64, cfg: EngineConfig) -> Self {
        assert!(every >= 1);
        let policy = CheckFreqPolicy {
            tiers: TierStack::durable(Arc::clone(&store)),
        };
        // Depth-1 pipeline: one persist may be queued while one runs; a
        // capacity-1 job queue gives snapshot-vs-persist overlap of exactly
        // one checkpoint, as in the paper's design.
        let engine = CheckpointEngine::spawn(
            store,
            policy,
            EngineConfig {
                queue_capacity: 1,
                ..cfg
            },
        );
        Self { every, engine }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.engine.store()
    }
}

impl CheckpointStrategy for CheckFreqStrategy {
    fn name(&self) -> &'static str {
        "checkfreq"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.engine.prime_capture(state, aux);
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        if !state.iteration.is_multiple_of(self.every) {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        // Snapshot: blocking copy (the GPU→CPU `snapshot()` op) into a
        // recycled engine slot, then enqueue for persist; blocks when the
        // pipeline is full — the CheckFreq stall at high frequency. A dead
        // persist thread degrades the run instead of aborting training.
        self.engine.submit_full(t0, state, aux).stall
    }

    fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        self.engine.take_pending_capture()
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
    use lowdiff_storage::{MemoryBackend, StorageBackend, ThrottledBackend};
    use lowdiff_util::units::Bandwidth;

    fn store() -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
    }

    #[test]
    fn persists_asynchronously_on_schedule() {
        let st = store();
        let mut s = CheckFreqStrategy::new(Arc::clone(&st), 3);
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
        // With a slow (simulated-bandwidth-accounted) backend, the first
        // snapshot must return quickly: persist happens off-thread.
        let throttled = ThrottledBackend::new(MemoryBackend::new(), Bandwidth::mbps_bytes(10.0));
        let st = Arc::new(CheckpointStore::new(
            Arc::new(throttled) as Arc<dyn StorageBackend>
        ));
        let mut s = CheckFreqStrategy::new(Arc::clone(&st), 1);
        let mut state = ModelState::new(vec![0.0; 50_000]);
        state.iteration = 1;
        let stall = s.after_update(&state, &AuxView::NONE);
        // Snapshot = clone + enqueue only; generous CI bound.
        assert!(stall.as_f64() < 0.2, "snapshot blocked on persist: {stall}");
        s.flush();
        assert_eq!(s.stats().full_checkpoints, 1);
    }

    #[test]
    fn recovery_gets_last_persisted() {
        let st = store();
        let mut s = CheckFreqStrategy::new(Arc::clone(&st), 2);
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
        use lowdiff_storage::{FaultConfig, FaultyBackend};
        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st = Arc::new(CheckpointStore::new(
            Arc::clone(&faulty) as Arc<dyn StorageBackend>
        ));
        let mut s = CheckFreqStrategy::with_engine_config(
            Arc::clone(&st),
            1,
            EngineConfig {
                retry: lowdiff_storage::RetryPolicy {
                    max_retries: 1,
                    base_delay: std::time::Duration::from_micros(100),
                    max_delay: std::time::Duration::from_micros(500),
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
        let mut s = CheckFreqStrategy::new(st, 1);
        let mut state = ModelState::new(vec![0.0; 8]);
        state.iteration = 1;
        s.after_update(&state, &AuxView::NONE);
        drop(s); // must not hang
    }
}
