//! [`PeerReplicateStrategy`] — Checkmate-style peer replication on top of
//! the unchanged LowDiff scheme.
//!
//! Checkmate's observation is that the compressed gradient state LowDiff
//! already holds on every rank makes checkpointing effectively free if it
//! is replicated over the training network instead of waiting on durable
//! storage. This strategy is exactly LowDiff with a different recovery
//! stack:
//!
//! ```text
//! [ Tier::Peer(k)       — front: each diff/full streamed to k ring peers
//! , Tier::Durable       — best-effort durable trailer, GC'd to keep_fulls ]
//! ```
//!
//! The peer tier acknowledges (a checkpoint "lands" once a peer holds
//! it); the durable tier trails best-effort, so a storage stall never
//! widens the recovery window. A lost rank is rebuilt from a surviving
//! peer's replicas with **no storage round-trip** —
//! [`crate::engine::peer_recovery_stores`] hands
//! [`crate::trainer::Trainer::resume_tiered`] the peer stores, with
//! durable storage as the last resort.

use crate::engine::{PeerTier, Tier, TierStack};
use crate::lowdiff::{LowDiffConfig, LowDiffStrategy};
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_comm::ReplicaNet;
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_storage::CheckpointStore;
use lowdiff_util::units::Secs;
use std::sync::Arc;

/// LowDiff over a `[Tier::Peer(k), Tier::Durable]` recovery stack.
/// All scheme decisions (batching, full cadence, GC, re-anchor) are
/// [`LowDiffStrategy`]'s, untouched — only the write fan-out differs.
pub struct PeerReplicateStrategy {
    inner: LowDiffStrategy,
    tier: Arc<PeerTier>,
}

impl PeerReplicateStrategy {
    /// `rank` is this worker's position on `net`; every checkpoint object
    /// is streamed to its `replicas` ring successors.
    pub fn new(
        store: Arc<CheckpointStore>,
        cfg: LowDiffConfig,
        net: Arc<ReplicaNet>,
        rank: usize,
        replicas: usize,
    ) -> Self {
        let tier = Arc::new(PeerTier::new(net, rank, replicas));
        let tiers = TierStack::new(vec![
            Tier::Peer(Arc::clone(&tier)),
            Tier::Durable {
                store: Arc::clone(&store),
                keep: cfg.keep_fulls,
            },
        ]);
        let inner = LowDiffStrategy::with_tier_stack(store, cfg, tiers, "lowdiff-peer");
        Self { inner, tier }
    }

    pub fn config(&self) -> &LowDiffConfig {
        self.inner.config()
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.inner.store()
    }

    /// Replicas still queued for re-replication (their peer was down).
    pub fn pending_replicas(&self) -> usize {
        self.tier.pending_replicas()
    }
}

impl CheckpointStrategy for PeerReplicateStrategy {
    fn name(&self) -> &'static str {
        "lowdiff-peer"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.inner.prime(state, aux);
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        self.inner.on_synced_gradient(iteration, grad, aux)
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
    use crate::engine::peer_recovery_stores;
    use lowdiff_compress::{Compressor, TopK};
    use lowdiff_optim::Adam;
    use lowdiff_storage::MemoryBackend;
    use lowdiff_util::DetRng;

    /// `keep_fulls` garbage-collects the durable store behind the peer
    /// tier, never the peer replicas: those keep every full and every
    /// differential batch the rank streamed.
    #[test]
    fn keep_fulls_gcs_the_durable_store_not_the_peer_replicas() {
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let net = ReplicaNet::new(2);
        let cfg = LowDiffConfig {
            full_every: 4,
            batch_size: 2,
            keep_fulls: Some(2),
            ..LowDiffConfig::default()
        };
        let mut strat = PeerReplicateStrategy::new(Arc::clone(&store), cfg, Arc::clone(&net), 0, 1);
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
        let peers = peer_recovery_stores(&net, 0);
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
