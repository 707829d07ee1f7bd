//! The [`CheckpointStrategy`] trait: the contract between the training loop
//! and every checkpointing scheme (LowDiff, LowDiff+, and the baselines in
//! `lowdiff-baselines`).
//!
//! The trainer calls the hooks at the paper's natural interception points:
//!
//! ```text
//! backward ──layer-by-layer──▶ on_layer_gradient    (LowDiff+ reuse point)
//! gradient sync ─────────────▶ on_synced_gradient   (LowDiff reuse point)
//! model update ──────────────▶ after_update         (full-ckpt / diff point)
//! ```
//!
//! A hook's *return value is its stall*: strategies report how long they
//! blocked the training thread (real time for mechanism runs), which the
//! trainer accumulates into [`StrategyStats`] — the quantity every
//! training-time experiment measures.

use crate::engine::{CowTicket, EngineCounters};
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_util::units::Secs;
use std::ops::Range;
use std::sync::Arc;

/// Per-recovery-tier write ledger: how many bytes/acks/errors each tier
/// of the engine's [`crate::engine::TierStack`] saw. Keyed by the tier's
/// stable name ("durable", "memory", "peer"); insertion order is stack
/// order, so index 0 is the primary (highest-recovery-priority) tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    pub name: &'static str,
    /// Bytes acknowledged on this tier (replica bytes for peer tiers).
    pub bytes: u64,
    /// Write/replica acknowledgements.
    pub acks: u64,
    /// Failed writes / dropped replicas on this tier.
    pub errors: u64,
    /// Replica slots the tier refused because the configured fan-out
    /// exceeds the topology (e.g. a peer ring clamps `k` to `ranks − 1`).
    /// Non-zero means the operator asked for more copies than can exist.
    pub clamped: u64,
}

/// Accumulated accounting for one training run.
#[derive(Clone, Debug, Default)]
pub struct StrategyStats {
    /// Time the training thread spent blocked inside strategy hooks.
    pub stall: Secs,
    /// Differential checkpoints produced (before batching).
    pub diff_checkpoints: u64,
    /// Full checkpoints produced.
    pub full_checkpoints: u64,
    /// Storage writes issued (after batching).
    pub writes: u64,
    /// Bytes handed to storage.
    pub bytes_written: u64,
    /// The differential-stream share of `bytes_written` (encoded diff
    /// batches; full checkpoints and dense blobs are the remainder). This
    /// is the stream the varint-delta v2 format shrinks.
    pub diff_bytes_written: u64,
    /// Storage operations that failed even after retries were exhausted.
    pub io_errors: u64,
    /// Retry attempts spent recovering from transient storage failures.
    pub io_retries: u64,
    /// Differential checkpoints lost to storage failures (each widens the
    /// recovery window until the next full checkpoint re-anchors it).
    pub dropped_diffs: u64,
    /// Differential *batches* dropped after retries were exhausted.
    pub dropped_batches: u64,
    /// Early full checkpoints scheduled to re-anchor after a dropped batch.
    pub forced_fulls: u64,
    /// Checkpointing is running degraded: data was dropped, or the
    /// checkpointing worker is gone. Training continues; the recovery
    /// window is wider than configured until a full checkpoint lands.
    pub degraded: bool,
    /// Pipeline counters from the [`crate::engine::CheckpointEngine`]
    /// (queue depths, per-stage latency). Default for strategies that
    /// don't run through an engine.
    pub engine: EngineCounters,
    /// Per-tier write ledger, stack order (empty for strategies that
    /// never persisted through a tier stack).
    pub tiers: Vec<TierStats>,
}

impl StrategyStats {
    /// The ledger entry for tier `name`, created on first touch so the
    /// vector's order mirrors the write fan-out order.
    pub fn tier_mut(&mut self, name: &'static str) -> &mut TierStats {
        if let Some(i) = self.tiers.iter().position(|t| t.name == name) {
            return &mut self.tiers[i];
        }
        self.tiers.push(TierStats {
            name,
            ..TierStats::default()
        });
        self.tiers.last_mut().unwrap()
    }

    pub fn merge(&mut self, other: &StrategyStats) {
        self.stall += other.stall;
        self.diff_checkpoints += other.diff_checkpoints;
        self.full_checkpoints += other.full_checkpoints;
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.diff_bytes_written += other.diff_bytes_written;
        self.io_errors += other.io_errors;
        self.io_retries += other.io_retries;
        self.dropped_diffs += other.dropped_diffs;
        self.dropped_batches += other.dropped_batches;
        self.forced_fulls += other.forced_fulls;
        self.degraded |= other.degraded;
        self.engine.merge(&other.engine);
        for t in &other.tiers {
            let mine = self.tier_mut(t.name);
            mine.bytes += t.bytes;
            mine.acks += t.acks;
            mine.errors += t.errors;
            mine.clamped += t.clamped;
        }
    }

    /// True when any storage trouble was observed (retried, failed, or
    /// dropped work) — the one-glance health check.
    pub fn healthy(&self) -> bool {
        !self.degraded && self.io_errors == 0 && self.dropped_batches == 0
    }
}

/// A checkpointing scheme plugged into the [`crate::trainer::Trainer`].
pub trait CheckpointStrategy: Send {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// One-time warm-up before the first training iteration. `state` and
    /// `aux` have the shape every later capture will have; strategies
    /// backed by a [`crate::engine::CheckpointEngine`] forward this to
    /// [`crate::engine::CheckpointEngine::prime_capture`] so the frame an
    /// anchor captures into is built (and its pages faulted in) off the
    /// anchor path.
    /// Idempotent. Default: no-op.
    fn prime(&mut self, _state: &ModelState, _aux: &AuxView<'_>) {}

    /// A layer's parameter gradient just became available during the
    /// backward pass (fires in reverse layer order). `range` addresses the
    /// layer within the flat gradient. Default: ignore.
    fn on_layer_gradient(
        &mut self,
        _iteration: u64,
        _layer: usize,
        _range: Range<usize>,
        _grad: &[f32],
    ) -> Secs {
        Secs::ZERO
    }

    /// The synchronized (post-allreduce) compressed gradient of this
    /// iteration — the artifact LowDiff reuses. The `Arc` is the zero-copy
    /// handle; cloning it must be the only "transmission". `aux` is the
    /// trainer's auxiliary resume state (EF residual, compressor identity,
    /// data-RNG cursor) at this instant — strategies that persist from
    /// this hook carry it into their checkpoints.
    fn on_synced_gradient(
        &mut self,
        _iteration: u64,
        _grad: &Arc<CompressedGrad>,
        _aux: &AuxView<'_>,
    ) -> Secs {
        Secs::ZERO
    }

    /// The model update completed; `state` is `M_{t+1}`. Full-checkpoint
    /// points and state-diff baselines hook here. `aux` is the auxiliary
    /// resume state belonging to `state` — full checkpoints written from
    /// this hook must persist it (the v2 format carries it) or resume
    /// silently diverges. A full captured here is complete when the hook
    /// returns: the caller may mutate `state` right away.
    fn after_update(&mut self, _state: &ModelState, _aux: &AuxView<'_>) -> Secs {
        Secs::ZERO
    }

    /// Always `None`: every full capture completes inside the hook that
    /// starts it, so nothing is ever left in flight. Kept so strategy
    /// wrappers that forward it keep compiling.
    fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        None
    }

    /// Block until all asynchronous checkpoint work is durable. Called at
    /// run end and before intentionally injected failures in tests.
    fn flush(&mut self) -> Secs {
        Secs::ZERO
    }

    /// Counters accumulated so far.
    fn stats(&self) -> StrategyStats;
}

impl<T: CheckpointStrategy + ?Sized> CheckpointStrategy for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        (**self).prime(state, aux)
    }

    fn on_layer_gradient(
        &mut self,
        iteration: u64,
        layer: usize,
        range: Range<usize>,
        grad: &[f32],
    ) -> Secs {
        (**self).on_layer_gradient(iteration, layer, range, grad)
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        (**self).on_synced_gradient(iteration, grad, aux)
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        (**self).after_update(state, aux)
    }

    fn flush(&mut self) -> Secs {
        (**self).flush()
    }

    fn stats(&self) -> StrategyStats {
        (**self).stats()
    }
}

/// The W/O-CKPT configuration: no checkpointing at all (the paper's
/// upper-bound training speed).
#[derive(Default)]
pub struct NoCheckpoint {
    stats: StrategyStats,
}

impl NoCheckpoint {
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStrategy for NoCheckpoint {
    fn name(&self) -> &'static str {
        "wo-ckpt"
    }

    fn stats(&self) -> StrategyStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_checkpoint_is_free() {
        let mut s = NoCheckpoint::new();
        assert_eq!(s.name(), "wo-ckpt");
        let st = ModelState::new(vec![0.0; 4]);
        assert_eq!(s.after_update(&st, &AuxView::NONE).as_f64(), 0.0);
        assert_eq!(s.flush().as_f64(), 0.0);
        assert_eq!(s.stats().writes, 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = StrategyStats {
            stall: Secs(1.0),
            diff_checkpoints: 2,
            full_checkpoints: 1,
            writes: 3,
            bytes_written: 100,
            diff_bytes_written: 40,
            io_errors: 1,
            io_retries: 2,
            dropped_diffs: 3,
            dropped_batches: 1,
            forced_fulls: 1,
            degraded: false,
            engine: EngineCounters::default(),
            tiers: vec![TierStats {
                name: "durable",
                bytes: 100,
                acks: 2,
                errors: 0,
                clamped: 0,
            }],
        };
        let b = StrategyStats {
            stall: Secs(0.5),
            diff_checkpoints: 1,
            full_checkpoints: 0,
            writes: 1,
            bytes_written: 50,
            diff_bytes_written: 20,
            io_errors: 2,
            io_retries: 5,
            dropped_diffs: 0,
            dropped_batches: 0,
            forced_fulls: 0,
            degraded: true,
            engine: EngineCounters::default(),
            tiers: vec![
                TierStats {
                    name: "durable",
                    bytes: 50,
                    acks: 1,
                    errors: 1,
                    clamped: 0,
                },
                TierStats {
                    name: "peer",
                    bytes: 10,
                    acks: 3,
                    errors: 2,
                    clamped: 0,
                },
            ],
        };
        a.merge(&b);
        assert!((a.stall.as_f64() - 1.5).abs() < 1e-12);
        assert_eq!(a.diff_checkpoints, 3);
        assert_eq!(a.writes, 4);
        assert_eq!(a.bytes_written, 150);
        assert_eq!(a.diff_bytes_written, 60);
        assert_eq!(a.io_errors, 3);
        assert_eq!(a.io_retries, 7);
        assert_eq!(a.dropped_diffs, 3);
        assert_eq!(a.dropped_batches, 1);
        assert_eq!(a.forced_fulls, 1);
        assert!(a.degraded, "degraded is sticky under merge");
        assert_eq!(
            a.tiers,
            vec![
                TierStats {
                    name: "durable",
                    bytes: 150,
                    acks: 3,
                    errors: 1,
                    clamped: 0,
                },
                TierStats {
                    name: "peer",
                    bytes: 10,
                    acks: 3,
                    errors: 2,
                    clamped: 0,
                },
            ],
            "tier ledgers merge by name, unseen tiers append in order"
        );
    }

    #[test]
    fn healthy_reflects_storage_trouble() {
        let mut s = StrategyStats::default();
        assert!(s.healthy());
        s.io_retries = 3; // retried-but-recovered is still healthy
        assert!(s.healthy());
        s.io_errors = 1;
        assert!(!s.healthy());
    }
}
