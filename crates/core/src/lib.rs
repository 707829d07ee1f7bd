//! # lowdiff — the paper's core contribution
//!
//! An efficient frequent-checkpointing framework that **reuses compressed
//! gradients as differential checkpoints** (SC 2025). The pieces map to the
//! paper one-to-one:
//!
//! | Paper | Module |
//! |---|---|
//! | Reusing Queue + zero-copy IPC (§4.1) | [`CheckpointEngine::submit`]'s bounded job queue carrying `Arc<CompressedGrad>` handles ([`Job::Diff`]) |
//! | Algorithm 1 (training/checkpointing/recovery) | [`strategy`], [`lowdiff::LowDiffStrategy`], [`recovery`] |
//! | Batched gradient writing, steps ①②③ (§4.2) | [`batched::BatchedWriter`] |
//! | Optimal configuration, Eq. (3)–(5) (§4.3) | [`config`] |
//! | Parallel recovery (§6, Fig. "Parallel Fast Recovery") | [`recovery`] |
//! | LowDiff+ / Algorithm 2 (§5) | [`lowdiff_plus::LowDiffPlusStrategy`] |
//! | Gemini / Checkmate recovery tiers (memory, peer replicas) | [`engine::Tier`], [`peer::PeerReplicateStrategy`] |
//!
//! The [`trainer::Trainer`] drives real model training with a pluggable
//! [`strategy::CheckpointStrategy`]; the baselines crate implements
//! CheckFreq/Gemini/Naïve-DC against the same trait so every comparison in
//! the experiments is apples-to-apples.

#![forbid(unsafe_code)]

pub mod batched;
pub mod config;
pub mod engine;
pub mod lowdiff;
pub mod lowdiff_plus;
pub mod peer;
pub mod pipeline;
pub mod recovery;
pub mod shard;
pub mod strategy;
pub mod trainer;

pub use batched::BatchedWriter;
pub use config::{ConfigOptimizer, WastedTimeModel};
pub use engine::{
    CheckpointEngine, CheckpointPolicy, CowTicket, CrashInjector, CrashPoint, EngineConfig,
    EngineCounters, EngineCtx, FullOpts, Job, PeerTier, PolicyCtl, StageLatency, Tier, TierStack,
    ALL_CRASH_POINTS,
};
pub use lowdiff::{LowDiffConfig, LowDiffStrategy};
pub use lowdiff_compress::{AuxState, AuxView, CompressorCfg, CompressorKind};
pub use lowdiff_plus::{LowDiffPlusConfig, LowDiffPlusStrategy};
pub use peer::PeerReplicateStrategy;
pub use recovery::{recover_serial, recover_sharded};
pub use shard::ShardedStrategy;
pub use strategy::{CheckpointStrategy, NoCheckpoint, StrategyStats, TierStats};
pub use trainer::{
    RecoverySource, ResumeOpts, ResumeReport, Trainer, TrainerConfig, TrainerReport,
};
