//! [`CheckpointPolicy`] — what remains of a checkpointing strategy once
//! the pipeline mechanics (queues, threads, retry, stats) move into the
//! engine: *what to capture*, *full vs diff*, *batch boundaries*.

use super::cow::CowTicket;
use super::persist::EngineCtx;
use lowdiff_compress::{CompressedGrad, CompressorCfg};
use std::sync::Arc;

/// One unit of checkpoint work flowing through the engine pipeline. The
/// snapshot stage (training thread) produces jobs; the worker hands them
/// to the policy, which encodes and persists through [`EngineCtx`].
pub enum Job {
    /// A full checkpoint of the model + aux state, already captured into
    /// its wire frame on the training thread. The policy seals and
    /// persists it ([`EngineCtx::persist_capture`]); dropping the ticket
    /// returns its frame to the pool.
    Full(CowTicket),
    /// A reused compressed gradient — LowDiff's zero-copy differential
    /// (the `Arc` is the IPC handle; cloning it is the only transmission).
    Diff {
        iteration: u64,
        grad: Arc<CompressedGrad>,
    },
    /// A dense staged gradient — LowDiff+'s replica-fusion input. Carries
    /// the compressor identity and data-RNG cursor so replica-side fulls
    /// are resume-exact.
    Dense {
        iteration: u64,
        grad: Vec<f32>,
        compressor: Option<CompressorCfg>,
        rng: Option<[u64; 4]>,
    },
}

/// Runtime reconfiguration delivered to the policy on the worker thread,
/// in order with the jobs submitted around it.
pub enum PolicyCtl {
    /// Flush the in-flight batch and continue with a new batching size
    /// (the Eq.-(5) optimizer's runtime retuning).
    SetBatchSize(usize),
}

/// The per-strategy decisions, run by the engine (on the worker thread
/// for async engines, inline for synchronous ones).
pub trait CheckpointPolicy: Send + 'static {
    /// Scheme name for reports and the exported health blob.
    fn name(&self) -> &'static str;

    /// Training-side gate read through [`super::CheckpointEngine::wants_capture`]
    /// on inline engines only: should `after_update` at `iteration`
    /// produce a job at all? Naïve DC's schedule is the one policy that
    /// gates here; every other adapter filters on its own side (spawned
    /// engines hand the policy to their thread, and LowDiff's decision
    /// needs adapter state like the forced-full flag).
    fn wants_capture(&self, _iteration: u64) -> bool {
        true
    }

    /// Process one job: decide, encode and persist via `cx`.
    fn process(&mut self, job: Job, cx: &mut EngineCtx<'_>);

    /// Make all buffered work durable (partial batches etc.).
    fn flush(&mut self, _cx: &mut EngineCtx<'_>) {}

    /// Apply a runtime reconfiguration.
    fn control(&mut self, _ctl: PolicyCtl, _cx: &mut EngineCtx<'_>) {}
}
