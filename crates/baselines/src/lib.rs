//! # lowdiff-baselines
//!
//! Faithful re-implementations of the paper's comparison systems, all
//! against the same [`lowdiff::CheckpointStrategy`] trait and storage
//! substrate so that every measured difference is a *strategy* difference:
//!
//! * [`PeriodicFullStrategy`] — a full checkpoint every `k` iterations
//!   through a fixed tier schedule, one constructor per system:
//!   * [`PeriodicFullStrategy::torch_save`] — the `torch.save` baseline:
//!     synchronous, blocking full checkpoints on the training thread;
//!   * [`PeriodicFullStrategy::checkfreq`] — CheckFreq (Mohan et al.,
//!     FAST '21): decoupled *snapshot* (blocking in-memory copy) and
//!     *persist* (async write), pipelined with depth 1 — a new snapshot
//!     stalls until the previous persist completes;
//!   * [`PeriodicFullStrategy::gemini`] — Gemini (Wang et al., SOSP '23):
//!     per-interval checkpoints to (peer) CPU memory with periodic
//!     persistence to durable storage; recovery prefers the memory tier.
//! * [`NaiveDcStrategy`] — Check-N-Run-style differential checkpointing
//!   (Eisenman et al., NSDI '22) applied to dense models: the parameter
//!   delta `M_{t+1} − M_t` is Top-K-compressed *on the training thread*
//!   (Challenge 1's compression stall) and written synchronously
//!   (Challenge 2's transmission stall); optimizer moments are stored
//!   dense, uncompressed — exactly the Exp. 7 storage pathology.

pub mod naive_dc;
pub mod periodic;

pub use naive_dc::NaiveDcStrategy;
pub use periodic::PeriodicFullStrategy;
