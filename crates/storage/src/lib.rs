//! # lowdiff-storage
//!
//! Checkpoint persistence: binary codec, storage backends, and the
//! [`CheckpointStore`] that manages full + differential checkpoint files.
//!
//! * [`codec`] — a hand-written, versioned, CRC32-stamped binary format for
//!   [`lowdiff_optim::ModelState`] (full checkpoints) and
//!   [`lowdiff_compress::CompressedGrad`] batches (differential
//!   checkpoints). Torn writes are detected at load time.
//! * [`backend`] — [`StorageBackend`] implementations: in-memory (tests)
//!   and local disk (atomic rename writes); [`FaultyBackend`]'s latency
//!   spikes are the way to make a put really slow.
//! * [`faults`] — [`FaultyBackend`], a seeded, deterministic storage-fault
//!   injector (transient/persistent errors, torn writes, latency spikes)
//!   wrapping any backend.
//! * [`retry`] — bounded-exponential-backoff [`with_retry`] used by every
//!   checkpointing write path so storage errors never abort training.
//! * [`store`] — naming, latest-valid discovery, differential chains and
//!   garbage collection.
//! * [`stripe`] — striped parallel persist: blobs fanned out into N
//!   concurrent ranged writes, sealed atomically by a CRC-carrying
//!   manifest written last.

pub mod backend;
pub mod codec;
pub mod faults;
pub mod retry;
pub mod shard;
pub mod store;
pub mod stripe;

pub use backend::{DiskBackend, MemoryBackend, StorageBackend};
pub use codec::FullCheckpoint;
pub use faults::{FaultConfig, FaultCounters, FaultyBackend};
pub use retry::{with_retry, with_retry_if, Retried, RetryPolicy};
pub use shard::{GlobalManifest, ShardSeal, ShardSpec};
pub use store::CheckpointStore;
pub use stripe::{StripeCfg, StripeManifest};
