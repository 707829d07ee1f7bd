//! # lowdiff-comm
//!
//! Thread-based data-parallel collectives — the NCCL/DeepSpeed stand-in.
//!
//! Workers are OS threads (one per simulated GPU rank) meeting at a shared
//! [`rendezvous::Rendezvous`]. On top of it:
//!
//! * [`group::WorkerGroup`] — spawn `n` ranks, each running the same
//!   closure with a [`group::WorkerCtx`] exposing `allreduce_mean`,
//!   `allgather_sparse` and `barrier`, matching the synchronization points
//!   of Algorithm 1 (Line 5, `Sync`).
//! * [`pool::SyncPool`] — the layer-wise communication thread pool of
//!   Algorithm 2 (`P_g`): gradients are handed over per layer during the
//!   backward pass, synchronized concurrently, and completion handles are
//!   awaited before the model update (`H_g.wait()`).
//! * [`replicate`] — the Checkmate-style peer-replication fabric: each
//!   rank streams checkpoint blobs into k peers' memory ([`ReplicaNet`]),
//!   so a lost rank is rebuilt from a surviving peer with no storage
//!   round-trip (the engine's `PeerTier` rides on it).
//! * [`wire`] — the TCP coordinator protocol for *multi-process* clusters:
//!   length-prefixed CRC-sealed frames carrying registration, heartbeats,
//!   epoch barriers, and shard-seal reports, plus the blocking
//!   [`CoordClient`] request/response channel.

pub mod group;
pub mod pool;
pub mod rendezvous;
pub mod replicate;
pub mod wire;

pub use group::{WorkerCtx, WorkerGroup};
pub use pool::SyncPool;
pub use replicate::{PeerUnreachable, ReplicaNet};
pub use wire::{CoordClient, MemberStatus, Msg};
