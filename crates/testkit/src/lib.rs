//! # lowdiff-testkit
//!
//! Dev-only test oracles and fixtures for the LowDiff workspace. Nothing
//! here ships in a production crate: test suites and benchmarks depend on
//! it, production crates never do.
//!
//! * [`reference`](mod@reference) — the pre-bulk, per-element full-checkpoint
//!   encoder and the byte-at-a-time CRC32: the oracles the bulk encoder
//!   and the slicing-by-8 CRC are proven byte-identical against, and the
//!   baselines `bench_hotpath` times; the two-pass full-checkpoint decoder
//!   the one-pass decoder must agree with on every input; and the scalar
//!   `A · Bᵀ` the blocked `matmul_nt` kernel is proven bit-identical to.
//! * [`shard`](mod@shard) — the eager projection of a model state and its
//!   aux state onto a [`lowdiff_storage::ShardSpec`]: the oracle a shard
//!   full's gathered capture is checked against.

pub mod reference;
pub mod shard;

pub use shard::ShardProjection;
