//! # lowdiff-util
//!
//! Shared infrastructure for the LowDiff reproduction: deterministic RNG,
//! CRC32 integrity checks, size/time units, a reusable buffer pool and
//! chunking helpers for data-parallel loops.
//!
//! Everything in this crate is dependency-free and deterministic so that the
//! higher layers (training, checkpointing, cluster simulation) can be tested
//! reproducibly.
//!
//! The one `unsafe` surface is the CRC32 carry-less-multiply kernel in
//! [`crc`]; every block there names the CPU-feature check it relies on.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod crc;
pub mod par;
pub mod pool;
pub mod rng;
pub mod units;

pub use crc::crc32;
pub use pool::BufferPool;
pub use rng::DetRng;
pub use units::{Bandwidth, ByteSize, Secs};
