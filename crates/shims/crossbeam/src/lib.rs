//! Offline shim for `crossbeam`.
//!
//! The build environment has no registry access, so the workspace carries
//! the channel API subset it uses: mpmc `bounded`/`unbounded` channels with
//! blocking/timeout/try operations. Built on `std::sync::{Mutex, Condvar}`;
//! correctness over raw throughput.

pub mod channel;
