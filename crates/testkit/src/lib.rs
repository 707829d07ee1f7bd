//! # lowdiff-testkit
//!
//! Dev-only test oracles and fixtures for the LowDiff workspace. Nothing
//! here ships in a production crate: test suites and benchmarks depend on
//! it, production crates never do.
//!
//! * [`reference`](mod@reference) — the pre-bulk, per-element checkpoint codec and the
//!   byte-at-a-time CRC32. They are the oracles the bulk codec and the
//!   slicing-by-8 CRC are proven byte-identical against, the baselines
//!   `bench_hotpath` times, and the only writers of the legacy v1 blob
//!   layouts that backward-compatibility tests fabricate; the two-pass
//!   full-checkpoint decoder the one-pass decoder must agree with on every
//!   input; and the scalar `A · Bᵀ` the blocked `matmul_nt` kernel is
//!   proven bit-identical to.

pub mod reference;
