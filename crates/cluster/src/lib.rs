//! # lowdiff-cluster
//!
//! Calibrated cluster-scale cost model and discrete-event failure
//! simulator — the layer that regenerates the paper's *evaluation numbers*
//! (the mechanism layer in `lowdiff`/`lowdiff-baselines` regenerates its
//! *behaviour*).
//!
//! * [`hardware`] — A100/V100 server profiles with the paper's testbed
//!   constants (PCIe Gen4/Gen3, 25 Gbps network, SSD bandwidth).
//! * [`cost`] — per-strategy steady-state overhead, maximum checkpoint
//!   frequency under a slowdown bound, storage sizes and recovery times,
//!   calibrated against the paper's headline numbers (see `calib`).
//! * [`sim`] — failure injection (exponential MTBF) over a training job,
//!   producing wasted time and effective-training-time-ratio metrics.
//! * [`rt`] — the *real* (non-simulated) multi-process runtime: a TCP
//!   coordinator (registration, heartbeats, epoch barriers,
//!   consistent-hash shard assignment, global-manifest sealing) and the
//!   worker loop behind the `lowdiff-coordinator` / `lowdiff-worker`
//!   binaries.
//!
//! Calibration constants are fitted to specific paper numbers and each one
//! says which (see [`calib`]); EXPERIMENTS.md records where the shapes
//! deviate.

#![forbid(unsafe_code)]

pub mod calib;
pub mod cost;
pub mod hardware;
pub mod rt;
pub mod sim;

pub use cost::{CostModel, StrategyKind};
pub use hardware::HardwareProfile;
pub use rt::{CoordConfig, Coordinator, HashRing, WorkerConfig, WorkerReport};
pub use sim::{simulate_job, FailureKind, SimConfig, SimOutcome};
