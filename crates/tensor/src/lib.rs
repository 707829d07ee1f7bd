//! # lowdiff-tensor
//!
//! Minimal dense-tensor substrate for the LowDiff reproduction. The paper's
//! system moves *flat parameter/gradient buffers* between GPU, CPU and
//! storage; correspondingly this crate provides:
//!
//! * [`Tensor`] — a shaped, contiguous `f32` buffer with elementwise and
//!   matrix ops (serial and rayon-parallel variants),
//! * [`StateDict`] — an *ordered* named collection of tensors, the in-memory
//!   form of a model's parameters / optimizer moments (order matters for
//!   deterministic serialization and for flat-offset addressing used by
//!   gradient compression).
//!
//! Numerical kernels are deliberately simple (no SIMD intrinsics); the
//! reproduction's claims concern checkpoint *dataflow*, not kernel speed, and
//! rayon-chunked loops already scale with cores for the sizes we train.

pub mod ops;
pub mod statedict;
pub mod tensor;

pub use statedict::StateDict;
pub use tensor::Tensor;
