//! # lowdiff-tensor
//!
//! Minimal dense-tensor substrate for the LowDiff reproduction. The paper's
//! system moves *flat parameter/gradient buffers* between GPU, CPU and
//! storage; correspondingly this crate provides:
//!
//! * [`Tensor`] — a shaped, contiguous `f32` buffer with elementwise and
//!   matrix ops (serial and rayon-parallel variants); a network's
//!   parameters live as one flat buffer in layer order.
//!
//! Numerical kernels are deliberately simple (no SIMD intrinsics, no FMA);
//! the reproduction's claims concern checkpoint *dataflow*, not kernel speed,
//! and rayon-chunked loops already scale with cores for the sizes we train.
//! The one exception is [`ops::matmul_nt`], the `Linear` forward: it is
//! register-blocked so the compiler vectorizes it, because the training
//! iteration is the denominator of every checkpoint overhead this repo
//! reports. It stays bit-identical to one serial dot per output.

pub mod ops;
pub mod tensor;

pub use tensor::Tensor;
