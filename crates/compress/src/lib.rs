//! # lowdiff-compress
//!
//! Gradient compression (§2.3 of the paper): the substrate whose outputs
//! LowDiff *reuses* as differential checkpoints.
//!
//! Two families are implemented, matching the paper's taxonomy:
//!
//! * **Sparsification** — [`TopK`] (used in the paper's evaluation with
//!   ρ = 0.01), producing a [`SparseGrad`] of `(index, value)` pairs.
//! * **Quantization** — [`UniformQuant`] (16/8/4-bit linear), producing a
//!   [`QuantGrad`]; [`AdaptiveQuant`] retunes the width each interval
//!   under a hard reconstruction-error bound.
//!
//! [`ErrorFeedback`] implements the standard residual-accumulation trick
//! that keeps Top-K training convergent: whatever the compressor drops this
//! iteration is added back into the next iteration's gradient.
//!
//! Size accounting (`payload_bytes`) is exact — the storage experiments
//! (Exp. 7) and the transmission cost model read these numbers.

pub mod adaptive;
pub mod aux;
pub mod error_feedback;
pub mod grad;
pub mod quant;
pub mod sparsify;

pub use adaptive::{AdaptiveQuant, QuantPolicyState};
pub use aux::{AuxState, AuxView, CompressorCfg, CompressorKind};
pub use error_feedback::ErrorFeedback;
pub use grad::{CompressedGrad, QuantGrad, SparseGrad};
pub use quant::UniformQuant;
pub use sparsify::TopK;

/// A gradient compressor: dense in, compressed out.
///
/// `compress` takes `&mut self` because compressors keep state across
/// calls: Top-K reuses its histogram scratch, and [`AdaptiveQuant`]
/// retunes its width from what it emitted.
pub trait Compressor: Send {
    /// Compress a dense gradient.
    fn compress(&mut self, grad: &[f32]) -> CompressedGrad;
}
