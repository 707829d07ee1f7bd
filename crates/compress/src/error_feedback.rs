//! Error feedback (residual accumulation) for sparsified training.
//!
//! Top-K discards most coordinates; error feedback keeps training convergent
//! by adding the dropped mass back into the next gradient:
//!
//! ```text
//! acc_t   = g_t + residual_{t-1}
//! sent_t  = compress(acc_t)
//! residual_t = acc_t − decompress(sent_t)
//! ```
//!
//! Conservation (`sent + residual == acc` exactly, elementwise) is the
//! invariant the property tests check.
//!
//! The three lines run in place on the one residual buffer: it becomes
//! `acc_t` by adding the gradient, is compressed where it lies, and becomes
//! `residual_t` by subtracting what was sent, where it was sent.

use crate::grad::CompressedGrad;
use crate::Compressor;
use lowdiff_tensor::ops;

/// Wraps a compressor with a residual buffer.
pub struct ErrorFeedback<C: Compressor> {
    inner: C,
    residual: Vec<f32>,
}

impl<C: Compressor> ErrorFeedback<C> {
    /// `n` is the dense gradient length (fixed per model).
    pub fn new(inner: C, n: usize) -> Self {
        Self {
            inner,
            residual: vec![0.0; n],
        }
    }

    /// Compensate, compress, and update the residual.
    pub fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        assert_eq!(grad.len(), self.residual.len(), "gradient length changed");
        // residual → acc (f32 addition commutes bit-for-bit).
        ops::add_assign(&mut self.residual, grad);
        let sent = self.inner.compress(&self.residual);
        // acc → residual = acc − decompress(sent). A sparse handle
        // decompresses to 0.0 away from the sent coordinates, and
        // `x − 0.0 == x` exactly for every f32 (including −0.0) — so
        // subtract at the sent indices only. Top-K sends acc's own values,
        // which leaves +0.0 there (`x − x` for finite x).
        match &sent {
            CompressedGrad::Sparse(s) => {
                for (&i, &v) in s.indices.iter().zip(&s.values) {
                    self.residual[i as usize] -= v;
                }
            }
            other => {
                let sent_dense = other.to_dense();
                ops::sub_assign(&mut self.residual, &sent_dense);
            }
        }
        sent
    }

    /// Current residual (for tests / diagnostics / checkpoint capture).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Restore the residual from a checkpoint — the exact-resume path.
    /// Without this, a restarted run re-starts error feedback from zero and
    /// silently diverges from the uninterrupted run. The decoded buffer is
    /// moved in, not copied.
    pub fn set_residual(&mut self, residual: Vec<f32>) {
        assert_eq!(
            residual.len(),
            self.residual.len(),
            "residual length mismatch"
        );
        self.residual = residual;
    }

    /// L2 norm of the residual — a convergence health metric.
    pub fn residual_norm(&self) -> f64 {
        self.residual
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped compressor — resume uses this to
    /// restore stateful inner compressors (e.g. the adaptive precision
    /// policy) from checkpoint aux state.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsify::TopK;
    use lowdiff_util::DetRng;

    #[test]
    fn conservation_exact_for_topk() {
        // Top-K decompression reproduces kept values exactly, so
        // sent + residual == grad + old_residual must hold exactly.
        let mut rng = DetRng::new(5);
        let n = 500;
        let mut ef = ErrorFeedback::new(TopK::new(0.05), n);
        let mut prev_residual = vec![0.0f32; n];
        for _ in 0..10 {
            let g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
            let sent = ef.compress(&g).to_dense();
            for i in 0..n {
                let acc = g[i] + prev_residual[i];
                assert_eq!(sent[i] + ef.residual()[i], acc, "mass not conserved at {i}");
            }
            prev_residual = ef.residual().to_vec();
        }
    }

    #[test]
    fn residual_zero_for_lossless() {
        let mut ef = ErrorFeedback::new(TopK::new(1.0), 8);
        ef.compress(&[1.0, -2.0, 3.0, 0.0, 5.0, -6.0, 7.0, 8.0]);
        assert!(ef.residual().iter().all(|&r| r == 0.0));
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn dropped_coordinate_eventually_sent() {
        // A small persistent component must accumulate until it beats the
        // large transient ones — the core reason EF preserves convergence.
        let n = 10;
        let mut ef = ErrorFeedback::new(TopK::new(0.1), n); // k = 1
        let mut sent_small = false;
        for _ in 0..50 {
            // index 0 has a big gradient; index 5 a small persistent one.
            let mut g = vec![0.0f32; n];
            g[0] = 1.0;
            g[5] = 0.1;
            let s = ef.compress(&g);
            if s.as_sparse().unwrap().indices.contains(&5) {
                sent_small = true;
                break;
            }
        }
        assert!(
            sent_small,
            "persistent small gradient was never transmitted"
        );
    }
}
