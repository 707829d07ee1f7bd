//! Reference implementations the compress tests compare against: the
//! formulations the production kernels replaced, kept verbatim.

// Shared by several test crates, each of which uses a subset.
#![allow(dead_code)]

use lowdiff_compress::sparsify::k_for_ratio;
use lowdiff_compress::{CompressedGrad, SparseGrad};

/// The comparator quick-select `TopK::select` used to be: partial
/// selection over an index array ordered by (bigger |v| first, then smaller
/// index). Defined for NaN-free inputs only — the comparison maps
/// incomparable pairs to `Equal`, which is not a total order.
pub fn select_oracle(grad: &[f32], k: usize) -> Vec<u32> {
    let n = grad.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k == n {
        return (0..n as u32).collect();
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let cmp = |&a: &u32, &b: &u32| {
        let (va, vb) = (grad[a as usize].abs(), grad[b as usize].abs());
        vb.partial_cmp(&va)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    idx.select_nth_unstable_by(k - 1, cmp);
    let mut kept = idx[..k].to_vec();
    kept.sort_unstable();
    kept
}

/// Top-K error feedback in its two-buffer formulation:
/// `acc = grad + residual` into a scratch, select over `acc`, swap it in
/// as the residual and subtract what was sent.
pub struct TwoBufferEf {
    ratio: f64,
    pub residual: Vec<f32>,
    acc: Vec<f32>,
}

impl TwoBufferEf {
    pub fn new(ratio: f64, n: usize) -> Self {
        Self {
            ratio,
            residual: vec![0.0; n],
            acc: vec![0.0; n],
        }
    }

    pub fn compress(&mut self, grad: &[f32]) -> CompressedGrad {
        self.acc.copy_from_slice(grad);
        for (a, r) in self.acc.iter_mut().zip(&self.residual) {
            *a += r;
        }
        let indices = select_oracle(&self.acc, k_for_ratio(grad.len(), self.ratio));
        let values: Vec<f32> = indices.iter().map(|&i| self.acc[i as usize]).collect();
        std::mem::swap(&mut self.residual, &mut self.acc);
        for (&i, &v) in indices.iter().zip(&values) {
            self.residual[i as usize] -= v;
        }
        CompressedGrad::Sparse(SparseGrad::new(grad.len(), indices, values))
    }
}
