//! [`ModelState`]: the unit of checkpointing.
//!
//! In the paper's notation `M_t = (x_t, o_t)`: the flat parameter vector
//! plus the Adam moments and step/iteration counters. Everything the
//! checkpointing strategies snapshot, diff, persist and recover is a
//! `ModelState`.

use crate::adam::{Adam, AdamState};

/// Full training state at an iteration boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelState {
    /// Completed training iterations (0 = fresh).
    pub iteration: u64,
    /// Flat model parameters `x_t` (Ψ elements).
    pub params: Vec<f32>,
    /// Adam optimizer state `o_t` (2Ψ elements + step counter).
    pub opt: AdamState,
}

impl ModelState {
    /// Fresh state from an initial parameter vector.
    pub fn new(params: Vec<f32>) -> Self {
        let n = params.len();
        Self {
            iteration: 0,
            params,
            opt: AdamState::new(n),
        }
    }

    /// Ψ — parameter element count.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Overwrite `self` with `src`, reusing `self`'s existing allocations:
    /// the snapshot-stage alternative to `clone()`. After the first call a
    /// recycled state is already sized to Ψ, so steady-state snapshots are
    /// pure `copy_from_slice` traffic with zero heap allocation.
    pub fn copy_from(&mut self, src: &ModelState) {
        self.iteration = src.iteration;
        self.opt.t = src.opt.t;
        copy_resized(&mut self.params, &src.params);
        copy_resized(&mut self.opt.m, &src.opt.m);
        copy_resized(&mut self.opt.v, &src.opt.v);
    }

    /// Checkpoint payload size in bytes: `3Ψ · 4` (params + m + v),
    /// the quantity Finding 2 compares against a gradient's `Ψ · 4`.
    pub fn payload_bytes(&self) -> usize {
        (self.params.len() + self.opt.m.len() + self.opt.v.len()) * 4
    }

    /// Advance one iteration: apply the (already decompressed, already
    /// synchronized) gradient through Adam. This is Equation (1):
    /// `M_{t+1} = M_t + Adam(G_t)`.
    pub fn apply_gradient(&mut self, adam: &Adam, grad: &[f32]) {
        adam.step(&mut self.opt, &mut self.params, grad);
        self.iteration += 1;
    }

    /// [`ModelState::apply_gradient`] with a copy-on-write hook: `hook(r)`
    /// fires right before the update overwrites `params[r]`, `opt.m[r]`
    /// and `opt.v[r]` (see [`Adam::step_with_hook`]). The trainer uses it
    /// to capture pre-update blocks into an in-flight incremental
    /// snapshot; arithmetic is bit-identical to the hookless path.
    pub fn apply_gradient_with_hook<F: Fn(std::ops::Range<usize>) + Sync>(
        &mut self,
        adam: &Adam,
        grad: &[f32],
        hook: F,
    ) {
        adam.step_with_hook(&mut self.opt, &mut self.params, grad, hook);
        self.iteration += 1;
    }

    /// Maximum absolute difference across params and moments — the metric
    /// recovery-exactness tests assert to be exactly 0.0.
    pub fn max_abs_diff(&self, other: &ModelState) -> f32 {
        assert_eq!(self.num_params(), other.num_params());
        let mut m = 0.0f32;
        for (a, b) in [
            (&self.params, &other.params),
            (&self.opt.m, &other.opt.m),
            (&self.opt.v, &other.opt.v),
        ] {
            for (&x, &y) in a.iter().zip(b.iter()) {
                m = m.max((x - y).abs());
            }
        }
        m
    }
}

/// `dst ← src`, growing/shrinking `dst` only when Ψ changed. The copy runs
/// in cache-sized chunks so the destination lines being written stay
/// resident while the loop advances.
fn copy_resized(dst: &mut Vec<f32>, src: &[f32]) {
    const CHUNK: usize = 1 << 16;
    dst.resize(src.len(), 0.0);
    for (d, s) in dst.chunks_mut(CHUNK).zip(src.chunks(CHUNK)) {
        d.copy_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_three_psi() {
        let st = ModelState::new(vec![0.0; 1000]);
        assert_eq!(st.payload_bytes(), 3 * 1000 * 4);
    }

    #[test]
    fn apply_gradient_advances_iteration() {
        let adam = Adam::default();
        let mut st = ModelState::new(vec![0.0; 8]);
        st.apply_gradient(&adam, &[1.0; 8]);
        assert_eq!(st.iteration, 1);
        assert_eq!(st.opt.t, 1);
        assert!(st.params.iter().all(|&p| p != 0.0));
    }

    #[test]
    fn copy_from_reuses_allocation_and_matches_clone() {
        let adam = Adam::default();
        let mut src = ModelState::new((0..5000).map(|i| i as f32 * 0.01).collect());
        src.apply_gradient(&adam, &vec![0.5; 5000]);

        let mut dst = ModelState::new(vec![0.0; 5000]);
        let ptr = dst.params.as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src, "copy_from must equal a clone");
        assert_eq!(dst.params.as_ptr(), ptr, "allocation must be reused");

        // Ψ change: grows correctly, still equal.
        let small = ModelState::new(vec![1.0; 3]);
        dst.copy_from(&small);
        assert_eq!(dst, small);
    }

    #[test]
    fn max_abs_diff_detects_moment_drift() {
        let a = ModelState::new(vec![0.0; 4]);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.opt.v[2] = 0.125;
        assert_eq!(a.max_abs_diff(&b), 0.125);
    }
}
