//! Adam optimizer (Kingma & Ba, 2014) with bias correction.
//!
//! The implementation is deliberately *elementwise and window-addressable*:
//! [`Adam::step_range`] updates one window of params/m/v given the same
//! window of the gradient, which is the primitive behind LowDiff's sharded
//! parallel recovery — each recovery thread replays the full gradient
//! sequence over its own disjoint windows of the state and the result is
//! bit-identical to a serial replay.

use rayon::prelude::*;
use std::ops::Range;

/// Adam hyper-parameters (immutable; the mutable part lives in [`AdamState`]).
///
/// ```
/// use lowdiff_optim::{Adam, AdamState};
///
/// let adam = Adam::default();
/// let mut state = AdamState::new(3);
/// let mut params = vec![0.0f32; 3];
/// adam.step(&mut state, &mut params, &[1.0, -2.0, 0.5]);
/// // First-step magnitude is ~lr, direction opposes the gradient.
/// assert!(params[0] < 0.0 && params[1] > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style); 0 disables.
    pub weight_decay: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Mutable Adam state: first/second moments plus the step counter.
///
/// `m` and `v` are each the size of the parameter vector, which is why a
/// full checkpoint is `3Ψ` (params + m + v) — Finding 2 in the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    pub m: Vec<f32>,
    pub v: Vec<f32>,
    /// Number of `step` calls performed so far (t in the Adam paper).
    pub t: u64,
}

impl AdamState {
    /// Fresh zeroed state for `n` parameters.
    pub fn new(n: usize) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.m.len()
    }

    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }
}

impl Adam {
    /// One full optimizer step: `params ← params + Adam(grad)`.
    pub fn step(&self, state: &mut AdamState, params: &mut [f32], grad: &[f32]) {
        self.step_with_hook(state, params, grad, |_| {});
    }

    /// [`Adam::step`] with a pre-overwrite hook: `hook(r)` fires immediately
    /// before the kernel overwrites `params[r]`/`m[r]`/`v[r]`, once per
    /// update block (the same `1 << 15`-element blocks the parallel kernel
    /// fans out over, so block boundaries line up with the incremental
    /// snapshot's chunk map). This is the copy-on-write interception point:
    /// the hook captures the *pre-update* values of a block into an
    /// in-flight snapshot before they are destroyed. The hook may run
    /// concurrently from the parallel kernel's worker threads.
    ///
    /// With a no-op hook the arithmetic is bit-identical to [`Adam::step`].
    pub fn step_with_hook<F: Fn(Range<usize>) + Sync>(
        &self,
        state: &mut AdamState,
        params: &mut [f32],
        grad: &[f32],
        hook: F,
    ) {
        let t = state.t + 1;
        self.apply(params, &mut state.m, &mut state.v, grad, t, &hook);
        state.t = t;
    }

    /// One global step applied to a *window* of the state: `params`, `m`,
    /// `v` and `grad` are the same window (equal lengths) of the parameter
    /// vector, the two moments and the gradient. Sharded recovery hands
    /// each shard disjoint windows of one [`AdamState`].
    ///
    /// `step_t` is the global Adam step number this update corresponds to
    /// (bias correction must use the *global* t, not a per-shard counter).
    /// The caller owns the step counter; this function does not touch it.
    ///
    /// Runs on the calling thread, never fanned out on the pool: its caller
    /// already partitions the work (the cache-blocked chain replay updates
    /// one cache-sized block at a time inside each of its own shards).
    pub fn step_range(
        &self,
        params: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        step_t: u64,
    ) {
        assert!(step_t >= 1, "Adam step numbers start at 1");
        check_lens(params, m, v, grad);
        self.kernel(params, m, v, grad, self.bias_corrections(step_t));
    }

    /// Adam's bias corrections `(1 − β1^t, 1 − β2^t)`; they depend only on
    /// the global step number.
    fn bias_corrections(&self, step_t: u64) -> (f32, f32) {
        let bc1 = 1.0 - (self.beta1 as f64).powi(step_t as i32);
        let bc2 = 1.0 - (self.beta2 as f64).powi(step_t as i32);
        (bc1 as f32, bc2 as f32)
    }

    /// The elementwise update of one window, serially; `bc` are the step's
    /// bias corrections.
    #[inline]
    fn kernel(&self, pc: &mut [f32], mc: &mut [f32], vc: &mut [f32], gc: &[f32], bc: (f32, f32)) {
        let (b1, b2) = (self.beta1, self.beta2);
        let (bc1, bc2) = bc;
        for j in 0..pc.len() {
            let g = gc[j];
            let m = b1 * mc[j] + (1.0 - b1) * g;
            let v = b2 * vc[j] + (1.0 - b2) * g * g;
            mc[j] = m;
            vc[j] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            let mut p = pc[j];
            if self.weight_decay != 0.0 {
                p -= self.lr * self.weight_decay * p;
            }
            pc[j] = p - self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Shared kernel: update `params`/`m`/`v` in place from `grad` (all
    /// the same length). `hook(r)` fires per block with `r` relative to
    /// the window.
    ///
    /// The update is purely elementwise, so it runs in parallel over fixed
    /// chunks of the window — no cross-element data flow means any chunking
    /// is bit-identical to the serial loop.
    fn apply<F: Fn(Range<usize>) + Sync>(
        &self,
        pr: &mut [f32],
        mr: &mut [f32],
        vr: &mut [f32],
        gr: &[f32],
        step_t: u64,
        hook: &F,
    ) {
        check_lens(pr, mr, vr, gr);
        let bc = self.bias_corrections(step_t);

        const CHUNK: usize = 1 << 15;

        // Serial fast path: on a single-thread pool the rayon fan-out is
        // pure dispatch overhead, so walk the blocks in a plain loop (the
        // hook still needs per-block granularity; with the elementwise
        // kernel any chunking is bit-identical to one pass).
        if rayon::pool::current_num_threads() == 1 {
            let mut off = 0;
            while off < pr.len() {
                let end = (off + CHUNK).min(pr.len());
                hook(off..end);
                self.kernel(
                    &mut pr[off..end],
                    &mut mr[off..end],
                    &mut vr[off..end],
                    &gr[off..end],
                    bc,
                );
                off = end;
            }
            return;
        }

        pr.par_chunks_mut(CHUNK)
            .zip(mr.par_chunks_mut(CHUNK))
            .zip(vr.par_chunks_mut(CHUNK))
            .zip(gr.par_chunks(CHUNK))
            .enumerate()
            .for_each(|(i, (((pc, mc), vc), gc))| {
                let lo = i * CHUNK;
                hook(lo..lo + pc.len());
                self.kernel(pc, mc, vc, gc, bc);
            });
    }
}

/// Panic unless params, both moments and the gradient are one length.
fn check_lens(p: &[f32], m: &[f32], v: &[f32], g: &[f32]) {
    assert!(
        m.len() == p.len() && v.len() == p.len(),
        "state/param length mismatch"
    );
    assert_eq!(g.len(), p.len(), "grad/param length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_grad(n: usize, t: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                ((i as f32 + 1.0) * 0.1 + t as f32 * 0.01) * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect()
    }

    #[test]
    fn zero_grad_still_moves_state() {
        // With g = 0, m and v decay but (for t=1, m=0) params stay put.
        let adam = Adam::default();
        let mut st = AdamState::new(4);
        let mut p = vec![1.0f32; 4];
        adam.step(&mut st, &mut p, &[0.0; 4]);
        assert_eq!(st.t, 1);
        assert!(p.iter().all(|&x| (x - 1.0).abs() < 1e-7));
    }

    #[test]
    fn first_step_size_is_lr() {
        // Classic Adam property: |Δ| ≈ lr on the first step for any g ≠ 0.
        let adam = Adam {
            lr: 0.01,
            ..Adam::default()
        };
        let mut st = AdamState::new(3);
        let mut p = vec![0.0f32; 3];
        adam.step(&mut st, &mut p, &[5.0, -0.3, 100.0]);
        for (i, &x) in p.iter().enumerate() {
            assert!(
                (x.abs() - 0.01).abs() < 1e-4,
                "param {i} moved {x}, expected ~lr"
            );
        }
        // Direction opposes gradient sign.
        assert!(p[0] < 0.0 && p[1] > 0.0 && p[2] < 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let adam = Adam::default();
        let n = 100;
        let run = || {
            let mut st = AdamState::new(n);
            let mut p = vec![0.5f32; n];
            for t in 0..20 {
                adam.step(&mut st, &mut p, &demo_grad(n, t));
            }
            (st, p)
        };
        let (s1, p1) = run();
        let (s2, p2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn sharded_range_replay_equals_full() {
        // The invariant behind sharded parallel recovery.
        let adam = Adam::default();
        let n = 257;
        let steps = 15;

        // Reference: serial full steps.
        let mut st_ref = AdamState::new(n);
        let mut p_ref = vec![0.1f32; n];
        for t in 0..steps {
            adam.step(&mut st_ref, &mut p_ref, &demo_grad(n, t));
        }

        // Sharded: three windows, each replays all steps independently.
        let mut st = AdamState::new(n);
        let mut p = vec![0.1f32; n];
        let grads: Vec<Vec<f32>> = (0..steps).map(|t| demo_grad(n, t)).collect();
        for r in lowdiff_util::par::chunk_ranges(n, 3) {
            for (k, g) in grads.iter().enumerate() {
                adam.step_range(
                    &mut p[r.clone()],
                    &mut st.m[r.clone()],
                    &mut st.v[r.clone()],
                    &g[r.clone()],
                    k as u64 + 1,
                );
            }
        }
        st.t = steps;
        assert_eq!(p, p_ref, "sharded replay diverged from serial");
        assert_eq!(st.m, st_ref.m);
        assert_eq!(st.v, st_ref.v);
    }

    #[test]
    fn parallel_step_bit_identical_to_serial_loop() {
        // The chunked kernel must match a plain serial loop exactly, and be
        // invariant to the pool's thread count (big enough to cross the
        // auto-parallel threshold and the chunk size).
        let adam = Adam {
            weight_decay: 0.01,
            ..Adam::default()
        };
        let n = (1 << 15) + 7;
        let g = demo_grad(n, 5);

        // Serial oracle: the original loop body.
        let mut st_ref = AdamState::new(n);
        let mut p_ref = vec![0.5f32; n];
        {
            let t = 1;
            let bc1 = (1.0 - (adam.beta1 as f64).powi(t)) as f32;
            let bc2 = (1.0 - (adam.beta2 as f64).powi(t)) as f32;
            for i in 0..n {
                let gi = g[i];
                let m = adam.beta1 * st_ref.m[i] + (1.0 - adam.beta1) * gi;
                let v = adam.beta2 * st_ref.v[i] + (1.0 - adam.beta2) * gi * gi;
                st_ref.m[i] = m;
                st_ref.v[i] = v;
                let mut p = p_ref[i];
                p -= adam.lr * adam.weight_decay * p;
                p_ref[i] = p - adam.lr * (m / bc1) / ((v / bc2).sqrt() + adam.eps);
            }
            st_ref.t = 1;
        }

        for threads in [1usize, 3, 8] {
            let mut st = AdamState::new(n);
            let mut p = vec![0.5f32; n];
            rayon::pool::with_num_threads(threads, || {
                adam.step(&mut st, &mut p, &g);
            });
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&p),
                bits(&p_ref),
                "params diverged at {threads} threads"
            );
            assert_eq!(
                bits(&st.m),
                bits(&st_ref.m),
                "m diverged at {threads} threads"
            );
            assert_eq!(
                bits(&st.v),
                bits(&st_ref.v),
                "v diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn hook_sees_pre_update_values_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let adam = Adam::default();
        let n = 2 * (1 << 15) + 33; // three blocks, last one ragged
        let g = demo_grad(n, 2);
        let p0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();

        for threads in [1usize, 4] {
            let mut st = AdamState::new(n);
            let mut p = p0.clone();
            let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let shot: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            rayon::pool::with_num_threads(threads, || {
                // Sneak the param slice into the hook: ranges are disjoint,
                // so reading params[r] before the kernel touches r is safe.
                let params_ptr = p.as_ptr() as usize;
                adam.step_with_hook(&mut st, &mut p, &g, |r| {
                    let src = unsafe { std::slice::from_raw_parts(params_ptr as *const f32, n) };
                    for i in r {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                        shot[i].store(src[i].to_bits(), Ordering::Relaxed);
                    }
                });
            });
            for i in 0..n {
                assert_eq!(seen[i].load(Ordering::Relaxed), 1, "element {i} coverage");
                assert_eq!(
                    shot[i].load(Ordering::Relaxed),
                    p0[i].to_bits(),
                    "hook saw post-update value at {i} ({threads} threads)"
                );
            }
            // And the update itself matches the hookless step bit-for-bit.
            let mut st_ref = AdamState::new(n);
            let mut p_ref = p0.clone();
            adam.step(&mut st_ref, &mut p_ref, &g);
            assert_eq!(p, p_ref);
            assert_eq!(st.m, st_ref.m);
        }
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let adam = Adam {
            weight_decay: 0.1,
            lr: 0.01,
            ..Adam::default()
        };
        let mut st = AdamState::new(1);
        let mut p = vec![10.0f32];
        adam.step(&mut st, &mut p, &[0.0]);
        assert!(p[0] < 10.0, "decay had no effect");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let adam = Adam::default();
        let mut st = AdamState::new(4);
        let mut p = vec![0.0f32; 4];
        adam.step(&mut st, &mut p, &[0.0; 3]);
    }
}
