//! Pipeline-parallel training substrate (GPipe-style).
//!
//! The paper evaluates LowDiff under pipeline parallelism (Exp. 1's
//! VGG-16 row) and names the combination future work (§7). The key
//! observation transfers directly: pipeline stages still produce
//! synchronized, compressible gradients every iteration, so the reuse
//! path is unchanged — only the *producer* of the flat gradient differs.
//!
//! This module implements a real multi-threaded pipeline:
//!
//! * a [`Pipeline`] partitions a sequential model into stages (one thread
//!   per stage — the stand-in for one GPU per stage),
//! * [`Pipeline::step`] runs a GPipe schedule over `m` microbatches:
//!   forward activations flow stage-to-stage over channels, then
//!   gradients flow backward; per-stage parameter gradients accumulate
//!   across microbatches (averaged),
//! * the result is the same flat gradient a data-parallel worker would
//!   produce (asserted against a monolithic backward in the tests), ready
//!   for compression and LowDiff reuse.

use crossbeam::channel::{bounded, Receiver, Sender};
use lowdiff_model::Network;
use lowdiff_tensor::Tensor;
use std::ops::Range;

/// A pipeline-partitioned model.
pub struct Pipeline {
    stages: Vec<Network>,
    /// Flat-parameter range of each stage within the whole model.
    ranges: Vec<Range<usize>>,
}

impl Pipeline {
    /// Build from per-stage sub-networks (stage `i` feeds stage `i+1`).
    pub fn new(stages: Vec<Network>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        let mut ranges = Vec::with_capacity(stages.len());
        let mut off = 0;
        for s in &stages {
            let n = s.num_params();
            ranges.push(off..off + n);
            off += n;
        }
        Self { stages, ranges }
    }

    /// Total parameters across stages (Ψ).
    pub fn num_params(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// Flat-parameter range owned by each stage.
    pub fn stage_ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Concatenated parameters (stage order — the pipeline's flat view).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for s in &self.stages {
            out.extend_from_slice(&s.params_flat());
        }
        out
    }

    /// Overwrite all stage parameters from the flat view.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params());
        for (s, r) in self.stages.iter_mut().zip(&self.ranges) {
            s.set_params_flat(&flat[r.clone()]);
        }
    }

    /// One pipelined training step over `microbatches`.
    ///
    /// `loss_fn(output, microbatch_index)` computes the loss and its
    /// gradient for the final stage's output of one microbatch. Returns
    /// the mean loss and the flat gradient (averaged over microbatches),
    /// addressed exactly like [`Pipeline::params_flat`].
    #[allow(clippy::needless_range_loop)]
    pub fn step<F>(&mut self, microbatches: &[Tensor], loss_fn: F) -> (f64, Vec<f32>)
    where
        F: Fn(&Tensor, usize) -> (f64, Tensor) + Sync,
    {
        let m = microbatches.len();
        assert!(m > 0, "need at least one microbatch");
        let n_stages = self.stages.len();
        let inv_m = 1.0 / m as f32;

        // Channels: forward act[i] -> stage i+1 ; backward grad[i] <- stage i+1.
        let mut fwd_tx: Vec<Option<Sender<Tensor>>> = Vec::new();
        let mut fwd_rx: Vec<Option<Receiver<Tensor>>> = Vec::new();
        let mut bwd_tx: Vec<Option<Sender<Tensor>>> = Vec::new();
        let mut bwd_rx: Vec<Option<Receiver<Tensor>>> = Vec::new();
        fwd_rx.push(None); // stage 0 reads from `microbatches`
        bwd_tx.push(None); // stage 0 sends no input-grad anywhere
        for _ in 0..n_stages - 1 {
            let (ftx, frx) = bounded::<Tensor>(m);
            let (btx, brx) = bounded::<Tensor>(m);
            fwd_tx.push(Some(ftx));
            fwd_rx.push(Some(frx));
            bwd_tx.push(Some(btx));
            bwd_rx.push(Some(brx));
        }
        fwd_tx.push(None); // last stage produces the output locally
        bwd_rx.push(None); // last stage generates gradients from the loss

        let loss_fn = &loss_fn;
        let results: Vec<(Vec<f32>, f64)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_stages);
            // Move per-stage endpoints out of the vectors.
            let mut fwd_tx = fwd_tx;
            let mut fwd_rx = fwd_rx;
            let mut bwd_tx = bwd_tx;
            let mut bwd_rx = bwd_rx;
            for (idx, stage) in self.stages.iter_mut().enumerate() {
                let in_rx = fwd_rx[idx].take();
                let out_tx = fwd_tx[idx].take();
                let gin_tx = bwd_tx[idx].take();
                let gout_rx = bwd_rx[idx].take();
                let is_last = idx == n_stages - 1;
                handles.push(scope.spawn(move || {
                    // ---- forward phase: all microbatches (GPipe fill) ----
                    let mut boundary_inputs: Vec<Tensor> = Vec::with_capacity(m);
                    let mut outputs: Vec<Tensor> = Vec::with_capacity(m);
                    for mb in 0..m {
                        let input = match &in_rx {
                            Some(rx) => rx.recv().expect("upstream stage died"),
                            None => microbatches[mb].clone(),
                        };
                        boundary_inputs.push(input);
                        let out = stage.forward(boundary_inputs.last().unwrap());
                        if let Some(tx) = &out_tx {
                            tx.send(out).expect("downstream stage died");
                        } else {
                            outputs.push(out);
                        }
                    }
                    // ---- backward phase (GPipe drain) ----
                    // NB: `Network` caches only the last forward, so each
                    // microbatch re-runs the stage forward before its
                    // backward — activation *recomputation*, exactly the
                    // standard GPipe memory-saving strategy.
                    let mut grad_acc = vec![0.0f32; stage.num_params()];
                    let mut loss_acc = 0.0f64;
                    for mb in 0..m {
                        stage.forward(&boundary_inputs[mb]); // recompute
                        let grad_out = if is_last {
                            let (loss, g) = loss_fn(&outputs[mb], mb);
                            loss_acc += loss;
                            g
                        } else {
                            gout_rx
                                .as_ref()
                                .expect("interior stage lacks grad input")
                                .recv()
                                .expect("downstream stage died")
                        };
                        let flat = stage.backward(&grad_out);
                        for (a, g) in grad_acc.iter_mut().zip(&flat) {
                            *a += g * inv_m;
                        }
                        if let Some(tx) = &gin_tx {
                            let gin = stage
                                .last_input_grad()
                                .expect("backward records the input gradient");
                            tx.send(gin).expect("upstream stage died");
                        }
                    }
                    (grad_acc, loss_acc)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("stage panicked"))
                .collect()
        });

        let mut flat = Vec::with_capacity(self.num_params());
        let mut loss = 0.0;
        for (g, l) in results {
            flat.extend_from_slice(&g);
            loss += l;
        }
        (loss / m as f64, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_model::builders::mlp;
    use lowdiff_model::layer::{Linear, Relu};
    use lowdiff_model::loss::mse;
    use lowdiff_util::DetRng;

    /// Build a 3-stage pipeline equivalent to `mlp(&[4, 8, 8, 2])`.
    fn build_pair() -> (Network, Pipeline) {
        let mono = mlp(&[4, 8, 8, 2], 5);
        let mut rng = DetRng::new(5);
        // Recreate identical layers (same seed order as `mlp`).
        let fc0 = Linear::new("fc0", 4, 8, &mut rng);
        let fc1 = Linear::new("fc1", 8, 8, &mut rng);
        let fc2 = Linear::new("fc2", 8, 2, &mut rng);
        let s0 = Network::new(vec![Box::new(fc0), Box::new(Relu::new("r0"))]);
        let s1 = Network::new(vec![Box::new(fc1), Box::new(Relu::new("r1"))]);
        let s2 = Network::new(vec![Box::new(fc2)]);
        (mono, Pipeline::new(vec![s0, s1, s2]))
    }

    #[test]
    fn pipeline_params_match_monolithic() {
        let (mono, pipe) = build_pair();
        assert_eq!(pipe.num_params(), mono.num_params());
        assert_eq!(pipe.params_flat(), mono.params_flat());
    }

    #[test]
    fn pipeline_gradient_equals_monolithic() {
        let (mut mono, mut pipe) = build_pair();
        let mut rng = DetRng::new(9);
        // Full batch of 8 rows = 4 microbatches of 2.
        let mut full = Tensor::zeros(&[8, 4]);
        rng.fill_normal_f32(full.as_mut_slice(), 1.0);
        let target = Tensor::zeros(&[8, 2]);

        // Monolithic reference: MSE over the full batch.
        let pred = mono.forward(&full);
        let (_, grad) = mse(&pred, &target);
        let ref_grad = mono.backward(&grad);

        // Pipeline: 4 microbatches; per-microbatch MSE grads average to
        // the full-batch gradient (equal sizes).
        let micro: Vec<Tensor> = (0..4)
            .map(|i| Tensor::from_vec(&[2, 4], full.as_slice()[i * 8..(i + 1) * 8].to_vec()))
            .collect();
        let (_, pipe_grad) = pipe.step(&micro, |out, mb| {
            let t = Tensor::from_vec(&[2, 2], target.as_slice()[mb * 4..(mb + 1) * 4].to_vec());
            mse(out, &t)
        });

        assert_eq!(pipe_grad.len(), ref_grad.len());
        for (i, (a, b)) in pipe_grad.iter().zip(&ref_grad).enumerate() {
            assert!(
                (a - b).abs() < 1e-5,
                "pipeline grad diverged at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn stage_ranges_cover_everything() {
        let (_, pipe) = build_pair();
        let mut next = 0;
        for r in pipe.stage_ranges() {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, pipe.num_params());
    }

    #[test]
    fn set_params_flat_roundtrip() {
        let (_, mut pipe) = build_pair();
        let patched: Vec<f32> = (0..pipe.num_params()).map(|i| i as f32 * 0.01).collect();
        pipe.set_params_flat(&patched);
        assert_eq!(pipe.params_flat(), patched);
    }

    #[test]
    fn single_stage_pipeline_is_plain_backward() {
        let mono = mlp(&[3, 6, 1], 2);
        let mut pipe = Pipeline::new(vec![mlp(&[3, 6, 1], 2)]);
        let mut mono = mono;
        let x = Tensor::from_vec(&[2, 3], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
        let y = Tensor::zeros(&[2, 1]);
        let pred = mono.forward(&x);
        let (_, g) = mse(&pred, &y);
        let ref_grad = mono.backward(&g);
        let (_, pipe_grad) = pipe.step(std::slice::from_ref(&x), |out, _| mse(out, &y));
        for (a, b) in pipe_grad.iter().zip(&ref_grad) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
