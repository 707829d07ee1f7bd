//! Synthetic datasets standing in for CIFAR/ImageNet/SQuAD/WikiText.
//!
//! The paper's datasets are multi-gigabyte downloads we don't have; what the
//! checkpointing experiments need from data is only that it (a) produces
//! non-degenerate gradients and (b) defines a learnable task so convergence
//! tests can assert loss decreases. Each generator is deterministic per
//! seed and supports sharding by worker rank (data parallelism).

use lowdiff_tensor::{ops, Tensor};
use lowdiff_util::DetRng;

/// A learnable nonlinear regression task: `y = tanh(A·x)` for a fixed random
/// matrix `A`. Stand-in for generic dense workloads.
pub struct Regression {
    /// The teacher `A`, stored (out, in).
    a: Tensor,
}

impl Regression {
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut a = vec![0.0f32; in_dim * out_dim];
        rng.fill_normal_f32(&mut a, 1.0 / (in_dim as f32).sqrt());
        Self {
            a: Tensor::from_vec(&[out_dim, in_dim], a),
        }
    }

    /// Batch `(x, y)`: x is (batch, in), y is (batch, out).
    pub fn batch(&self, rng: &mut DetRng, batch: usize) -> (Tensor, Tensor) {
        let in_dim = self.a.shape()[1];
        let mut x = vec![0.0f32; batch * in_dim];
        rng.fill_normal_f32(&mut x, 1.0);
        let x = Tensor::from_vec(&[batch, in_dim], x);
        let mut y = ops::matmul_nt(&x, &self.a);
        for v in y.as_mut_slice() {
            *v = v.tanh();
        }
        (x, y)
    }
}

/// Gaussian-blob classification (the CIFAR stand-in): `classes` clusters in
/// `dim` dimensions, unit noise around separated centers.
pub struct Blobs {
    centers: Vec<f32>, // (classes, dim)
    dim: usize,
    classes: usize,
    noise: f32,
}

impl Blobs {
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut centers = vec![0.0f32; classes * dim];
        // Separated centers: scaled ±3 coordinates.
        for c in centers.iter_mut() {
            *c = if rng.uniform() < 0.5 { -3.0 } else { 3.0 };
        }
        Self {
            centers,
            dim,
            classes,
            noise: 1.0,
        }
    }

    /// Batch `(x, labels)`: x is (batch, dim).
    pub fn batch(&self, rng: &mut DetRng, batch: usize) -> (Tensor, Vec<usize>) {
        let mut x = vec![0.0f32; batch * self.dim];
        let mut labels = Vec::with_capacity(batch);
        for b in 0..batch {
            let y = rng.below(self.classes as u64) as usize;
            labels.push(y);
            for d in 0..self.dim {
                x[b * self.dim + d] =
                    self.centers[y * self.dim + d] + rng.normal() as f32 * self.noise;
            }
        }
        (Tensor::from_vec(&[batch, self.dim], x), labels)
    }

    /// Batch shaped as tiny images (batch, channels, h, w) for CNNs;
    /// `dim` must equal `channels·h·w`.
    pub fn image_batch(
        &self,
        rng: &mut DetRng,
        batch: usize,
        channels: usize,
        h: usize,
        w: usize,
    ) -> (Tensor, Vec<usize>) {
        assert_eq!(self.dim, channels * h * w, "blob dim != image volume");
        let (x, labels) = self.batch(rng, batch);
        (x.reshape(&[batch, channels, h, w]), labels)
    }
}

/// Synthetic character-level language modeling (the WikiText stand-in):
/// sequences from a fixed order-1 Markov chain over a small vocabulary,
/// giving structure a language model can actually learn.
pub struct MarkovText {
    /// Transition matrix (vocab, vocab), rows sum to 1.
    trans: Vec<f32>,
    vocab: usize,
}

impl MarkovText {
    pub fn new(vocab: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut trans = vec![0.0f32; vocab * vocab];
        for r in 0..vocab {
            // Sparse-ish peaked transitions: two likely successors per token.
            let a = rng.below(vocab as u64) as usize;
            let b = rng.below(vocab as u64) as usize;
            for c in 0..vocab {
                trans[r * vocab + c] = 0.04 / vocab as f32;
            }
            trans[r * vocab + a] += 0.6;
            trans[r * vocab + b] += 0.36;
            let sum: f32 = trans[r * vocab..(r + 1) * vocab].iter().sum();
            for c in 0..vocab {
                trans[r * vocab + c] /= sum;
            }
        }
        Self { trans, vocab }
    }

    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Generate `(input_ids, target_ids)` of length `seq`: targets are the
    /// inputs shifted left by one (next-token prediction).
    pub fn sequence(&self, rng: &mut DetRng, seq: usize) -> (Vec<usize>, Vec<usize>) {
        let mut ids = Vec::with_capacity(seq + 1);
        let mut cur = rng.below(self.vocab as u64) as usize;
        ids.push(cur);
        for _ in 0..seq {
            let u = rng.uniform() as f32;
            let mut acc = 0.0f32;
            let mut next = self.vocab - 1;
            for c in 0..self.vocab {
                acc += self.trans[cur * self.vocab + c];
                if u < acc {
                    next = c;
                    break;
                }
            }
            ids.push(next);
            cur = next;
        }
        let input = ids[..seq].to_vec();
        let target = ids[1..seq + 1].to_vec();
        (input, target)
    }

    /// Input ids as an f32 tensor of shape (seq) for [`crate::layer::Embedding`].
    pub fn sequence_tensor(&self, rng: &mut DetRng, seq: usize) -> (Tensor, Vec<usize>) {
        let (input, target) = self.sequence(rng, seq);
        let x: Vec<f32> = input.iter().map(|&i| i as f32).collect();
        (Tensor::from_slice(&x), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_deterministic() {
        let task = Regression::new(8, 3, 1);
        let mut r1 = DetRng::new(2);
        let mut r2 = DetRng::new(2);
        let (x1, y1) = task.batch(&mut r1, 4);
        let (x2, y2) = task.batch(&mut r2, 4);
        assert_eq!(x1.as_slice(), x2.as_slice());
        assert_eq!(y1.as_slice(), y2.as_slice());
        assert!(y1.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn regression_batch_is_tanh_of_the_per_element_teacher() {
        for (in_dim, out_dim, batch) in [(5, 3, 1), (64, 33, 8), (1024, 1024, 8)] {
            let task = Regression::new(in_dim, out_dim, 11);
            let (x, y) = task.batch(&mut DetRng::new(12), batch);
            let (a, x) = (task.a.as_slice(), x.as_slice());
            for b in 0..batch {
                for o in 0..out_dim {
                    let mut acc = 0.0f32;
                    for i in 0..in_dim {
                        acc += a[o * in_dim + i] * x[b * in_dim + i];
                    }
                    assert_eq!(
                        y.at2(b, o).to_bits(),
                        acc.tanh().to_bits(),
                        "({in_dim}, {out_dim}, {batch}): y[{b}, {o}]"
                    );
                }
            }
        }
    }

    #[test]
    fn blobs_labels_in_range() {
        let blobs = Blobs::new(16, 5, 3);
        let mut rng = DetRng::new(4);
        let (x, labels) = blobs.batch(&mut rng, 32);
        assert_eq!(x.shape(), &[32, 16]);
        assert!(labels.iter().all(|&l| l < 5));
        // All classes should appear in a decent-size batch.
        let mut seen = [false; 5];
        let (_, labels) = blobs.batch(&mut rng, 200);
        for l in labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn blobs_are_separable() {
        // Same-class points are closer to their center than to others.
        let blobs = Blobs::new(32, 3, 5);
        let mut rng = DetRng::new(6);
        let (x, labels) = blobs.batch(&mut rng, 60);
        let mut correct = 0;
        for (b, &y) in labels.iter().enumerate() {
            let row = &x.as_slice()[b * 32..(b + 1) * 32];
            let mut best = (f32::INFINITY, 0usize);
            for c in 0..3 {
                let center = &blobs.centers[c * 32..(c + 1) * 32];
                let d: f32 = row
                    .iter()
                    .zip(center)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum();
                if d < best.0 {
                    best = (d, c);
                }
            }
            correct += usize::from(best.1 == y);
        }
        assert!(correct >= 55, "only {correct}/60 nearest-center correct");
    }

    #[test]
    fn image_batch_shape() {
        let blobs = Blobs::new(3 * 8 * 8, 4, 7);
        let mut rng = DetRng::new(8);
        let (x, _) = blobs.image_batch(&mut rng, 2, 3, 8, 8);
        assert_eq!(x.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn markov_rows_are_distributions() {
        let m = MarkovText::new(16, 9);
        for r in 0..16 {
            let s: f32 = m.trans[r * 16..(r + 1) * 16].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn markov_sequences_valid() {
        let m = MarkovText::new(12, 10);
        let mut rng = DetRng::new(11);
        let (input, target) = m.sequence(&mut rng, 50);
        assert_eq!(input.len(), 50);
        assert_eq!(target.len(), 50);
        assert!(input.iter().chain(&target).all(|&t| t < 12));
        // Shifted-by-one relationship.
        assert_eq!(&input[1..], &target[..49]);
    }

    #[test]
    fn markov_is_learnable_structure() {
        // The chain must be far from uniform: the most likely successor
        // should dominate. (If this fails, the LM convergence test would be
        // meaningless.)
        let m = MarkovText::new(16, 12);
        let max_p = m.trans[..16].iter().fold(0.0f32, |a, &b| a.max(b));
        assert!(max_p > 0.3, "transitions too uniform: {max_p}");
    }
}
