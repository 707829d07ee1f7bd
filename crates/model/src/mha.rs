//! Multi-head causal self-attention.
//!
//! Splits the model dimension into `h` heads, each attending independently
//! with its own d/h-dimensional projections, then concatenates and mixes
//! through an output projection — the full GPT-2 attention shape; with one
//! head it is plain single-head causal attention. This is the layer that
//! makes [`crate::builders::tiny_gpt`] a *real* (if small) transformer, so
//! the checkpointing experiments exercise transformer-shaped gradients and
//! layer orderings. Backward is validated against finite differences.

use crate::layer::Layer;
use lowdiff_tensor::{ops, Tensor};
use lowdiff_util::DetRng;

/// Multi-head causal self-attention: input (seq, d) → (seq, d).
///
/// Parameters, in flat order: Wq, Wk, Wv (each (d, d), head-blocked along
/// columns), then Wo (d, d).
pub struct MultiHeadAttention {
    name: String,
    pub d: usize,
    pub heads: usize,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    grad: Vec<f32>,
    cache: Option<Cache>,
}

struct Cache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-head attention matrices, each (seq, seq).
    attn: Vec<Tensor>,
    y: Tensor, // concat of head outputs (seq, d)
}

impl MultiHeadAttention {
    pub fn new(name: impl Into<String>, d: usize, heads: usize, rng: &mut DetRng) -> Self {
        assert!(
            heads >= 1 && d.is_multiple_of(heads),
            "d={d} not divisible by heads={heads}"
        );
        let mk = |rng: &mut DetRng| {
            let scale = (1.0 / d as f32).sqrt();
            let mut w = vec![0.0f32; d * d];
            for x in w.iter_mut() {
                *x = rng.uniform_f32(scale);
            }
            Tensor::from_vec(&[d, d], w)
        };
        Self {
            name: name.into(),
            d,
            heads,
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            wo: mk(rng),
            grad: vec![0.0; 4 * d * d],
            cache: None,
        }
    }

    fn head_dim(&self) -> usize {
        self.d / self.heads
    }

    /// Slice head `h` out of a (seq, d) tensor → (seq, dh).
    fn head_slice(&self, t: &Tensor, h: usize) -> Tensor {
        let (seq, d) = (t.shape()[0], t.shape()[1]);
        let dh = self.head_dim();
        let mut out = vec![0.0f32; seq * dh];
        let src = t.as_slice();
        for r in 0..seq {
            out[r * dh..(r + 1) * dh].copy_from_slice(&src[r * d + h * dh..r * d + (h + 1) * dh]);
        }
        Tensor::from_vec(&[seq, dh], out)
    }

    /// Write head `h`'s (seq, dh) block into a (seq, d) accumulator.
    fn head_write(&self, dst: &mut Tensor, src: &Tensor, h: usize) {
        let (seq, d) = (dst.shape()[0], dst.shape()[1]);
        let dh = self.head_dim();
        let s = src.as_slice();
        let out = dst.as_mut_slice();
        for r in 0..seq {
            out[r * d + h * dh..r * d + (h + 1) * dh].copy_from_slice(&s[r * dh..(r + 1) * dh]);
        }
    }
}

impl Layer for MultiHeadAttention {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_count(&self) -> usize {
        4 * self.d * self.d
    }

    fn write_params(&self, out: &mut [f32]) {
        let n = self.d * self.d;
        out[..n].copy_from_slice(self.wq.as_slice());
        out[n..2 * n].copy_from_slice(self.wk.as_slice());
        out[2 * n..3 * n].copy_from_slice(self.wv.as_slice());
        out[3 * n..].copy_from_slice(self.wo.as_slice());
    }

    fn read_params(&mut self, src: &[f32]) {
        let n = self.d * self.d;
        self.wq.as_mut_slice().copy_from_slice(&src[..n]);
        self.wk.as_mut_slice().copy_from_slice(&src[n..2 * n]);
        self.wv.as_mut_slice().copy_from_slice(&src[2 * n..3 * n]);
        self.wo.as_mut_slice().copy_from_slice(&src[3 * n..]);
    }

    fn write_grads(&self, out: &mut [f32]) {
        out.copy_from_slice(&self.grad);
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape()[1], self.d, "model dim mismatch");
        let seq = input.shape()[0];
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let q = ops::matmul(input, &self.wq);
        let k = ops::matmul(input, &self.wk);
        let v = ops::matmul(input, &self.wv);

        let mut y = Tensor::zeros(&[seq, self.d]);
        let mut attn = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = self.head_slice(&q, h);
            let kh = self.head_slice(&k, h);
            let vh = self.head_slice(&v, h);
            let mut s = ops::matmul_nt(&qh, &kh);
            {
                let data = s.as_mut_slice();
                for i in 0..seq {
                    for j in 0..seq {
                        let idx = i * seq + j;
                        if j > i {
                            data[idx] = -1e30;
                        } else {
                            data[idx] *= scale;
                        }
                    }
                }
            }
            ops::softmax_rows(&mut s);
            let yh = ops::matmul(&s, &vh);
            self.head_write(&mut y, &yh, h);
            attn.push(s);
        }
        let out = ops::matmul(&y, &self.wo);
        self.cache = Some(Cache {
            x: input.clone(),
            q,
            k,
            v,
            attn,
            y,
        });
        out
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Cache {
            x,
            q,
            k,
            v,
            attn,
            y,
        } = self.cache.take().expect("backward before forward on MHA");
        let seq = x.shape()[0];
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let n = self.d * self.d;

        let dwo = ops::matmul_tn(&y, grad_out);
        let dy = ops::matmul_nt(grad_out, &self.wo);

        let mut dq = Tensor::zeros(&[seq, self.d]);
        let mut dk = Tensor::zeros(&[seq, self.d]);
        let mut dv = Tensor::zeros(&[seq, self.d]);
        for h in 0..self.heads {
            let dyh = self.head_slice(&dy, h);
            let qh = self.head_slice(&q, h);
            let kh = self.head_slice(&k, h);
            let vh = self.head_slice(&v, h);
            let a = &attn[h];
            let da = ops::matmul_nt(&dyh, &vh);
            let dvh = ops::matmul_tn(a, &dyh);
            // softmax backward.
            let mut ds = Tensor::zeros(&[seq, seq]);
            {
                let (av, dav, dsv) = (a.as_slice(), da.as_slice(), ds.as_mut_slice());
                for i in 0..seq {
                    let row = i * seq;
                    let dot: f32 = (0..seq).map(|j| dav[row + j] * av[row + j]).sum();
                    for j in 0..seq {
                        dsv[row + j] = av[row + j] * (dav[row + j] - dot);
                    }
                }
            }
            let mut dqh = ops::matmul(&ds, &kh);
            ops::scale(dqh.as_mut_slice(), scale);
            let mut dkh = ops::matmul_tn(&ds, &qh);
            ops::scale(dkh.as_mut_slice(), scale);
            self.head_write(&mut dq, &dqh, h);
            self.head_write(&mut dk, &dkh, h);
            self.head_write(&mut dv, &dvh, h);
        }

        let dwq = ops::matmul_tn(&x, &dq);
        let dwk = ops::matmul_tn(&x, &dk);
        let dwv = ops::matmul_tn(&x, &dv);
        self.grad[..n].copy_from_slice(dwq.as_slice());
        self.grad[n..2 * n].copy_from_slice(dwk.as_slice());
        self.grad[2 * n..3 * n].copy_from_slice(dwv.as_slice());
        self.grad[3 * n..].copy_from_slice(dwo.as_slice());

        let mut dx = ops::matmul_nt(&dq, &self.wq);
        let dx_k = ops::matmul_nt(&dk, &self.wk);
        let dx_v = ops::matmul_nt(&dv, &self.wv);
        ops::add_assign(dx.as_mut_slice(), dx_k.as_slice());
        ops::add_assign(dx.as_mut_slice(), dx_v.as_slice());
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck;

    #[test]
    fn shape_and_causality() {
        let mut rng = DetRng::new(1);
        let mut mha = MultiHeadAttention::new("mha", 8, 2, &mut rng);
        let mut x = Tensor::zeros(&[5, 8]);
        DetRng::new(2).fill_normal_f32(x.as_mut_slice(), 1.0);
        let y0 = mha.forward(&x);
        assert_eq!(y0.shape(), &[5, 8]);
        // Perturb the last token; earlier outputs must not move.
        let mut x2 = x.clone();
        for c in 0..8 {
            x2.as_mut_slice()[4 * 8 + c] += 3.0;
        }
        let y1 = mha.forward(&x2);
        for i in 0..4 * 8 {
            assert!((y0.as_slice()[i] - y1.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn mha_gradcheck() {
        let mut rng = DetRng::new(5);
        let mut mha = MultiHeadAttention::new("mha", 4, 2, &mut rng);
        let mut x = Tensor::zeros(&[4, 4]);
        DetRng::new(6).fill_normal_f32(x.as_mut_slice(), 0.7);
        gradcheck::check(&mut mha, &x, 3e-2, true);
    }

    #[test]
    fn heads_differ_from_single_head() {
        // Multi-head with 2 heads is a genuinely different function than 1
        // head with the same weights (the causal blocks differ per head).
        let mut rng = DetRng::new(7);
        let mha2 = MultiHeadAttention::new("mha", 8, 2, &mut rng);
        let mut a = MultiHeadAttention::new("a", 8, 2, &mut rng);
        let mut b = MultiHeadAttention::new("b", 8, 1, &mut rng);
        let mut p = vec![0.0f32; mha2.param_count()];
        mha2.write_params(&mut p);
        a.read_params(&p);
        b.read_params(&p);
        let mut x = Tensor::zeros(&[4, 8]);
        DetRng::new(8).fill_normal_f32(x.as_mut_slice(), 1.0);
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        let diff: f32 = ya
            .as_slice()
            .iter()
            .zip(yb.as_slice())
            .map(|(u, v)| (u - v).abs())
            .sum();
        assert!(diff > 1e-3, "head split had no effect");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_head_count() {
        let mut rng = DetRng::new(9);
        MultiHeadAttention::new("mha", 7, 2, &mut rng);
    }
}
