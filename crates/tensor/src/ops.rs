//! Numerical kernels over flat `f32` slices and [`Tensor`]s.
//!
//! Two tiers:
//! * slice kernels (`axpy`, `scale`, …) operate on `&[f32]` so the optimizer
//!   and compressors can reuse them on raw buffers without constructing
//!   tensors;
//! * matrix kernels (`matmul`, `matmul_tn`, …) implement the 2-D products the
//!   model layers need, with rayon parallelism over output rows, or over
//!   register-blocked output tiles in [`matmul_nt`].

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Threshold below which parallel dispatch costs more than it saves.
const PAR_MIN: usize = 1 << 14;

/// `y += a * x` (BLAS axpy).
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if x.len() >= PAR_MIN {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yi, &xi)| *yi += a * xi);
    } else {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }
}

/// `x *= a`.
pub fn scale(x: &mut [f32], a: f32) {
    if x.len() >= PAR_MIN {
        x.par_iter_mut().for_each(|xi| *xi *= a);
    } else {
        for xi in x.iter_mut() {
            *xi *= a;
        }
    }
}

/// Elementwise `out = a + b`. Allocates; steady-state loops should prefer
/// [`add_assign`] into a reused buffer.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Elementwise `a += b`, in place.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "add_assign length mismatch");
    if a.len() >= PAR_MIN {
        a.par_iter_mut()
            .zip(b.par_iter())
            .for_each(|(ai, &bi)| *ai += bi);
    } else {
        for (ai, &bi) in a.iter_mut().zip(b) {
            *ai += bi;
        }
    }
}

/// Elementwise `out = a - b`. Allocates; steady-state loops should prefer
/// [`sub_assign`] into a reused buffer.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Elementwise `a -= b`, in place.
pub fn sub_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "sub_assign length mismatch");
    if a.len() >= PAR_MIN {
        a.par_iter_mut()
            .zip(b.par_iter())
            .for_each(|(ai, &bi)| *ai -= bi);
    } else {
        for (ai, &bi) in a.iter_mut().zip(b) {
            *ai -= bi;
        }
    }
}

/// Dot product in f64 accumulation (stability for long vectors).
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if a.len() >= PAR_MIN {
        a.par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum()
    } else {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }
}

/// `C = A(m×k) · B(k×n)`, rayon-parallel over rows of C.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        let arow = &ad[i * k..(i + 1) * k];
        for (p, &aip) in arow.iter().enumerate() {
            if aip != 0.0 {
                let brow = &bd[p * n..(p + 1) * n];
                for (r, &bpj) in row.iter_mut().zip(brow) {
                    *r += aip * bpj;
                }
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// `C = Aᵀ(k×m)ᵀ · B(k×n) = (m×n)`: A is stored (k×m), used transposed.
/// This is the `weight-gradient = inputᵀ · dOut` pattern in backward passes.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        for p in 0..k {
            let aip = ad[p * m + i];
            if aip != 0.0 {
                let brow = &bd[p * n..(p + 1) * n];
                for (r, &bpj) in row.iter_mut().zip(brow) {
                    *r += aip * bpj;
                }
            }
        }
    });
    Tensor::from_vec(&[m, n], out)
}

/// Rows of A per packed panel, and per output tile.
const MR: usize = 8;
/// Rows of B (columns of C) per output tile.
const NR: usize = 4;
/// Multiply-adds a parallel task gets at least: below this a thread spawn
/// costs more than the tiles it would run.
const TASK_MACS: usize = 1 << 18;

/// `C = A(m×k) · B(n×k)ᵀ = (m×n)`: B is stored (n×k), used transposed.
/// This is the `Linear` forward (`input · Wᵀ`) and the
/// `input-gradient = dOut · weightᵀ` pattern in backward passes.
///
/// Register-blocked: A is packed into panels of 8 rows laid out as
/// `k × [f32; 8]`, and each task computes an 8 × 4 tile of C with 4
/// independent 8-lane accumulators, which the compiler vectorizes at the
/// baseline target. The result is bit-identical to one serial dot per
/// output: every output starts at `+0.0` and adds `a[i,p] * b[j,p]` for
/// `p = 0..k` in order (accumulator on the left, the A element as the left
/// factor), with no fused multiply-add. Only which NaN a NaN output carries
/// is left to codegen, as in any Rust float code. Each output is computed
/// wholly inside one tile, so the result does not depend on how tiles are
/// spread over the pool.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    if k == 0 || out.is_empty() {
        return Tensor::from_vec(&[m, n], out);
    }
    let (ad, bd) = (a.as_slice(), b.as_slice());
    // Rows past `m` in the last panel stay zero; their outputs are dropped.
    let mut packed = vec![[0.0f32; MR]; m.div_ceil(MR) * k];
    for (i, arow) in ad.chunks_exact(k).enumerate() {
        let panel = &mut packed[i / MR * k..(i / MR + 1) * k];
        for (lane, &x) in panel.iter_mut().zip(arow) {
            lane[i % MR] = x;
        }
    }
    let col_groups = n.div_ceil(NR);
    let tiles: Vec<usize> = (0..m.div_ceil(MR) * col_groups).collect();
    let per_task = TASK_MACS.div_ceil(MR * NR * k);
    let results: Vec<[[f32; MR]; NR]> = tiles
        .into_par_iter()
        .with_min_len(per_task)
        .map(|t| {
            let (panel, group) = (t / col_groups, t % col_groups);
            // Columns past `n` in the last group repeat column `n - 1`.
            let brows = std::array::from_fn(|c| {
                let j = (group * NR + c).min(n - 1);
                &bd[j * k..(j + 1) * k]
            });
            tile(&packed[panel * k..(panel + 1) * k], brows)
        })
        .collect();
    for (t, acc) in results.iter().enumerate() {
        let (panel, group) = (t / col_groups, t % col_groups);
        for r in 0..MR.min(m - panel * MR) {
            let row = &mut out[(panel * MR + r) * n..(panel * MR + r + 1) * n];
            for c in 0..NR.min(n - group * NR) {
                row[group * NR + c] = acc[c][r];
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// One `MR × NR` tile of `A · Bᵀ`: `acc[c][r] = Σ_p panel[p][r] * brows[c][p]`,
/// summed from `+0.0` in `p` order.
fn tile(panel: &[[f32; MR]], brows: [&[f32]; NR]) -> [[f32; MR]; NR] {
    let k = panel.len();
    let brows = brows.map(|b| &b[..k]);
    let mut acc = [[0.0f32; MR]; NR];
    for (p, a) in panel.iter().enumerate() {
        for (accc, b) in acc.iter_mut().zip(&brows) {
            let y = b[p];
            for (s, &x) in accc.iter_mut().zip(a) {
                *s += x * y;
            }
        }
    }
    acc
}

/// Row-wise softmax in place on a 2-D tensor (numerically stabilized).
pub fn softmax_rows(t: &mut Tensor) {
    assert_eq!(t.shape().len(), 2, "softmax_rows expects 2-D");
    let cols = t.shape()[1];
    t.as_mut_slice().par_chunks_mut(cols).for_each(|row| {
        let mx = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(&[rows, cols], v.to_vec())
    }

    #[test]
    fn axpy_small_and_large() {
        let mut y = vec![1.0; 10];
        axpy(2.0, &[3.0; 10], &mut y);
        assert!(y.iter().all(|&v| (v - 7.0).abs() < 1e-6));

        let n = PAR_MIN + 5;
        let mut y = vec![1.0; n];
        axpy(0.5, &vec![2.0; n], &mut y);
        assert!(y.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn scale_and_add_sub() {
        let mut x = vec![1.0, -2.0, 3.0];
        scale(&mut x, -2.0);
        assert_eq!(x, vec![-2.0, 4.0, -6.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 1.0]), vec![-2.0, 1.0]);
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        // Small (serial) and large (parallel) paths, both ops.
        for n in [10usize, PAR_MIN + 3] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos()).collect();
            let mut a2 = a.clone();
            add_assign(&mut a2, &b);
            assert_eq!(a2, add(&a, &b), "add_assign diverged at n={n}");
            let mut a3 = a.clone();
            sub_assign(&mut a3, &b);
            assert_eq!(a3, sub(&a, &b), "sub_assign diverged at n={n}");
        }
    }

    #[test]
    fn dot_matches_manual() {
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t2(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).as_slice(), a.as_slice());
        assert_eq!(matmul(&i, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        // A: 3x2, B: 3x4  =>  A^T B : 2x4
        let a = t2(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 4, &(1..=12).map(|x| x as f32).collect::<Vec<_>>());
        let at = t2(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(matmul_tn(&a, &b).as_slice(), matmul(&at, &b).as_slice());

        // A: 2x3, B: 4x3  =>  A B^T : 2x4
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(4, 3, &(1..=12).map(|x| x as f32).collect::<Vec<_>>());
        let bt = t2(
            3,
            4,
            &[
                1.0, 4.0, 7.0, 10.0, 2.0, 5.0, 8.0, 11.0, 3.0, 6.0, 9.0, 12.0,
            ],
        );
        assert_eq!(matmul_nt(&a, &b).as_slice(), matmul(&a, &bt).as_slice());
    }

    #[test]
    fn matmul_nt_sums_every_output_from_positive_zero() {
        // Every product is -0.0: a dot started at +0.0 stays +0.0. A 9×5
        // output has a partial 8-row panel and a partial 4-column group.
        let c = matmul_nt(&t2(9, 2, &[-0.0; 18]), &t2(5, 2, &[1.0; 10]));
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = t2(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        softmax_rows(&mut t);
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| t.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
        // Large-input row must not produce NaN (stability check).
        assert!(t.as_slice().iter().all(|x| x.is_finite()));
        // Uniform logits -> uniform probabilities.
        assert!((t.at2(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }
}
