//! Property-based tests for tensor numerics.

use lowdiff_tensor::{ops, Tensor};
use proptest::prelude::*;

fn arb_matrix(max: usize) -> impl Strategy<Value = Tensor> {
    (1..max, 1..max).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c).prop_map(move |v| Tensor::from_vec(&[r, c], v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)·C == A·(B·C) within float tolerance.
    #[test]
    fn matmul_associative(
        a in arb_matrix(8),
        inner in prop::collection::vec(-2.0f32..2.0, 64),
    ) {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let p = 3usize;
        let q = 4usize;
        let b = Tensor::from_vec(&[k, p], inner[..k * p].iter().copied().cycle().take(k * p).collect());
        let c = Tensor::from_vec(&[p, q], inner[..p * q].iter().copied().cycle().take(p * q).collect());
        let left = ops::matmul(&ops::matmul(&a, &b), &c);
        let right = ops::matmul(&a, &ops::matmul(&b, &c));
        prop_assert_eq!(left.shape(), &[m, q][..]);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs().max(y.abs())));
        }
    }

    /// axpy then inverse-axpy restores the original (within float noise).
    #[test]
    fn axpy_inverse(
        x in prop::collection::vec(-100.0f32..100.0, 1..200),
        a in -10.0f32..10.0,
    ) {
        let mut y = vec![1.0f32; x.len()];
        let orig = y.clone();
        ops::axpy(a, &x, &mut y);
        ops::axpy(-a, &x, &mut y);
        for (u, v) in y.iter().zip(&orig) {
            prop_assert!((u - v).abs() <= 1e-3 * (1.0 + v.abs() + (a * 100.0).abs()));
        }
    }

    /// Softmax rows sum to one and are within (0, 1].
    #[test]
    fn softmax_is_distribution(t in arb_matrix(10)) {
        let mut s = t.clone();
        ops::softmax_rows(&mut s);
        let (rows, cols) = (s.shape()[0], s.shape()[1]);
        for r in 0..rows {
            let mut sum = 0.0f32;
            for c in 0..cols {
                let v = s.at2(r, c);
                prop_assert!(v > 0.0 && v <= 1.0 + 1e-6);
                sum += v;
            }
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }
}
