//! Property-based tests for tensor numerics.

use lowdiff_tensor::{ops, Tensor};
use lowdiff_testkit::reference::matmul_nt_scalar;
use proptest::prelude::*;
use rayon::pool;

fn arb_matrix(max: usize) -> impl Strategy<Value = Tensor> {
    (1..max, 1..max).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c).prop_map(move |v| Tensor::from_vec(&[r, c], v))
    })
}

/// Mostly finite values, with ±0.0, subnormals of both signs, ±inf and NaN
/// mixed in at a rate that leaves most dots finite.
fn edge_f32() -> impl Strategy<Value = f32> {
    (0u32..256, -4.0f32..4.0, 1u32..0x0080_0000).prop_map(|(pick, x, sub)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5..=8 => f32::from_bits(sub),
        9..=12 => -f32::from_bits(sub),
        _ => x,
    })
}

fn edge_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(edge_f32(), rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v))
}

/// `matmul_nt` equals the scalar oracle bit for bit at pool widths 1 and 3.
/// A NaN output need only be NaN: which NaN an add or multiply of two NaNs
/// returns is left to codegen (x86 keeps the first register operand, which
/// the compiler picks), so the oracle's own NaN bits differ between debug
/// and release builds.
fn assert_matmul_nt_matches_oracle(a: &Tensor, b: &Tensor) {
    let want = matmul_nt_scalar(a, b);
    for threads in [1, 3] {
        let got = pool::with_num_threads(threads, || ops::matmul_nt(a, b));
        assert_eq!(got.shape(), want.shape());
        let same = |(g, w): (&f32, &f32)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(
            got.as_slice().iter().zip(want.as_slice()).all(same),
            "matmul_nt {:?}·{:?}ᵀ diverged from the scalar oracle at {threads} threads",
            a.shape(),
            b.shape()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shapes cover partial 8-row panels, partial 4-column groups and an
    /// empty inner dimension.
    #[test]
    fn matmul_nt_matches_scalar_oracle(
        ab in (1usize..=19, 1usize..=11, 0usize..=67)
            .prop_flat_map(|(m, n, k)| (edge_matrix(m, k), edge_matrix(n, k))),
    ) {
        assert_matmul_nt_matches_oracle(&ab.0, &ab.1);
    }

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Wide enough that the tiles are spread over the pool, with a partial
    /// 8-row panel and a partial 4-column group.
    #[test]
    fn matmul_nt_spread_tiles_match_scalar_oracle(a in edge_matrix(21, 70), b in edge_matrix(2050, 70)) {
        assert_matmul_nt_matches_oracle(&a, &b);
    }
}
