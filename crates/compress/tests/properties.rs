//! Property-based tests for the compression substrate.

mod oracle;

use lowdiff_compress::sparsify::k_for_ratio;
use lowdiff_compress::{Compressor, ErrorFeedback, SparseGrad, TopK, UniformQuant};
use lowdiff_util::DetRng;
use proptest::prelude::*;

fn small_grad() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..300)
}

/// `g` at `ratio` of its coordinates, drawn uniformly without replacement.
fn random_subset(g: &[f32], ratio: f64, rng: &mut DetRng) -> SparseGrad {
    let indices = rng.sample_indices(g.len(), k_for_ratio(g.len(), ratio));
    let values = indices.iter().map(|&i| g[i as usize]).collect();
    SparseGrad::new(g.len(), indices, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-K keeps exactly k = max(1, round(ρn)) coordinates and their
    /// values verbatim.
    #[test]
    fn topk_keeps_exact_values(g in small_grad(), rho in 0.01f64..1.0) {
        let mut c = TopK::new(rho);
        let out = c.compress(&g);
        let s = out.as_sparse().unwrap();
        let expect_k = ((g.len() as f64 * rho).round() as usize).clamp(1, g.len());
        prop_assert_eq!(s.nnz(), expect_k);
        for (&i, &v) in s.indices.iter().zip(&s.values) {
            prop_assert_eq!(v, g[i as usize]);
        }
    }

    /// Decompressing and re-compressing is a fixed point (projection).
    #[test]
    fn topk_is_projection(g in small_grad(), rho in 0.05f64..0.9) {
        let mut c = TopK::new(rho);
        let once = c.compress(&g);
        let twice = c.compress(&once.to_dense());
        prop_assert_eq!(once, twice);
    }

    /// Kept magnitudes dominate dropped magnitudes.
    #[test]
    fn topk_dominance(g in small_grad()) {
        let mut c = TopK::new(0.25);
        let s = c.compress(&g);
        let s = s.as_sparse().unwrap();
        let kept: std::collections::HashSet<u32> = s.indices.iter().copied().collect();
        let min_kept = s.values.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in g.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_kept + 1e-6);
            }
        }
    }

    /// Sparse merge is exactly dense addition.
    #[test]
    fn merge_is_dense_addition(
        g1 in small_grad(),
        seed in 0u64..1000,
    ) {
        let n = g1.len();
        let mut rng = DetRng::new(seed);
        let sa = random_subset(&g1, 0.3, &mut rng);
        let sb = random_subset(&g1, 0.3, &mut rng);
        let merged = sa.merge(&sb).to_dense();
        let mut expect = vec![0.0f32; n];
        sa.add_into(&mut expect);
        sb.add_into(&mut expect);
        prop_assert_eq!(merged, expect);
    }

    /// Merge is commutative.
    #[test]
    fn merge_commutes(g in small_grad(), seed in 0u64..1000) {
        let mut rng = DetRng::new(seed);
        let sa = random_subset(&g, 0.4, &mut rng);
        let sb = random_subset(&g, 0.4, &mut rng);
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    /// Quantization error is bounded by half a step.
    #[test]
    fn quant8_error_bound(g in small_grad()) {
        let mut q = UniformQuant::new(8);
        let d = q.compress(&g).to_dense();
        let lo = g.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = g.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let step = ((hi - lo) / 255.0).max(f32::EPSILON);
        for (a, b) in g.iter().zip(&d) {
            prop_assert!((a - b).abs() <= step * 0.5 + 1e-4,
                "err {} > half step {}", (a - b).abs(), step * 0.5);
        }
    }

    /// Error feedback conserves mass exactly for Top-K:
    /// sent + residual == grad + previous residual, elementwise.
    #[test]
    fn error_feedback_conserves(gs in prop::collection::vec(small_grad(), 1..4)) {
        // Use the first gradient's length for all.
        let n = gs[0].len();
        let mut ef = ErrorFeedback::new(TopK::new(0.2), n);
        let mut prev = vec![0.0f32; n];
        for g in &gs {
            let g: Vec<f32> = g.iter().cycle().take(n).copied().collect();
            let acc: Vec<f32> = g.iter().zip(&prev).map(|(a, b)| a + b).collect();
            let sent = ef.compress(&g).to_dense();
            for i in 0..n {
                prop_assert_eq!(sent[i] + ef.residual()[i], acc[i]);
            }
            prev = ef.residual().to_vec();
        }
    }

    /// The radix-threshold selection returns exactly what the comparator
    /// quick-select it replaced did — for any finite values (including
    /// ties) and any k — at 1, 2 and 4 pool threads.
    #[test]
    fn select_equals_oracle(
        seed in 0u64..1000,
        dup_every in 2usize..50,
        k_frac in 0.0f64..1.0,
    ) {
        // Three chunks, the last one short.
        let n = (3 << 15) + 123;
        let mut rng = DetRng::new(seed);
        let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        for i in (0..n).step_by(dup_every) {
            g[i] = 1.25; // ties spanning chunk boundaries
        }
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let want = oracle::select_oracle(&g, k);
        for t in [1, 2, 4] {
            let got = rayon::pool::with_num_threads(t, || TopK::select(&g, k));
            prop_assert_eq!(&got, &want);
        }
    }

    /// SparseGrad payload accounting is exact.
    #[test]
    fn payload_bytes_exact(n in 1usize..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n);
        let indices: Vec<u32> = (0..k as u32).collect();
        let values = vec![1.0f32; k];
        let s = SparseGrad::new(n, indices, values);
        prop_assert_eq!(s.payload_bytes(), 8 + k * 8);
    }
}
