//! The radix-threshold select and the in-place error feedback against the
//! formulations they replaced (`oracle/`), on adversarial inputs and at
//! 1, 2 and 4 pool threads.

mod oracle;

use lowdiff_compress::{ErrorFeedback, TopK};
use lowdiff_util::DetRng;
use oracle::{select_oracle, TwoBufferEf};

/// Sizes around the selection's chunking steps: one chunk, the step to two
/// (2^16), and an odd count further up with a short last chunk.
const SIZES: [usize; 5] = [257, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (5 << 15) + 77];
/// Past the 64-chunk cap (2^21), again with a remainder. Slow under a debug
/// build, so only the tests whose inputs depend on the chunk layout use it.
const LARGE: usize = (1 << 21) + 4099;

fn ks(n: usize) -> [usize; 6] {
    [1, 2, (n / 100).max(1), n / 2, n - 1, n]
}

/// `TopK::select` at 1, 2 and 4 threads: all equal to the oracle, strictly
/// increasing, `k` long.
fn assert_matches_oracle(g: &[f32], k: usize, what: &str) {
    let want = select_oracle(g, k);
    for t in [1, 2, 4] {
        let got = rayon::pool::with_num_threads(t, || TopK::select(g, k));
        assert_eq!(got.len(), k.min(g.len()), "{what} k={k} threads={t}");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "{what} k={k} threads={t}: not strictly increasing"
        );
        assert!(got == want, "{what} n={} k={k} threads={t}", g.len());
    }
}

#[test]
fn random_finite_inputs() {
    let mut rng = DetRng::new(2024);
    for n in SIZES.into_iter().chain([LARGE]) {
        // Heavy-tailed magnitudes (normal × 2^uniform) so every histogram
        // level sees populated buckets, plus a sprinkling of exact ties.
        let mut g: Vec<f32> = (0..n)
            .map(|_| (rng.normal() * (rng.uniform() * 40.0 - 20.0).exp2()) as f32)
            .collect();
        for i in (0..n).step_by(61) {
            g[i] = if i % 2 == 0 { 1.25 } else { -1.25 };
        }
        for k in ks(n) {
            assert_matches_oracle(&g, k, "random");
        }
    }
}

#[test]
fn all_equal_and_signed_zeros() {
    for n in SIZES {
        let equal = vec![-3.5f32; n];
        let zeros: Vec<f32> = (0..n)
            .map(|i| if i % 3 == 1 { -0.0 } else { 0.0 })
            .collect();
        for k in ks(n) {
            assert_matches_oracle(&equal, k, "all-equal");
            assert_matches_oracle(&zeros, k, "signed zeros");
        }
    }
}

#[test]
fn denormals_and_infinities() {
    let mut rng = DetRng::new(5);
    for n in SIZES {
        // Denormals only: keys differ in the lowest histogram levels alone.
        let denormal: Vec<f32> = (0..n)
            .map(|i| {
                let bits = 1 + (rng.next_u64() % 0x7F_FFFF) as u32;
                f32::from_bits(bits | ((i as u32 & 1) << 31))
            })
            .collect();
        // Normals with ±inf and f32::MAX scattered in.
        let mut extreme: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        for i in (0..n).step_by(53) {
            extreme[i] = [
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
            ][i % 4];
        }
        for k in ks(n) {
            assert_matches_oracle(&denormal, k, "denormals");
            assert_matches_oracle(&extreme, k, "infinities");
        }
    }
}

#[test]
fn tie_run_straddling_chunk_boundaries() {
    // Two magnitudes only. The larger one occupies a run that starts in one
    // chunk and ends several chunks later; k cuts the run (and then the
    // smaller magnitude) at every interesting place.
    for n in SIZES.into_iter().chain([LARGE]) {
        let (lo, hi) = (n / 5, n - n / 3);
        let g: Vec<f32> = (0..n)
            .map(|i| {
                let big = (lo..hi).contains(&i);
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * if big { 2.0 } else { 1.0 }
            })
            .collect();
        let run = hi - lo;
        for k in [1, run / 2, run - 1, run, run + 1, run + lo, n - 1, n] {
            if k >= 1 {
                assert_matches_oracle(&g, k, "two magnitudes");
            }
        }
    }
}

#[test]
fn nan_inputs_do_not_panic_and_are_deterministic() {
    let mut rng = DetRng::new(17);
    for n in [1000, (3 << 15) + 5] {
        let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        let nans: Vec<u32> = (0..n as u32).step_by(211).collect();
        for &i in &nans {
            g[i as usize] = if i % 2 == 0 { f32::NAN } else { -f32::NAN };
        }
        g[1] = f32::INFINITY;
        for k in [1, nans.len() - 1, nans.len(), nans.len() + 1, n / 2, n - 1] {
            let first = TopK::select(&g, k);
            assert_eq!(first.len(), k);
            assert!(first.windows(2).all(|w| w[0] < w[1]));
            for t in [1, 2, 4] {
                let again = rayon::pool::with_num_threads(t, || TopK::select(&g, k));
                assert_eq!(again, first, "n={n} k={k} threads={t}");
            }
            // NaN ranks above +inf: NaNs fill the selection first, in
            // index order, and the infinity comes right after them.
            let m = k.min(nans.len());
            let picked_nans: Vec<u32> = first
                .iter()
                .copied()
                .filter(|&i| g[i as usize].is_nan())
                .collect();
            assert_eq!(picked_nans, nans[..m]);
            assert_eq!(first.contains(&1), k > nans.len());
        }
    }
}

/// Residual and sent handle bit-identical to the two-buffer formulation
/// over 50 iterations, with the pool at 1, 2 and 4 threads.
#[test]
fn in_place_error_feedback_is_bit_identical_to_two_buffers() {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for (n, threads) in [(997, 1), ((1 << 16) + 9, 2), ((3 << 15) + 1, 4)] {
        let mut rng = DetRng::new(n as u64);
        let mut ef = ErrorFeedback::new(TopK::new(0.01), n);
        let mut reference = TwoBufferEf::new(0.01, n);
        for it in 0..50 {
            let mut g: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
            // Exact zeros of both signs and exact cancellations of the
            // residual exercise the signed-zero corners of `+` and `−`.
            for i in (it..n).step_by(37) {
                g[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            for i in (it..n).step_by(41) {
                g[i] = -ef.residual()[i];
            }
            let got = rayon::pool::with_num_threads(threads, || ef.compress(&g));
            let want = reference.compress(&g);
            let (got, want) = (got.as_sparse().unwrap(), want.as_sparse().unwrap());
            assert_eq!(got.indices, want.indices, "n={n} iteration {it}");
            assert_eq!(
                bits(&got.values),
                bits(&want.values),
                "n={n} iteration {it}"
            );
            assert!(
                bits(ef.residual()) == bits(&reference.residual),
                "n={n} iteration {it}: residual diverged"
            );
        }
    }
}

/// A resumed run restores the residual with `set_residual`; from there it
/// must continue exactly as the uninterrupted one.
#[test]
fn residual_round_trips_across_a_resume() {
    let n = 5000;
    let mut rng = DetRng::new(3);
    let grads: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..n).map(|_| rng.normal() as f32).collect())
        .collect();
    let mut live = ErrorFeedback::new(TopK::new(0.02), n);
    for g in &grads[..10] {
        live.compress(g);
    }
    let saved = live.residual().to_vec();
    let mut resumed = ErrorFeedback::new(TopK::new(0.02), n);
    resumed.set_residual(&saved);
    assert_eq!(resumed.residual(), &saved[..]);
    for g in &grads[10..] {
        assert_eq!(live.compress(g), resumed.compress(g));
        assert_eq!(live.residual(), resumed.residual());
    }
}
