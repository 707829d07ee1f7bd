//! Deterministic pseudo-random number generation.
//!
//! The whole reproduction must be replayable (failure injection at iteration
//! `k` must be the same failure every run), so we use a self-contained
//! xoshiro256** generator seeded through SplitMix64 instead of thread-local
//! OS entropy. The distributions implemented here (uniform, normal,
//! exponential) are exactly the ones the workloads need:
//!
//! * uniform / normal — synthetic datasets and weight initialization,
//! * exponential — failure inter-arrival times for a given MTBF,
//! * index sampling without replacement — Random-K gradient compression.

/// SplitMix64 step, used to expand a single `u64` seed into the four words
/// of xoshiro256** state. This is the seeding procedure recommended by the
/// xoshiro authors (Blackman & Vigna).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256** generator.
///
/// Not cryptographically secure; statistically excellent and extremely fast,
/// which is what a simulator wants.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    gauss_spare: Option<f64>,
}

impl DetRng {
    /// Create a generator from a 64-bit seed. Two generators built from the
    /// same seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator (e.g. one per worker rank).
    /// Children with different `stream` ids are statistically independent.
    pub fn fork(&self, stream: u64) -> Self {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Raw generator state, for checkpointing the RNG cursor. Only valid
    /// to capture at a point where no Box–Muller spare is cached (i.e.
    /// after an even number of `normal()` draws, or none) — asserted, so a
    /// checkpoint can never silently drop half a Gaussian draw.
    pub fn state(&self) -> [u64; 4] {
        assert!(
            self.gauss_spare.is_none(),
            "cannot checkpoint DetRng mid-Gaussian-pair"
        );
        self.s
    }

    /// Rebuild a generator from a captured [`state`](Self::state). The
    /// restored generator continues the stream exactly where the captured
    /// one left off.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[-scale, scale)`; used for weight initialization.
    #[inline]
    pub fn uniform_f32(&mut self, scale: f32) -> f32 {
        (self.uniform() as f32) * 2.0 * scale - scale
    }

    /// Unbiased uniform integer in `[0, bound)` via Lemire's method.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Rejection-free polar-less form; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Exponentially distributed sample with the given mean (inverse
    /// transform). Used for failure inter-arrival times: `mean == MTBF`.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - uniform() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Sample `k` distinct indices from `[0, n)`.
    ///
    /// Uses Floyd's algorithm: O(k) expected time and memory, independent of
    /// `n`, which matters when sampling 0.1 % of a 762 M-parameter gradient.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<u32> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut chosen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below(j as u64 + 1) as usize;
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick as u32);
        }
        out.sort_unstable();
        out
    }

    /// Fill a slice with i.i.d. normal f32 values scaled by `std`.
    pub fn fill_normal_f32(&mut self, xs: &mut [f32], std: f32) {
        for x in xs.iter_mut() {
            *x = self.normal() as f32 * std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent() {
        let root = DetRng::new(7);
        let mut c0 = root.fork(0);
        let mut c1 = root.fork(1);
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(6);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exponential(3.5)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.08, "mean {mean}");
    }

    #[test]
    fn exponential_positive() {
        let mut r = DetRng::new(8);
        for _ in 0..10_000 {
            assert!(r.exponential(0.5) > 0.0);
        }
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut r = DetRng::new(10);
        for _ in 0..50 {
            let v = r.sample_indices(1000, 100);
            assert_eq!(v.len(), 100);
            for w in v.windows(2) {
                assert!(w[0] < w[1], "not strictly sorted: {:?}", w);
            }
            assert!(v.iter().all(|&i| (i as usize) < 1000));
        }
    }

    #[test]
    fn sample_indices_full_range() {
        let mut r = DetRng::new(12);
        let v = r.sample_indices(16, 16);
        assert_eq!(v, (0..16u32).collect::<Vec<_>>());
    }
}
