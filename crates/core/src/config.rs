//! Checkpointing-configuration optimization (§4.3, Equations (3)–(5)).
//!
//! The paper models wasted time as recovery overhead + steady-state
//! overhead and minimizes over the full-checkpoint frequency `f` and the
//! batching size `b`:
//!
//! ```text
//! T_wasted(f, b) = (N·T/M)·( b/2 + R_F + (R_D/2)·(1/(f·b) − 1) )  +  N·T·S·f/W     (3)
//! (f*, b*) = ( ∛(R_D·W² / 4S²M²),  ∛(2·S·R_D·M / W) )                              (5)
//! ```
//!
//! The paper mixes units (iterations and hours) in (3); we implement a
//! dimensionally consistent variant in seconds by substituting
//! `b_time = b · t_iter` (seconds of training work per batch), which leaves
//! the closed form (5) intact with `b* = b_time*/t_iter`. A unit test checks
//! the closed form against a brute-force numeric argmin.

use lowdiff_util::units::{Bandwidth, ByteSize, Secs};

/// Constant parameters of the wasted-time model (paper notation in docs).
///
/// ```
/// use lowdiff::config::WastedTimeModel;
/// use lowdiff_util::units::{Bandwidth, ByteSize, Secs};
///
/// let model = WastedTimeModel {
///     n_gpus: 8.0,
///     mtbf: Secs::hours(1.0),
///     write_bw: Bandwidth::gbps_bytes(2.7),
///     full_size: ByteSize::f32s(3 * 117_000_000), // GPT2-S, 3 psi
///     job_time: Secs::hours(24.0),
///     load_full: Secs(2.0),
///     merge_diff: Secs(0.4),
///     iter_time: Secs::ms(120.0),
/// };
/// let (f_star, b_star) = model.optimal_closed_form();   // Eq. (5)
/// // The closed form sits at the minimum of Eq. (3):
/// let at_opt = model.wasted_time(f_star, b_star);
/// assert!(model.wasted_time(f_star * 2.0, b_star) > at_opt);
/// assert!(model.wasted_time(f_star, b_star * 3.0) > at_opt);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WastedTimeModel {
    /// N — number of GPUs.
    pub n_gpus: f64,
    /// M — mean time between failures.
    pub mtbf: Secs,
    /// W — checkpoint write bandwidth.
    pub write_bw: Bandwidth,
    /// S — full checkpoint size (3Ψ·4 bytes).
    pub full_size: ByteSize,
    /// T — total job run time.
    pub job_time: Secs,
    /// R_F — time to load a full checkpoint.
    pub load_full: Secs,
    /// R_D — time to merge one (batched) differential at recovery.
    pub merge_diff: Secs,
    /// Iteration time, converting batch counts to seconds of lost work.
    pub iter_time: Secs,
}

impl WastedTimeModel {
    /// Wasted time for full-checkpoint frequency `f` (checkpoints per
    /// second) and batching size `b` (differentials per write).
    /// Equation (3), consistent units.
    pub fn wasted_time(&self, f: f64, b: f64) -> Secs {
        assert!(
            f > 0.0 && b > 0.0,
            "frequency and batch size must be positive"
        );
        let n = self.n_gpus;
        let t = self.job_time.as_f64();
        let m = self.mtbf.as_f64();
        let rf = self.load_full.as_f64();
        let rd = self.merge_diff.as_f64();
        let b_time = b * self.iter_time.as_f64();

        let failures_weighted = n * t / m;
        // Average merges to replay: half the number of batched diffs in a
        // full-checkpoint interval, minus the one covered by the full ckpt.
        let merges = ((1.0 / (f * b_time)) - 1.0).max(0.0) / 2.0;
        let recovery = failures_weighted * (b_time / 2.0 + rf + rd * merges);
        let steady = n * t * (self.full_size / self.write_bw).as_f64() * f;
        Secs(recovery + steady)
    }

    /// Closed-form optimum (Equation (5)): returns `(f*, b*)` with `f*` in
    /// checkpoints/second and `b*` in differentials per write.
    pub fn optimal_closed_form(&self) -> (f64, f64) {
        let m = self.mtbf.as_f64();
        let rd = self.merge_diff.as_f64();
        let s_over_w = (self.full_size / self.write_bw).as_f64(); // S/W in sec
        let f = (rd / (4.0 * s_over_w * s_over_w * m * m)).cbrt();
        let b_time = (2.0 * s_over_w * rd * m).cbrt();
        (f, b_time / self.iter_time.as_f64())
    }

    /// Normalized wasted-time grid over explicit FCF intervals (iterations)
    /// and integer batch sizes — the shape of Table 1. Entry `[i][j]` is
    /// `T(fcf_i, bs_j) / min`.
    pub fn normalized_grid(&self, fcf_iters: &[u64], batch_sizes: &[u64]) -> Vec<Vec<f64>> {
        let mut grid: Vec<Vec<f64>> = fcf_iters
            .iter()
            .map(|&fcf| {
                let f = 1.0 / (fcf as f64 * self.iter_time.as_f64());
                batch_sizes
                    .iter()
                    .map(|&b| self.wasted_time(f, b as f64).as_f64())
                    .collect()
            })
            .collect();
        let min = grid.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        for row in grid.iter_mut() {
            for v in row.iter_mut() {
                *v /= min;
            }
        }
        grid
    }
}

/// Runtime-adaptive tuner: starts from a default configuration and steps
/// toward the closed-form optimum as it observes fresh MTBF / bandwidth
/// estimates (§6 "Optimal configuration module": "adapts to runtime metrics
/// using stepwise adjustments"). Steps are damped (at most ×2 per update)
/// so noisy estimates cannot whipsaw the checkpoint cadence.
#[derive(Clone, Debug)]
pub struct ConfigOptimizer {
    model: WastedTimeModel,
    /// Current full-checkpoint interval in iterations.
    pub fcf_iters: u64,
    /// Current batching size.
    pub batch_size: u64,
}

impl ConfigOptimizer {
    pub fn new(model: WastedTimeModel, fcf_iters: u64, batch_size: u64) -> Self {
        assert!(fcf_iters >= 1 && batch_size >= 1);
        Self {
            model,
            fcf_iters,
            batch_size,
        }
    }

    /// Target configuration for the current model constants, rounded to
    /// whole iterations/diffs and clamped to sane bounds.
    pub fn target(&self) -> (u64, u64) {
        let (f, b) = self.model.optimal_closed_form();
        let interval = (1.0 / (f * self.model.iter_time.as_f64())).round().max(1.0);
        let batch = b.round().max(1.0);
        (interval as u64, batch as u64)
    }

    /// Ingest fresh runtime estimates and take one damped step toward the
    /// optimum. Returns the (possibly unchanged) configuration.
    pub fn observe(&mut self, mtbf: Secs, write_bw: Bandwidth) -> (u64, u64) {
        self.model.mtbf = mtbf;
        self.model.write_bw = write_bw;
        let (tgt_fcf, tgt_bs) = self.target();
        self.fcf_iters = damped_step(self.fcf_iters, tgt_fcf);
        self.batch_size = damped_step(self.batch_size, tgt_bs);
        (self.fcf_iters, self.batch_size)
    }

    pub fn model(&self) -> &WastedTimeModel {
        &self.model
    }
}

/// Move `cur` toward `tgt`, multiplicatively, by at most 2× per call.
fn damped_step(cur: u64, tgt: u64) -> u64 {
    let cur = cur.max(1);
    if tgt > cur {
        (cur * 2).min(tgt)
    } else if tgt < cur {
        (cur / 2).max(tgt).max(1)
    } else {
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPT2-S-like setup on the paper's testbed.
    fn model() -> WastedTimeModel {
        WastedTimeModel {
            n_gpus: 8.0,
            mtbf: Secs::hours(1.0),
            write_bw: Bandwidth::gbps_bytes(2.7),
            full_size: ByteSize::f32s(3 * 117_000_000),
            job_time: Secs::hours(24.0),
            load_full: Secs(2.0),
            merge_diff: Secs(0.4),
            iter_time: Secs::ms(120.0),
        }
    }

    /// Brute-force argmin over log-spaced grids — the ground truth the
    /// closed form is validated against.
    fn optimal_numeric(m: &WastedTimeModel, grid: usize) -> (f64, f64) {
        let (f0, b0) = m.optimal_closed_form();
        let mut best = (f64::INFINITY, f0, b0);
        for i in 0..grid {
            // Sweep two decades around the analytic point.
            let f = f0 * 10f64.powf(-1.0 + 2.0 * i as f64 / (grid - 1) as f64);
            for j in 0..grid {
                let b = (b0 * 10f64.powf(-1.0 + 2.0 * j as f64 / (grid - 1) as f64)).max(1e-6);
                let w = m.wasted_time(f, b).as_f64();
                if w < best.0 {
                    best = (w, f, b);
                }
            }
        }
        (best.1, best.2)
    }

    #[test]
    fn closed_form_matches_numeric_argmin() {
        let m = model();
        let (fa, ba) = m.optimal_closed_form();
        let (fn_, bn) = optimal_numeric(&m, 81);
        // Grid resolution is ~6% per step in log space.
        assert!(
            (fa / fn_ - 1.0).abs() < 0.1,
            "f: analytic {fa} vs numeric {fn_}"
        );
        assert!(
            (ba / bn - 1.0).abs() < 0.1,
            "b: analytic {ba} vs numeric {bn}"
        );
    }

    #[test]
    fn optimum_is_interior_minimum() {
        let m = model();
        let (f, b) = m.optimal_closed_form();
        let at = m.wasted_time(f, b).as_f64();
        for (df, db) in [(2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5)] {
            let w = m.wasted_time(f * df, b * db).as_f64();
            assert!(
                w > at,
                "perturbation (×{df}, ×{db}) gave {w} <= optimum {at}"
            );
        }
    }

    #[test]
    fn wasted_time_increases_with_failure_rate() {
        let mut m = model();
        let (f, b) = m.optimal_closed_form();
        let w1 = m.wasted_time(f, b).as_f64();
        m.mtbf = Secs::hours(0.25);
        let w2 = m.wasted_time(f, b).as_f64();
        assert!(w2 > w1, "more failures must waste more time");
    }

    #[test]
    fn higher_failure_rate_means_more_frequent_checkpoints() {
        let mut m = model();
        let (f1, _) = m.optimal_closed_form();
        m.mtbf = Secs::hours(0.1);
        let (f2, _) = m.optimal_closed_form();
        assert!(f2 > f1);
    }

    /// Constants in Table 1's regime: the paper's grid has its optimum at
    /// (FCF = 20 iterations, BS = 2), which corresponds to a fault-injection
    /// setting (MTBF seconds, memory-tier write bandwidth). Derived by
    /// inverting Eq. (5) for (f* = 1/(20·t_iter), b* = 2).
    fn table1_model() -> WastedTimeModel {
        WastedTimeModel {
            n_gpus: 8.0,
            mtbf: Secs(30.0),
            write_bw: Bandwidth(146.25e9),
            full_size: ByteSize::f32s(3 * 117_000_000), // S/W ≈ 9.6 ms
            job_time: Secs::hours(1.0),
            load_full: Secs(0.5),
            merge_diff: Secs(0.024),
            iter_time: Secs::ms(120.0),
        }
    }

    #[test]
    fn table1_shape_interior_minimum_per_row() {
        // Qualitative reproduction of Table 1: per-row (fixed FCF), the
        // normalized wasted time must be non-monotone in batch size — an
        // interior minimum exists for at least the mid rows.
        let m = table1_model();
        let fcfs = [10u64, 20, 50, 100];
        let bss = [1u64, 2, 3, 4, 5, 6];
        let grid = m.normalized_grid(&fcfs, &bss);
        assert_eq!(grid.len(), 4);
        // Global min is 1.0 by construction.
        let min = grid.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
        // At least one row must have its minimum strictly inside the range.
        let interior_rows = grid
            .iter()
            .filter(|row| {
                let (imin, _) = row
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                imin > 0 && imin < row.len() - 1
            })
            .count();
        assert!(interior_rows >= 1, "no row showed an interior BS optimum");
    }

    #[test]
    fn adaptive_tuner_converges_to_target() {
        let m = model();
        let mut opt = ConfigOptimizer::new(m, 1, 1);
        let (tgt_fcf, tgt_bs) = opt.target();
        for _ in 0..32 {
            opt.observe(m.mtbf, m.write_bw);
        }
        assert_eq!(opt.fcf_iters, tgt_fcf);
        assert_eq!(opt.batch_size, tgt_bs);
    }

    #[test]
    fn adaptive_tuner_is_damped() {
        let m = model();
        let mut opt = ConfigOptimizer::new(m, 1, 1);
        let before = opt.fcf_iters;
        opt.observe(m.mtbf, m.write_bw);
        assert!(opt.fcf_iters <= before * 2, "step exceeded damping bound");
    }

    #[test]
    fn tuner_reacts_to_changed_environment() {
        let m = model();
        let mut opt = ConfigOptimizer::new(m, 8, 2);
        for _ in 0..32 {
            opt.observe(Secs::hours(1.0), Bandwidth::gbps_bytes(2.7));
        }
        let stable = opt.fcf_iters;
        // Failures get 100× more frequent → checkpoint much more often
        // (smaller interval).
        for _ in 0..32 {
            opt.observe(Secs::hours(0.01), Bandwidth::gbps_bytes(2.7));
        }
        assert!(
            opt.fcf_iters < stable,
            "interval did not shrink: {} -> {}",
            stable,
            opt.fcf_iters
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_degenerate_config() {
        model().wasted_time(0.0, 1.0);
    }
}
