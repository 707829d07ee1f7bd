//! Per-strategy analytic cost model.
//!
//! Everything is derived from the hardware profile and model sizes except
//! the named constants in [`crate::calib`]. The modeled dataflow per
//! strategy (at checkpoint interval `k` iterations):
//!
//! * **torch.save** — blocking: GPU→CPU copy, serialize, write.
//! * **CheckFreq** — blocking GPU-side snapshot (HBM copy), then an
//!   asynchronous persist (PCIe + SSD) that stalls training only for the
//!   part not hidden within the interval (pipeline depth 1).
//! * **Gemini** — full-state replication to peer CPU memory over the
//!   network; its traffic scheduler hides what fits in the interval's
//!   compute window.
//! * **Naïve DC** — per-iteration delta accumulation on the GPU (HBM), a
//!   blocking Top-K compression of the 3Ψ differential per event
//!   (Challenge 1), and a pipelined write of the ρ-sparse parameters plus
//!   *dense* optimizer moments (Challenge 2, Exp. 7).
//! * **LowDiff** — reused compressed gradients: no compression cost, a
//!   mostly-hidden D2H offload of 2ρΨ bytes, batched asynchronous writes;
//!   residual software overhead per iteration.
//! * **LowDiff+** — layer-wise dense-gradient streaming over PCIe
//!   (contention-exposed fraction), CPU replica updates off the critical
//!   path, sharded asynchronous persistence.

use crate::calib;
use crate::hardware::HardwareProfile;

/// Full-checkpoint interval LowDiff amortizes its in-memory snapshots
/// over when the caller does not specify one (the ConfigOptimizer's
/// typical output is O(100) iterations).
const LOWDIFF_DEFAULT_FCF: f64 = 100.0;
use lowdiff_model::zoo::ModelSpec;
use lowdiff_util::units::{ByteSize, Secs};

/// Checkpointing strategies the cost model knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    WoCkpt,
    TorchSave,
    CheckFreq,
    Gemini,
    NaiveDc,
    LowDiff,
    LowDiffPlus,
}

impl StrategyKind {
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::WoCkpt => "W/O CKPT",
            StrategyKind::TorchSave => "Torch.save",
            StrategyKind::CheckFreq => "CheckFreq",
            StrategyKind::Gemini => "Gemini",
            StrategyKind::NaiveDc => "Naive DC",
            StrategyKind::LowDiff => "LowDiff",
            StrategyKind::LowDiffPlus => "LowDiff+",
        }
    }

    /// The strategies compared in Exp. 1 (compression scenario).
    pub fn exp1_lineup() -> [StrategyKind; 5] {
        [
            StrategyKind::WoCkpt,
            StrategyKind::NaiveDc,
            StrategyKind::CheckFreq,
            StrategyKind::Gemini,
            StrategyKind::LowDiff,
        ]
    }
}

/// Cost model for one (hardware, model, cluster size, ρ) combination.
#[derive(Clone, Debug)]
pub struct CostModel {
    pub hw: HardwareProfile,
    pub spec: ModelSpec,
    /// Total GPUs in the job.
    pub n_gpus: usize,
    /// Top-K ratio ρ; `1.0` means no compression (the LowDiff+ scenario).
    pub rho: f64,
}

impl CostModel {
    pub fn new(hw: HardwareProfile, spec: ModelSpec, n_gpus: usize, rho: f64) -> Self {
        assert!(n_gpus >= 1 && rho > 0.0 && rho <= 1.0);
        Self {
            hw,
            spec,
            n_gpus,
            rho,
        }
    }

    /// Server count (each node holds `gpus_per_node` GPUs).
    pub fn nodes(&self) -> usize {
        self.n_gpus.div_ceil(self.hw.gpus_per_node)
    }

    /// Iteration time (forward + backward + sync + update) on this testbed.
    pub fn iter_time(&self) -> Secs {
        self.spec.iter_time
    }

    /// Full checkpoint bytes (3Ψ·4).
    pub fn full_bytes(&self) -> ByteSize {
        self.spec.full_ckpt_bytes()
    }

    /// Compressed-gradient (LowDiff differential) bytes: 8ρΨ.
    pub fn cgrad_bytes(&self) -> ByteSize {
        self.spec.compressed_grad_bytes(self.rho)
    }

    // ----- per-strategy steady-state overhead ---------------------------

    /// Amortized checkpointing overhead per iteration at checkpoint
    /// interval `k` (in iterations).
    pub fn overhead_per_iter(&self, kind: StrategyKind, k: u64) -> Secs {
        assert!(k >= 1);
        let t_it = self.iter_time();
        let full = self.full_bytes();
        let kf = k as f64;
        match kind {
            StrategyKind::WoCkpt => Secs::ZERO,
            StrategyKind::TorchSave => {
                let copy = full / self.hw.pcie;
                let ser = Secs((full / self.hw.host_mem).as_f64() * calib::TORCH_SAVE_SER_FACTOR);
                let write = full / self.hw.ssd_write;
                Secs((copy + ser + write).as_f64() / kf)
            }
            StrategyKind::CheckFreq => {
                let snapshot = full / self.hw.hbm; // blocking GPU-side copy
                let persist = full / self.hw.pcie + full / self.hw.ssd_write;
                let window =
                    Secs((t_it * kf).as_f64() * calib::PIPELINE_OVERLAP_WINDOW - snapshot.as_f64());
                let exposed = persist.saturating_sub(window.max(Secs::ZERO));
                Secs((snapshot + exposed).as_f64() / kf)
            }
            StrategyKind::Gemini => {
                // Full-state replication over the 25 Gbps NIC; the traffic
                // scheduler hides what fits in ~0.9 of the window.
                let transfer = full / self.hw.net;
                let window = t_it * (kf * 0.9);
                let exposed =
                    Secs(transfer.saturating_sub(window).as_f64() * (1.0 - calib::GEMINI_OVERLAP));
                Secs(exposed.as_f64() / kf)
            }
            StrategyKind::NaiveDc => {
                // Per event: delta computation against the retained old
                // state (HBM stream over 3Ψ), blocking compression of the
                // differential (Challenge 1), and a pipelined write of the
                // dense moments (sequential) + sparse params (derated) —
                // Challenge 2.
                let delta = full / self.hw.hbm;
                let compress = full / self.hw.compress;
                let dense_part = ByteSize::f32s(2 * self.spec.params) / self.hw.ssd_write;
                let sparse_part = Secs(
                    self.spec.compressed_grad_bytes(self.rho).as_f64()
                        / (self.hw.ssd_write.bytes_per_sec() * calib::UNBATCHED_WRITE_DERATE),
                );
                let write = dense_part + sparse_part;
                let window = (t_it * kf).saturating_sub(compress + delta);
                let exposed = write.saturating_sub(window);
                Secs((delta + compress + exposed).as_f64() / kf)
            }
            StrategyKind::LowDiff => {
                // Reuse: no compression cost. Residual software overhead +
                // exposed slice of the 2ρΨ D2H offload, every iteration.
                let software = Secs(t_it.as_f64() * calib::LOWDIFF_SOFTWARE_OVERHEAD);
                let offload = Secs(
                    (self.cgrad_bytes() / self.hw.pcie).as_f64() * calib::LOWDIFF_OFFLOAD_EXPOSED,
                );
                // Batched asynchronous writes stall only beyond SSD rate.
                let write_rate_needed = self.cgrad_bytes().as_f64() / t_it.as_f64();
                let ssd = self.hw.ssd_write.bytes_per_sec() * calib::LOWDIFF_WRITE_DERATE;
                let saturation = if write_rate_needed > ssd {
                    Secs((write_rate_needed - ssd) / ssd * t_it.as_f64())
                } else {
                    Secs::ZERO
                };
                // Full checkpoints (every ~FCF iterations, tuned by the
                // ConfigOptimizer) ride the async path; only the in-memory
                // snapshot blocks, amortized over the FCF interval. `k`
                // here is the *differential* interval.
                let snapshot = Secs((full / self.hw.hbm).as_f64() / LOWDIFF_DEFAULT_FCF);
                software + offload + saturation + snapshot
            }
            StrategyKind::LowDiffPlus => {
                // Layer-wise dense gradient streaming: PCIe contention.
                let stream = Secs(
                    (self.spec.grad_bytes() / self.hw.pcie).as_f64()
                        * calib::LOWDIFF_PLUS_PCIE_EXPOSED,
                );
                let software = Secs(t_it.as_f64() * calib::LOWDIFF_PLUS_SOFTWARE);
                stream + software
            }
        }
    }

    /// Fractional slowdown vs W/O CKPT at interval `k`.
    pub fn slowdown(&self, kind: StrategyKind, k: u64) -> f64 {
        self.overhead_per_iter(kind, k).as_f64() / self.iter_time().as_f64()
    }

    /// Total training time for `iters` iterations at interval `k`.
    pub fn training_time(&self, kind: StrategyKind, k: u64, iters: u64) -> Secs {
        Secs((self.iter_time() + self.overhead_per_iter(kind, k)).as_f64() * iters as f64)
    }

    /// Smallest checkpoint interval (highest frequency) whose slowdown is
    /// within `bound` (e.g. 0.035 for the paper's 3.5 %). `None` when even
    /// interval `cap` cannot meet the bound.
    pub fn max_frequency(&self, kind: StrategyKind, bound: f64, cap: u64) -> Option<u64> {
        (1..=cap).find(|&k| self.slowdown(kind, k) <= bound)
    }

    // ----- Fig. 1 motivation curves -------------------------------------

    /// Training slowdown caused by Naïve-DC differential *compression* at
    /// interval `k` (Fig. 1(a)): one delta computation + blocking 3Ψ
    /// compression per event.
    pub fn dc_compression_slowdown(&self, k: u64) -> f64 {
        let delta = (self.full_bytes() / self.hw.hbm).as_f64();
        let compress = (self.full_bytes() / self.hw.compress).as_f64();
        ((delta + compress) / k as f64) / self.iter_time().as_f64()
    }

    /// Training slowdown caused by differential *transmission* at interval
    /// `k` (Fig. 1(b)): one blocking compressed-differential write per
    /// event (compression itself excluded — it is Fig. 1(a)'s axis).
    pub fn dc_transmission_slowdown(&self, k: u64) -> f64 {
        // The compressed differential: ρ-sparse over the full 3Ψ state,
        // written unbatched (derated small-write bandwidth).
        let diff = self.full_bytes().as_f64() * self.rho * 2.0;
        let write = diff / (self.hw.ssd_write.bytes_per_sec() * calib::UNBATCHED_WRITE_DERATE);
        (write / k as f64) / self.iter_time().as_f64()
    }

    // ----- recovery (Exp. 5) --------------------------------------------

    /// Time to load a full checkpoint with torch.load-style
    /// deserialization.
    pub fn torch_load(&self) -> Secs {
        self.full_bytes() / self.hw.ssd_read
            + Secs((self.full_bytes() / self.hw.host_mem).as_f64() * calib::TORCH_DESER_FACTOR)
    }

    /// Raw (codec) full-checkpoint load.
    pub fn raw_load(&self) -> Secs {
        self.full_bytes() / self.hw.ssd_read
    }

    /// One differential merge (decompress + elementwise Adam over Ψ) on
    /// the host, single-threaded.
    pub fn merge_one(&self) -> Secs {
        Secs(
            (ByteSize::f32s(3 * self.spec.params) / self.hw.host_mem).as_f64()
                * calib::MERGE_COST_FACTOR,
        )
    }

    /// Recovery time when failing just before the next full checkpoint at
    /// interval `fcf` (the Exp. 5 x-axis), per strategy:
    ///
    /// * `TorchSave`/`CheckFreq`/`Gemini` (durable tier) — reload + **recompute**
    ///   the `fcf−1` lost iterations.
    /// * `NaiveDc` — reload + load dense moments + serial merges.
    /// * `LowDiff` — reload + *parallel* (sharded) merges across
    ///   `recovery_shards` threads.
    /// * `LowDiffPlus` — software failure: restore the CPU replica over
    ///   PCIe; no storage loads, no recompute.
    pub fn recovery_time(&self, kind: StrategyKind, fcf: u64, recovery_shards: usize) -> Secs {
        assert!(fcf >= 1);
        let lost = (fcf - 1) as f64;
        match kind {
            StrategyKind::WoCkpt => {
                // No checkpoint: restart from scratch — not plotted, but
                // defined for completeness as recomputing everything.
                Secs(f64::INFINITY)
            }
            StrategyKind::TorchSave | StrategyKind::CheckFreq | StrategyKind::Gemini => {
                self.torch_load() + Secs(lost * self.iter_time().as_f64())
            }
            StrategyKind::NaiveDc => {
                let moments = ByteSize::f32s(2 * self.spec.params) / self.hw.ssd_read;
                self.raw_load() + moments + Secs(lost * self.merge_one().as_f64())
            }
            StrategyKind::LowDiff => {
                let merges = Secs(lost * self.merge_one().as_f64() / recovery_shards as f64);
                let diffs_load =
                    ByteSize::bytes((self.cgrad_bytes().as_f64() * lost) as u64) / self.hw.ssd_read;
                self.raw_load() + diffs_load + merges
            }
            StrategyKind::LowDiffPlus => {
                Secs((self.full_bytes() / self.hw.pcie).as_f64() + calib::REPLICA_REINIT_SECS)
            }
        }
    }

    // ----- Exp. 4 / Exp. 8 frequency limits ------------------------------

    /// LowDiff+'s maximum *persistence* frequency: the interval needed for
    /// node-sharded full-state writes to keep up with the SSDs.
    pub fn lowdiff_plus_persist_interval(&self) -> u64 {
        let per_node = self.full_bytes().as_f64() / self.nodes() as f64;
        let write = per_node / self.hw.ssd_write.bytes_per_sec();
        (write / self.iter_time().as_f64()).ceil().max(1.0) as u64
    }

    /// LowDiff's maximum checkpoint frequency at ratio `rho` (Exp. 8):
    /// the smallest interval whose compressed-gradient offload + write
    /// fit inside the per-interval overlap budget.
    pub fn lowdiff_interval_for_rho(&self, rho: f64) -> u64 {
        let cg = self.spec.compressed_grad_bytes(rho).as_f64();
        let write = cg / (self.hw.ssd_write.bytes_per_sec() * calib::LOWDIFF_WRITE_DERATE);
        let offload = cg / self.hw.pcie.bytes_per_sec();
        let budget = self.iter_time().as_f64() * 0.9;
        (write.max(offload) / budget).ceil().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::a100;
    use lowdiff_model::zoo::by_name;

    fn cm(model: &str) -> CostModel {
        CostModel::new(a100(), by_name(model).unwrap(), 8, 0.01)
    }

    #[test]
    fn wo_ckpt_is_free_and_lowdiff_is_cheap() {
        let m = cm("GPT2-L");
        assert_eq!(m.overhead_per_iter(StrategyKind::WoCkpt, 1).as_f64(), 0.0);
        let s = m.slowdown(StrategyKind::LowDiff, 1);
        assert!(
            (0.02..0.04).contains(&s),
            "LowDiff per-iteration slowdown {s} outside the paper's 2.4–3.1 % band"
        );
    }

    #[test]
    fn exp1_ordering_at_per_iteration_frequency() {
        // Paper Exp. 1: LowDiff ≪ Gemini < NaiveDC < CheckFreq on GPT2-L.
        let m = cm("GPT2-L");
        let t = |k| m.training_time(k, 1, 1000).as_f64();
        let lowdiff = t(StrategyKind::LowDiff);
        let gemini = t(StrategyKind::Gemini);
        let naive = t(StrategyKind::NaiveDc);
        let checkfreq = t(StrategyKind::CheckFreq);
        let wo = t(StrategyKind::WoCkpt);
        assert!(lowdiff < gemini && gemini < naive && naive < checkfreq);
        assert!(lowdiff < wo * 1.05);
        // CheckFreq blows past +800 % on GPT2-L (paper: +891 %).
        assert!(checkfreq / wo > 8.0, "CheckFreq only {}x", checkfreq / wo);
    }

    #[test]
    fn exp1_lowdiff_vs_gemini_reduction_gpt2l() {
        // Paper: 59.2 % training-time reduction vs Gemini on GPT2-L.
        let m = cm("GPT2-L");
        let lowdiff = m.training_time(StrategyKind::LowDiff, 1, 1000).as_f64();
        let gemini = m.training_time(StrategyKind::Gemini, 1, 1000).as_f64();
        let reduction = 1.0 - lowdiff / gemini;
        assert!(
            (0.40..0.75).contains(&reduction),
            "reduction {reduction} far from paper's 0.592"
        );
    }

    #[test]
    fn lowdiff_plus_overhead_band() {
        // Paper Exp. 2: +8.2–10.1 % over W/O CKPT (no compression).
        for name in ["GPT2-L", "GPT2-S", "BERT-L"] {
            let m = CostModel::new(a100(), by_name(name).unwrap(), 8, 1.0);
            let s = m.slowdown(StrategyKind::LowDiffPlus, 1);
            assert!(
                (0.05..0.14).contains(&s),
                "{name}: LowDiff+ slowdown {s} outside band"
            );
        }
    }

    #[test]
    fn exp4_lowdiff_reaches_per_iteration() {
        for name in ["ResNet-101", "BERT-L", "GPT2-S", "GPT2-L"] {
            let m = CostModel::new(a100(), by_name(name).unwrap(), 8, 0.01);
            assert_eq!(
                m.max_frequency(StrategyKind::LowDiff, 0.035, 100),
                Some(1),
                "{name}: LowDiff must support per-iteration checkpointing"
            );
        }
    }

    #[test]
    fn exp4_interval_orderings() {
        let m = cm("GPT2-L");
        let lowdiff = m.max_frequency(StrategyKind::LowDiff, 0.035, 1000).unwrap();
        let gemini = m.max_frequency(StrategyKind::Gemini, 0.035, 1000).unwrap();
        let naive = m.max_frequency(StrategyKind::NaiveDc, 0.035, 1000).unwrap();
        let checkfreq = m
            .max_frequency(StrategyKind::CheckFreq, 0.035, 1000)
            .unwrap();
        assert!(lowdiff <= gemini, "LowDiff {lowdiff} vs Gemini {gemini}");
        assert!(gemini <= naive, "Gemini {gemini} vs NaiveDC {naive}");
        assert!(gemini <= checkfreq);
        assert!(checkfreq >= 10, "CheckFreq can't go below ~10 iterations");
    }

    #[test]
    fn fig1_slowdowns_increase_with_frequency() {
        let m = cm("GPT2-L");
        let mut prev_c = f64::INFINITY;
        let mut prev_t = f64::INFINITY;
        for k in [1u64, 2, 4, 8] {
            let c = m.dc_compression_slowdown(k);
            let t = m.dc_transmission_slowdown(k);
            assert!(c < prev_c && t < prev_t, "not monotone at k={k}");
            prev_c = c;
            prev_t = t;
        }
        // Band check against Fig. 1: per-iteration ~50–60 %.
        let c1 = m.dc_compression_slowdown(1);
        let t1 = m.dc_transmission_slowdown(1);
        assert!((0.4..0.8).contains(&c1), "compression slowdown {c1}");
        assert!((0.3..0.8).contains(&t1), "transmission slowdown {t1}");
    }

    #[test]
    fn exp5_recovery_orderings() {
        let m = cm("GPT2-S");
        for fcf in [5u64, 10, 20, 50] {
            let base = m.recovery_time(StrategyKind::TorchSave, fcf, 1).as_f64();
            let naive = m.recovery_time(StrategyKind::NaiveDc, fcf, 1).as_f64();
            let lowdiff = m.recovery_time(StrategyKind::LowDiff, fcf, 8).as_f64();
            let plus = m.recovery_time(StrategyKind::LowDiffPlus, fcf, 1).as_f64();
            assert!(lowdiff < naive, "fcf={fcf}");
            assert!(naive < base, "fcf={fcf}");
            assert!(plus < lowdiff, "fcf={fcf}");
        }
        // Paper: LowDiff+(S) is 9.4–57.1× faster than Baseline over fcf 5–50.
        let speedup_5 = m.recovery_time(StrategyKind::TorchSave, 5, 1).as_f64()
            / m.recovery_time(StrategyKind::LowDiffPlus, 5, 1).as_f64();
        let speedup_50 = m.recovery_time(StrategyKind::TorchSave, 50, 1).as_f64()
            / m.recovery_time(StrategyKind::LowDiffPlus, 50, 1).as_f64();
        assert!(speedup_5 > 4.0 && speedup_5 < 25.0, "5: {speedup_5}");
        assert!(speedup_50 > 25.0, "50: {speedup_50}");
    }

    #[test]
    fn exp8_interval_grows_with_rho_for_gpt2l() {
        let m = CostModel::new(a100(), by_name("GPT2-L").unwrap(), 8, 1.0);
        let small = m.lowdiff_interval_for_rho(0.001);
        let mid = m.lowdiff_interval_for_rho(0.05);
        let big = m.lowdiff_interval_for_rho(0.1);
        assert_eq!(small, 1);
        assert!(mid <= big);
        assert!(big >= 2, "ρ=0.1 on GPT2-L must exceed one iteration");
        // GPT2-S stays per-iteration across the whole range (paper).
        let s = CostModel::new(a100(), by_name("GPT2-S").unwrap(), 8, 1.0);
        assert_eq!(s.lowdiff_interval_for_rho(0.1), 1);
    }

    #[test]
    fn lowdiff_plus_persist_interval_shape() {
        // Per-iteration for ResNet-101; a few iterations for GPT2-L.
        let r = CostModel::new(a100(), by_name("ResNet-101").unwrap(), 8, 1.0);
        assert_eq!(r.lowdiff_plus_persist_interval(), 1);
        let g = CostModel::new(a100(), by_name("GPT2-L").unwrap(), 8, 1.0);
        let k = g.lowdiff_plus_persist_interval();
        assert!((2..=6).contains(&k), "GPT2-L persist interval {k}");
    }
}
