//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is this table printed (`run.sh --emit-spec`), and a unit test
//! keeps the committed file equal to it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];
pub const PATHS: &[&str] = &["benchmark"];
pub const RUN_SECONDS: u64 = 16;

pub const TRAIN_FAST: &str = "train-fast-store";
pub const TRAIN_SLOW: &str = "train-slow-store";
pub const RECOVER_CHAIN: &str = "recover-chain";
pub const CLUSTER: &str = "cluster-2rank";

/// Device bandwidth of the slow store's single lane.
pub const SLOW_STORE_MBPS: f64 = 80.0;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        TRAIN_FAST,
        "Unpaced in-memory store: device time is ~0, so capture, encode, CRC and the memcpy into the \
         store do all the checkpoint work and compete with training for the cores.",
    ),
    (
        TRAIN_SLOW,
        "Same trace and seed on an 80 MB/s single-lane store: the device does most of the work; \
         back-pressure, batching and drain show here and CPU-kernel changes must not.",
    ),
    (
        RECOVER_CHAIN,
        "Read side of the same layers: resume from one full plus a 50-differential chain \
         (list, get, CRC, decode, to_dense, Adam replay); write-only changes must not move it.",
    ),
    (
        CLUSTER,
        "Coordinator plus two run_worker ranks over loopback TCP on DiskBackend shards: the only \
         workload where cluster::rt, comm::wire, ShardedStrategy and storage::shard run.",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is reported by every workload and is lower-is-
/// better; what it means on each workload is in README.md. Each bound is
/// three times the widest run-to-run spread seen for the metric on any
/// workload (README, "Bounds"), capped at the contract's 0.25: the counts
/// are tight, the wall-clock times are as loose as this host's speed
/// regimes make them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "ckpt_cycle_ms_p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s_p50",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_iter",
        unit: "B",
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics (traced pass). A metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // The training loop's own view of the write path (train-*, and the
    // hook-driven chain build of recover-chain).
    lo("anchor_iter_ms_p50", "ms"),
    lo("stall_ms_per_cycle_p50", "ms"),
    lo("full_durable_ms_p50", "ms"),
    lo("diff_durable_ms_p50", "ms"),
    lo("drain_s", "s"),
    lo("traced.ckpt_cycle_ms_p50", "ms"),
    lo("traced.recover_s_p50", "s"),
    // model
    lo("model.forward_ms_p50", "ms"),
    lo("model.nockpt_iter_ms_p50", "ms"),
    lo("model.overhead_frac", "frac"),
    // compress
    lo("compress.topk_ef_ms_p50", "ms"),
    lo("compress.diff_bytes", "B"),
    // optim
    lo("optim.adam_step_ms_p50", "ms"),
    lo("optim.adam_step_hook_ms_p50", "ms"),
    lo("optim.to_dense_ms_p50", "ms"),
    // engine (core::engine + LowDiffStrategy at the CheckpointStrategy boundary)
    lo("engine.on_layer_grad_ms_p50", "ms"),
    lo("engine.on_synced_ms_p50", "ms"),
    lo("engine.after_update_ms_p50", "ms"),
    lo("engine.after_update_anchor_ms_p50", "ms"),
    lo("engine.hooks_sum_frac", "frac"),
    lo("engine.prime_ms", "ms"),
    lo("engine.flush_ms", "ms"),
    lo("engine.contention_ms_per_iter", "ms"),
    hi("engine.fulls", "count"),
    hi("engine.diffs", "count"),
    lo("engine.writes", "count"),
    lo("engine.dropped", "count"),
    lo("engine.io_retries", "count"),
    // codec (storage::codec)
    lo("codec.encode_full_ms_p50", "ms"),
    hi("codec.encode_full_gbps", "GB/s"),
    lo("codec.decode_full_ms_p50", "ms"),
    lo("codec.encode_diff_batch_ms_p50", "ms"),
    lo("codec.decode_diff_batch_ms_p50", "ms"),
    lo("codec.full_bytes", "B"),
    lo("codec.diff_batch_bytes", "B"),
    lo("codec.encode_frac_of_memcpy", "frac"),
    // util + host roofline
    hi("util.crc32_gbps", "GB/s"),
    hi("host.memcpy_gbps", "GB/s"),
    // backend / store (storage::{backend,store,stripe} seen by PacedBackend)
    lo("backend.puts", "count"),
    lo("backend.ranged_puts", "count"),
    lo("backend.put_bytes", "B"),
    lo("backend.put_ms_p50", "ms"),
    lo("backend.busy_frac", "frac"),
    lo("backend.queue_wait_ms_p50", "ms"),
    lo("backend.gets", "count"),
    lo("backend.get_bytes", "B"),
    lo("backend.lists", "count"),
    lo("backend.deletes", "count"),
    lo("backend.live_bytes_max", "B"),
    // recovery (Trainer::resume, core::recovery)
    lo("recovery.sweep_ms_p50", "ms"),
    lo("recovery.anchor_load_ms_p50", "ms"),
    lo("recovery.chain_load_ms_p50", "ms"),
    lo("recovery.replay_ms_per_diff", "ms"),
    lo("recovery.parts_sum_frac", "frac"),
    lo("recovery.serial_s_p50", "s"),
    lo("recovery.sharded_s_p50", "s"),
    lo("recovery.gets", "count"),
    lo("recovery.get_bytes", "B"),
    lo("recovery.lists", "count"),
    // cluster (cluster::rt, comm::wire, storage::shard)
    lo("coord.register_ms_p50", "ms"),
    lo("coord.barrier_rtt_us_p50", "us"),
    lo("coord.seal_to_manifest_ms_p50", "ms"),
    lo("wire.bytes_per_epoch", "B"),
    lo("wire.codec_us_p50", "us"),
    lo("shard.stitch_ms_p50", "ms"),
    lo("worker.resume_ms_p50", "ms"),
    hi("coord.global_seals", "count"),
];

/// Values measured by one run, keyed by metric name. Setting a name the
/// spec does not list is a bug in the harness, caught at once.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark spec"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` rows: every end-to-end metric, or every
    /// per-layer metric, in spec order.
    pub fn rows(&self, per_layer: bool) -> Vec<(&'static str, f64, &'static str)> {
        if per_layer {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, self.get(m.name), m.unit))
                .collect()
        }
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// A number as JSON: all its digits, and never `NaN`/`inf` (not JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.bound
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}{comma}",
            m.name, m.unit
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {u}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `benchmark/run.sh --emit-spec`"
        );
    }
}
