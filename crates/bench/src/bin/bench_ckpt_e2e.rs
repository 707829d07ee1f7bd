//! End-to-end checkpoint-pipeline benchmark: per-strategy **training-thread
//! stall** per iteration, measured over the unified `CheckpointEngine` on an
//! in-memory backend behind a `ThrottledBackend`.
//!
//! The throttled backend only accounts device time; it never sleeps. So the
//! stall reported here is CPU work only — capture, encode, CRC, the copy
//! into the in-memory store and queueing — and `--mbps` moves neither the
//! stall nor the wall time beyond run-to-run noise: a store-bound stall (CheckFreq waiting on
//! its depth-1 pipeline behind a slow write, torch.save blocking for a
//! whole slow write) does not show. The stall is exactly what each strategy
//! returns from its training-side hooks (`on_synced_gradient` +
//! `after_update`); the end-of-run queue drain is reported separately and
//! does not count against per-iteration stall. The full-write scaling sweep
//! reads the backend's accounted device time, so `--mbps` does set those
//! rows.
//!
//! Usage: `bench_ckpt_e2e [--psi N] [--iters K] [--mbps B] [--stripes S]
//! [--peers P] [--quant-bits Q] [--adaptive] [--max-quant-err E]
//! [--out PATH] [--smoke]`
//! (defaults: 262144 params, 40 iterations, 300 MB/s, 1 stripe, 1 peer,
//! 8-bit quantized row, BENCH_ckpt_e2e.json). `--stripes S` fans every
//! checkpoint blob out into S concurrent ranged writes sealed by a
//! manifest (the striped persist path); the run also sweeps full-write
//! throughput over 1/2/4/8 stripes on a 4-channel throttled backend to
//! show the fan-out scaling near-linearly up to the channel count.
//! `--peers P` sizes the `lowdiff-peer` row — LowDiff over a
//! `[Tier::Peer(P), Tier::Durable]` recovery stack, every checkpoint
//! object streamed to P ring peers with the durable write trailing
//! best-effort (0 drops the row). `--quant-bits Q` adds a `lowdiff-qQ`
//! row persisting differentials
//! through the v3 quantized codec (0 disables it); `--adaptive` +
//! `--max-quant-err E` let the per-chunk width chooser move on the
//! 4/8/16 ladder under a hard per-element error bound. The run also
//! executes a small *recovery-fidelity probe* — real training persisted
//! through the quantized codec, recovered, and compared against the live
//! state — whose max/mean parameter error lands in the JSON next to the
//! diff-byte reduction.
//! `--smoke` runs a tiny configuration for CI sanity and skips the JSON
//! unless `--out` is given explicitly.
//! `scripts/bench.sh` builds release and refreshes the JSON at the repo root.
//!
//! Built with `--features count-allocs`, a counting global allocator also
//! reports per-strategy steady-state allocation counts (total, and
//! "large" = at least `4Ψ` bytes, i.e. full-state-sized): after a warmup
//! prefix the pooled snapshot/encode buffers must make large allocations
//! stop — the zero-copy data path's acceptance criterion.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::lowdiff_plus::{LowDiffPlusConfig, LowDiffPlusStrategy};
use lowdiff::strategy::CheckpointStrategy;
use lowdiff::{EngineConfig, PeerReplicateStrategy};
use lowdiff_baselines::{CheckFreqStrategy, GeminiStrategy, NaiveDcStrategy, TorchSaveStrategy};
use lowdiff_bench::print_table;
use lowdiff_comm::ReplicaNet;
use lowdiff_compress::{AuxView, CompressedGrad, Compressor, SparseGrad, TopK};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{QuantizedValues, ValueCodec};
use lowdiff_storage::{
    CheckpointStore, MemoryBackend, StorageBackend, StripeCfg, ThrottledBackend,
};
use lowdiff_util::units::Bandwidth;
use lowdiff_util::DetRng;
use std::sync::Arc;
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: lowdiff_bench::alloc::CountingAlloc = lowdiff_bench::alloc::CountingAlloc;

/// `(total, large)` allocation counts so far; zeros without the feature.
fn alloc_counts() -> (u64, u64) {
    #[cfg(feature = "count-allocs")]
    {
        lowdiff_bench::alloc::counts()
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        (0, 0)
    }
}

struct E2eResult {
    name: &'static str,
    stall_per_iter_ms: f64,
    /// 99th-percentile single-iteration stall (nearest-rank over the
    /// per-iteration samples) — the spike the tail of the distribution
    /// hides from the mean.
    stall_p99_ms: f64,
    total_stall_secs: f64,
    drain_secs: f64,
    wall_secs: f64,
    bytes_written: u64,
    /// Differential-stream share of `bytes_written` — the bytes the
    /// varint-delta v2 diff format shrinks (fulls are the remainder).
    diff_bytes_written: u64,
    writes: u64,
    /// Largest single snapshot-stage sample (capture + enqueue).
    snapshot_peak_ms: f64,
    /// Allocations during the post-warmup iterations (count-allocs builds).
    steady_allocs: u64,
    /// ... of at least `4Ψ` bytes — full-state-sized.
    steady_large_allocs: u64,
}

fn throttled_store(mbps: f64) -> Arc<CheckpointStore> {
    let backend = ThrottledBackend::new(MemoryBackend::new(), Bandwidth::mbps_bytes(mbps));
    Arc::new(CheckpointStore::new(
        Arc::new(backend) as Arc<dyn StorageBackend>
    ))
}

struct StripeScale {
    stripes: usize,
    bytes: u64,
    /// Simulated wall-clock of the write: the busiest channel's time.
    critical_secs: f64,
    write_mbps: f64,
    speedup: f64,
}

/// Full-checkpoint write throughput vs stripe count on a `channels`-lane
/// throttled backend. One durable full per run: the backend charges each
/// ranged write to its least-busy channel, so the busiest channel's time
/// is the simulated wall-clock of the fan-out — a broken fan-out (one
/// blob, one channel) shows up as flat 1x "scaling".
fn stripe_scaling_sweep(mbps: f64, channels: usize, initial: &ModelState) -> Vec<StripeScale> {
    let mut out: Vec<StripeScale> = Vec::new();
    for stripes in [1usize, 2, 4, 8] {
        let backend = Arc::new(ThrottledBackend::with_channels(
            MemoryBackend::new(),
            Bandwidth::mbps_bytes(mbps),
            channels,
        ));
        let store = Arc::new(CheckpointStore::new(
            Arc::clone(&backend) as Arc<dyn StorageBackend>
        ));
        let mut strat = TorchSaveStrategy::with_engine_config(
            store,
            1,
            EngineConfig {
                stripe: StripeCfg {
                    stripes,
                    min_stripe_bytes: 1,
                },
                export_health: false,
                ..EngineConfig::default()
            },
        );
        let mut state = initial.clone();
        state.iteration = 1;
        strat.after_update(&state, &AuxView::NONE);
        strat.flush();
        let bytes = strat.stats().bytes_written;
        drop(strat);
        let critical_secs = backend.critical_busy().as_f64();
        let write_mbps = bytes as f64 / critical_secs / 1e6;
        let speedup = out.first().map_or(1.0, |base| write_mbps / base.write_mbps);
        out.push(StripeScale {
            stripes,
            bytes,
            critical_secs,
            write_mbps,
            speedup,
        });
    }
    out
}

/// Drive one strategy over the shared trace; returns its stall profile.
/// `per_iter` runs the strategy's training-side hooks for one iteration and
/// returns the stall they charged to the training thread.
fn run_strategy<S: CheckpointStrategy>(
    name: &'static str,
    iters: u64,
    mut strat: S,
    mut per_iter: impl FnMut(&mut S, &mut ModelState) -> f64,
    state: &ModelState,
) -> E2eResult {
    let mut state = state.clone();
    // Mirror Trainer::run_with_data's warm-up: engine capture pools are
    // sized (and page-touched) before the first measured iteration, the
    // same contract real training runs get.
    strat.prime(&state, &AuxView::NONE);
    // Allocation accounting ignores a warmup prefix: pools fill during the
    // first few checkpoints, steady state is what the tentpole claims.
    let warmup = (iters / 4).clamp(1, 10).min(iters.saturating_sub(1));
    let wall = Instant::now();
    let mut total_stall = 0.0f64;
    let mut samples = Vec::with_capacity(iters as usize);
    let mut at_warm = alloc_counts();
    for i in 0..iters {
        if i == warmup {
            at_warm = alloc_counts();
        }
        let stall = per_iter(&mut strat, &mut state);
        samples.push(stall);
        total_stall += stall;
    }
    let at_end = alloc_counts();
    let drain = strat.flush().as_f64();
    let wall_secs = wall.elapsed().as_secs_f64();
    let stats = strat.stats();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = samples[(samples.len() * 99).div_ceil(100).saturating_sub(1)];
    E2eResult {
        name,
        stall_per_iter_ms: total_stall / iters as f64 * 1e3,
        stall_p99_ms: p99 * 1e3,
        total_stall_secs: total_stall,
        drain_secs: drain,
        wall_secs,
        bytes_written: stats.bytes_written,
        diff_bytes_written: stats.diff_bytes_written,
        writes: stats.writes,
        snapshot_peak_ms: stats.engine.snapshot.max.as_f64() * 1e3,
        steady_allocs: at_end.0 - at_warm.0,
        steady_large_allocs: at_end.1 - at_warm.1,
    }
}

/// Recovery-fidelity probe: real training (MLP + Top-K) persisted through
/// the v3 quantized codec on an unthrottled store, crashed mid-chain,
/// recovered, and compared against the live state. The wall-clock here is
/// irrelevant — this measures *exactness*, the other axis of the codec.
struct FidelityProbe {
    replayed: usize,
    max_param_err: f32,
    mean_param_err: f32,
}

fn fidelity_probe(q: QuantizedValues) -> FidelityProbe {
    use lowdiff::recovery::recover_serial;
    use lowdiff::{Trainer, TrainerConfig};
    use lowdiff_model::builders::mlp;
    use lowdiff_model::data::Regression;
    use lowdiff_model::loss::mse;
    use lowdiff_optim::Adam;

    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let strat = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 10,
            batch_size: 2,
            value_codec: ValueCodec::Quantized(q),
            ..LowDiffConfig::default()
        },
    );
    let cfg = TrainerConfig {
        compress_ratio: Some(0.2),
        error_feedback: false,
        data_seed: 0xF1DE,
        ..TrainerConfig::default()
    };
    let mut tr = Trainer::new(mlp(&[16, 64, 8], 8), Adam::default(), strat, cfg);
    let task = Regression::new(16, 8, 7);
    tr.run_with_data(27, move |net, _t, rng| {
        let (x, y) = task.batch(rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    let live = tr.state().clone();
    drop(tr); // crash
    let (rec, rep) = recover_serial(&store, &Adam::default())
        .expect("fidelity probe recovery failed")
        .expect("fidelity probe store is empty");
    let mut max = 0f32;
    let mut sum = 0f64;
    for (a, b) in rec.params.iter().zip(&live.params) {
        let d = (a - b).abs();
        max = max.max(d);
        sum += d as f64;
    }
    FidelityProbe {
        replayed: rep.replayed,
        max_param_err: max,
        mean_param_err: (sum / rec.params.len() as f64) as f32,
    }
}

fn main() {
    let mut psi: usize = 1 << 18;
    let mut iters: u64 = 40;
    let mut mbps: f64 = 300.0;
    let mut stripes: usize = 1;
    let mut peers: usize = 1;
    let mut quant_bits: u8 = 8;
    let mut adaptive = false;
    let mut max_quant_err: f32 = 0.0;
    let mut out_path = String::from("BENCH_ckpt_e2e.json");
    let mut out_explicit = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--psi" => psi = val("--psi").parse().expect("bad --psi"),
            "--iters" => iters = val("--iters").parse().expect("bad --iters"),
            "--mbps" => mbps = val("--mbps").parse().expect("bad --mbps"),
            "--stripes" => stripes = val("--stripes").parse().expect("bad --stripes"),
            "--peers" => peers = val("--peers").parse().expect("bad --peers"),
            "--quant-bits" => quant_bits = val("--quant-bits").parse().expect("bad --quant-bits"),
            "--adaptive" => adaptive = true,
            "--max-quant-err" => {
                max_quant_err = val("--max-quant-err").parse().expect("bad --max-quant-err")
            }
            "--out" => {
                out_path = val("--out");
                out_explicit = true;
            }
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        matches!(quant_bits, 0 | 4 | 8 | 16),
        "--quant-bits must be 0 (off), 4, 8 or 16"
    );
    if smoke {
        // CI sanity: exercise every strategy end-to-end in well under a
        // second without touching the recorded JSON.
        psi = 1 << 12;
        iters = 8;
    }
    #[cfg(feature = "count-allocs")]
    {
        lowdiff_bench::alloc::set_large_threshold(psi * 4);
        // Only this (the training) thread is counted: the numbers isolate
        // the snapshot stage from worker-side encode/persist allocations.
        lowdiff_bench::alloc::track_current_thread();
    }
    assert!(stripes >= 1, "--stripes must be >= 1");
    // Blobs in smoke runs are tiny; drop the stripe floor so a requested
    // stripe count is actually exercised at any psi.
    let stripe = StripeCfg {
        stripes,
        min_stripe_bytes: 1,
    };
    let ecfg = move || EngineConfig {
        stripe,
        ..EngineConfig::default()
    };
    eprintln!(
        "bench_ckpt_e2e: {psi} params, {iters} iterations, {mbps} MB/s storage, \
         {stripes} stripe(s), {peers} replica peer(s)"
    );

    // One recorded gradient, reused every iteration: the stall numbers are
    // about write scheduling, not gradient content.
    let mut rng = DetRng::new(42);
    let grad: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
    let cg = Arc::new(TopK::new(0.01).compress(&grad));
    let empty = Arc::new(CompressedGrad::Sparse(SparseGrad::new(
        psi,
        Vec::new(),
        Vec::new(),
    )));
    let initial = {
        let mut s = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        s.iteration = 0;
        s
    };

    let mut results: Vec<E2eResult> = Vec::new();

    // LowDiff (Algorithm 1): per-iteration compressed differentials,
    // batched writes, full every 10.
    {
        let strat = LowDiffStrategy::new(
            throttled_store(mbps),
            LowDiffConfig {
                full_every: 10,
                batch_size: 4,
                engine: ecfg(),
                ..LowDiffConfig::default()
            },
        );
        let cg = Arc::clone(&cg);
        results.push(run_strategy(
            "lowdiff",
            iters,
            strat,
            move |s, st| {
                let a = s
                    .on_synced_gradient(st.iteration, &cg, &AuxView::NONE)
                    .as_f64();
                st.iteration += 1;
                a + s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // LowDiff over the peer-replication stack (Checkmate-style): same
    // write schedule as the row above, but every checkpoint object is
    // streamed to `peers` ring peers first, the durable write trailing
    // best-effort — the stall delta against the `lowdiff` row is what the
    // extra replica copies cost the training thread (the throttled store
    // never sleeps, so there is no storage wait here for peer acks to
    // hide).
    if peers > 0 {
        let net = ReplicaNet::new(peers + 1);
        let strat = PeerReplicateStrategy::new(
            throttled_store(mbps),
            LowDiffConfig {
                full_every: 10,
                batch_size: 4,
                engine: ecfg(),
                ..LowDiffConfig::default()
            },
            net,
            0,
            peers,
        );
        let cg = Arc::clone(&cg);
        results.push(run_strategy(
            "lowdiff-peer",
            iters,
            strat,
            move |s, st| {
                let a = s
                    .on_synced_gradient(st.iteration, &cg, &AuxView::NONE)
                    .as_f64();
                st.iteration += 1;
                a + s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // LowDiff with the v3 quantized diff codec: same write schedule as the
    // row above, differential value planes packed at `quant_bits` — the
    // diff-byte delta between the two rows is the codec's saving.
    let quant_cfg = QuantizedValues {
        bits: if quant_bits == 0 { 8 } else { quant_bits },
        max_err: max_quant_err,
        adaptive,
        floor_bits: 4,
    };
    if quant_bits != 0 {
        let strat = LowDiffStrategy::new(
            throttled_store(mbps),
            LowDiffConfig {
                full_every: 10,
                batch_size: 4,
                value_codec: ValueCodec::Quantized(quant_cfg),
                engine: ecfg(),
                ..LowDiffConfig::default()
            },
        );
        let cg = Arc::clone(&cg);
        results.push(run_strategy(
            match quant_bits {
                4 => "lowdiff-q4",
                16 => "lowdiff-q16",
                _ => "lowdiff-q8",
            },
            iters,
            strat,
            move |s, st| {
                let a = s
                    .on_synced_gradient(st.iteration, &cg, &AuxView::NONE)
                    .as_f64();
                st.iteration += 1;
                a + s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // LowDiff+ (Algorithm 2): dense gradient reuse into the CPU replica,
    // persisted every 10.
    {
        let strat = LowDiffPlusStrategy::new(
            throttled_store(mbps),
            LowDiffPlusConfig {
                persist_every: 10,
                snapshot_threads: 2,
                engine: EngineConfig {
                    stripe,
                    ..EngineConfig::default()
                },
                ..LowDiffPlusConfig::default()
            },
            initial.clone(),
        );
        let grad = grad.clone();
        let empty = Arc::clone(&empty);
        results.push(run_strategy(
            "lowdiff+",
            iters,
            strat,
            move |s, st| {
                let a = s.on_layer_gradient(st.iteration, 0, 0..psi, &grad).as_f64();
                let b = s
                    .on_synced_gradient(st.iteration, &empty, &AuxView::NONE)
                    .as_f64();
                st.iteration += 1;
                a + b
            },
            &initial,
        ));
    }

    // CheckFreq: full snapshot every iteration through the depth-1
    // pipeline — the high-frequency configuration the paper stresses.
    {
        let strat = CheckFreqStrategy::with_engine_config(throttled_store(mbps), 1, ecfg());
        results.push(run_strategy(
            "checkfreq",
            iters,
            strat,
            |s, st| {
                st.iteration += 1;
                s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // torch.save: synchronous full every iteration.
    {
        let strat = TorchSaveStrategy::with_engine_config(throttled_store(mbps), 1, ecfg());
        results.push(run_strategy(
            "torch-save",
            iters,
            strat,
            |s, st| {
                st.iteration += 1;
                s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // Gemini: memory-tier full every iteration, durable every 10.
    {
        let strat = GeminiStrategy::with_engine_config(throttled_store(mbps), 1, 10, ecfg());
        results.push(run_strategy(
            "gemini",
            iters,
            strat,
            |s, st| {
                st.iteration += 1;
                s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // Naive DC: per-iteration top-k delta computed on the training thread.
    {
        let strat = NaiveDcStrategy::with_engine_config(throttled_store(mbps), 1, 10, 0.01, ecfg());
        results.push(run_strategy(
            "naive-dc",
            iters,
            strat,
            |s, st| {
                let idx = st.iteration as usize % st.params.len();
                st.params[idx] += 1e-3;
                st.iteration += 1;
                s.after_update(st, &AuxView::NONE).as_f64()
            },
            &initial,
        ));
    }

    // Stripe scaling: one full checkpoint fanned out over a 4-channel
    // throttled backend, stripes 1..8. Near-linear up to the channel count
    // is the striped persist path's acceptance criterion.
    const SWEEP_CHANNELS: usize = 4;
    let scaling = stripe_scaling_sweep(mbps, SWEEP_CHANNELS, &initial);

    // Recovery fidelity of the quantized codec, and the diff-byte
    // reduction against the f32 row.
    let fidelity = (quant_bits != 0).then(|| fidelity_probe(quant_cfg));
    let diff_reduction = {
        let diff_of = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.diff_bytes_written)
        };
        match (
            diff_of("lowdiff"),
            results
                .iter()
                .find(|r| r.name.starts_with("lowdiff-q"))
                .map(|r| r.diff_bytes_written),
        ) {
            (Some(raw), Some(packed)) if quant_bits != 0 && raw > 0 => {
                Some(1.0 - packed as f64 / raw as f64)
            }
            _ => None,
        }
    };
    if let (Some(f), Some(red)) = (&fidelity, diff_reduction) {
        eprintln!(
            "quantized codec ({} bit{}): diff bytes -{:.1}%, fidelity probe \
             replayed={} max_param_err={:.3e} mean_param_err={:.3e}",
            quant_cfg.bits,
            if adaptive { ", adaptive" } else { "" },
            red * 100.0,
            f.replayed,
            f.max_param_err,
            f.mean_param_err
        );
    }

    // --- report ------------------------------------------------------------
    let counting = cfg!(feature = "count-allocs");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.3}ms", r.stall_per_iter_ms),
                format!("{:.3}ms", r.stall_p99_ms),
                format!("{:.3}s", r.total_stall_secs),
                format!("{:.3}s", r.drain_secs),
                format!("{:.1}MB", r.bytes_written as f64 / 1e6),
                format!("{:.2}MB", r.diff_bytes_written as f64 / 1e6),
                r.writes.to_string(),
                format!("{:.3}ms", r.snapshot_peak_ms),
                if counting {
                    format!("{}/{}", r.steady_large_allocs, r.steady_allocs)
                } else {
                    "-".to_string()
                },
            ]
        })
        .collect();
    print_table(
        &format!("end-to-end checkpoint stall, {psi} params x {iters} iters"),
        &[
            "strategy",
            "stall/iter",
            "stall p99",
            "stall total",
            "drain",
            "written",
            "diff bytes",
            "writes",
            "snap peak",
            "big/all allocs",
        ],
        &rows,
    );

    let scale_rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|r| {
            vec![
                r.stripes.to_string(),
                format!("{:.1}MB", r.bytes as f64 / 1e6),
                format!("{:.4}s", r.critical_secs),
                format!("{:.0}MB/s", r.write_mbps),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        &format!("full-checkpoint write scaling, {SWEEP_CHANNELS}-channel backend @ {mbps} MB/s"),
        &[
            "stripes",
            "written",
            "critical path",
            "throughput",
            "speedup",
        ],
        &scale_rows,
    );

    if smoke && !out_explicit {
        eprintln!("smoke mode: skipping json");
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"psi\": {psi},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"storage_mbps\": {mbps},\n"));
    json.push_str(&format!("  \"persist_stripes\": {stripes},\n"));
    json.push_str(&format!("  \"replica_peers\": {peers},\n"));
    json.push_str(&format!("  \"alloc_counting\": {counting},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"persist_stripes\": {stripes}, \"stall_per_iter_ms\": {:.6}, \"stall_p99_ms\": {:.6}, \"total_stall_secs\": {:.6}, \"drain_secs\": {:.6}, \"wall_secs\": {:.6}, \"bytes_written\": {}, \"diff_bytes_written\": {}, \"writes\": {}, \"snapshot_peak_ms\": {:.6}, \"steady_allocs\": {}, \"steady_large_allocs\": {}}}{}\n",
            r.name,
            r.stall_per_iter_ms,
            r.stall_p99_ms,
            r.total_stall_secs,
            r.drain_secs,
            r.wall_secs,
            r.bytes_written,
            r.diff_bytes_written,
            r.writes,
            r.snapshot_peak_ms,
            r.steady_allocs,
            r.steady_large_allocs,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if let Some(f) = &fidelity {
        json.push_str(&format!(
            "  \"quant\": {{\"bits\": {}, \"adaptive\": {adaptive}, \"max_quant_err\": {max_quant_err}, \"diff_bytes_reduction\": {}, \"fidelity_replayed\": {}, \"fidelity_max_param_err\": {:.6e}, \"fidelity_mean_param_err\": {:.6e}}},\n",
            quant_cfg.bits,
            diff_reduction.map_or("null".to_string(), |r| format!("{r:.4}")),
            f.replayed,
            f.max_param_err,
            f.mean_param_err,
        ));
    }
    json.push_str(&format!(
        "  \"stripe_scaling\": {{\"channels\": {SWEEP_CHANNELS}, \"rows\": [\n"
    ));
    for (i, r) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stripes\": {}, \"bytes\": {}, \"critical_secs\": {:.6}, \"write_mbps\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.stripes,
            r.bytes,
            r.critical_secs,
            r.write_mbps,
            r.speedup,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
