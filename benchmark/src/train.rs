//! `train-fast-store` / `train-slow-store`: one closed-loop client — the
//! training thread — running `Trainer::run_with_data` under
//! `LowDiffStrategy`, then crashing and resuming from what the store holds.
//! The two workloads differ only in the device under the store.

use crate::paced::{parse_key, Blob, PacedBackend, PutRecord};
use crate::probes;
use crate::recover::timed_resumes;
use crate::stats::{covered_ns, median, Lane, NO_PARENT};
use crate::timed::{HookCall, Timed};
use crate::Ctx;
use lowdiff::{
    CheckpointStrategy, LowDiffConfig, LowDiffStrategy, NoCheckpoint, Trainer, TrainerConfig,
};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::sync::Arc;

/// `mlp` layer widths: Ψ = 4 197 376 (a toy under `--smoke`).
pub fn dims(smoke: bool) -> [usize; 3] {
    if smoke {
        [64, 128, 64]
    } else {
        [1024, 2048, 1024]
    }
}
pub const BATCH: usize = 8;
pub const FULL_EVERY: u64 = 10;
pub const DIFF_BATCH: usize = 5;
const WARM_CYCLES: u64 = 2;
/// One cycle is ≈ 1.1 s on the 2-core reference host.
const CYCLES_PER_SECOND: f64 = 1.0;
const RECOVERIES: usize = 50;

pub fn trainer_cfg(seed: u64, error_feedback: bool) -> TrainerConfig {
    TrainerConfig {
        error_feedback,
        data_seed: seed ^ 0xda7a,
        ..TrainerConfig::default()
    }
}

fn task(seed: u64, dims: &[usize; 3]) -> Regression {
    Regression::new(dims[0], dims[2], seed ^ 0x7a5c)
}

/// The step closure: batch → forward → loss, timestamped on entry and
/// exit (the `model` layer's span).
fn step_fn<'a>(
    task: &'a Regression,
    cx: &'a Ctx,
    steps: &'a mut Vec<(u64, u64)>,
) -> impl FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor) + 'a {
    move |net, t, rng| {
        let start_ns = cx.trace.now_ns();
        let (x, y) = task.batch(rng, BATCH);
        let pred = net.forward(&x);
        let out = mse(&pred, &y);
        let end_ns = cx.trace.now_ns();
        steps.push((start_ns, end_ns));
        cx.trace
            .record("model.step", start_ns, end_ns, NO_PARENT, t, Lane::Train);
        out
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn durations_ms(calls: &[HookCall]) -> Vec<f64> {
    calls.iter().map(|c| ms(c.dur_ns)).collect()
}

pub fn bit_identical(a: &ModelState, b: &ModelState) -> bool {
    let same = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.iteration == b.iteration
        && a.opt.t == b.opt.t
        && same(&a.params, &b.params)
        && same(&a.opt.m, &b.opt.m)
        && same(&a.opt.v, &b.opt.v)
}

pub fn run(cx: &mut Ctx, paced_mbps: Option<f64>) {
    let seed = cx.seed;
    let adam = Adam::default();
    let tcfg = trainer_cfg(seed, true);
    let dims = dims(cx.smoke);
    let task = task(seed, &dims);

    // The no-checkpoint probe: the floor of the cycle time and the oracle
    // for "checkpointing must not perturb training".
    let probe_iters: u64 = if cx.smoke { 4 } else { 12 };
    let mut probe_steps = Vec::with_capacity(probe_iters as usize);
    let mut probe = Trainer::new(mlp(&dims, seed), adam, NoCheckpoint::new(), tcfg.clone());
    let probe_report = probe.run_with_data(probe_iters, step_fn(&task, cx, &mut probe_steps));
    drop(probe);
    let nockpt_ms: Vec<f64> = probe_steps
        .windows(2)
        .map(|w| ms(w[1].0 - w[0].0))
        .collect();
    let nockpt_iter_ms = median(&nockpt_ms);

    let backend = Arc::new(PacedBackend::new(
        Arc::new(MemoryBackend::new()),
        paced_mbps,
        Arc::clone(&cx.trace),
    ));
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>
    ));
    // Production defaults except the three schedule fields.
    let strategy = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: FULL_EVERY,
            batch_size: DIFF_BATCH,
            keep_fulls: Some(2),
            ..LowDiffConfig::default()
        },
    );
    let timed = Timed::new(strategy, Arc::clone(&cx.trace), 256);
    let mut trainer = Trainer::new(mlp(&dims, seed), adam, timed, tcfg.clone());
    let mut steps = Vec::with_capacity(256);

    // Warm-up: two cycles, drained.
    let warm = WARM_CYCLES * FULL_EVERY;
    let warm_report = trainer.run_with_data(warm, step_fn(&task, cx, &mut steps));
    let setup_end_ns = cx.trace.now_ns();
    let cycles = cx.count(CYCLES_PER_SECOND, 2);
    let measured = cycles * FULL_EVERY;
    let total = warm + measured;

    // The timed phase ends on an anchor iteration; `run_with_data` then
    // flushes, so its last act is one full's trip through the pipeline.
    trainer.run_with_data(measured, step_fn(&task, cx, &mut steps));

    let live = trainer.state().clone();
    let stats = trainer.strategy().stats();
    let log = std::mem::take(&mut trainer.strategy_mut().log);
    drop(trainer); // the crash: only the store survives

    // Iteration i (0-based) ends when its after_update returns; the first
    // timed iteration starts when the warm-up's flush has returned.
    let iter_end = |i: u64| log.after_update[i as usize].end_ns();
    let iter_start = |i: u64| {
        if i == warm {
            setup_end_ns
        } else {
            iter_end(i - 1)
        }
    };
    let mut cycle_ms = Vec::new();
    let mut anchor_ms = Vec::new();
    let mut plain_iter_ms = Vec::new();
    let mut stall_ms = Vec::new();
    for k in 0..cycles {
        let first = warm + k * FULL_EVERY;
        let last = first + FULL_EVERY - 1;
        cycle_ms.push(ms(iter_end(last) - iter_start(first)));
        anchor_ms.push(ms(iter_end(last) - iter_start(last)));
        for i in first..last {
            plain_iter_ms.push(ms(iter_end(i) - iter_start(i)));
        }
        let hooks: u64 = (first..=last)
            .map(|i| {
                let i = i as usize;
                log.layer_grad[i].dur_ns + log.synced[i].dur_ns + log.after_update[i].dur_ns
            })
            .sum();
        stall_ms.push(ms(hooks));
    }
    for i in 0..total {
        let begin = if i == 0 { steps[0].0 } else { iter_start(i) };
        cx.trace
            .record("iter", begin, iter_end(i), NO_PARENT, i, Lane::Train);
    }

    // Time to durable, joined through the store's key scheme.
    let puts = backend.put_log();
    let measured_put = |p: &&PutRecord| match parse_key(&p.key) {
        Some(Blob::Full(t)) => t > warm,
        Some(Blob::Diff(a, _)) => a >= warm,
        None => false,
    };
    let measured_puts: Vec<&PutRecord> = puts.iter().filter(measured_put).collect();
    let durable = log.durable(&measured_puts);
    let measured_bytes: u64 = measured_puts.iter().map(|p| p.bytes).sum();
    let put_ms: Vec<f64> = measured_puts
        .iter()
        .map(|p| ms(p.end_ns - p.start_ns))
        .collect();
    // Device time the timed cycles asked for (wherever it lands: the last
    // full is written during the drain) over the wall time of those
    // cycles — the utilisation this schedule settles at.
    let mut put_spans: Vec<(u64, u64)> = measured_puts
        .iter()
        .map(|p| (p.start_ns, p.end_ns))
        .collect();
    let busy_ns = covered_ns(&mut put_spans);
    let cycles_ns = iter_end(total - 1) - setup_end_ns;
    let drain_s = log.flush_ns.last().copied().unwrap_or(0) as f64 / 1e9;

    // Crash → resume, repeated: the recovery time a user of this store
    // would see, and the bit-exactness check. Error feedback anchors the
    // resume at the newest full: nothing is replayed.
    let (recover_s, bad_recoveries) = timed_resumes(cx, &tcfg, &store, &live, 0, RECOVERIES);

    // Correctness: the schedule ran in full, nothing was dropped, and the
    // loss curve is the no-checkpoint run's.
    let want_fulls = total / FULL_EVERY;
    let want_batches = total / DIFF_BATCH as u64;
    let losses_match = warm_report.losses[..probe_iters as usize]
        .iter()
        .zip(&probe_report.losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let mut failed = stats.dropped_batches + stats.io_errors + bad_recoveries;
    failed += want_fulls.abs_diff(stats.full_checkpoints);
    failed += total.abs_diff(stats.diff_checkpoints);
    failed += u64::from(!losses_match) + u64::from(stats.degraded);
    failed += u64::from(durable.full_ms.len() as u64 != cycles);
    failed += u64::from(durable.diff_ms.len() as u64 != measured);
    cx.attempted += want_fulls + want_batches + RECOVERIES as u64;
    cx.failed += failed;
    cx.note("iterations", total as f64);
    cx.note("cycles", cycles as f64);
    cx.note("final_state_crc", f64::from(probes::state_crc(&live)));

    let cycle_p50 = median(&cycle_ms);
    let m = &mut cx.metrics;
    m.set("setup_s", setup_end_ns as f64 / 1e9);
    m.set("ckpt_cycle_ms_p50", cycle_p50);
    m.set("recover_s_p50", median(&recover_s));
    m.set("bytes_per_iter", measured_bytes as f64 / measured as f64);
    m.set("anchor_iter_ms_p50", median(&anchor_ms));
    m.set("stall_ms_per_cycle_p50", median(&stall_ms));
    m.set("full_durable_ms_p50", median(&durable.full_ms));
    m.set("diff_durable_ms_p50", median(&durable.diff_ms));
    m.set("drain_s", drain_s);
    if !cx.traced {
        return;
    }

    m.set("traced.ckpt_cycle_ms_p50", cycle_p50);
    m.set("traced.recover_s_p50", median(&recover_s));
    let forward: Vec<f64> = steps[warm as usize..]
        .iter()
        .map(|s| ms(s.1 - s.0))
        .collect();
    m.set("model.forward_ms_p50", median(&forward));
    m.set("model.nockpt_iter_ms_p50", nockpt_iter_ms);
    m.set(
        "model.overhead_frac",
        cycle_p50 / (FULL_EVERY as f64 * nockpt_iter_ms) - 1.0,
    );

    let w = warm as usize;
    let (mut plain_after, mut anchor_after) = (Vec::new(), Vec::new());
    for c in &log.after_update[w..] {
        if c.iter % FULL_EVERY == 0 {
            anchor_after.push(ms(c.dur_ns));
        } else {
            plain_after.push(ms(c.dur_ns));
        }
    }
    let layer_p50 = median(&durations_ms(&log.layer_grad[w..]));
    let synced_p50 = median(&durations_ms(&log.synced[w..]));
    let after_p50 = median(&plain_after);
    let anchor_p50 = median(&anchor_after);
    let per_cycle = FULL_EVERY as f64;
    let hooks_sum =
        per_cycle * (layer_p50 + synced_p50) + (per_cycle - 1.0) * after_p50 + anchor_p50;
    m.set("engine.on_layer_grad_ms_p50", layer_p50);
    m.set("engine.on_synced_ms_p50", synced_p50);
    m.set("engine.after_update_ms_p50", after_p50);
    m.set("engine.after_update_anchor_ms_p50", anchor_p50);
    m.set("engine.hooks_sum_frac", hooks_sum / median(&stall_ms));
    m.set("engine.prime_ms", ms(log.prime_ns));
    m.set("engine.flush_ms", drain_s * 1e3);
    m.set(
        "engine.contention_ms_per_iter",
        median(&plain_iter_ms) - nockpt_iter_ms - layer_p50 - synced_p50 - after_p50,
    );
    m.set("engine.fulls", stats.full_checkpoints as f64);
    m.set("engine.diffs", stats.diff_checkpoints as f64);
    m.set("engine.writes", stats.writes as f64);
    m.set(
        "engine.dropped",
        (stats.dropped_batches + stats.dropped_diffs) as f64,
    );
    m.set("engine.io_retries", stats.io_retries as f64);

    let c = backend.counters();
    m.set("backend.puts", c.puts as f64);
    m.set("backend.ranged_puts", c.ranged_puts as f64);
    m.set("backend.put_bytes", c.put_bytes as f64);
    m.set("backend.put_ms_p50", median(&put_ms));
    m.set("backend.busy_frac", busy_ns as f64 / cycles_ns as f64);
    m.set("backend.queue_wait_ms_p50", median(&durable.full_wait_ms));
    m.set("backend.gets", c.gets as f64);
    m.set("backend.get_bytes", c.get_bytes as f64);
    m.set("backend.lists", c.lists as f64);
    m.set("backend.deletes", c.deletes as f64);
    m.set("backend.live_bytes_max", c.live_bytes_max as f64);

    // Layer probes on this workload's own Ψ-sized state.
    probes::layer_probes(cx, &live);
}
