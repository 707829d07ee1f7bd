//! `recover-chain`: the read side. A full at iteration 0 and a
//! 50-differential chain are written through the public write path
//! (strategy hooks + `ModelState::apply_gradient`, error feedback off so
//! replay is enabled and exact); the job then "crashes" one iteration short
//! of its next full, and `Trainer::resume` is timed over and over against
//! that store.

use crate::paced::{parse_key, PacedBackend, PutRecord};
use crate::probes::{self, time_ms, TOPK_RATIO};
use crate::stats::{median, Lane, NO_PARENT};
use crate::timed::Timed;
use crate::train::{bit_identical, dims, trainer_cfg, DIFF_BATCH, FULL_EVERY};
use crate::Ctx;
use lowdiff::{
    recover_serial, recover_sharded, CheckpointStrategy, CompressorCfg, LowDiffConfig,
    LowDiffStrategy, NoCheckpoint, Trainer, TrainerConfig,
};
use lowdiff_compress::{AuxView, Compressor, TopK};
use lowdiff_model::builders::mlp;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;

pub const CHAIN_LEN: u64 = 50;
/// One resume is ≈ 0.25 s on the 2-core reference host.
const RECOVERIES_PER_SECOND: f64 = 4.0;
/// Repetitions of the second-scale breakdown probes (whole replays).
const SLOW_REPS: usize = 5;

/// Closed loop, one recovery at a time, `reps` times: build a net
/// (untimed), time `Trainer::resume` from `store`, check the result against
/// `live` bit-for-bit. Returns the per-repetition seconds and how many
/// repetitions were not exact.
pub fn timed_resumes(
    cx: &Ctx,
    tcfg: &TrainerConfig,
    store: &CheckpointStore,
    live: &ModelState,
    want_replayed: usize,
    reps: usize,
) -> (Vec<f64>, u64) {
    let dims = dims(cx.smoke);
    let mut recover_s = Vec::with_capacity(reps);
    let mut inexact = 0u64;
    for _ in 0..reps {
        let net = mlp(&dims, cx.seed);
        let start_ns = cx.trace.now_ns();
        let resumed = Trainer::resume(
            net,
            Adam::default(),
            NoCheckpoint::new(),
            tcfg.clone(),
            store,
        );
        let end_ns = cx.trace.now_ns();
        recover_s.push((end_ns - start_ns) as f64 / 1e9);
        cx.trace.record(
            "recover.resume",
            start_ns,
            end_ns,
            NO_PARENT,
            recover_s.len() as u64,
            Lane::Main,
        );
        let exact = match resumed {
            Ok(Some((tr, rep))) => {
                !rep.lossy && rep.replayed == want_replayed && bit_identical(tr.state(), live)
            }
            _ => false,
        };
        inexact += u64::from(!exact);
    }
    (recover_s, inexact)
}

pub fn run(cx: &mut Ctx) {
    let seed = cx.seed;
    let adam = Adam::default();
    let tcfg = trainer_cfg(seed, false);
    let chain_len = if cx.smoke { 10 } else { CHAIN_LEN };
    let dims = dims(cx.smoke);

    let backend = Arc::new(PacedBackend::new(
        Arc::new(MemoryBackend::new()),
        None,
        Arc::clone(&cx.trace),
    ));
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>
    ));
    let mut state = ModelState::new(mlp(&dims, seed).params_flat());
    let psi = state.num_params();
    let mut rng = DetRng::new(seed ^ 0xc4a1);
    let grads: Vec<Vec<f32>> = (0..4)
        .map(|_| probes::probe_gradient(&mut rng, psi))
        .collect();
    let aux = AuxView {
        residual: None,
        compressor: Some(CompressorCfg::topk(TOPK_RATIO)),
        rng: Some(DetRng::new(tcfg.data_seed).state()),
        quant: None,
    };

    // The write phase. `full_every` is one past the chain: the crash lands
    // on the longest chain this schedule can leave behind.
    let strategy = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: chain_len + 1,
            batch_size: DIFF_BATCH,
            keep_fulls: Some(2),
            ..LowDiffConfig::default()
        },
    );
    let mut strat = Timed::new(strategy, Arc::clone(&cx.trace), chain_len as usize + 1);
    let mut topk = TopK::new(TOPK_RATIO);
    strat.prime(&state, &aux);
    let setup_s = cx.trace.now_ns() as f64 / 1e9;
    strat.after_update(&state, &aux); // the anchor: full checkpoint of M_0
    let mut iter_starts_ns = Vec::with_capacity(chain_len as usize + 1);
    for t in 0..chain_len {
        let iter_start_ns = cx.trace.now_ns();
        iter_starts_ns.push(iter_start_ns);
        let cg = Arc::new(topk.compress(&grads[t as usize % grads.len()]));
        strat.on_synced_gradient(t, &cg, &aux);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &aux);
        cx.trace.record(
            "iter",
            iter_start_ns,
            cx.trace.now_ns(),
            NO_PARENT,
            t,
            Lane::Train,
        );
    }
    iter_starts_ns.push(cx.trace.now_ns());
    strat.flush();
    let stats = strat.stats();
    let log = std::mem::take(&mut strat.log);
    drop(strat); // the crash
    let live = state;
    let written = backend.counters();

    // Ten hand-driven iterations (two batch puts, no anchor) at a time:
    // what the write path costs this workload, with a real population.
    let cycle_ms: Vec<f64> = iter_starts_ns
        .windows(FULL_EVERY as usize + 1)
        .step_by(FULL_EVERY as usize)
        .map(|w| (w[FULL_EVERY as usize] - w[0]) as f64 / 1e6)
        .collect();

    // The read phase: closed loop, one recovery at a time.
    let reps = cx.count(RECOVERIES_PER_SECOND, 3) as usize;
    let (recover_s, bad_recoveries) =
        timed_resumes(cx, &tcfg, &store, &live, chain_len as usize, reps);
    let after = backend.counters();
    let reps = recover_s.len() as f64;

    let batches = chain_len / DIFF_BATCH as u64;
    let mut failed = stats.dropped_batches + stats.io_errors + bad_recoveries;
    failed += stats.full_checkpoints.abs_diff(1) + stats.diff_checkpoints.abs_diff(chain_len);
    cx.attempted += 1 + batches + recover_s.len() as u64;
    cx.failed += failed;
    cx.note("recoveries", reps);
    cx.note("final_state_crc", f64::from(probes::state_crc(&live)));

    // What the chain cost to write, from the same wrappers as train-*.
    let puts = backend.put_log();
    let ckpt_puts: Vec<&PutRecord> = puts
        .iter()
        .filter(|p| parse_key(&p.key).is_some())
        .collect();
    let ckpt_bytes: u64 = ckpt_puts.iter().map(|p| p.bytes).sum();
    let durable = log.durable(&ckpt_puts);
    let stall_ns: u64 = log
        .synced
        .iter()
        .chain(&log.after_update)
        .map(|c| c.dur_ns)
        .sum();
    let recover_p50 = median(&recover_s);
    let m = &mut cx.metrics;
    m.set("setup_s", setup_s);
    m.set("ckpt_cycle_ms_p50", median(&cycle_ms));
    m.set("recover_s_p50", recover_p50);
    m.set("bytes_per_iter", ckpt_bytes as f64 / chain_len as f64);
    m.set(
        "anchor_iter_ms_p50",
        log.after_update[0].dur_ns as f64 / 1e6,
    );
    m.set("stall_ms_per_cycle_p50", stall_ns as f64 / 1e6);
    m.set("full_durable_ms_p50", median(&durable.full_ms));
    m.set("diff_durable_ms_p50", median(&durable.diff_ms));
    m.set(
        "drain_s",
        log.flush_ns.last().copied().unwrap_or(0) as f64 / 1e9,
    );
    if !cx.traced {
        return;
    }

    m.set("traced.recover_s_p50", recover_p50);
    m.set("traced.ckpt_cycle_ms_p50", median(&cycle_ms));
    m.set("engine.prime_ms", log.prime_ns as f64 / 1e6);
    m.set("engine.fulls", stats.full_checkpoints as f64);
    m.set("engine.diffs", stats.diff_checkpoints as f64);
    m.set("engine.writes", stats.writes as f64);
    m.set("backend.puts", written.puts as f64);
    m.set("backend.put_bytes", written.put_bytes as f64);
    m.set("backend.live_bytes_max", written.live_bytes_max as f64);
    m.set("recovery.gets", (after.gets - written.gets) as f64 / reps);
    m.set(
        "recovery.get_bytes",
        (after.get_bytes - written.get_bytes) as f64 / reps,
    );
    m.set(
        "recovery.lists",
        (after.lists - written.lists) as f64 / reps,
    );

    // The parts of one resume, each timed directly; their sum must
    // reproduce the end-to-end figure.
    let sweep_ms = time_ms(cx, "recover.sweep", 21, || store.sweep_unsealed());
    let anchor_ms = time_ms(cx, "recover.anchor_load", 11, || {
        store.latest_valid_full_checkpoint()
    });
    let chain_ms = time_ms(cx, "recover.chain_load", 11, || store.diff_chain_from(0));
    let anchor = store
        .latest_valid_full_checkpoint()
        .ok()
        .flatten()
        .expect("the anchor full is in the store");
    let chain = store.diff_chain_from(0).expect("the chain is in the store");
    let replay_ms = time_ms(cx, "recover.replay", SLOW_REPS, || {
        let mut st = anchor.state.clone();
        for e in &chain {
            st.apply_gradient(&adam, &e.grad.to_dense());
        }
        st.iteration
    });
    let clone_ms = time_ms(cx, "recover.state_clone", SLOW_REPS, || {
        anchor.state.clone()
    });
    let replay_per_diff = (replay_ms - clone_ms) / chain.len().max(1) as f64;
    let serial_ms = time_ms(cx, "recover.serial", SLOW_REPS, || {
        recover_serial(&store, &adam)
    });
    let shards = rayon::pool::current_num_threads();
    let sharded_ms = time_ms(cx, "recover.sharded", SLOW_REPS, || {
        recover_sharded(&store, &adam, shards)
    });
    let parts = sweep_ms + anchor_ms + chain_ms + replay_per_diff * chain.len() as f64;
    let m = &mut cx.metrics;
    m.set("recovery.sweep_ms_p50", sweep_ms);
    m.set("recovery.anchor_load_ms_p50", anchor_ms);
    m.set("recovery.chain_load_ms_p50", chain_ms);
    m.set("recovery.replay_ms_per_diff", replay_per_diff);
    m.set("recovery.parts_sum_frac", parts / (recover_p50 * 1e3));
    m.set("recovery.serial_s_p50", serial_ms / 1e3);
    m.set("recovery.sharded_s_p50", sharded_ms / 1e3);
    drop((anchor, chain));

    probes::layer_probes(cx, &live);
}
