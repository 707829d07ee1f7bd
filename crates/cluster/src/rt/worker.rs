//! The worker-process runtime: one OS process = one rank.
//!
//! A worker registers with the coordinator, receives its rank and
//! consistent-hash chunk set, and trains the **full** model with the
//! existing [`Trainer`] + [`lowdiff::LowDiffStrategy`] — wrapped in a
//! [`ShardedStrategy`] so everything it *persists* is its Ψ/n shard.
//! Training is deterministic and replicated (every rank draws the same
//! batches and computes the same gradients), standing in for allreduce;
//! determinism is also what makes the stitched shards a consistent global
//! state (see `lowdiff::shard`).
//!
//! The run is an epoch loop over `epoch_iters` iterations (the shard
//! store's full-checkpoint cadence), and it never flushes mid-run. At an
//! epoch end `t` the rank computes its seal digest in place and enters
//! that epoch's barrier at once, while its checkpointing thread persists
//! the shard full at `t`. Between the iterations of the next epoch it
//! sends `ShardSealed(t)` as soon as that full has landed — typically
//! within two iterations; only a full still in flight at the next epoch
//! end is waited for, bounded by `barrier_timeout`. A full that failed is
//! never sealed, so the coordinator writes no global manifest for `t` and
//! resume anchors on the one before. A released barrier for epoch `k`
//! therefore does not imply that the manifest for `k` exists yet: a rank
//! killed before every shard full of `k` is durable resumes from
//! `k − epoch_iters`. The run ends with one flush and the last epoch's
//! seal. A failed barrier (dead peer, timeout) ends the run *degraded* —
//! never a hang, never a panic.
//!
//! ## Resume
//!
//! `resume: true` anchors on the newest
//! [`lowdiff_storage::GlobalManifest`]: every rank's shard checkpoint at
//! the sealed iteration is loaded from its store, digest-verified against
//! the manifest, stitched back into the global state, and handed to
//! [`Trainer::resume_from_parts`]. The ranks' diff chains are read, trimmed
//! to their common prefix and stitched only when the resume will replay
//! them ([`ResumeOpts::replays_chain`]); with error feedback on it anchors
//! at the full instead, bit-exact — the relaunched run re-produces the
//! killed run's bytes.

use lowdiff::{
    CheckpointStrategy, LowDiffConfig, LowDiffStrategy, ResumeOpts, ShardedStrategy, Trainer,
    TrainerConfig,
};
use lowdiff_comm::wire::{CoordClient, Msg};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{DiffEntry, FullCheckpoint};
use lowdiff_storage::shard::{stitch_diff_chains, stitch_fulls};
use lowdiff_storage::{CheckpointStore, DiskBackend, ShardSpec};
use lowdiff_util::crc::Hasher;
use lowdiff_util::DetRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Everything a worker process needs to run.
#[derive(Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coord: String,
    /// Cluster data root: `rank-<r>/` per-shard stores, `global/` the
    /// coordinator's manifest store. Must be shared by all ranks (one
    /// machine or one mounted filesystem).
    pub dir: PathBuf,
    /// Human-readable worker name (shows up in rejections and status).
    pub name: String,
    /// Reclaim this rank (required once training has started).
    pub rank_hint: Option<u32>,
    /// MLP layer sizes; all ranks must agree.
    pub dims: Vec<usize>,
    /// Model init seed; all ranks must agree.
    pub seed: u64,
    /// Data-stream seed ([`TrainerConfig::data_seed`]); all ranks must
    /// agree.
    pub data_seed: u64,
    /// Top-K ratio; `None` trains dense. Quantization is not available in
    /// cluster mode (its global scale does not shard).
    pub compress_ratio: Option<f64>,
    /// Total iterations to reach (a multiple of `epoch_iters`).
    pub iters: u64,
    /// Iterations per epoch = the shard full-checkpoint cadence.
    pub epoch_iters: u64,
    /// Anchor on the newest global manifest instead of starting cold.
    pub resume: bool,
    /// Heartbeat send period (over a dedicated connection).
    pub heartbeat_every: Duration,
    /// How long to wait on an epoch barrier before giving up. Should be
    /// at least the coordinator's own barrier timeout.
    pub barrier_timeout: Duration,
    /// Artificial per-iteration delay — lets tests open a kill window in
    /// an otherwise microsecond-scale training loop. Zero in production.
    pub step_delay: Duration,
}

/// What a worker run accomplished.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    pub rank: u32,
    pub world_size: u32,
    /// Iteration the trainer ended on.
    pub final_iteration: u64,
    /// Global-manifest iteration the run anchored on (`None` = cold).
    pub resumed_from: Option<u64>,
    /// `Some(reason)` when an epoch barrier failed and the run stopped
    /// early; the process should exit with a distinct status so an
    /// orchestrator can tell "degraded" from "done".
    pub degraded: Option<String>,
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

fn store_at(dir: &Path) -> io::Result<Arc<CheckpointStore>> {
    Ok(Arc::new(CheckpointStore::new(Arc::new(DiskBackend::new(
        dir,
    )?))))
}

/// The digest a rank seals an epoch with: shard element count plus a CRC
/// over the shard state's raw little-endian bytes (params ‖ m ‖ v). The
/// coordinator records it in the [`lowdiff_storage::GlobalManifest`];
/// resume recomputes it from the loaded shard checkpoint and refuses a
/// mismatch — the manifest's integrity teeth.
pub fn shard_digest(state: &ModelState) -> (u64, u32) {
    seal_digest(&ShardSpec::full(state.params.len()), state)
}

/// [`shard_digest`] of `spec`'s shard of the global `state`, read in
/// place: the CRC of params, then m, then v, each gathered over the
/// spec's ranges in order — the bytes of
/// `shard_digest(&spec.project_state(state))` without projecting them.
fn seal_digest(spec: &ShardSpec, state: &ModelState) -> (u64, u32) {
    let mut hasher = Hasher::new();
    for xs in [&state.params, &state.opt.m, &state.opt.v] {
        for r in spec.ranges() {
            hash_f32s(&mut hasher, &xs[r]);
        }
    }
    (spec.len() as u64, hasher.finalize())
}

/// Feed `xs` to `hasher` as little-endian bytes: the values in place on
/// little-endian targets.
fn hash_f32s(hasher: &mut Hasher, xs: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f32 has no padding bytes and u8 has alignment 1, so
        // viewing an initialized f32 slice as its `size_of_val` bytes is
        // valid; on a little-endian target the in-memory byte order is
        // the digest's byte order.
        let bytes = unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        };
        hasher.update(bytes);
    }
    #[cfg(target_endian = "big")]
    {
        // Stream through a fixed stack buffer instead of staging the
        // bytes on the heap; buffer-sized slices keep the conversion a
        // plain slice-to-slice copy the compiler vectorizes.
        let mut buf = [0u8; 16 * 1024];
        for chunk in xs.chunks(buf.len() / 4) {
            let bytes = &mut buf[..chunk.len() * 4];
            for (slot, v) in bytes.chunks_exact_mut(4).zip(chunk) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            hasher.update(bytes);
        }
    }
}

/// The cluster's fixed training task: every rank derives the identical
/// data distribution from the shared dims and data seed.
pub fn task_for(dims: &[usize], data_seed: u64) -> Regression {
    Regression::new(dims[0], *dims.last().unwrap(), data_seed ^ 0x5eed)
}

fn trainer_cfg(cfg: &WorkerConfig) -> TrainerConfig {
    TrainerConfig {
        compress_ratio: cfg.compress_ratio,
        error_feedback: cfg.compress_ratio.is_some(),
        quant_bits: None,
        adaptive_quant: false,
        max_quant_err: 0.0,
        data_seed: cfg.data_seed,
    }
}

fn step_fn(
    task: Regression,
    delay: Duration,
) -> impl FnMut(&mut Network, u64, &mut DetRng) -> (f64, lowdiff_tensor::Tensor) {
    move |net, _t, rng| {
        if !delay.is_zero() {
            thread::sleep(delay);
        }
        let (x, y) = task.batch(rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    }
}

/// The uninterrupted-run oracle: what the cluster's global state must
/// equal after `iters` iterations. Used by tests to pin bit-exactness of
/// kill + resume, and by anyone validating a deployment.
pub fn reference_state(
    dims: &[usize],
    seed: u64,
    data_seed: u64,
    compress_ratio: Option<f64>,
    iters: u64,
) -> ModelState {
    let net = mlp(dims, seed);
    let tcfg = TrainerConfig {
        compress_ratio,
        error_feedback: compress_ratio.is_some(),
        quant_bits: None,
        adaptive_quant: false,
        max_quant_err: 0.0,
        data_seed,
    };
    let mut tr = Trainer::new(net, Adam::default(), lowdiff::NoCheckpoint::new(), tcfg);
    tr.run_with_data(iters, step_fn(task_for(dims, data_seed), Duration::ZERO));
    tr.state().clone()
}

/// Load + verify + stitch the cluster state the newest global manifest
/// seals: the shard fulls always, the ragged diff chains only when
/// [`ResumeOpts::replays_chain`] says resuming `tcfg` will replay them.
/// Returns `None` when no global checkpoint exists yet.
fn load_global(
    dir: &Path,
    psi: usize,
    tcfg: &TrainerConfig,
) -> io::Result<Option<(u64, FullCheckpoint, Vec<DiffEntry>)>> {
    let global = store_at(&dir.join("global"))?;
    let Some(manifest) = global.latest_global_manifest()? else {
        return Ok(None);
    };
    if manifest.psi != psi as u64 {
        return Err(other(format!(
            "global manifest psi {} does not match model psi {psi}",
            manifest.psi
        )));
    }
    let mut parts_full = Vec::new();
    let mut stores = Vec::new();
    for seal in &manifest.shards {
        let spec = manifest.spec_of(seal.rank)?;
        let store = store_at(&dir.join(format!("rank-{}", seal.rank)))?;
        let fc = store.load_full_checkpoint(manifest.iteration)?;
        let (len, crc) = shard_digest(&fc.state);
        if (len, crc) != (seal.len, seal.crc) {
            return Err(other(format!(
                "rank {} shard checkpoint at iteration {} does not match its \
                 seal (len {len} crc {crc:#010x}, sealed len {} crc {:#010x})",
                seal.rank, manifest.iteration, seal.len, seal.crc
            )));
        }
        parts_full.push((spec.clone(), fc));
        stores.push((spec, store));
    }
    let fc = stitch_fulls(psi, &parts_full)?;
    if !ResumeOpts::default().replays_chain(tcfg, &fc) {
        return Ok(Some((manifest.iteration, fc, Vec::new())));
    }
    let mut parts_chain = Vec::with_capacity(stores.len());
    for (spec, store) in stores {
        parts_chain.push((spec, store.diff_chain_from(manifest.iteration)?));
    }
    // Post-crash chains are ragged (the dead rank stopped first); only
    // the prefix every rank covers is a consistent global differential.
    let common_last = parts_chain
        .iter()
        .map(|(_, c)| c.last().map_or(manifest.iteration, |e| e.iteration))
        .min()
        .unwrap_or(manifest.iteration);
    for (_, chain) in &mut parts_chain {
        chain.retain(|e| e.iteration <= common_last);
    }
    let chain = stitch_diff_chains(psi, &parts_chain)?;
    Ok(Some((manifest.iteration, fc, chain)))
}

/// Run one rank to completion (or degradation). See the module docs.
pub fn run_worker(cfg: WorkerConfig) -> io::Result<WorkerReport> {
    assert!(
        cfg.epoch_iters > 0 && cfg.iters.is_multiple_of(cfg.epoch_iters),
        "iters must be a positive multiple of epoch_iters: epochs end on \
         full-checkpoint boundaries"
    );
    let net = mlp(&cfg.dims, cfg.seed);
    let psi = net.num_params();

    let mut client = CoordClient::connect(cfg.coord.as_str(), CONNECT_TIMEOUT)?;
    let welcome = client.rpc(&Msg::Register {
        name: cfg.name.clone(),
        rank_hint: cfg.rank_hint,
        psi: psi as u64,
    })?;
    let (rank, world_size, num_chunks, chunks) = match welcome {
        Msg::Welcome {
            rank,
            world_size,
            num_chunks,
            chunks,
            ..
        } => (rank, world_size, num_chunks, chunks),
        Msg::Reject { reason } => return Err(other(format!("registration rejected: {reason}"))),
        other_msg => return Err(other(format!("unexpected welcome: {other_msg:?}"))),
    };
    let spec = ShardSpec::new(psi, num_chunks, chunks)?;
    let own_store = store_at(&cfg.dir.join(format!("rank-{rank}")))?;

    // Gate training on full registration: barriers assume a settled
    // membership, and the coordinator resets barrier bookkeeping on every
    // (re-)registration.
    wait_for_full_world(&mut client, world_size)?;

    // Heartbeats ride a dedicated connection so a long barrier wait on
    // the main channel never starves liveness.
    let (stop, stopped) = mpsc::channel::<()>();
    let hb = {
        let coord = cfg.coord.clone();
        let every = cfg.heartbeat_every;
        thread::spawn(move || heartbeat_loop(&coord, rank, every, &stopped))
    };

    let result = train_loop(
        &cfg,
        net,
        psi,
        rank,
        world_size,
        spec,
        own_store,
        &mut client,
    );

    // Hanging up wakes the heartbeat thread mid-wait: the worker returns
    // when training ends, not up to `heartbeat_every` later.
    drop(stop);
    let _ = hb.join();
    result
}

fn wait_for_full_world(client: &mut CoordClient, world_size: u32) -> io::Result<()> {
    let deadline = Instant::now() + CONNECT_TIMEOUT * 6;
    loop {
        match client.rpc(&Msg::Status)? {
            Msg::StatusReport { members, .. }
                if members.iter().filter(|m| m.alive).count() as u32 == world_size =>
            {
                return Ok(())
            }
            Msg::StatusReport { .. } => {}
            other_msg => return Err(other(format!("unexpected status: {other_msg:?}"))),
        }
        if Instant::now() >= deadline {
            return Err(other(
                "timed out waiting for the full world to register".into(),
            ));
        }
        thread::sleep(Duration::from_millis(25));
    }
}

/// One heartbeat per `every` until the worker hangs up `stopped`.
fn heartbeat_loop(coord: &str, rank: u32, every: Duration, stopped: &mpsc::Receiver<()>) {
    let Ok(mut client) = CoordClient::connect(coord, CONNECT_TIMEOUT) else {
        return;
    };
    loop {
        if client.rpc(&Msg::Heartbeat { rank }).is_err() {
            return; // coordinator gone; the main channel will notice too
        }
        if stopped.recv_timeout(every) != Err(mpsc::RecvTimeoutError::Timeout) {
            return;
        }
    }
}

/// An epoch end's shard seal, sent once the rank's shard full at its
/// iteration has landed.
struct Seal {
    rank: u32,
    iteration: u64,
    len: u64,
    crc: u32,
}

impl Seal {
    /// Send the seal if its full landed, waiting up to `wait` for the
    /// outcome; drop it if the full failed. Hands it back while the full
    /// is still in flight.
    fn settle(
        self,
        strategy: &ShardedStrategy,
        client: &mut CoordClient,
        wait: Duration,
    ) -> io::Result<Option<Seal>> {
        match strategy.full_outcome(self.iteration, wait) {
            None => return Ok(Some(self)),
            Some(false) => return Ok(None),
            Some(true) => {}
        }
        match client.rpc(&Msg::ShardSealed {
            rank: self.rank,
            iteration: self.iteration,
            len: self.len,
            crc: self.crc,
        })? {
            Msg::SealAck { .. } => Ok(None),
            other_msg => Err(other(format!("unexpected seal ack: {other_msg:?}"))),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn train_loop(
    cfg: &WorkerConfig,
    net: Network,
    psi: usize,
    rank: u32,
    world_size: u32,
    spec: ShardSpec,
    own_store: Arc<CheckpointStore>,
    client: &mut CoordClient,
) -> io::Result<WorkerReport> {
    let ld_cfg = LowDiffConfig {
        full_every: cfg.epoch_iters,
        batch_size: 1,
        ..LowDiffConfig::default()
    };
    let strategy = ShardedStrategy::new(spec.clone(), LowDiffStrategy::new(own_store, ld_cfg));
    let tcfg = trainer_cfg(cfg);

    let mut resumed_from = None;
    let mut trainer = if cfg.resume {
        match load_global(&cfg.dir, psi, &tcfg)? {
            Some((anchor, fc, chain)) => {
                resumed_from = Some(anchor);
                let (tr, _report) = Trainer::resume_from_parts(
                    net,
                    Adam::default(),
                    strategy,
                    tcfg,
                    fc,
                    chain,
                    ResumeOpts::default(),
                )?;
                tr
            }
            None => Trainer::new(net, Adam::default(), strategy, tcfg),
        }
    } else {
        Trainer::new(net, Adam::default(), strategy, tcfg)
    };

    let mut step = step_fn(task_for(&cfg.dims, cfg.data_seed), cfg.step_delay);
    // The last epoch end whose full has not settled yet.
    let mut unsealed: Option<Seal> = None;
    let mut degraded = None;
    while trainer.state().iteration < cfg.iters {
        if let Some(seal) = unsealed.take() {
            unsealed = seal.settle(trainer.strategy(), client, Duration::ZERO)?;
        }
        trainer.run_unflushed(1, &mut step);
        if trainer.strategy().unshardable_grads() > 0 {
            return Err(other(
                "gradient encoding is not shardable (quantized?): cluster \
                 mode needs Top-K or dense gradients"
                    .into(),
            ));
        }

        // Only epochs ending on the full-checkpoint cadence are sealable.
        let iteration = trainer.state().iteration;
        if !iteration.is_multiple_of(cfg.epoch_iters) {
            continue;
        }
        // The previous epoch's full is due by now; one still in flight
        // after the barrier timeout is given up on, never sealed.
        if let Some(seal) = unsealed.take() {
            seal.settle(trainer.strategy(), client, cfg.barrier_timeout)?;
        }
        let (len, crc) = seal_digest(&spec, trainer.state());
        unsealed = Some(Seal {
            rank,
            iteration,
            len,
            crc,
        });

        client.set_read_timeout(cfg.barrier_timeout + Duration::from_secs(5))?;
        let resp = client.rpc(&Msg::BarrierEnter {
            rank,
            epoch: iteration / cfg.epoch_iters,
        });
        client.set_read_timeout(RPC_TIMEOUT)?;
        match resp? {
            Msg::BarrierRelease { .. } => {}
            Msg::BarrierFailed {
                missing, reason, ..
            } => {
                degraded = Some(format!(
                    "epoch barrier failed at iteration {iteration}: {reason} \
                     (missing ranks {missing:?})"
                ));
                break;
            }
            other_msg => return Err(other(format!("unexpected barrier reply: {other_msg:?}"))),
        }
    }

    // After the flush every full's outcome is known.
    trainer.strategy_mut().flush();
    if let Some(seal) = unsealed {
        let sealed = seal.settle(trainer.strategy(), client, Duration::ZERO);
        // A degraded run reports its barrier failure whatever the seal's
        // fate.
        if degraded.is_none() {
            sealed?;
        }
    }

    Ok(WorkerReport {
        rank,
        world_size,
        final_iteration: trainer.state().iteration,
        resumed_from,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_util::crc32;

    /// The staging construction the digest was first defined by: every
    /// value of params ‖ m ‖ v as little-endian bytes in one `Vec`.
    fn staged_digest(state: &ModelState) -> (u64, u32) {
        let bytes: Vec<u8> = state
            .params
            .iter()
            .chain(&state.opt.m)
            .chain(&state.opt.v)
            .flat_map(|v| v.to_le_bytes())
            .collect();
        (state.params.len() as u64, crc32(&bytes))
    }

    #[test]
    fn streamed_digest_equals_staged_digest() {
        let mut rng = DetRng::new(7);
        // Empty, shorter than one buffer, and several buffers plus a tail.
        for psi in [0usize, 1, 5, 4096, 3 * 4096 + 17] {
            let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
            for (m, v) in state.opt.m.iter_mut().zip(state.opt.v.iter_mut()) {
                *m = rng.normal() as f32;
                *v = rng.normal().abs() as f32;
            }
            assert_eq!(shard_digest(&state), staged_digest(&state), "psi={psi}");
        }
    }

    /// The seal digest read in place over a spec's ranges equals the
    /// digest of the projected shard, for ragged specs too.
    #[test]
    fn seal_digest_equals_digest_of_the_projection() {
        let mut rng = DetRng::new(9);
        let cases: [(usize, u32, Vec<u32>); 7] = [
            (37, 5, vec![]),        // empty shard
            (37, 5, vec![2]),       // one chunk
            (37, 5, vec![0, 3, 4]), // Ψ not divisible by num_chunks
            (37, 5, vec![4]),       // only the short last chunk
            (5, 8, vec![1, 6, 7]),  // chunks past Ψ own nothing
            (3 * 4096 + 17, 16, vec![0, 5, 6, 15]),
            (3 * 4096 + 17, 1, vec![0]), // world size 1: the whole space
        ];
        for (psi, num_chunks, chunks) in cases {
            let spec = ShardSpec::new(psi, num_chunks, chunks.clone()).unwrap();
            let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
            for (m, v) in state.opt.m.iter_mut().zip(state.opt.v.iter_mut()) {
                *m = rng.normal() as f32;
                *v = rng.normal().abs() as f32;
            }
            assert_eq!(
                seal_digest(&spec, &state),
                shard_digest(&spec.project_state(&state)),
                "psi={psi} num_chunks={num_chunks} chunks={chunks:?}"
            );
        }
    }
}
