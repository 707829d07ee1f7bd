//! `cluster-2rank`: an in-process `Coordinator` and two `run_worker`
//! threads over loopback TCP, each rank persisting its Ψ/2 shard to a
//! `DiskBackend` under a benchmark-owned directory. The only workload on
//! which `cluster::rt`, `comm::wire`, `ShardedStrategy`, `storage::shard`
//! and `DiskBackend` run. The workers are the production `run_worker`; the
//! harness sees them through the coordinator's global store (a timestamping
//! wrapper), the files they leave, and their reports.

use crate::paced::{parse_key, Blob, PacedBackend};
use crate::probes::{time_ms, TOPK_RATIO};
use crate::stats::{median, Lane, NO_PARENT};
use crate::train::bit_identical;
use crate::Ctx;
use lowdiff::{NoCheckpoint, ResumeOpts, Trainer, TrainerConfig};
use lowdiff_cluster::rt::run_worker;
use lowdiff_cluster::rt::worker::{reference_state, shard_digest};
use lowdiff_cluster::{CoordConfig, Coordinator, WorkerConfig, WorkerReport};
use lowdiff_comm::wire::{CoordClient, Msg};
use lowdiff_model::builders::mlp;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{DiffEntry, FullCheckpoint};
use lowdiff_storage::shard::{stitch_diff_chains, stitch_fulls};
use lowdiff_storage::{CheckpointStore, DiskBackend, MemoryBackend, ShardSpec, StorageBackend};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const WORLD: u32 = 2;
/// Ψ ≈ 1.05 M, so compute per rank is small next to coordination and
/// shard persist (a toy under `--smoke`).
fn dims(smoke: bool) -> [usize; 3] {
    if smoke {
        [32, 64, 32]
    } else {
        [512, 1024, 512]
    }
}
const EPOCH_ITERS: u64 = 5;
const WARM_EPOCHS: u64 = 6;
/// One epoch is ≈ 0.33 s on the 2-core reference host.
const EPOCHS_PER_SECOND: f64 = 2.5;
const RECOVERIES: usize = 60;
const TIMEOUT: Duration = Duration::from_secs(10);

/// Removes the benchmark-owned directory however the workload ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn disk_store(dir: &Path) -> io::Result<CheckpointStore> {
    Ok(CheckpointStore::new(Arc::new(DiskBackend::new(dir)?)))
}

fn worker_cfg(
    cx: &Ctx,
    coord: &str,
    dir: &Path,
    rank: u32,
    iters: u64,
    resume: bool,
) -> WorkerConfig {
    WorkerConfig {
        coord: coord.to_string(),
        dir: dir.to_path_buf(),
        name: format!("bench-rank{rank}"),
        rank_hint: Some(rank),
        dims: dims(cx.smoke).to_vec(),
        seed: cx.seed,
        data_seed: cx.seed ^ 0xda7a,
        compress_ratio: Some(TOPK_RATIO),
        iters,
        epoch_iters: EPOCH_ITERS,
        resume,
        // `run_worker` returns only when its heartbeat thread wakes from
        // this sleep: at the worker binary's default of 500 ms a pass's
        // wall time, and with it `setup_s`, moves in half-second steps.
        heartbeat_every: Duration::from_millis(100),
        // The worker binary's default.
        barrier_timeout: Duration::from_secs(30),
        step_delay: Duration::ZERO,
    }
}

/// One long-lived thread per rank, fed one `run_worker` job per pass. A
/// rank keeps its thread (and with it its malloc arena) across passes, as
/// a restarted worker process would keep neither but a fresh thread per
/// pass makes peak RSS depend on which arena glibc happens to hand out.
struct Ranks {
    jobs: Vec<mpsc::Sender<WorkerConfig>>,
    reports: Vec<mpsc::Receiver<io::Result<WorkerReport>>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Ranks {
    fn spawn() -> Self {
        let mut ranks = Ranks {
            jobs: Vec::new(),
            reports: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..WORLD {
            let (job_tx, job_rx) = mpsc::channel::<WorkerConfig>();
            let (report_tx, report_rx) = mpsc::channel();
            ranks.jobs.push(job_tx);
            ranks.reports.push(report_rx);
            ranks.threads.push(thread::spawn(move || {
                for cfg in job_rx {
                    if report_tx.send(run_worker(cfg)).is_err() {
                        return;
                    }
                }
            }));
        }
        ranks
    }

    /// One pass: every rank's `run_worker`, to completion.
    fn run_pass(
        &self,
        cx: &Ctx,
        coord: &str,
        dir: &Path,
        iters: u64,
        resume: bool,
    ) -> Vec<io::Result<WorkerReport>> {
        wait_all_disconnected(coord);
        for (rank, job) in self.jobs.iter().enumerate() {
            let cfg = worker_cfg(cx, coord, dir, rank as u32, iters, resume);
            let _ = job.send(cfg);
        }
        self.reports
            .iter()
            .map(|r| {
                r.recv()
                    .unwrap_or_else(|_| Err(io::Error::other("worker thread died")))
            })
            .collect()
    }

    fn join(self) {
        drop(self.jobs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// A rank can only be reclaimed once the coordinator has noticed its
/// previous connection close; that takes a moment after a pass ends.
fn wait_all_disconnected(coord: &str) {
    let deadline = Instant::now() + TIMEOUT;
    while Instant::now() < deadline {
        let alive = CoordClient::connect(coord, TIMEOUT)
            .and_then(|mut c| c.rpc(&Msg::Status))
            .map(|reply| match reply {
                Msg::StatusReport { members, .. } => members.iter().filter(|m| m.alive).count(),
                _ => 0,
            })
            .unwrap_or(0);
        if alive == 0 {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn pass_ok(reports: &[io::Result<WorkerReport>], iters: u64, resumed_from: Option<u64>) -> bool {
    let ok = reports.iter().all(|r| match r {
        Ok(r) => {
            r.final_iteration == iters && r.degraded.is_none() && r.resumed_from == resumed_from
        }
        Err(_) => false,
    });
    if !ok {
        eprintln!("worker pass to iteration {iters} failed: {reports:?}");
    }
    ok
}

/// What the ranks left for the newest global checkpoint.
struct ShardParts {
    psi: usize,
    fulls: Vec<(ShardSpec, FullCheckpoint)>,
    chains: Vec<(ShardSpec, Vec<DiffEntry>)>,
}

/// The cluster's read side through public functions: newest global
/// manifest → each rank's shard full (digest-verified against its seal)
/// and differential chain.
fn load_parts(dir: &Path, global: &CheckpointStore) -> io::Result<ShardParts> {
    let manifest = global
        .latest_global_manifest()?
        .ok_or_else(|| io::Error::other("no global manifest"))?;
    let mut parts = ShardParts {
        psi: manifest.psi as usize,
        fulls: Vec::new(),
        chains: Vec::new(),
    };
    for seal in &manifest.shards {
        let spec = manifest.spec_of(seal.rank)?;
        let store = disk_store(&dir.join(format!("rank-{}", seal.rank)))?;
        let fc = store.load_full_checkpoint(manifest.iteration)?;
        if shard_digest(&fc.state) != (seal.len, seal.crc) {
            return Err(io::Error::other("shard does not match its seal"));
        }
        let chain = store.diff_chain_from(manifest.iteration)?;
        parts.chains.push((spec.clone(), chain));
        parts.fulls.push((spec, fc));
    }
    Ok(parts)
}

fn stitch(parts: &ShardParts) -> io::Result<(FullCheckpoint, Vec<DiffEntry>)> {
    Ok((
        stitch_fulls(parts.psi, &parts.fulls)?,
        stitch_diff_chains(parts.psi, &parts.chains)?,
    ))
}

fn resume_from_cluster(cx: &Ctx, dir: &Path, global: &CheckpointStore) -> io::Result<ModelState> {
    let (fc, chain) = stitch(&load_parts(dir, global)?)?;
    let tcfg = TrainerConfig {
        compress_ratio: Some(TOPK_RATIO),
        error_feedback: true,
        data_seed: cx.seed ^ 0xda7a,
        ..TrainerConfig::default()
    };
    let (trainer, _) = Trainer::resume_from_parts(
        mlp(&dims(cx.smoke), cx.seed),
        Adam::default(),
        NoCheckpoint::new(),
        tcfg,
        fc,
        chain,
        ResumeOpts::default(),
    )?;
    Ok(trainer.state().clone())
}

/// Checkpoint bytes the ranks left on disk for iterations past `after`.
fn shard_bytes_after(dir: &Path, after: u64) -> io::Result<u64> {
    let mut total = 0;
    for rank in 0..WORLD {
        for entry in std::fs::read_dir(dir.join(format!("rank-{rank}")))? {
            let entry = entry?;
            let in_window = match parse_key(&entry.file_name().to_string_lossy()) {
                Some(Blob::Full(t)) => t > after,
                Some(Blob::Diff(a, _)) => a >= after,
                None => false,
            };
            if in_window {
                total += entry.metadata()?.len();
            }
        }
    }
    Ok(total)
}

pub fn run(cx: &mut Ctx) {
    // One core's worth of pool threads per rank, as a launcher would give
    // co-located ranks. At the library default (every rank a pool as wide
    // as the host) two ranks oversubscribe two cores: the same epoch median
    // then moved by 37 % between runs ten minutes apart, against 10 % here.
    // Must be set before the pool is first asked for its size.
    if std::env::var_os("LOWDIFF_NUM_THREADS").is_none() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let per_rank = (cores / WORLD as usize).max(1);
        std::env::set_var("LOWDIFF_NUM_THREADS", per_rank.to_string());
    }
    let dir = WorkDir(cx.work_dir.join("cluster"));
    let _ = std::fs::remove_dir_all(&dir.0);
    let global_backend = Arc::new(PacedBackend::new(
        Arc::new(DiskBackend::new(dir.0.join("global")).expect("create the global store")),
        None,
        Arc::clone(&cx.trace),
    ));
    let global = Arc::new(CheckpointStore::new(
        Arc::clone(&global_backend) as Arc<dyn StorageBackend>
    ));
    let coordinator = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: WORLD,
            global_store: Some(Arc::clone(&global)),
            ..CoordConfig::default()
        },
    )
    .expect("start the coordinator");
    let coord = coordinator.addr().to_string();

    // Warm-up pass: registration, page cache, allocator.
    let warm_epochs = if cx.smoke { 2 } else { WARM_EPOCHS };
    let warm_iters = warm_epochs * EPOCH_ITERS;
    let ranks = Ranks::spawn();
    let warm = ranks.run_pass(cx, &coord, &dir.0, warm_iters, false);
    let warm_ok = pass_ok(&warm, warm_iters, None);
    let manifest_ends = |from: usize| -> Vec<u64> {
        global_backend.put_log()[from..]
            .iter()
            .map(|p| p.end_ns)
            .collect()
    };
    let gaps_ms = |ends: &[u64]| -> Vec<f64> {
        ends.windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    };
    let epochs = cx.count(EPOCHS_PER_SECOND, 2);
    let total_iters = warm_iters + epochs * EPOCH_ITERS;
    let setup_s = cx.trace.now_ns() as f64 / 1e9;

    // The timed pass: the same ranks reclaim their shards from the global
    // manifest and run `epochs` more epochs.
    let seals_before = global_backend.put_log().len();
    let pass_start_ns = cx.trace.now_ns();
    let timed = ranks.run_pass(cx, &coord, &dir.0, total_iters, true);
    cx.trace.record(
        "cluster.pass",
        pass_start_ns,
        cx.trace.now_ns(),
        NO_PARENT,
        0,
        Lane::Main,
    );
    let timed_ok = pass_ok(&timed, total_iters, Some(warm_iters));
    let ends = manifest_ends(seals_before);
    let epoch_ms = gaps_ms(&ends);
    for (i, w) in ends.windows(2).enumerate() {
        cx.trace.record(
            "cluster.epoch",
            w[0],
            w[1],
            NO_PARENT,
            i as u64,
            Lane::Checkpoint,
        );
    }

    // Crash → rebuild a ready trainer from what the cluster left on disk.
    // Every repetition must give the same bits as the first, and the first
    // the oracle's: holding one state, not forty, keeps them out of RSS.
    let mut recover_s = Vec::new();
    let mut first: Option<ModelState> = None;
    let mut bad_recoveries = 0u64;
    for rep in 0..RECOVERIES {
        let start_ns = cx.trace.now_ns();
        let state = resume_from_cluster(cx, &dir.0, &global);
        let end_ns = cx.trace.now_ns();
        recover_s.push((end_ns - start_ns) as f64 / 1e9);
        cx.trace.record(
            "recover.resume",
            start_ns,
            end_ns,
            NO_PARENT,
            rep as u64,
            Lane::Main,
        );
        match (state, &first) {
            (Ok(s), None) => first = Some(s),
            (Ok(s), Some(f)) => bad_recoveries += u64::from(!bit_identical(&s, f)),
            (Err(_), _) => bad_recoveries += 1,
        }
    }
    // Peak memory of the system under test: taken before the harness's own
    // oracle run inflates it.
    cx.metrics.set("peak_rss_mb", crate::peak_rss_mb());
    let oracle = reference_state(
        &dims(cx.smoke),
        cx.seed,
        cx.seed ^ 0xda7a,
        Some(TOPK_RATIO),
        total_iters,
    );
    if !first.is_some_and(|s| bit_identical(&s, &oracle)) {
        bad_recoveries = RECOVERIES as u64;
    }
    let seals = global.global_iterations().map_or(0, |v| v.len()) as u64;

    let want_seals = warm_epochs + epochs;
    let mut failed = u64::from(!warm_ok) + u64::from(!timed_ok) + bad_recoveries;
    failed += want_seals.abs_diff(seals);
    failed += (epochs as usize).abs_diff(ends.len()) as u64;
    cx.attempted += want_seals + RECOVERIES as u64;
    cx.failed += failed;
    cx.note("epochs", epochs as f64);
    cx.note("iterations", total_iters as f64);

    let bytes = shard_bytes_after(&dir.0, warm_iters).unwrap_or(0);
    let epoch_p50 = median(&epoch_ms);
    let recover_p50 = median(&recover_s);
    let m = &mut cx.metrics;
    m.set("setup_s", setup_s);
    m.set("ckpt_cycle_ms_p50", epoch_p50);
    m.set("recover_s_p50", recover_p50);
    m.set(
        "bytes_per_iter",
        bytes as f64 / (epochs * EPOCH_ITERS) as f64,
    );
    if cx.traced {
        m.set("traced.ckpt_cycle_ms_p50", epoch_p50);
        m.set("traced.recover_s_p50", recover_p50);
        m.set("coord.global_seals", seals as f64);
        let c = global_backend.counters();
        m.set("backend.puts", c.puts as f64);
        m.set("backend.put_bytes", c.put_bytes as f64);

        // The production worker's own resume path, with nothing left to
        // train (quantised by its 25 ms registration poll and the 100 ms
        // heartbeat sleep it ends on).
        let resume_ms: Vec<f64> = (0..if cx.smoke { 1 } else { 3 })
            .map(|_| {
                let t0 = Instant::now();
                let ok = pass_ok(
                    &ranks.run_pass(cx, &coord, &dir.0, total_iters, true),
                    total_iters,
                    Some(total_iters),
                );
                cx.failed += u64::from(!ok);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        cx.metrics.set("worker.resume_ms_p50", median(&resume_ms));

        match load_parts(&dir.0, &global) {
            Ok(parts) => {
                let stitch_ms = time_ms(cx, "probe.stitch", 21, || stitch(&parts).is_ok());
                cx.metrics.set("shard.stitch_ms_p50", stitch_ms);
            }
            Err(_) => cx.failed += 1,
        }
    }
    ranks.join();
    coordinator.shutdown();
    if cx.traced {
        coord_probes(cx);
    }
}

/// Protocol probes against a fresh coordinator with two `CoordClient`
/// threads: no training, no disk — `cluster::rt` and `comm::wire` alone.
fn coord_probes(cx: &mut Ctx) {
    const EPOCHS: u64 = 200;
    let backend = Arc::new(PacedBackend::new(
        Arc::new(MemoryBackend::new()),
        None,
        Arc::clone(&cx.trace),
    ));
    let coordinator = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: WORLD,
            global_store: Some(Arc::new(CheckpointStore::new(
                Arc::clone(&backend) as Arc<dyn StorageBackend>
            ))),
            ..CoordConfig::default()
        },
    )
    .expect("start the probe coordinator");
    let addr = coordinator.addr();
    let trace = Arc::clone(&cx.trace);
    let gate = Arc::new(Barrier::new(WORLD as usize));

    // Each thread: register, then EPOCHS × (ShardSealed, BarrierEnter).
    // Returns (register ms, per-epoch barrier µs, per-epoch seal-send ns,
    // bytes of every frame it sent or received in one epoch).
    let threads: Vec<_> = (0..WORLD)
        .map(|rank| {
            let trace = Arc::clone(&trace);
            let gate = Arc::clone(&gate);
            thread::spawn(move || -> io::Result<(f64, Vec<f64>, Vec<u64>, u64)> {
                let mut client = CoordClient::connect(addr, TIMEOUT)?;
                let t0 = Instant::now();
                client.rpc(&Msg::Register {
                    name: format!("probe{rank}"),
                    rank_hint: Some(rank),
                    psi: 1 << 20,
                })?;
                let register_ms = t0.elapsed().as_secs_f64() * 1e3;
                let (mut barrier_us, mut seal_sent_ns) = (Vec::new(), Vec::new());
                let mut epoch_bytes = 0;
                for epoch in 1..=EPOCHS {
                    gate.wait();
                    let seal = Msg::ShardSealed {
                        rank,
                        iteration: epoch * EPOCH_ITERS,
                        len: 1 << 19,
                        crc: epoch as u32,
                    };
                    seal_sent_ns.push(trace.now_ns());
                    let ack = client.rpc(&seal)?;
                    let enter = Msg::BarrierEnter { rank, epoch };
                    let t0 = Instant::now();
                    let release = client.rpc(&enter)?;
                    barrier_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if !matches!(release, Msg::BarrierRelease { .. }) {
                        return Err(io::Error::other("barrier did not release"));
                    }
                    epoch_bytes = [seal, ack, enter, release]
                        .iter()
                        .map(|m| m.encode().len() as u64)
                        .sum();
                }
                Ok((register_ms, barrier_us, seal_sent_ns, epoch_bytes))
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .filter_map(|h| h.join().ok().and_then(Result::ok))
        .collect();
    coordinator.shutdown();
    if results.len() != WORLD as usize {
        cx.failed += 1;
        return;
    }

    let register: Vec<f64> = results.iter().map(|r| r.0).collect();
    let barrier: Vec<f64> = results.iter().flat_map(|r| r.1.iter().copied()).collect();
    let manifests = backend.put_log();
    let seal_to_manifest: Vec<f64> = manifests
        .iter()
        .enumerate()
        .filter_map(|(e, put)| {
            let last_sent = results.iter().filter_map(|r| r.2.get(e)).max()?;
            Some(put.end_ns.saturating_sub(*last_sent) as f64 / 1e6)
        })
        .collect();
    let sealed = Msg::ShardSealed {
        rank: 1,
        iteration: 12345,
        len: 1 << 19,
        crc: 0xdead_beef,
    };
    // A single encode + decode is tens of nanoseconds: time them by the
    // thousand.
    let codec_ms = time_ms(cx, "probe.wire_codec_x1000", 21, || {
        (0..1000).all(|_| Msg::decode(&std::hint::black_box(&sealed).encode()).is_ok())
    });
    cx.failed += u64::from(manifests.len() as u64 != EPOCHS);
    let m = &mut cx.metrics;
    m.set("coord.register_ms_p50", median(&register));
    m.set("coord.barrier_rtt_us_p50", median(&barrier));
    m.set("coord.seal_to_manifest_ms_p50", median(&seal_to_manifest));
    m.set(
        "wire.bytes_per_epoch",
        results.iter().map(|r| r.3).sum::<u64>() as f64,
    );
    m.set("wire.codec_us_p50", codec_ms);
}
