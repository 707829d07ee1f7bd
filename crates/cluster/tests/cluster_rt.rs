//! Coordinator protocol tests: registration policy, heartbeat-driven
//! death, barrier degradation, and global sealing — all against a real
//! TCP coordinator, in-process workers.

use lowdiff_cluster::rt::{CoordConfig, Coordinator};
use lowdiff_comm::wire::{CoordClient, Msg};
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(5);

fn cfg(world: u32) -> CoordConfig {
    CoordConfig {
        world_size: world,
        num_chunks: 16,
        heartbeat_timeout: Duration::from_millis(300),
        barrier_timeout: Duration::from_millis(500),
        global_store: None,
        ..CoordConfig::default()
    }
}

fn register(coord: &Coordinator, name: &str, hint: Option<u32>, psi: u64) -> (CoordClient, Msg) {
    let mut c = CoordClient::connect(coord.addr(), T).unwrap();
    let reply = c
        .rpc(&Msg::Register {
            name: name.into(),
            rank_hint: hint,
            psi,
        })
        .unwrap();
    (c, reply)
}

fn rank_of(reply: &Msg) -> u32 {
    match reply {
        Msg::Welcome { rank, .. } => *rank,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

#[test]
fn registration_assigns_ranks_and_hands_out_a_partition() {
    let coord = Coordinator::start("127.0.0.1:0", cfg(2)).unwrap();
    let (_c0, w0) = register(&coord, "a", None, 100);
    let (_c1, w1) = register(&coord, "b", None, 100);
    let (mut chunks_seen, mut num_chunks_seen) = (Vec::new(), 0);
    for w in [&w0, &w1] {
        match w {
            Msg::Welcome {
                world_size,
                num_chunks,
                chunks,
                ..
            } => {
                assert_eq!(*world_size, 2);
                num_chunks_seen = *num_chunks;
                chunks_seen.extend(chunks.iter().copied());
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
    assert_eq!(rank_of(&w0), 0);
    assert_eq!(rank_of(&w1), 1);
    // The two welcomes partition all chunks exactly.
    chunks_seen.sort_unstable();
    assert_eq!(chunks_seen, (0..num_chunks_seen).collect::<Vec<_>>());

    // A third worker on a full, healthy cluster is refused.
    let (_c2, r) = register(&coord, "late", None, 100);
    assert!(matches!(r, Msg::Reject { .. }), "got {r:?}");
    // And so is a mismatched model size, even on a free-looking slot.
    let (_c3, r) = register(&coord, "wrong-psi", Some(0), 999);
    assert!(matches!(r, Msg::Reject { .. }), "got {r:?}");
    coord.shutdown();
}

#[test]
fn barrier_times_out_when_a_live_rank_never_enters() {
    let coord = Coordinator::start("127.0.0.1:0", cfg(2)).unwrap();
    let (mut c0, w0) = register(&coord, "a", None, 10);
    let (_c1, w1) = register(&coord, "b", None, 10);
    assert_eq!(rank_of(&w0), 0);
    assert_eq!(rank_of(&w1), 1);

    // Rank 1 stays alive (its connection heartbeats) but never enters.
    let hb = {
        let addr = coord.addr();
        std::thread::spawn(move || {
            let mut c = CoordClient::connect(addr, T).unwrap();
            for _ in 0..40 {
                if c.rpc(&Msg::Heartbeat { rank: 1 }).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    c0.set_read_timeout(Duration::from_secs(10)).unwrap();
    let start = Instant::now();
    let reply = c0.rpc(&Msg::BarrierEnter { rank: 0, epoch: 1 }).unwrap();
    match reply {
        Msg::BarrierFailed {
            epoch,
            missing,
            reason,
        } => {
            assert_eq!(epoch, 1);
            assert_eq!(missing, vec![1]);
            assert!(reason.contains("timeout"), "reason: {reason}");
        }
        other => panic!("expected BarrierFailed, got {other:?}"),
    }
    // Degraded with a timeout error, not a hang.
    assert!(start.elapsed() < Duration::from_secs(5));
    hb.join().unwrap();
    coord.shutdown();
}

#[test]
fn dead_rank_degrades_the_barrier_before_the_timeout() {
    let mut c = cfg(2);
    c.barrier_timeout = Duration::from_secs(30); // must NOT wait this long
    let coord = Coordinator::start("127.0.0.1:0", c).unwrap();
    let (mut c0, _w0) = register(&coord, "a", None, 10);
    let (c1, _w1) = register(&coord, "b", None, 10);
    drop(c1); // rank 1's process dies: connection closes

    c0.set_read_timeout(Duration::from_secs(10)).unwrap();
    let start = Instant::now();
    let reply = c0.rpc(&Msg::BarrierEnter { rank: 0, epoch: 1 }).unwrap();
    match reply {
        Msg::BarrierFailed {
            missing, reason, ..
        } => {
            assert_eq!(missing, vec![1]);
            assert!(reason.contains("dead"), "reason: {reason}");
        }
        other => panic!("expected BarrierFailed, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "death must fail the barrier fast, not ride out the 30s timeout"
    );
    coord.shutdown();
}

#[test]
fn barrier_releases_all_ranks_and_advances_the_epoch() {
    let coord = Coordinator::start("127.0.0.1:0", cfg(2)).unwrap();
    let (mut c0, _) = register(&coord, "a", None, 10);
    let (mut c1, _) = register(&coord, "b", None, 10);
    let waiter = std::thread::spawn(move || {
        c0.set_read_timeout(Duration::from_secs(10)).unwrap();
        c0.rpc(&Msg::BarrierEnter { rank: 0, epoch: 1 }).unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    let r1 = c1.rpc(&Msg::BarrierEnter { rank: 1, epoch: 1 }).unwrap();
    let r0 = waiter.join().unwrap();
    assert_eq!(r0, Msg::BarrierRelease { epoch: 1 });
    assert_eq!(r1, Msg::BarrierRelease { epoch: 1 });
    match c1.rpc(&Msg::Status).unwrap() {
        Msg::StatusReport { epoch, .. } => assert_eq!(epoch, 2),
        other => panic!("expected StatusReport, got {other:?}"),
    }
    coord.shutdown();
}

/// Late joiners are rejected once training started — unless they reclaim
/// a dead rank by hint (the recovery path).
#[test]
fn late_joiner_rejected_mid_run_but_dead_rank_is_reclaimable() {
    let coord = Coordinator::start("127.0.0.1:0", cfg(2)).unwrap();
    let (mut c0, _) = register(&coord, "a", None, 10);
    let (mut c1, _) = register(&coord, "b", None, 10);

    // Start training: release barrier 1.
    let waiter = std::thread::spawn(move || {
        c0.set_read_timeout(Duration::from_secs(10)).unwrap();
        c0.rpc(&Msg::BarrierEnter { rank: 0, epoch: 1 }).unwrap();
        c0 // keep rank 0 alive
    });
    c1.rpc(&Msg::BarrierEnter { rank: 1, epoch: 1 }).unwrap();
    let _c0 = waiter.join().unwrap();

    // Hint-less joiner mid-run: rejected even while a reclaim would work.
    let (_cx, r) = register(&coord, "late", None, 10);
    match r {
        Msg::Reject { reason } => assert!(reason.contains("started"), "reason: {reason}"),
        other => panic!("expected Reject, got {other:?}"),
    }
    // Rank 1 alive: its slot cannot be stolen by hint either.
    let (_cy, r) = register(&coord, "thief", Some(1), 10);
    assert!(matches!(r, Msg::Reject { .. }), "got {r:?}");

    // Rank 1 dies; after the heartbeat timeout its slot is reclaimable.
    drop(c1);
    std::thread::sleep(Duration::from_millis(100)); // EOF marks it dead
    let (_cz, r) = register(&coord, "b-reborn", Some(1), 10);
    assert_eq!(rank_of(&r), 1);
    coord.shutdown();
}

/// Whether the coordinator's status, asked over `c`, shows `rank` alive.
fn alive(c: &mut CoordClient, rank: u32) -> bool {
    match c.rpc(&Msg::Status).unwrap() {
        Msg::StatusReport { members, .. } => members.iter().any(|m| m.rank == rank && m.alive),
        other => panic!("expected StatusReport, got {other:?}"),
    }
}

/// A silent worker's rank, once reclaimed by hint, stays with its new
/// holder when the silent worker's connection finally closes.
#[test]
fn a_stale_connection_closing_leaves_the_reclaimed_rank_alive() {
    let mut c = cfg(1);
    c.heartbeat_timeout = Duration::from_millis(600);
    let coord = Coordinator::start("127.0.0.1:0", c).unwrap();
    let (mut a, w) = register(&coord, "a", None, 10);
    assert_eq!(rank_of(&w), 0);
    // A goes silent; the monitor declares rank 0 dead.
    let deadline = Instant::now() + T;
    while alive(&mut a, 0) {
        assert!(Instant::now() < deadline, "rank 0 never declared dead");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (mut b, w) = register(&coord, "b", Some(0), 10);
    assert_eq!(rank_of(&w), 0);
    drop(a);
    std::thread::sleep(Duration::from_millis(100)); // A's EOF is handled
    assert!(
        alive(&mut b, 0),
        "the stale connection's close killed the rank's new holder"
    );
    coord.shutdown();
}

/// A global checkpoint becomes visible exactly when the *last* rank's
/// shard seal lands — the manifest-seal invariant at cluster level.
#[test]
fn global_manifest_seals_only_when_every_shard_sealed() {
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let mut c = cfg(2);
    c.global_store = Some(Arc::clone(&store));
    let coord = Coordinator::start("127.0.0.1:0", c).unwrap();
    let (mut c0, _) = register(&coord, "a", None, 40);
    let (mut c1, _) = register(&coord, "b", None, 40);

    let r = c0
        .rpc(&Msg::ShardSealed {
            rank: 0,
            iteration: 10,
            len: 20,
            crc: 0xaaaa,
        })
        .unwrap();
    assert_eq!(
        r,
        Msg::SealAck {
            iteration: 10,
            global_sealed: false
        }
    );
    assert!(store.latest_global_manifest().unwrap().is_none());

    let r = c1
        .rpc(&Msg::ShardSealed {
            rank: 1,
            iteration: 10,
            len: 20,
            crc: 0xbbbb,
        })
        .unwrap();
    assert_eq!(
        r,
        Msg::SealAck {
            iteration: 10,
            global_sealed: true
        }
    );
    let m = store.latest_global_manifest().unwrap().unwrap();
    assert_eq!(m.iteration, 10);
    assert_eq!(m.psi, 40);
    assert_eq!(m.world_size(), 2);
    let crcs: Vec<u32> = m.shards.iter().map(|s| s.crc).collect();
    assert_eq!(crcs, vec![0xaaaa, 0xbbbb]);
    // Status reflects the seal.
    match c0.rpc(&Msg::Status).unwrap() {
        Msg::StatusReport {
            last_global,
            members,
            ..
        } => {
            assert_eq!(last_global, Some(10));
            assert!(members.iter().all(|m| m.sealed == Some(10)));
        }
        other => panic!("expected StatusReport, got {other:?}"),
    }
    coord.shutdown();
}

/// `Shutdown` on the wire stops the service; subsequent connections fail.
#[test]
fn wire_shutdown_stops_the_coordinator() {
    let coord = Coordinator::start("127.0.0.1:0", cfg(1)).unwrap();
    let addr = coord.addr();
    let mut c = CoordClient::connect(addr, T).unwrap();
    assert_eq!(c.rpc(&Msg::Shutdown).unwrap(), Msg::Ok);
    coord.join();
    // The listener is gone (give the OS a beat to tear it down).
    std::thread::sleep(Duration::from_millis(100));
    assert!(CoordClient::connect(addr, Duration::from_millis(300)).is_err());
}

#[test]
fn worker_returns_when_training_ends_not_when_the_heartbeat_wakes() {
    use lowdiff_cluster::rt::{run_worker, WorkerConfig};
    // A heartbeat period far longer than the run: a worker that joined a
    // sleeping heartbeat thread on exit would take all of it to return.
    let heartbeat_every = Duration::from_secs(20);
    let dir = std::env::temp_dir().join(format!("lowdiff-hb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coord = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            // Longer than the run (the first beat goes out at once), short
            // enough that stopping the liveness monitor is quick.
            heartbeat_timeout: Duration::from_secs(2),
            ..cfg(1)
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let report = run_worker(WorkerConfig {
        coord: coord.addr().to_string(),
        dir: dir.clone(),
        name: "solo".into(),
        rank_hint: None,
        dims: vec![8, 16, 8],
        seed: 1,
        data_seed: 2,
        compress_ratio: Some(0.1),
        iters: 4,
        epoch_iters: 2,
        resume: false,
        heartbeat_every,
        barrier_timeout: T,
        step_delay: Duration::ZERO,
    })
    .unwrap();
    let took = t0.elapsed();
    coord.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.final_iteration, 4);
    assert_eq!(report.degraded, None);
    assert!(took < heartbeat_every / 2, "run_worker took {took:?}");
}

#[test]
fn epoch_flags_that_split_an_epoch_are_refused_before_connecting() {
    // Nothing listens on port 1: a worker that got past the check would
    // fail to connect instead.
    for (iters, epoch_iters) in [(25, 10), (10, 0)] {
        let err = lowdiff_cluster::rt::run_worker(lowdiff_cluster::rt::WorkerConfig {
            coord: "127.0.0.1:1".into(),
            dir: std::env::temp_dir().join("lowdiff-never-created"),
            name: "bad-flags".into(),
            rank_hint: None,
            dims: DIMS.to_vec(),
            seed: SEED,
            data_seed: DATA_SEED,
            compress_ratio: RATIO,
            iters,
            epoch_iters,
            resume: false,
            heartbeat_every: Duration::from_millis(100),
            barrier_timeout: T,
            step_delay: Duration::ZERO,
        })
        .unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "--iters {iters} --epoch-iters {epoch_iters}: {err}"
        );
    }
}

/// A rank whose shard full at one epoch end never lands must not seal
/// that epoch: the coordinator writes no global manifest for it, and every
/// manifest it does write names shard fulls that are on disk and match
/// their digests.
#[test]
fn a_failed_shard_full_is_never_sealed() {
    use lowdiff_cluster::rt::worker::shard_digest;
    use lowdiff_cluster::rt::{run_worker, WorkerConfig};
    use lowdiff_storage::DiskBackend;

    const EPOCH: u64 = 5;
    const FAILED: u64 = 2 * EPOCH;
    let dir = std::env::temp_dir().join(format!("lowdiff-failed-full-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_at = |d: std::path::PathBuf| {
        Arc::new(CheckpointStore::new(Arc::new(DiskBackend::new(d).unwrap())))
    };
    // A non-empty directory where rank 1's full at FAILED goes: every
    // attempt's rename onto it fails, so that full fails after retries.
    let blocker = dir.join("rank-1").join(CheckpointStore::full_key(FAILED));
    std::fs::create_dir_all(&blocker).unwrap();
    std::fs::write(blocker.join("occupied"), b"x").unwrap();

    let global = store_at(dir.join("global"));
    let coord = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: 2,
            heartbeat_timeout: Duration::from_secs(5),
            barrier_timeout: Duration::from_secs(20),
            global_store: Some(Arc::clone(&global)),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let workers: Vec<_> = (0..2u32)
        .map(|rank| {
            let cfg = WorkerConfig {
                coord: coord.addr().to_string(),
                dir: dir.clone(),
                name: format!("rank{rank}"),
                rank_hint: Some(rank),
                dims: vec![8, 16, 8],
                seed: 1,
                data_seed: 2,
                compress_ratio: Some(0.25),
                iters: 4 * EPOCH,
                epoch_iters: EPOCH,
                resume: false,
                heartbeat_every: Duration::from_millis(100),
                barrier_timeout: Duration::from_secs(20),
                step_delay: Duration::ZERO,
            };
            std::thread::spawn(move || run_worker(cfg))
        })
        .collect();
    for worker in workers {
        let report = worker.join().unwrap().unwrap();
        assert_eq!(report.final_iteration, 4 * EPOCH);
        assert_eq!(report.degraded, None);
    }
    coord.shutdown();

    let sealed = global.global_iterations().unwrap();
    assert!(
        !sealed.contains(&FAILED),
        "a global manifest names rank 1's failed full at {FAILED}: {sealed:?}"
    );
    assert_eq!(sealed.last(), Some(&(4 * EPOCH)), "sealed {sealed:?}");
    for iteration in sealed {
        let manifest = global.get_global_manifest(iteration).unwrap();
        for seal in &manifest.shards {
            let store = store_at(dir.join(format!("rank-{}", seal.rank)));
            let fc = store.load_full_checkpoint(iteration).unwrap_or_else(|e| {
                panic!("rank {} full at {iteration}: {e}", seal.rank);
            });
            assert_eq!(
                shard_digest(&fc.state),
                (seal.len, seal.crc),
                "rank {} full at {iteration}",
                seal.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const DIMS: [usize; 3] = [8, 16, 8];
const SEED: u64 = 1;
const DATA_SEED: u64 = 2;
const RATIO: Option<f64> = Some(0.25);
const EPOCH: u64 = 5;

/// Rank `rank` of a cluster over `coord` and `dir`, training the fixed
/// task to `iters`.
fn worker_cfg(
    coord: &Coordinator,
    dir: &std::path::Path,
    rank: u32,
    iters: u64,
) -> lowdiff_cluster::rt::WorkerConfig {
    lowdiff_cluster::rt::WorkerConfig {
        coord: coord.addr().to_string(),
        dir: dir.to_path_buf(),
        name: format!("rank{rank}"),
        rank_hint: Some(rank),
        dims: DIMS.to_vec(),
        seed: SEED,
        data_seed: DATA_SEED,
        compress_ratio: RATIO,
        iters,
        epoch_iters: EPOCH,
        resume: false,
        heartbeat_every: Duration::from_millis(100),
        barrier_timeout: Duration::from_secs(20),
        step_delay: Duration::ZERO,
    }
}

fn disk_store(dir: std::path::PathBuf) -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(
        lowdiff_storage::DiskBackend::new(dir).unwrap(),
    )))
}

/// Two in-process ranks trained to `4 · EPOCH` iterations under a
/// coordinator that seals into `dir/global`, which is returned.
fn run_two_sealed_ranks(dir: &std::path::Path) -> Arc<CheckpointStore> {
    let _ = std::fs::remove_dir_all(dir);
    let global = disk_store(dir.join("global"));
    let coord = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: 2,
            heartbeat_timeout: Duration::from_secs(5),
            barrier_timeout: Duration::from_secs(20),
            global_store: Some(Arc::clone(&global)),
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let workers: Vec<_> = (0..2u32)
        .map(|rank| {
            let cfg = worker_cfg(&coord, dir, rank, 4 * EPOCH);
            std::thread::spawn(move || lowdiff_cluster::rt::run_worker(cfg))
        })
        .collect();
    for worker in workers {
        let report = worker.join().unwrap().unwrap();
        assert_eq!(report.final_iteration, 4 * EPOCH);
        assert_eq!(report.degraded, None);
    }
    coord.shutdown();
    global
}

/// Every epoch seal names the rank's shard of the *training* state at its
/// iteration: the uninterrupted run's state, projected onto the rank's
/// spec and digested.
#[test]
fn every_seal_is_the_digest_of_the_training_state() {
    use lowdiff_cluster::rt::worker::{reference_state, shard_digest};
    use lowdiff_testkit::ShardProjection;

    let dir = std::env::temp_dir().join(format!("lowdiff-seal-state-{}", std::process::id()));
    let global = run_two_sealed_ranks(&dir);
    let sealed = global.global_iterations().unwrap();
    assert_eq!(sealed.last(), Some(&(4 * EPOCH)), "sealed {sealed:?}");
    for iteration in sealed {
        let manifest = global.get_global_manifest(iteration).unwrap();
        let state = reference_state(&DIMS, SEED, DATA_SEED, RATIO, iteration);
        for seal in &manifest.shards {
            let spec = manifest.spec_of(seal.rank).unwrap();
            assert_eq!(
                shard_digest(&spec.project_state(&state)),
                (seal.len, seal.crc),
                "rank {} at {iteration}",
                seal.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard full replaced by a *valid* blob of a different state — it
/// decodes cleanly, only its seal can tell — is refused at resume.
#[test]
fn a_tampered_shard_full_is_refused_at_resume() {
    use lowdiff_storage::codec;

    let dir = std::env::temp_dir().join(format!("lowdiff-tampered-{}", std::process::id()));
    let global = run_two_sealed_ranks(&dir);
    let newest = *global
        .global_iterations()
        .unwrap()
        .last()
        .expect("a sealed epoch");
    let rank1 = disk_store(dir.join("rank-1"));
    let mut fc = rank1.load_full_checkpoint(newest).unwrap();
    fc.state.params[0] += 1.0;
    rank1
        .put_full(
            newest,
            &codec::encode_full_checkpoint(&fc.state, &fc.aux.view()),
        )
        .unwrap();
    assert_eq!(rank1.load_full_checkpoint(newest).unwrap(), fc);

    let coord = Coordinator::start("127.0.0.1:0", cfg(1)).unwrap();
    let resumed = lowdiff_cluster::rt::run_worker(lowdiff_cluster::rt::WorkerConfig {
        resume: true,
        ..worker_cfg(&coord, &dir, 0, 5 * EPOCH)
    });
    coord.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let err = resumed.expect_err("resumed from a tampered shard full");
    assert!(
        err.to_string().contains("does not match its seal"),
        "unexpected error: {err}"
    );
}
