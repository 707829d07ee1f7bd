//! Three-process cluster end-to-end: spawn a real coordinator and three
//! worker processes over TCP, let them seal a global checkpoint, kill one
//! rank mid-run, watch the survivors degrade their barrier (no hangs),
//! then resume all three from the stitched global manifest and finish.
//!
//! The final assertion is the paper's consistency bar: the stitched
//! global state after kill + resume is **bit-identical** — parameters and
//! both Adam moments — to an uninterrupted single-process run.

use lowdiff_cluster::rt::worker::{reference_state, shard_digest};
use lowdiff_storage::shard::stitch_fulls;
use lowdiff_storage::{CheckpointStore, DiskBackend};
use std::io::{BufRead, BufReader};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: &str = "6,16,2";
const DIMS_V: [usize; 3] = [6, 16, 2];
const SEED: u64 = 3;
const DATA_SEED: u64 = 11;
const RATIO: f64 = 0.25;
const ITERS: u64 = 30;
const EPOCH: u64 = 10;
const WORLD: u32 = 3;

fn store_at(dir: &Path) -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(
        DiskBackend::new(dir).unwrap(),
    )))
}

/// A spawned coordinator or worker that is killed and reaped when the
/// guard drops, so a failing assertion never leaves the process running.
struct Reaped(Option<Child>);

impl Reaped {
    fn into_child(mut self) -> Child {
        self.0.take().expect("child present until taken")
    }
}

impl Deref for Reaped {
    type Target = Child;
    fn deref(&self) -> &Child {
        self.0.as_ref().expect("child present until taken")
    }
}

impl DerefMut for Reaped {
    fn deref_mut(&mut self) -> &mut Child {
        self.0.as_mut().expect("child present until taken")
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_coordinator(dir: &Path) -> (Reaped, String) {
    let spawned = Command::new(env!("CARGO_BIN_EXE_lowdiff-coordinator"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--world",
            &WORLD.to_string(),
            "--dir",
            dir.to_str().unwrap(),
            "--num-chunks",
            "16",
            "--heartbeat-timeout-ms",
            "1000",
            "--barrier-timeout-ms",
            "20000",
        ])
        .stdout(Stdio::piped())
        .spawn();
    let mut child = Reaped(Some(spawned.expect("spawn coordinator")));
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected coordinator banner: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

fn spawn_worker(coord: &str, dir: &Path, rank: u32, resume: bool, step_delay_ms: u64) -> Reaped {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lowdiff-worker"));
    cmd.args([
        "--coord",
        coord,
        "--dir",
        dir.to_str().unwrap(),
        "--name",
        &format!("w{rank}"),
        "--rank",
        &rank.to_string(),
        "--dims",
        DIMS,
        "--seed",
        &SEED.to_string(),
        "--data-seed",
        &DATA_SEED.to_string(),
        "--ratio",
        &RATIO.to_string(),
        "--iters",
        &ITERS.to_string(),
        "--epoch-iters",
        &EPOCH.to_string(),
        "--heartbeat-ms",
        "100",
        "--barrier-timeout-ms",
        "20000",
        "--step-delay-ms",
        &step_delay_ms.to_string(),
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    if resume {
        cmd.arg("--resume");
    }
    Reaped(Some(cmd.spawn().expect("spawn worker")))
}

/// Poll until the global store holds a sealed manifest (any iteration),
/// or panic at the deadline.
fn wait_for_global_seal(global: &CheckpointStore, deadline: Duration) -> u64 {
    let start = Instant::now();
    loop {
        if let Ok(Some(m)) = global.latest_global_manifest() {
            return m.iteration;
        }
        assert!(
            start.elapsed() < deadline,
            "no global manifest sealed within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn finished_report(child: Reaped, who: &str) -> (i32, String) {
    let out = child.into_child().wait_with_output().expect("worker exit");
    let code = out.status.code().unwrap_or(-1);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr);
    (
        code,
        format!("{who}: code={code} stdout={stdout:?} stderr={stderr:?}"),
    )
}

#[test]
fn kill_one_rank_then_resume_is_bit_identical_to_the_unkilled_run() {
    let dir: PathBuf = std::env::temp_dir().join(format!("lowdiff-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (coord_child, addr) = spawn_coordinator(&dir);
    let global = store_at(&dir.join("global"));

    // Phase 1: three worker processes, slowed enough to open a kill
    // window (each epoch is EPOCH * 40ms ≈ 400ms of training).
    let w0 = spawn_worker(&addr, &dir, 0, false, 40);
    let w1 = spawn_worker(&addr, &dir, 1, false, 40);
    let w2 = spawn_worker(&addr, &dir, 2, false, 40);

    // Wait for the first sealed global checkpoint, then kill rank 1 in
    // the middle of the next epoch.
    let sealed = wait_for_global_seal(&global, Duration::from_secs(60));
    assert_eq!(sealed % EPOCH, 0, "seals land on epoch boundaries");
    std::thread::sleep(Duration::from_millis(150));
    let mut w1 = w1;
    w1.kill().expect("kill rank 1");
    let _ = w1.wait();

    // The survivors must degrade (exit code 2, barrier failure) — not
    // hang, not crash.
    for (child, who) in [(w0, "rank 0"), (w2, "rank 2")] {
        let (code, detail) = finished_report(child, who);
        assert_eq!(code, 2, "survivor should exit degraded; {detail}");
        assert!(detail.contains("degraded=epoch barrier failed"), "{detail}");
    }

    // Phase 2: relaunch all three ranks in resume mode (full speed).
    let resumed: Vec<Reaped> = (0..WORLD)
        .map(|r| spawn_worker(&addr, &dir, r, true, 0))
        .collect();
    for (r, child) in resumed.into_iter().enumerate() {
        let (code, detail) = finished_report(child, &format!("resumed rank {r}"));
        assert_eq!(code, 0, "{detail}");
        assert!(detail.contains(&format!("final={ITERS}")), "{detail}");
        // Every rank anchored on a sealed global manifest.
        assert!(detail.contains("resumed="), "{detail}");
        assert!(!detail.contains("resumed=none"), "{detail}");
    }

    // The run's last global manifest seals the target iteration; stitch
    // its shards and compare against the uninterrupted oracle.
    let manifest = global.latest_global_manifest().unwrap().unwrap();
    assert_eq!(manifest.iteration, ITERS);
    assert_eq!(manifest.world_size(), WORLD as usize);
    let mut parts = Vec::new();
    for seal in &manifest.shards {
        let spec = manifest.spec_of(seal.rank).unwrap();
        let store = store_at(&dir.join(format!("rank-{}", seal.rank)));
        let fc = store.load_full_checkpoint(manifest.iteration).unwrap();
        // The manifest's digest teeth bite: what's on disk is what was
        // sealed.
        assert_eq!(shard_digest(&fc.state), (seal.len, seal.crc));
        parts.push((spec, fc));
    }
    let stitched = stitch_fulls(manifest.psi as usize, &parts).unwrap();

    let oracle = reference_state(&DIMS_V, SEED, DATA_SEED, Some(RATIO), ITERS);
    assert_eq!(stitched.state.iteration, oracle.iteration);
    assert_eq!(stitched.state.params, oracle.params, "params diverged");
    assert_eq!(stitched.state.opt.m, oracle.opt.m, "Adam m diverged");
    assert_eq!(stitched.state.opt.v, oracle.opt.v, "Adam v diverged");
    assert_eq!(stitched.state.opt.t, oracle.opt.t);

    // Tear down the coordinator over the wire (what `lowdiff-ctl cluster
    // <addr> shutdown` does).
    let mut client =
        lowdiff_comm::wire::CoordClient::connect(addr.as_str(), Duration::from_secs(5)).unwrap();
    assert_eq!(
        client.rpc(&lowdiff_comm::wire::Msg::Shutdown).unwrap(),
        lowdiff_comm::wire::Msg::Ok
    );
    drop(client);
    let mut coord_child = coord_child;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(Some(_)) = coord_child.try_wait() {
            break;
        }
        if Instant::now() >= deadline {
            let _ = coord_child.kill();
            panic!("coordinator did not exit after Shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
