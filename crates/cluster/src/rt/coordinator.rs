//! The cluster coordinator: membership, heartbeats, epoch barriers, and
//! global-checkpoint sealing for multi-process training.
//!
//! One coordinator process fronts `world_size` worker processes over the
//! TCP protocol in [`lowdiff_comm::wire`]. It owns four pieces of state:
//!
//! * **Membership** — ranks are assigned at registration (`rank_hint`
//!   pins a restarted worker back onto its shard). Once training has
//!   started (any barrier released or shard sealed), hint-less joiners
//!   are rejected: a late rank could not hold a consistent shard history.
//! * **Heartbeats** — a monitor thread marks ranks dead after
//!   `heartbeat_timeout` of silence (or on connection close). Death never
//!   panics anything; it *degrades* the current barrier.
//! * **Epoch barriers** — workers enter a numbered barrier at each epoch
//!   end, without waiting for that epoch's shard checkpoint to be durable:
//!   its seal follows once it has landed, typically within two
//!   iterations, so a released barrier for epoch `k` does not imply that
//!   the global manifest for `k` exists yet. The barrier releases when all
//!   ranks enter, and **fails with a timeout error** (never hangs) when a
//!   rank dies or `barrier_timeout` elapses; waiters get the missing rank
//!   set.
//! * **Shard seals → global manifest** — when every rank has reported a
//!   sealed shard checkpoint for iteration `t` (a rank reports one only
//!   after its shard full at `t` landed, and never for one that failed),
//!   the coordinator writes a [`GlobalManifest`] (LDGM) into the global
//!   store. That manifest *is*
//!   the visibility point: a global checkpoint exists iff all of its
//!   shard manifests are sealed, the cluster-level mirror of the striped
//!   manifest-seal invariant.
//!
//! All socket I/O is `io::Result`-propagated; a broken connection ends
//! its handler thread and marks the rank dead — no unwraps on the wire.

use super::hashring::HashRing;
use lowdiff_comm::wire::{read_msg, write_msg, MemberStatus, Msg};
use lowdiff_storage::shard::{GlobalManifest, ShardSeal};
use lowdiff_storage::CheckpointStore;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Coordinator tuning knobs.
#[derive(Clone)]
pub struct CoordConfig {
    /// Fixed cluster size; the shard partition is over exactly this many
    /// ranks.
    pub world_size: u32,
    /// Chunks the flat parameter vector is cut into (the consistent-hash
    /// unit). More chunks = smoother balance, bigger manifests. The
    /// default 16 splits far from evenly over small worlds — 5/11 for 2
    /// ranks, 3/7/6 for 3, 2/6/4/4 for 4 (see [`HashRing::DEFAULT_VNODES`]).
    pub num_chunks: u32,
    /// Virtual nodes per rank on the hash ring.
    pub vnodes: usize,
    /// Silence after which a rank is declared dead.
    pub heartbeat_timeout: Duration,
    /// How long a barrier waits for stragglers before failing.
    pub barrier_timeout: Duration,
    /// Where sealed [`GlobalManifest`]s are written. `None` disables
    /// global sealing (membership/barrier-only deployments and tests).
    pub global_store: Option<Arc<CheckpointStore>>,
}

impl Default for CoordConfig {
    fn default() -> Self {
        Self {
            world_size: 1,
            num_chunks: 16,
            vnodes: HashRing::DEFAULT_VNODES,
            heartbeat_timeout: Duration::from_secs(3),
            barrier_timeout: Duration::from_secs(30),
            global_store: None,
        }
    }
}

struct Member {
    name: String,
    alive: bool,
    last_seen: Instant,
    sealed: Option<u64>,
}

#[derive(Default)]
struct CoordState {
    /// Agreed flat parameter count; fixed by the first registration.
    psi: Option<u64>,
    /// Barriers released so far (the "current epoch" workers are in).
    epoch: u64,
    members: Vec<Option<Member>>,
    /// barrier epoch → ranks entered.
    entered: BTreeMap<u64, BTreeSet<u32>>,
    /// Barrier epochs that already failed (their waiters were told).
    failed: BTreeSet<u64>,
    /// iteration → rank → (len, crc) shard-seal reports.
    seals: BTreeMap<u64, BTreeMap<u32, (u64, u32)>>,
    /// Newest globally sealed iteration.
    last_global: Option<u64>,
    shutdown: bool,
}

struct Shared {
    cfg: CoordConfig,
    /// chunks per rank, indexed by rank.
    chunks: Vec<Vec<u32>>,
    state: Mutex<CoordState>,
    cv: Condvar,
}

/// A running coordinator; dropping it does **not** stop the service —
/// call [`Coordinator::shutdown`] or send [`Msg::Shutdown`] on the wire.
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Bind `listen` (port 0 picks a free port — see [`Coordinator::addr`])
    /// and serve until shut down.
    pub fn start<A: ToSocketAddrs>(listen: A, cfg: CoordConfig) -> io::Result<Coordinator> {
        assert!(cfg.world_size >= 1, "world_size must be at least 1");
        assert!(cfg.num_chunks >= cfg.world_size, "need >= 1 chunk per rank");
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let ranks: Vec<u32> = (0..cfg.world_size).collect();
        let ring = HashRing::new(&ranks, cfg.vnodes);
        let mut chunks = vec![Vec::new(); cfg.world_size as usize];
        for (rank, owned) in ring.assignment(cfg.num_chunks) {
            chunks[rank as usize] = owned;
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(CoordState {
                members: (0..cfg.world_size).map(|_| None).collect(),
                ..CoordState::default()
            }),
            cv: Condvar::new(),
            cfg,
            chunks,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || monitor_loop(shared))
        };
        Ok(Coordinator {
            addr,
            shared,
            accept: Some(accept),
            monitor: Some(monitor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the service to stop and wait for its threads.
    pub fn shutdown(mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        self.join_threads();
    }

    /// Block until the service stops (a [`Msg::Shutdown`] arrived on the
    /// wire or [`Coordinator::shutdown`] was called from another handle).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.state.lock().unwrap().shutdown {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let _ = serve_conn(stream, shared);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Scan for silent ranks; a death degrades any barrier waiting on them.
fn monitor_loop(shared: Arc<Shared>) {
    let period = (shared.cfg.heartbeat_timeout / 4).max(Duration::from_millis(10));
    loop {
        {
            let mut st = shared.state.lock().unwrap();
            if st.shutdown {
                return;
            }
            let mut changed = false;
            for m in st.members.iter_mut().flatten() {
                if m.alive && m.last_seen.elapsed() > shared.cfg.heartbeat_timeout {
                    m.alive = false;
                    changed = true;
                }
            }
            if changed {
                shared.cv.notify_all();
            }
        }
        thread::sleep(period);
    }
}

/// One connection = one worker channel. Strict request/response; any I/O
/// error (or clean close) ends the loop and marks the connection's
/// registered rank dead.
fn serve_conn(mut stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut registered: Option<u32> = None;
    let result = loop {
        let msg = match read_msg(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        let reply = handle(&shared, &mut registered, msg);
        let stop = matches!(reply, Msg::Ok) && shared.state.lock().unwrap().shutdown;
        if let Err(e) = write_msg(&mut stream, &reply) {
            break Err(e);
        }
        if stop {
            break Ok(());
        }
    };
    if let Some(rank) = registered {
        let mut st = shared.state.lock().unwrap();
        if let Some(m) = st.members.get_mut(rank as usize).and_then(Option::as_mut) {
            m.alive = false;
        }
        shared.cv.notify_all();
    }
    result
}

fn touch(st: &mut CoordState, rank: u32) {
    if let Some(m) = st.members.get_mut(rank as usize).and_then(Option::as_mut) {
        m.last_seen = Instant::now();
        m.alive = true;
    }
}

fn handle(shared: &Shared, registered: &mut Option<u32>, msg: Msg) -> Msg {
    match msg {
        Msg::Register {
            name,
            rank_hint,
            psi,
        } => register(shared, registered, name, rank_hint, psi),
        Msg::Heartbeat { rank } => {
            let mut st = shared.state.lock().unwrap();
            touch(&mut st, rank);
            Msg::HeartbeatAck { epoch: st.epoch }
        }
        Msg::BarrierEnter { rank, epoch } => barrier(shared, rank, epoch),
        Msg::ShardSealed {
            rank,
            iteration,
            len,
            crc,
        } => seal(shared, rank, iteration, len, crc),
        Msg::Status => status(shared),
        Msg::Shutdown => {
            let mut st = shared.state.lock().unwrap();
            st.shutdown = true;
            shared.cv.notify_all();
            Msg::Ok
        }
        other => Msg::Reject {
            reason: format!("unexpected message at coordinator: {other:?}"),
        },
    }
}

fn register(
    shared: &Shared,
    registered: &mut Option<u32>,
    name: String,
    rank_hint: Option<u32>,
    psi: u64,
) -> Msg {
    let world = shared.cfg.world_size;
    let mut st = shared.state.lock().unwrap();
    if st.shutdown {
        return Msg::Reject {
            reason: "coordinator is shutting down".into(),
        };
    }
    if let Some(expected) = st.psi {
        if expected != psi {
            return Msg::Reject {
                reason: format!("psi mismatch: cluster trains {expected} params, worker has {psi}"),
            };
        }
    }
    let started = st.epoch > 0 || !st.seals.is_empty() || !st.entered.is_empty();
    let rank = match rank_hint {
        Some(r) if r >= world => {
            return Msg::Reject {
                reason: format!("rank {r} out of range (world size {world})"),
            }
        }
        Some(r) => {
            if let Some(holder) = st.members[r as usize].as_ref().filter(|m| m.alive) {
                return Msg::Reject {
                    reason: format!("rank {r} is still alive (held by '{}')", holder.name),
                };
            }
            r
        }
        None if started => {
            return Msg::Reject {
                reason: "training already started: late joiners must reclaim a \
                         dead rank with an explicit rank hint"
                    .into(),
            }
        }
        None => match st.members.iter().position(Option::is_none) {
            Some(slot) => slot as u32,
            None => {
                return Msg::Reject {
                    reason: "cluster is full".into(),
                }
            }
        },
    };
    st.psi = Some(psi);
    st.members[rank as usize] = Some(Member {
        name,
        alive: true,
        last_seen: Instant::now(),
        sealed: st.members[rank as usize].as_ref().and_then(|m| m.sealed),
    });
    // Membership changed: any barrier bookkeeping from before the change
    // is void (workers gate training start on full registration, so no
    // live barrier can be in flight here on a sane cluster).
    st.entered.clear();
    st.failed.clear();
    *registered = Some(rank);
    shared.cv.notify_all();
    Msg::Welcome {
        rank,
        world_size: world,
        epoch: st.epoch,
        num_chunks: shared.cfg.num_chunks,
        chunks: shared.chunks[rank as usize].clone(),
    }
}

/// Enter barrier `epoch` as `rank` and block until it releases, a rank
/// dies, or `barrier_timeout` runs out. Never hangs: the failure paths
/// answer with [`Msg::BarrierFailed`] carrying the missing ranks.
fn barrier(shared: &Shared, rank: u32, epoch: u64) -> Msg {
    let world = shared.cfg.world_size;
    let deadline = Instant::now() + shared.cfg.barrier_timeout;
    let mut st = shared.state.lock().unwrap();
    touch(&mut st, rank);
    st.entered.entry(epoch).or_default().insert(rank);
    if st.entered[&epoch].len() as u32 == world {
        st.epoch = st.epoch.max(epoch + 1);
    }
    shared.cv.notify_all();
    loop {
        if st.entered.get(&epoch).map_or(0, |s| s.len()) as u32 == world {
            return Msg::BarrierRelease { epoch };
        }
        if st.shutdown {
            return Msg::BarrierFailed {
                epoch,
                missing: missing_ranks(&st, epoch, world),
                reason: "coordinator shut down".into(),
            };
        }
        if st.failed.contains(&epoch) {
            return Msg::BarrierFailed {
                epoch,
                missing: missing_ranks(&st, epoch, world),
                reason: "barrier already failed".into(),
            };
        }
        let missing = missing_ranks(&st, epoch, world);
        let dead: Vec<u32> = missing
            .iter()
            .copied()
            .filter(|&r| !st.members[r as usize].as_ref().is_some_and(|m| m.alive))
            .collect();
        if !dead.is_empty() {
            st.failed.insert(epoch);
            shared.cv.notify_all();
            return Msg::BarrierFailed {
                epoch,
                missing,
                reason: format!("rank(s) {dead:?} dead (heartbeat timeout)"),
            };
        }
        let now = Instant::now();
        if now >= deadline {
            st.failed.insert(epoch);
            shared.cv.notify_all();
            return Msg::BarrierFailed {
                epoch,
                missing,
                reason: format!("barrier timeout after {:?}", shared.cfg.barrier_timeout),
            };
        }
        let (guard, _) = shared
            .cv
            .wait_timeout(st, (deadline - now).min(Duration::from_millis(100)))
            .unwrap();
        st = guard;
    }
}

fn missing_ranks(st: &CoordState, epoch: u64, world: u32) -> Vec<u32> {
    let entered = st.entered.get(&epoch);
    (0..world)
        .filter(|r| entered.is_none_or(|s| !s.contains(r)))
        .collect()
}

/// Record a shard seal; when the last rank's report for `iteration`
/// lands, stitch the manifest and make the global checkpoint visible.
fn seal(shared: &Shared, rank: u32, iteration: u64, len: u64, crc: u32) -> Msg {
    let world = shared.cfg.world_size;
    let mut st = shared.state.lock().unwrap();
    touch(&mut st, rank);
    if rank >= world {
        return Msg::Reject {
            reason: format!("seal from unknown rank {rank}"),
        };
    }
    if let Some(m) = st.members[rank as usize].as_mut() {
        m.sealed = Some(m.sealed.map_or(iteration, |s| s.max(iteration)));
    }
    st.seals
        .entry(iteration)
        .or_default()
        .insert(rank, (len, crc));
    let complete = st.seals[&iteration].len() as u32 == world;
    if complete && st.last_global.is_none_or(|g| g < iteration) {
        if let (Some(store), Some(psi)) = (&shared.cfg.global_store, st.psi) {
            let shards: Vec<ShardSeal> = st.seals[&iteration]
                .iter()
                .map(|(&r, &(len, crc))| ShardSeal {
                    rank: r,
                    chunks: shared.chunks[r as usize].clone(),
                    len,
                    crc,
                })
                .collect();
            let manifest = GlobalManifest {
                iteration,
                psi,
                num_chunks: shared.cfg.num_chunks,
                shards,
            };
            if let Err(e) = store.put_global_manifest(&manifest) {
                return Msg::Reject {
                    reason: format!("global manifest write failed: {e}"),
                };
            }
        }
        st.last_global = Some(iteration);
    }
    Msg::SealAck {
        iteration,
        global_sealed: st.last_global >= Some(iteration) && complete,
    }
}

fn status(shared: &Shared) -> Msg {
    let st = shared.state.lock().unwrap();
    let members = st
        .members
        .iter()
        .enumerate()
        .filter_map(|(r, m)| {
            m.as_ref().map(|m| MemberStatus {
                rank: r as u32,
                alive: m.alive,
                sealed: m.sealed,
                last_seen_ms: m.last_seen.elapsed().as_millis() as u64,
            })
        })
        .collect();
    Msg::StatusReport {
        epoch: st.epoch,
        world_size: shared.cfg.world_size,
        members,
        last_global: st.last_global,
    }
}
