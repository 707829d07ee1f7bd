//! [`CheckpointEngine`] — the staged snapshot → encode → persist pipeline
//! shared by every checkpointing strategy.
//!
//! ```text
//! training thread                 │ checkpointing thread (async engines)
//! ───────────────                 │ ────────────────────
//! SNAPSHOT: capture the state     │
//!   into a framed ticket /        │
//!   clone the gradient handle     │
//!   → submit(Job) ──bounded queue──▶ policy.process(job, ctx)
//!                                 │   ├─ ENCODE: codec + CRC
//!                                 │   └─ PERSIST: fan-out over the tier
//!                                 │      stack behind the one shared
//!                                 │      RetryPolicy; dropped batches and
//!                                 │      forced re-anchors handled here,
//!                                 │      once, for everyone
//! ```
//!
//! Every write goes through a [`TierStack`] of the closed [`Tier`] enum
//! (durable store, CPU-memory store, peer replicas); the front tier
//! acknowledges, the rest trail best-effort, and each store tier
//! garbage-collects to its own `keep` ([`tier`], [`persist`]).
//!
//! Strategies are split in two:
//!
//! * a **policy** ([`CheckpointPolicy`]) holding the scheme's decisions —
//!   what to capture, full vs diff, batch boundaries;
//! * a thin **adapter** implementing [`crate::strategy::CheckpointStrategy`]
//!   that captures state on the training thread and submits jobs.
//!
//! Two modes:
//!
//! * [`CheckpointEngine::spawn`] — a dedicated worker thread behind a
//!   bounded job queue (LowDiff and the sharded adapter over it,
//!   LowDiff+, and the periodic-full CheckFreq and Gemini schedules).
//!   The queue capacity *is* the pipeline depth: CheckFreq's depth-1
//!   snapshot/persist overlap is `queue_capacity = 1`.
//! * [`CheckpointEngine::inline`] — no thread; jobs are processed on the
//!   training thread (the periodic-full `torch.save` schedule and Naïve
//!   DC — schemes whose point is that the write sits on the critical
//!   path).
//!
//! The engine produces [`crate::strategy::StrategyStats`] centrally
//! (policies account through [`EngineCtx`]), records every full's persist
//! outcome by iteration ([`CheckpointEngine::full_outcome`]: "is the full
//! at `t` durable?" without a flush), and exports a small health blob
//! ([`HEALTH_KEY`]) that `lowdiff-ctl health` surfaces. The checkpointing
//! thread refreshes it after a landed full within a time budget: a
//! refresh that took `d` allows the next one `20 × d` after it started,
//! so a cheap sink is refreshed at every landed full and a slow one costs
//! at most 5 % of the thread's time. Flush and drop always export it.

pub mod cow;
pub mod crash;
pub mod metrics;
pub mod persist;
pub mod policy;
pub mod tier;

pub use cow::CowTicket;
pub use crash::{CrashInjector, CrashPoint, ALL_CRASH_POINTS};
pub use metrics::{EngineCounters, EngineMetrics, LatencyHist, StageLatency};
use persist::FullOutcomes;
pub use persist::{EngineCtx, FullOpts};
pub use policy::{CheckpointPolicy, Job, PolicyCtl};
pub use tier::{peer_recovery_stores, PeerReplicaBackend, PeerTier, Tier, TierStack};

use crate::strategy::StrategyStats;
use crossbeam::channel::{
    bounded, unbounded, Receiver, Select, Sender, TryRecvError, TrySendError,
};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::{CheckpointStore, RetryPolicy, StripeCfg};
use lowdiff_util::units::Secs;
use lowdiff_util::BufferPool;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Storage key of the engine's exported health blob (deliberately outside
/// the `full-`/`diff-` key spaces so checkpoint discovery ignores it).
pub const HEALTH_KEY: &str = "meta-engine-health.json";

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Bounded job-queue capacity (the pipeline depth before the training
    /// thread blocks on submit). Ignored by [`CheckpointEngine::inline`].
    pub queue_capacity: usize,
    /// The one retry/backoff policy every persist goes through.
    pub retry: RetryPolicy,
    /// Export the health blob under [`HEALTH_KEY`]: on flush and shutdown,
    /// and (asynchronous engines) from the checkpointing thread after a
    /// landed full, as often as a 5 % time budget allows.
    pub export_health: bool,
    /// Striped parallel persist: blobs above the stripe threshold fan out
    /// into `stripe.stripes` concurrent ranged writes sealed by a
    /// manifest. The default (1 stripe) keeps the legacy single-blob
    /// layout byte-for-byte.
    pub stripe: StripeCfg,
    /// Deterministic crash-point injection (torture tests). `None` in
    /// production: every check is a no-op.
    pub crash: Option<Arc<CrashInjector>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            export_health: true,
            stripe: StripeCfg::default(),
            crash: None,
        }
    }
}

/// Result of submitting a job on the training thread.
pub struct Submitted {
    /// How long the training thread was blocked (capture + enqueue, or
    /// the whole inline persist for synchronous engines).
    pub stall: Secs,
    /// False when the worker is gone (the run is already degraded).
    pub delivered: bool,
}

enum WorkerMsg {
    Flush(Sender<()>),
    Ctl(PolicyCtl),
}

/// What the training-side engine handle and its checkpointing thread
/// share: the stats ledger (the training thread's stall total included),
/// the stage metrics, the re-anchor flag, the encode buffers, the ticket
/// pool and the fulls' outcomes. [`Self::ctx`] is the one place an
/// [`EngineCtx`] is built.
struct EngineShared {
    stats: Mutex<StrategyStats>,
    /// The training thread's stall total, as the bits of its `f64`
    /// seconds: added to by the training thread only, read by both.
    stall: AtomicU64,
    metrics: EngineMetrics,
    force_full: AtomicBool,
    buffers: BufferPool<u8>,
    cow: Arc<cow::CowTickets>,
    fulls: FullOutcomes,
    /// Where the checkpointing thread refreshes the health blob after
    /// landed fulls; `None` leaves the export to flush and drop.
    health: Option<HealthSink>,
}

/// A refresh that took `d` allows the next one `HEALTH_BUDGET × d` after
/// it started, so refreshing takes at most 1/20 of the checkpointing
/// thread's wall time.
const HEALTH_BUDGET: u32 = 20;

/// The health blob's destination, the engine's name, and the earliest
/// instant of the checkpointing thread's next refresh.
struct HealthSink {
    name: &'static str,
    store: Arc<CheckpointStore>,
    next: Mutex<Instant>,
}

impl HealthSink {
    /// Write the blob with `stats` unless the budget holds it back. A
    /// sink that is cheap next to the gap between fulls (the in-memory
    /// and peer stores) refreshes at every landed full; a slow one (a
    /// rename behind another writer's writeback) is throttled.
    fn refresh(&self, stats: impl FnOnce() -> StrategyStats) {
        let mut next = self.next.lock();
        let start = Instant::now();
        if start < *next {
            return;
        }
        put_health(&self.store, self.name, &stats());
        *next = start + start.elapsed() * HEALTH_BUDGET;
    }
}

impl EngineShared {
    fn new(cow: Arc<cow::CowTickets>) -> Arc<Self> {
        Self::with_health(cow, None)
    }

    fn with_health(cow: Arc<cow::CowTickets>, health: Option<HealthSink>) -> Arc<Self> {
        Arc::new(Self {
            stats: Mutex::new(StrategyStats::default()),
            stall: AtomicU64::new(0f64.to_bits()),
            metrics: EngineMetrics::default(),
            force_full: AtomicBool::new(false),
            buffers: BufferPool::default(),
            cow,
            fulls: FullOutcomes::default(),
            health,
        })
    }

    fn ctx<'a>(&'a self, cfg: &'a EngineConfig) -> EngineCtx<'a> {
        EngineCtx {
            retry: &cfg.retry,
            stripe: &cfg.stripe,
            shared: &self.stats,
            force_full: &self.force_full,
            metrics: &self.metrics,
            buffers: &self.buffers,
            cow: &self.cow,
            crash: cfg.crash.as_deref(),
            engine: self,
        }
    }

    fn stall(&self) -> Secs {
        Secs(f64::from_bits(self.stall.load(Ordering::Relaxed)))
    }

    /// Add `stall` to the total. Training thread only: the load and the
    /// store are not one atomic step.
    fn add_stall(&self, stall: Secs) {
        let total = self.stall() + stall;
        self.stall
            .store(total.as_f64().to_bits(), Ordering::Relaxed);
    }

    /// The ledger with the stall total and the engine counters; the queue
    /// depth is the one the checkpointing thread last observed.
    fn stats(&self) -> StrategyStats {
        let mut s = self.stats.lock().clone();
        s.stall = self.stall();
        s.engine = self.metrics.counters();
        s
    }

    /// Record the persist outcome of the full at `iteration`. A landed
    /// full first refreshes the health blob when this engine exports it
    /// from the checkpointing thread, the process is not crash-dead (the
    /// torture harness must never see a post-crash write) and the
    /// refresh budget allows it ([`HealthSink::refresh`]). So a caller
    /// that sees the outcome also sees a blob that counts it whenever
    /// that full refreshed it; the first landed full always does.
    fn record_full(&self, iteration: u64, landed: bool, crash: Option<&CrashInjector>) {
        if let Some(h) = self.health.as_ref().filter(|_| landed) {
            if !crash.is_some_and(|c| c.crashed()) {
                h.refresh(|| self.stats());
            }
        }
        self.fulls.record(iteration, landed);
    }
}

/// The staged checkpoint pipeline. One per strategy instance.
pub struct CheckpointEngine {
    name: &'static str,
    store: Arc<CheckpointStore>,
    cfg: EngineConfig,
    shared: Arc<EngineShared>,
    backpressure: u64,
    // Async mode:
    job_tx: Option<Sender<Job>>,
    ctl_tx: Option<Sender<WorkerMsg>>,
    worker: Option<std::thread::JoinHandle<()>>,
    // Sync mode:
    policy: Option<Box<dyn CheckpointPolicy>>,
}

impl CheckpointEngine {
    /// Asynchronous engine: spawn a dedicated checkpointing thread behind
    /// a bounded job queue of `cfg.queue_capacity`.
    pub fn spawn(
        store: Arc<CheckpointStore>,
        policy: impl CheckpointPolicy,
        cfg: EngineConfig,
    ) -> Self {
        assert!(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
        let name = policy.name();
        let health = cfg.export_health.then(|| HealthSink {
            name,
            store: Arc::clone(&store),
            next: Mutex::new(Instant::now()),
        });
        // The worker's ticket + the queued ones + the one being framed.
        let shared =
            EngineShared::with_health(cow::CowTickets::new(cfg.queue_capacity + 2, true), health);
        shared.metrics.set_capacity(cfg.queue_capacity as u64);
        let (job_tx, job_rx) = bounded(cfg.queue_capacity);
        let (ctl_tx, ctl_rx) = unbounded();
        let worker = {
            let (cfg, shared) = (cfg.clone(), Arc::clone(&shared));
            std::thread::Builder::new()
                .name(format!("ckpt-engine-{name}"))
                .spawn(move || worker_loop(Box::new(policy), job_rx, ctl_rx, cfg, shared))
                .expect("spawn checkpointing thread")
        };
        Self {
            name,
            store,
            cfg,
            shared,
            backpressure: 0,
            job_tx: Some(job_tx),
            ctl_tx: Some(ctl_tx),
            worker: Some(worker),
            policy: None,
        }
    }

    /// Synchronous engine: no thread, no queue — jobs run inline on the
    /// training thread (the strategy's stall *is* the persist cost).
    pub fn inline(
        store: Arc<CheckpointStore>,
        policy: impl CheckpointPolicy,
        cfg: EngineConfig,
    ) -> Self {
        Self {
            name: policy.name(),
            store,
            cfg,
            // Persists finish before submit returns, so one ticket is all
            // an inline engine ever has checked out.
            shared: EngineShared::new(cow::CowTickets::new(1, false)),
            backpressure: 0,
            job_tx: None,
            ctl_tx: None,
            worker: None,
            policy: Some(Box::new(policy)),
        }
    }

    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// One-time warm-up before the first training iteration: build the
    /// ticket pool's frames for captures shaped like `state` + `aux` (the
    /// first one page-touched), so no anchor allocates a frame on the
    /// training thread. Idempotent.
    pub fn prime_capture(&self, state: &ModelState, aux: &AuxView<'_>) {
        self.shared.cow.prime(state, aux);
    }

    /// Ask the policy's training-side gate (synchronous engines).
    pub fn wants_capture(&self, iteration: u64) -> bool {
        self.policy
            .as_ref()
            .is_none_or(|p| p.wants_capture(iteration))
    }

    /// Has an armed crash injector fired? A crashed engine is a dead
    /// process: every subsequent operation is a no-op.
    fn crash_dead(&self) -> bool {
        self.cfg.crash.as_ref().is_some_and(|c| c.crashed())
    }

    /// Submit a full checkpoint of `state` + auxiliary training state (EF
    /// residual, compressor identity, data-RNG cursor): capture it into a
    /// pooled [`CowTicket`] frame on the calling thread, every byte at its
    /// wire offset, then enqueue it. The capture is complete when this
    /// returns, so the caller may mutate `state` at once; the worker only
    /// seals and persists.
    pub fn submit_full(
        &mut self,
        since: Instant,
        state: &ModelState,
        aux: &AuxView<'_>,
    ) -> Submitted {
        if self.crash_dead() {
            return Submitted {
                stall: Secs(since.elapsed().as_secs_f64()),
                delivered: false,
            };
        }
        // Every frame checked out means the store is a pool's depth of
        // fulls behind: wait one out. Like the queue-full wait in
        // `submit`, that is backpressure, not snapshot work.
        let (ticket, waited) = self.shared.cow.capture(state, aux, true);
        if !waited.is_zero() {
            self.backpressure += 1;
        }
        let sub = match ticket {
            Some(ticket) => self.submit_after(since, waited, Job::Full(ticket)),
            // Dry pool and no worker left to return a ticket.
            None => self.undelivered(since),
        };
        if !sub.delivered {
            // Nothing will ever persist it.
            self.shared
                .record_full(state.iteration, false, self.cfg.crash.as_deref());
        }
        sub
    }

    /// The worker is gone: checkpointing stops advancing; training
    /// continues.
    fn undelivered(&mut self, since: Instant) -> Submitted {
        self.shared.stats.lock().degraded = true;
        let stall = Secs(since.elapsed().as_secs_f64());
        self.shared.add_stall(stall);
        Submitted {
            stall,
            delivered: false,
        }
    }

    /// Submit a job captured since `since` (the adapter's hook entry). The
    /// elapsed time — capture + enqueue, or the whole inline persist — is
    /// the snapshot-stage latency and the training-thread stall.
    pub fn submit(&mut self, since: Instant, job: Job) -> Submitted {
        self.submit_after(since, Duration::ZERO, job)
    }

    /// [`Self::submit`] for a job whose capture already spent `waited` of
    /// the time since `since` on backpressure: part of the stall, not of
    /// the snapshot stage.
    fn submit_after(&mut self, since: Instant, waited: Duration, job: Job) -> Submitted {
        if let Some(c) = &self.cfg.crash {
            // A PreSnapshot crash kills the training process before the
            // job enters the pipeline; once crashed, nothing else lands.
            if c.crashed() || c.hit(CrashPoint::PreSnapshot) {
                return Submitted {
                    stall: Secs(since.elapsed().as_secs_f64()),
                    delivered: false,
                };
            }
        }
        let delivered = if let Some(tx) = &self.job_tx {
            // The snapshot stage ends when the job is ready to enqueue:
            // waiting out a full queue below is backpressure (counted, and
            // still part of the returned stall), not snapshot work —
            // folding it in would mask the capture-cost signal this stage
            // exists to expose.
            self.shared
                .metrics
                .snapshot
                .record(since.elapsed().saturating_sub(waited));
            match tx.try_send(job) {
                Ok(()) => true,
                Err(TrySendError::Full(job)) => {
                    // The pipeline is full: the training thread blocks
                    // until the worker drains a slot (CheckFreq's stall
                    // mechanism; LowDiff's backpressure, counted).
                    self.backpressure += 1;
                    tx.send(job).is_ok()
                }
                Err(TrySendError::Disconnected(_)) => false,
            }
        } else if let Some(policy) = &mut self.policy {
            self.shared.metrics.snapshot.record(since.elapsed());
            policy.process(job, &mut self.shared.ctx(&self.cfg));
            let stall = Secs(since.elapsed().as_secs_f64());
            self.shared.add_stall(stall);
            return Submitted {
                stall,
                delivered: true,
            };
        } else {
            false
        };
        if let Some(tx) = &self.job_tx {
            self.shared.metrics.note_depth(tx.len() as u64);
        }
        if !delivered {
            return self.undelivered(since);
        }
        let stall = Secs(since.elapsed().as_secs_f64());
        self.shared.add_stall(stall);
        Submitted {
            stall,
            delivered: true,
        }
    }

    /// Account training-thread time spent capturing state outside
    /// `submit` (LowDiff+'s layer-wise staging).
    pub fn note_stall(&mut self, since: Instant) -> Secs {
        let d = since.elapsed();
        self.shared.metrics.snapshot.record(d);
        let stall = Secs(d.as_secs_f64());
        self.shared.add_stall(stall);
        stall
    }

    /// Block until all submitted work is durable (drains the queue, then
    /// flushes the policy's partial batches). A crashed engine does not
    /// flush: the dead process's buffered work is lost by definition.
    pub fn flush(&mut self) -> Secs {
        if self.crash_dead() {
            return Secs::ZERO;
        }
        let t0 = Instant::now();
        if let Some(tx) = &self.ctl_tx {
            let (ack_tx, ack_rx) = unbounded();
            let delivered = tx.send(WorkerMsg::Flush(ack_tx)).is_ok();
            if !delivered || ack_rx.recv().is_err() {
                self.shared.stats.lock().degraded = true;
            }
        } else if let Some(policy) = &mut self.policy {
            policy.flush(&mut self.shared.ctx(&self.cfg));
        }
        self.export_health();
        let stall = Secs(t0.elapsed().as_secs_f64());
        self.shared.add_stall(stall);
        stall
    }

    /// Deliver a runtime reconfiguration to the policy.
    pub fn control(&mut self, ctl: PolicyCtl) {
        if let Some(tx) = &self.ctl_tx {
            if tx.send(WorkerMsg::Ctl(ctl)).is_err() {
                self.shared.stats.lock().degraded = true;
            }
        } else if let Some(policy) = &mut self.policy {
            policy.control(ctl, &mut self.shared.ctx(&self.cfg));
        }
    }

    /// Consume a pending forced-full request (set by the persist stage
    /// after it dropped a batch).
    pub fn take_reanchor(&self) -> bool {
        self.shared.force_full.swap(false, Ordering::SeqCst)
    }

    /// Re-arm the forced-full request (the adapter failed to act on it).
    pub fn request_reanchor(&self) {
        self.shared.force_full.store(true, Ordering::SeqCst)
    }

    /// Mutate the shared stats from the adapter (e.g. `forced_fulls`).
    pub fn with_stats<R>(&self, f: impl FnOnce(&mut StrategyStats) -> R) -> R {
        f(&mut self.shared.stats.lock())
    }

    /// The persist outcome of the full captured at `iteration`, waiting up
    /// to `wait` for one: `Some(true)` once it landed on the front tier,
    /// `Some(false)` once it failed there or was never delivered, `None`
    /// while it is still in flight (or no such full was submitted among
    /// the recent ones). A later full — a forced re-anchor at
    /// `iteration + 1` — never answers for this one.
    pub fn full_outcome(&self, iteration: u64, wait: Duration) -> Option<bool> {
        self.shared.fulls.wait(iteration, wait)
    }

    /// Frames the ticket pool has built so far.
    pub(crate) fn tickets_built(&self) -> usize {
        self.shared.cow.built()
    }

    /// Times the training thread hit a full pipeline on submit.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure
    }

    /// Current stats snapshot, engine counters included.
    pub fn stats(&self) -> StrategyStats {
        let mut s = self.shared.stats();
        if let Some(tx) = &self.job_tx {
            s.engine.queue_depth = tx.len() as u64;
        }
        s
    }

    /// Best-effort export of the health blob ([`HEALTH_KEY`]) for
    /// `lowdiff-ctl health`.
    fn export_health(&self) {
        // A dead process exports nothing — the health blob would be a
        // post-crash write the torture harness must never observe.
        if !self.cfg.export_health || self.crash_dead() {
            return;
        }
        put_health(&self.store, self.name, &self.stats());
    }
}

/// Write the health blob of engine `name` with stats `s` to `store`. Never
/// counted in stats; failures ignored (health reporting must not create
/// health problems).
fn put_health(store: &CheckpointStore, name: &str, s: &StrategyStats) {
    let e = &s.engine;
    let us = |sec: Secs| sec.as_f64() * 1e6;
    let json = format!(
        concat!(
            "{{\"strategy\":\"{}\",\"stall_seconds\":{:.9},",
            "\"queue_depth\":{},\"queue_peak\":{},\"queue_capacity\":{},",
            "\"snapshot_count\":{},\"snapshot_p50_us\":{:.3},\"snapshot_p99_us\":{:.3},",
            "\"encode_count\":{},\"encode_p50_us\":{:.3},\"encode_p99_us\":{:.3},",
            "\"persist_count\":{},\"persist_p50_us\":{:.3},\"persist_p99_us\":{:.3},",
            "\"io_errors\":{},\"io_retries\":{},\"dropped_batches\":{},\"degraded\":{},",
            "\"tiers\":\"{}\"}}"
        ),
        name,
        s.stall.as_f64(),
        e.queue_depth,
        e.queue_peak,
        e.queue_capacity,
        e.snapshot.count,
        us(e.snapshot.p50),
        us(e.snapshot.p99),
        e.encode.count,
        us(e.encode.p50),
        us(e.encode.p99),
        e.persist.count,
        us(e.persist.p50),
        us(e.persist.p99),
        s.io_errors,
        s.io_retries,
        s.dropped_batches,
        s.degraded,
        // Per-tier ledger as a flat comma-free string so the ctl's
        // naive json_field scanner stays valid: "durable b=.. a=.. e=..|peer ..".
        s.tiers
            .iter()
            .map(|t| {
                format!(
                    "{} b={} a={} e={} c={}",
                    t.name, t.bytes, t.acks, t.errors, t.clamped
                )
            })
            .collect::<Vec<_>>()
            .join("|"),
    );
    let _ = store.backend().put(HEALTH_KEY, json.as_bytes());
}

impl Drop for CheckpointEngine {
    fn drop(&mut self) {
        // Close both channels so the worker drains its queues and exits
        // (its shutdown path flushes the policy), then join it.
        self.job_tx.take();
        self.ctl_tx.take();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.export_health();
    }
}

/// The checkpointing thread: a blocking two-way `Select` over the job
/// queue and the control channel — no polling. Jobs flow strictly FIFO, so
/// a full submitted before a diff is persisted before it.
fn worker_loop(
    mut policy: Box<dyn CheckpointPolicy>,
    job_rx: Receiver<Job>,
    ctl_rx: Receiver<WorkerMsg>,
    cfg: EngineConfig,
    shared: Arc<EngineShared>,
) {
    // However this thread ends, a trainer waiting on the ticket pool must
    // not wait for tickets that will never come back.
    struct WorkerExit<'a>(&'a cow::CowTickets);
    impl Drop for WorkerExit<'_> {
        fn drop(&mut self) {
            self.0.worker_exited();
        }
    }
    let _exit = WorkerExit(&shared.cow);
    let mut cx = shared.ctx(&cfg);
    let mut job_open = true;
    let mut ctl_open = true;
    while job_open || ctl_open {
        shared.metrics.note_depth(job_rx.len() as u64);
        // Block until a job or a control message is ready (or a side
        // disconnects). Readiness means try-receive won't block; an empty
        // grab just re-enters the select.
        let mut sel = Select::new();
        let job_idx = if job_open {
            sel.recv(&job_rx)
        } else {
            usize::MAX
        };
        let ctl_idx = if ctl_open {
            sel.recv(&ctl_rx)
        } else {
            usize::MAX
        };
        let ready = sel.ready();
        drop(sel);

        if ready == job_idx {
            match job_rx.try_recv() {
                Ok(job) => policy.process(job, &mut cx),
                Err(TryRecvError::Empty) => {} // raced; re-select
                Err(TryRecvError::Disconnected) => job_open = false,
            }
            continue;
        }
        if ready != ctl_idx {
            continue;
        }
        match ctl_rx.try_recv() {
            Ok(WorkerMsg::Flush(ack)) => {
                // Drain queued jobs first so the flush covers everything
                // submitted before it, then flush the policy's buffers.
                while let Ok(job) = job_rx.try_recv() {
                    policy.process(job, &mut cx);
                }
                policy.flush(&mut cx);
                let _ = ack.send(());
            }
            Ok(WorkerMsg::Ctl(c)) => policy.control(c, &mut cx),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => ctl_open = false,
        }
    }
    // Shutdown: both channels closed. Drain what's left, then flush.
    while let Ok(job) = job_rx.try_recv() {
        policy.process(job, &mut cx);
    }
    policy.flush(&mut cx);
    shared.metrics.note_depth(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_storage::MemoryBackend;

    const DEPTH: usize = cow::CowTickets::MAX_DEPTH;

    fn engine(policy: impl CheckpointPolicy) -> CheckpointEngine {
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        // Default queue (64) is far deeper than the ticket pool (4).
        CheckpointEngine::spawn(store, policy, EngineConfig::default())
    }

    fn submit_full(eng: &mut CheckpointEngine) -> Submitted {
        let state = ModelState::new(vec![1.0; 64]);
        eng.submit_full(Instant::now(), &state, &AuxView::default())
    }

    /// Holds every full's ticket until the gate yields a token (or is
    /// dropped), then drops it.
    struct Gated(Receiver<()>);

    impl CheckpointPolicy for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }
        fn process(&mut self, job: Job, _cx: &mut EngineCtx<'_>) {
            if let Job::Full(_ticket) = job {
                let _ = self.0.recv();
            }
        }
    }

    /// Opens the gate `tokens` times, `every` apart, on its own thread,
    /// raising the returned flag before the first token. Joining the
    /// thread hands back the gate (keep it shut, or drop it to open it
    /// for good).
    fn release(
        open: Sender<()>,
        tokens: usize,
        every: Duration,
    ) -> (std::thread::JoinHandle<Sender<()>>, Arc<AtomicBool>) {
        let released = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&released);
        let releaser = std::thread::spawn(move || {
            for _ in 0..tokens {
                std::thread::sleep(every);
                flag.store(true, Ordering::SeqCst);
                open.send(()).expect("worker holds the gate");
            }
            open
        });
        (releaser, released)
    }

    #[test]
    fn dry_ticket_pool_waits_for_a_release_instead_of_allocating() {
        const HOLD: Duration = Duration::from_millis(50);
        let (open, gate) = unbounded();
        let mut eng = engine(Gated(gate));
        // One full on the (gated) worker, the rest of the pool queued.
        for _ in 0..DEPTH {
            assert!(submit_full(&mut eng).delivered);
        }
        assert_eq!(eng.backpressure_events(), 0);
        assert_eq!(eng.shared.cow.built(), DEPTH);
        // Long enough that a submit which did not wait has returned (and
        // failed the assert below) by now.
        let (releaser, released) = release(open, 1, HOLD);
        let sub = submit_full(&mut eng);
        assert!(
            released.load(Ordering::SeqCst),
            "submit returned while every ticket was still in flight"
        );
        assert!(sub.delivered);
        assert_eq!(eng.backpressure_events(), 1, "the wait is backpressure");
        assert_eq!(
            eng.shared.cow.built(),
            DEPTH,
            "the released ticket is reused"
        );
        assert!(
            eng.stats().engine.snapshot.max.as_f64() < HOLD.as_secs_f64(),
            "the wait must stay out of the snapshot-stage latency"
        );
        drop(releaser.join().expect("releaser"));
        eng.flush();
        assert!(!eng.stats().degraded);
    }

    #[test]
    fn gated_worker_never_grows_the_pool_past_its_depth() {
        let (open, gate) = unbounded();
        let mut eng = engine(Gated(gate));
        let fulls = 3 * DEPTH;
        let (releaser, _) = release(open, fulls, Duration::from_millis(2));
        for _ in 0..fulls {
            assert!(submit_full(&mut eng).delivered);
            assert!(eng.shared.cow.built() <= DEPTH);
        }
        assert!(eng.backpressure_events() > 0, "the pool ran dry");
        drop(releaser.join().expect("releaser"));
        eng.flush();
        assert_eq!(eng.shared.cow.built(), DEPTH);
        assert!(!eng.stats().degraded);
    }

    /// A worker that dies on its first job: the fulls queued behind it keep
    /// their tickets, and nothing will ever process them.
    struct Dies;

    impl CheckpointPolicy for Dies {
        fn name(&self) -> &'static str {
            "dies"
        }
        fn process(&mut self, _job: Job, _cx: &mut EngineCtx<'_>) {
            panic!("injected worker death");
        }
    }

    #[test]
    fn dead_worker_never_hangs_the_trainer_on_the_ticket_pool() {
        let mut eng = engine(Dies);
        // Twice the pool: the trainer must run dry and still come back.
        let last = (0..2 * DEPTH)
            .map(|_| submit_full(&mut eng))
            .last()
            .expect("submitted");
        assert!(!last.delivered);
        assert!(eng.stats().degraded);
    }
}
