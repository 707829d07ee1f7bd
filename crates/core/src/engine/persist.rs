//! The persist stage: **the** retry/backoff, degraded-mode and forced
//! re-anchor implementation for every checkpoint write in the system.
//!
//! Policies receive an [`EngineCtx`] and call one `persist_*` helper per
//! object kind: [`EngineCtx::persist_capture`] for a full (a captured
//! [`CowTicket`]), [`EngineCtx::persist_batch`] for a differential batch
//! (a [`BatchedWriter`]'s buffer) and [`EngineCtx::persist_blob`] for an
//! opaque side blob. Each is an encode step followed by one private
//! fan-out over an ordered [`TierStack`] (see [`super::tier`]) that owns,
//! for every object it writes:
//!
//! * the per-tier write — on a store tier a plain put, or the striped
//!   parallel put when [`StripeCfg`] allows more than one stripe:
//!   concurrent ranged writes sealed by a CRC-carrying manifest written
//!   last ([`lowdiff_storage::stripe`]); the peer tier takes the encoded
//!   blob whole,
//! * bounded exponential backoff via [`lowdiff_storage::with_retry`],
//! * the crash points of a write (torn put, seal window, unacknowledged
//!   durable write) and persist-stage latency,
//! * accounting into the shared [`StrategyStats`]: the global ledger
//!   (`full_checkpoints`/`writes`/`bytes_written`/…), `io_retries`,
//!   `io_errors`/`degraded`, the per-tier bytes/acks/errors ledger, and
//!   GC to the store tier's own `keep` after a landed full.
//!
//! What happens after the fan-out stays with each helper: completing or
//! dropping a differential batch (`dropped_batches` counts exactly once
//! per discarded batch), requesting a re-anchoring full, and recording
//! each full's outcome by iteration (`FullOutcomes`).
//!
//! A persist call succeeds iff the front tier landed it; every tier
//! behind it is best-effort (failures are accounted but never fail the
//! call).

use super::cow::CowTicket;
use super::crash::CrashPoint;
use super::tier::{SinkReport, Tier, TierStack};
use super::{EngineConfig, EngineShared};
use crate::batched::BatchedWriter;
use crate::strategy::StrategyStats;
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::{with_retry, CheckpointStore, StripeCfg};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Per-write options for [`EngineCtx::persist_capture`].
#[derive(Clone, Copy, Debug)]
pub struct FullOpts {
    /// On failure, request an early full so the chain gets re-anchored
    /// (LowDiff semantics). Strategies whose recovery simply falls back to
    /// the previous full (CheckFreq, TorchSave, …) leave this off.
    pub reanchor_on_failure: bool,
}

impl FullOpts {
    /// Skip-on-failure — the common baseline case.
    pub fn durable() -> Self {
        Self {
            reanchor_on_failure: false,
        }
    }
}

/// How the persist of one full ended: landed on the front tier, with the
/// CRC of its params ‖ m ‖ v the seal took
/// ([`lowdiff_storage::codec::seal_frame`]), or failed there or never
/// reached the checkpointing thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullOutcome {
    Landed { state_crc: u32 },
    Failed,
}

/// The persist outcome of each recent full, by iteration. Lets the
/// training side act on "the full at `t` is durable" without flushing
/// the whole pipeline.
#[derive(Default)]
pub(super) struct FullOutcomes {
    recent: Mutex<VecDeque<(u64, FullOutcome)>>,
    changed: Condvar,
}

impl FullOutcomes {
    /// Outcomes kept: many more fulls than the ticket pool holds in
    /// flight.
    const KEPT: usize = 64;

    pub(super) fn record(&self, iteration: u64, outcome: FullOutcome) {
        let mut recent = self.recent.lock();
        if recent.len() == Self::KEPT {
            recent.pop_front();
        }
        recent.push_back((iteration, outcome));
        self.changed.notify_all();
    }

    /// The newest outcome of the full at exactly `iteration`, waiting up
    /// to `wait` for one to be recorded; `None` if none is by then.
    pub(super) fn wait(&self, iteration: u64, wait: Duration) -> Option<FullOutcome> {
        let deadline = Instant::now() + wait;
        let mut recent = self.recent.lock();
        loop {
            if let Some(&(_, outcome)) = recent.iter().rev().find(|(t, _)| *t == iteration) {
                return Some(outcome);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.changed.wait_for(&mut recent, left);
        }
    }
}

/// The object a fan-out writes. The only place that knows which
/// [`CheckpointStore`] call lands it and how a landed write is counted.
#[derive(Clone, Copy)]
enum Obj<'k> {
    /// A full checkpoint (C^F) of `iteration`.
    Full(u64),
    /// A differential batch (C^B) covering `start..=end`.
    Diff(u64, u64),
    /// An opaque side blob under its own key: written as handed over (no
    /// encode step, so no [`CrashPoint::PostEncode`]) and never striped.
    Blob(&'k str),
}

impl Obj<'_> {
    /// The canonical key: what a plain put and an object tier write under.
    fn key(self) -> String {
        match self {
            Obj::Full(iteration) => CheckpointStore::full_key(iteration),
            Obj::Diff(start, end) => CheckpointStore::diff_key(start, end),
            Obj::Blob(key) => key.to_owned(),
        }
    }

    fn stripes(self, cfg: &StripeCfg, len: usize) -> usize {
        match self {
            Obj::Blob(_) => 1,
            _ => cfg.effective_stripes(len),
        }
    }

    /// Power cut mid-write: a torn prefix lands directly (no retry — the
    /// process is gone); the codec CRC rejects it at load time. Striped,
    /// the fan-out itself tears: some stripes land, unfinished, unsealed.
    fn put_torn(self, store: &CheckpointStore, bytes: &[u8], stripes: usize) {
        if stripes >= 2 {
            store.put_striped_torn(&self.key(), bytes, stripes);
        } else {
            let _ = store.backend().put(&self.key(), &bytes[..bytes.len() / 2]);
        }
    }

    /// Account one write of `len` bytes that landed on `tier`. Only store
    /// tiers feed the global ledger — `bytes_written` stays "bytes handed
    /// to storage backends"; replica traffic is visible in the per-tier
    /// ledger. A full on the memory tier is an in-memory checkpoint
    /// (`diff_checkpoints`, Gemini's framing).
    fn count(self, s: &mut StrategyStats, tier: &Tier, len: u64) {
        match (self, tier) {
            (_, Tier::Peer(_)) => return,
            (Obj::Full(_), Tier::Durable { .. }) => {
                s.full_checkpoints += 1;
                s.writes += 1;
            }
            (Obj::Full(_), Tier::Memory { .. }) => s.diff_checkpoints += 1,
            (Obj::Diff(..), _) => {
                s.writes += 1;
                s.diff_bytes_written += len;
            }
            (Obj::Blob(_), _) => s.writes += 1,
        }
        s.bytes_written += len;
    }
}

/// The engine-owned context a [`super::CheckpointPolicy`] runs against:
/// the engine's configuration and the bundle it shares with the training
/// side. Built only by the engine.
pub struct EngineCtx<'a> {
    pub(super) cfg: &'a EngineConfig,
    pub(super) engine: &'a EngineShared,
}

impl EngineCtx<'_> {
    /// Mutate the shared stats under the lock.
    pub fn with_stats<R>(&self, f: impl FnOnce(&mut StrategyStats) -> R) -> R {
        f(&mut self.engine.stats.lock())
    }

    /// The simulated process is dead: every persist becomes a no-op.
    fn crash_dead(&self) -> bool {
        self.cfg.crash.as_ref().is_some_and(|c| c.crashed())
    }

    /// Check-and-fire the armed crash point, if any.
    fn crash_hit(&self, point: CrashPoint) -> bool {
        self.cfg.crash.as_ref().is_some_and(|c| c.hit(point))
    }

    /// Ask the training side to schedule an early full checkpoint.
    pub fn request_reanchor(&self) {
        self.engine.force_full.store(true, Ordering::SeqCst);
    }

    /// Write `obj` to every tier of the stack, front to back, and account
    /// each tier's outcome. `Some(ok)`: whether the front tier landed it.
    /// `None`: an armed crash point fired — the simulated process is gone,
    /// nothing more is accounted and the remaining tiers never see the
    /// blob.
    fn fan_out(&self, tiers: &TierStack, obj: Obj<'_>, bytes: &[u8]) -> Option<bool> {
        if !matches!(obj, Obj::Blob(_)) && self.crash_hit(CrashPoint::PostEncode) {
            return None;
        }
        let mut front_ok = true;
        for (i, tier) in tiers.iter().enumerate() {
            let (rep, retries) = self.tier_write(tier, obj, bytes)?;
            let ok = rep.acks > 0;
            {
                let mut s = self.engine.stats.lock();
                s.io_retries += retries;
                let ts = s.tier_mut(tier.name());
                ts.acks += rep.acks;
                ts.errors += rep.errors;
                ts.bytes += rep.bytes;
                ts.clamped += rep.clamped;
                if !ok {
                    // Skipped on this tier, never retried in place:
                    // recovery falls back down the stack, and the caller
                    // decides whether to drop data or re-anchor.
                    s.io_errors += 1;
                    s.degraded = true;
                    if i == 0 {
                        front_ok = false;
                    }
                } else {
                    obj.count(&mut s, tier, bytes.len() as u64);
                }
            }
            if let (true, Obj::Full(_)) = (ok, obj) {
                match tier {
                    Tier::Durable {
                        store,
                        keep: Some(keep),
                    }
                    | Tier::Memory { store, keep } => self.gc_keep(store, *keep),
                    Tier::Durable { keep: None, .. } | Tier::Peer(_) => {}
                }
            }
        }
        Some(front_ok)
    }

    /// One tier's write of `obj` with its crash points and persist-stage
    /// timing: the tier's ledger entry plus the storage retries it burned,
    /// or `None` when the process died mid-write.
    fn tier_write(&self, tier: &Tier, obj: Obj<'_>, bytes: &[u8]) -> Option<(SinkReport, u64)> {
        let stripes = obj.stripes(&self.cfg.stripe, bytes.len());
        if self.crash_hit(CrashPoint::MidPersist) {
            match tier {
                Tier::Durable { store, .. } | Tier::Memory { store, .. } => {
                    obj.put_torn(store, bytes, stripes)
                }
                Tier::Peer(peer) => {
                    peer.put(&obj.key(), &bytes[..bytes.len() / 2]);
                }
            }
            return None;
        }
        let t1 = Instant::now();
        let (rep, retries) = match tier {
            Tier::Durable { store, .. } | Tier::Memory { store, .. } => {
                let (ok, retries) = self.store_write(store, obj, bytes, stripes)?;
                let rep = SinkReport {
                    acks: ok as u64,
                    errors: !ok as u64,
                    bytes: if ok { bytes.len() as u64 } else { 0 },
                    clamped: 0,
                };
                (rep, retries)
            }
            // No striping for the peer tier — the network frame is the
            // unit — so it never reaches `CrashPoint::MidStripe`.
            Tier::Peer(peer) => (peer.put(&obj.key(), bytes), 0),
        };
        self.engine.metrics.persist.record(t1.elapsed());
        if rep.acks > 0 && self.crash_hit(CrashPoint::PostPersistPreAck) {
            // Durable, but the process dies before acknowledging it: no
            // accounting, no GC, no re-anchor.
            return None;
        }
        Some((rep, retries))
    }

    /// One store write of `obj` under the retry policy: whether it landed
    /// and the retries it burned. Striped, the stripes fan out over the
    /// parallel executor (retrying per stripe) and the manifest seal
    /// makes the object visible to recovery; `None` means the armed
    /// [`CrashPoint::MidStripe`] fired between the two — every stripe
    /// durable and finished, manifest never written.
    fn store_write(
        &self,
        store: &CheckpointStore,
        obj: Obj<'_>,
        bytes: &[u8],
        stripes: usize,
    ) -> Option<(bool, u64)> {
        let key = obj.key();
        if stripes < 2 {
            let r = with_retry(&self.cfg.retry, || store.backend().put(&key, bytes));
            return Some((r.result.is_ok(), r.retries as u64));
        }
        let data = store.put_striped(&key, bytes, stripes, &self.cfg.retry);
        let Ok(manifest) = data.result else {
            return Some((false, data.retries));
        };
        if self.crash_hit(CrashPoint::MidStripe) {
            return None;
        }
        let r = with_retry(&self.cfg.retry, || store.seal_striped(&key, &manifest));
        Some((r.result.is_ok(), data.retries + r.retries as u64))
    }

    /// Capture `state` + `aux` into a frame from the engine's ticket pool
    /// on the calling thread, timed as the encode stage: the full capture
    /// of a policy that owns the state it persists (LowDiff+'s replica),
    /// finished by [`Self::persist_capture`]. Never waits on a dry pool —
    /// on the worker, nothing else would return a frame — and returns
    /// `None` then.
    pub fn capture(&self, state: &ModelState, aux: &AuxView<'_>) -> Option<CowTicket> {
        let t0 = Instant::now();
        let whole = 0..state.params.len();
        let (ticket, _) = self
            .engine
            .cow
            .capture(state, aux, std::slice::from_ref(&whole), false);
        self.engine.metrics.encode.record(t0.elapsed());
        ticket
    }

    /// Seal a captured full's frame with its CRC (timed as the encode
    /// stage), then fan it across the tier stack: the one full-checkpoint
    /// path of every policy. The frame returns to the engine's pool when
    /// `ticket` drops. Returns whether the front tier landed it —
    /// never when the engine is dead or the armed [`CrashPoint::MidCapture`]
    /// fires in the window where the captured frame exists only in memory.
    /// On failure, requests a re-anchor if `opts` says so. Either way the
    /// outcome is recorded under the full's iteration, a landed one with
    /// the state CRC the seal took.
    pub fn persist_capture(
        &mut self,
        tiers: &TierStack,
        ticket: &mut CowTicket,
        opts: &FullOpts,
    ) -> bool {
        let outcome = if self.crash_dead() || self.crash_hit(CrashPoint::MidCapture) {
            FullOutcome::Failed
        } else {
            let t0 = Instant::now();
            let state_crc = ticket.seal();
            self.engine.metrics.encode.record(t0.elapsed());
            let landed = self.fan_out(tiers, Obj::Full(ticket.iteration()), ticket.bytes());
            if landed == Some(false) && opts.reanchor_on_failure {
                self.request_reanchor();
            }
            match landed {
                Some(true) => FullOutcome::Landed { state_crc },
                _ => FullOutcome::Failed,
            }
        };
        self.engine
            .record_full(ticket.iteration(), outcome, self.cfg.crash.as_deref());
        outcome != FullOutcome::Failed
    }

    /// Encode the writer's buffered differential batch once and fan it
    /// across the tier stack. When the front tier exhausts, the
    /// batch is dropped — `dropped_batches` counts exactly once per
    /// discarded batch — the run degrades, and a re-anchoring full
    /// checkpoint is requested. Returns whether the batch landed on the
    /// front tier (an empty buffer trivially "lands").
    pub fn persist_batch(&mut self, tiers: &TierStack, writer: &mut BatchedWriter) -> bool {
        if self.crash_dead() {
            return false;
        }
        let t0 = Instant::now();
        let Some(enc) = writer.encode_batch_with(self.engine.buffers.get()) else {
            return true;
        };
        self.engine.metrics.encode.record(t0.elapsed());
        let landed = self.fan_out(tiers, Obj::Diff(enc.start, enc.end), &enc.bytes);
        self.engine.buffers.put(enc.bytes);
        match landed {
            // Durable-but-unacknowledged (or torn) writes leave the batch
            // buffered (no `complete_write`), which on resume shows up as
            // an overlapping diff key — harmless, the chain walker skips
            // past it.
            None => false,
            Some(true) => {
                writer.complete_write();
                true
            }
            Some(false) => {
                // Retries exhausted on the front tier: give the batch
                // up. The gap this leaves in the differential chain is
                // exactly what recovery already bounds (`diff_chain_from`
                // stops at the gap); the forced full re-anchors the chain
                // so later diffs become useful again. Training was never
                // blocked.
                {
                    let mut s = self.engine.stats.lock();
                    s.dropped_diffs += writer.discard_batch();
                    s.dropped_batches += 1;
                }
                self.request_reanchor();
                false
            }
        }
    }

    /// Persist an opaque blob under `key` (Naïve DC's dense moments) to
    /// every tier. Failure degrades but drops nothing from the
    /// differential chain.
    pub fn persist_blob(&mut self, tiers: &TierStack, key: &str, bytes: &[u8]) -> bool {
        !self.crash_dead() && self.fan_out(tiers, Obj::Blob(key), bytes) == Some(true)
    }

    /// Keep only the newest `keep` full checkpoints. GC failures are not
    /// data loss — count and move on.
    fn gc_keep(&self, store: &CheckpointStore, keep: u64) {
        match store.full_iterations() {
            Ok(fulls) if fulls.len() as u64 > keep => {
                let cutoff = fulls[fulls.len() - keep as usize];
                if store.gc_before(cutoff).is_err() {
                    self.engine.stats.lock().io_errors += 1;
                }
            }
            Ok(_) => {}
            Err(_) => self.engine.stats.lock().io_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::cow::CowTickets;
    use crate::engine::crash::CrashInjector;
    use crate::engine::tier::{PeerReplicaBackend, PeerTier};
    use lowdiff_comm::ReplicaNet;
    use lowdiff_compress::{CompressedGrad, SparseGrad};
    use lowdiff_storage::codec::ValueCodec;
    use lowdiff_storage::RetryPolicy;
    use lowdiff_storage::{MemoryBackend, StorageBackend};
    use std::sync::Arc;

    /// Run `f` against a fresh EngineCtx built from `retry`, `stripe` and
    /// `crash`, and return the stats it accumulated.
    fn with_engine(
        retry: RetryPolicy,
        stripe: StripeCfg,
        crash: Option<Arc<CrashInjector>>,
        f: impl FnOnce(&mut EngineCtx<'_>),
    ) -> StrategyStats {
        let cfg = EngineConfig {
            retry,
            stripe,
            crash,
            ..EngineConfig::default()
        };
        let shared = EngineShared::new(CowTickets::new(1, false));
        f(&mut EngineCtx {
            cfg: &cfg,
            engine: &shared,
        });
        let stats = shared.stats.lock().clone();
        stats
    }

    /// Run `f` against a fresh EngineCtx and return the stats it
    /// accumulated. The stack defaults to a single durable tier over an
    /// in-memory store (the pre-refactor shape); `f` also receives that
    /// store for assertions.
    fn with_stack(
        tiers: TierStack,
        store: Arc<CheckpointStore>,
        f: impl FnOnce(&mut EngineCtx<'_>, &TierStack, &CheckpointStore),
    ) -> StrategyStats {
        with_engine(RetryPolicy::none(), StripeCfg::default(), None, |cx| {
            f(cx, &tiers, &store)
        })
    }

    fn with_ctx(f: impl FnOnce(&mut EngineCtx<'_>, &TierStack, &CheckpointStore)) -> StrategyStats {
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        with_stack(TierStack::durable(Arc::clone(&store)), store, f)
    }

    /// A full of a small state at `iteration`, captured through the
    /// engine context like a worker-side policy does.
    fn capture_at(cx: &EngineCtx<'_>, iteration: u64) -> CowTicket {
        let mut st = ModelState::new(vec![1.0, 2.0, 3.0, 4.0]);
        st.iteration = iteration;
        cx.capture(&st, &AuxView::NONE).expect("one frame is free")
    }

    #[test]
    fn empty_batch_lands_trivially() {
        let stats = with_ctx(|cx, tiers, store| {
            let mut writer = BatchedWriter::new(1, ValueCodec::F32);
            assert!(
                cx.persist_batch(tiers, &mut writer),
                "an empty flush is a success, not a dropped batch"
            );
            assert!(store.backend().list().unwrap().is_empty());
        });
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.bytes_written, 0);
        assert_eq!(stats.io_errors, 0);
        assert_eq!(stats.dropped_batches, 0);
        assert!(!stats.degraded);
    }

    #[test]
    fn memory_tier_evicts_oldest_fulls_deterministically() {
        let mem = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let stack = TierStack::new(vec![Tier::Memory {
            store: Arc::clone(&mem),
            keep: 2,
        }]);
        let stats = with_stack(stack, Arc::clone(&mem), |cx, tiers, store| {
            for it in [3u64, 6, 9, 12] {
                let mut ticket = capture_at(cx, it);
                assert!(cx.persist_capture(tiers, &mut ticket, &FullOpts::durable()));
            }
            // Retention 2: always the newest two, oldest evicted first.
            assert_eq!(store.full_iterations().unwrap(), vec![9, 12]);
        });
        // Memory-class fulls are accounted as in-memory checkpoints.
        assert_eq!(stats.diff_checkpoints, 4);
        assert_eq!(stats.full_checkpoints, 0);
        assert_eq!(stats.io_errors, 0);
    }

    #[test]
    fn two_tier_stack_writes_byte_identical_blobs() {
        let mem = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let dur = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let stack = TierStack::new(vec![
            Tier::Memory {
                store: Arc::clone(&mem),
                keep: 1,
            },
            Tier::Durable {
                store: Arc::clone(&dur),
                keep: None,
            },
        ]);
        let stats = with_stack(stack, Arc::clone(&dur), |cx, tiers, _| {
            let mut ticket = capture_at(cx, 7);
            assert!(cx.persist_capture(tiers, &mut ticket, &FullOpts::durable()));
        });
        let key = CheckpointStore::full_key(7);
        assert_eq!(
            mem.backend().get(&key).unwrap(),
            dur.backend().get(&key).unwrap(),
            "encode-once fan-out must land the same bytes on every tier"
        );
        assert_eq!(stats.full_checkpoints, 1, "durable tier full");
        assert_eq!(stats.diff_checkpoints, 1, "memory tier full");
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.tiers.len(), 2);
        assert_eq!(stats.tiers[0].name, "memory");
        assert_eq!(stats.tiers[1].name, "durable");
    }

    /// A backend whose writes always fail (peer-loss / outage stand-in).
    struct BlackholeBackend;
    impl StorageBackend for BlackholeBackend {
        fn put(&self, _key: &str, _data: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::other("blackhole"))
        }
        fn get(&self, key: &str) -> std::io::Result<Vec<u8>> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, key))
        }
        fn list(&self) -> std::io::Result<Vec<String>> {
            Ok(Vec::new())
        }
        fn delete(&self, _key: &str) -> std::io::Result<()> {
            Ok(())
        }
        fn bytes_written(&self) -> u64 {
            0
        }
    }

    #[test]
    fn trailing_tier_failure_degrades_but_does_not_fail_the_persist() {
        let good = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
        let stack = TierStack::new(vec![
            Tier::Memory {
                store: Arc::clone(&good),
                keep: 1,
            },
            Tier::Durable {
                store: bad,
                keep: None,
            },
        ]);
        let stats = with_stack(stack, Arc::clone(&good), |cx, tiers, _| {
            let mut ticket = capture_at(cx, 1);
            assert!(
                cx.persist_capture(tiers, &mut ticket, &FullOpts::durable()),
                "a trailing tier's failure must not fail the persist"
            );
        });
        assert_eq!(stats.diff_checkpoints, 1, "the front tier's full");
        assert_eq!(stats.full_checkpoints, 0);
        assert_eq!(stats.io_errors, 1, "…but it is accounted");
        assert!(stats.degraded);
        assert_eq!(stats.tiers.len(), 2);
        assert_eq!((stats.tiers[0].acks, stats.tiers[0].errors), (1, 0));
        assert_eq!((stats.tiers[1].acks, stats.tiers[1].errors), (0, 1));
    }

    #[test]
    fn sync_tier_failure_fails_the_persist() {
        let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
        let stats = with_stack(TierStack::durable(Arc::clone(&bad)), bad, |cx, tiers, _| {
            let mut ticket = capture_at(cx, 1);
            assert!(!cx.persist_capture(tiers, &mut ticket, &FullOpts::durable()));
        });
        assert_eq!(stats.io_errors, 1);
        assert!(stats.degraded);
        assert_eq!(stats.full_checkpoints, 0);
    }

    /// A stack for the persist pin, with the backends to read back what
    /// landed on it.
    type PinStack = (TierStack, Vec<(&'static str, Arc<dyn StorageBackend>)>);

    fn pin_stack(name: &str) -> PinStack {
        let store = || Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        // The pin's durable tiers keep one full.
        let durable = |store| Tier::Durable {
            store,
            keep: Some(1),
        };
        match name {
            "durable" => {
                let dur = store();
                let seen = vec![("durable", Arc::clone(dur.backend()))];
                (TierStack::new(vec![durable(dur)]), seen)
            }
            "memory+async" => {
                let (mem, dur) = (store(), store());
                let seen = vec![
                    ("memory", Arc::clone(mem.backend())),
                    ("durable", Arc::clone(dur.backend())),
                ];
                let stack = TierStack::new(vec![
                    Tier::Memory {
                        store: mem,
                        keep: 1,
                    },
                    durable(dur),
                ]);
                (stack, seen)
            }
            "failing" => {
                let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
                (TierStack::new(vec![durable(bad)]), Vec::new())
            }
            "peer+async" => {
                let (net, dur) = (ReplicaNet::new(2), store());
                let seen = vec![
                    (
                        "peer",
                        Arc::new(PeerReplicaBackend::new(Arc::clone(&net), 1, 0))
                            as Arc<dyn StorageBackend>,
                    ),
                    ("durable", Arc::clone(dur.backend())),
                ];
                let stack = TierStack::new(vec![
                    Tier::Peer(Arc::new(PeerTier::new(net, 0, 1))),
                    durable(dur),
                ]);
                (stack, seen)
            }
            "memory+failing" => {
                let mem = store();
                let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
                let seen = vec![("memory", Arc::clone(mem.backend()))];
                let stack = TierStack::new(vec![
                    Tier::Memory {
                        store: mem,
                        keep: 1,
                    },
                    durable(bad),
                ]);
                (stack, seen)
            }
            "peer" => {
                let net = ReplicaNet::new(2);
                let replica: Arc<dyn StorageBackend> =
                    Arc::new(PeerReplicaBackend::new(Arc::clone(&net), 1, 0));
                let stack = TierStack::new(vec![Tier::Peer(Arc::new(PeerTier::new(net, 0, 1)))]);
                (stack, vec![("peer", replica)])
            }
            other => panic!("no pin stack {other}"),
        }
    }

    fn pin_state(iteration: u64) -> ModelState {
        let mut st = ModelState::new((0..64).map(|i| i as f32 * 0.5).collect());
        st.iteration = iteration;
        st
    }

    /// FNV-1a: the stored blobs end in their own CRC, so a CRC of the
    /// whole blob is the same constant for all of them.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn pin_grad(salt: u32) -> CompressedGrad {
        CompressedGrad::Sparse(SparseGrad::new(
            64,
            (0..32).map(|i| 2 * i).collect(),
            (0..32).map(|i| (i + salt) as f32 * 0.25).collect(),
        ))
    }

    /// The crash points a persist can reach, in pipeline order.
    const PERSIST_POINTS: [(CrashPoint, &str); 5] = [
        (CrashPoint::MidCapture, "MC"),
        (CrashPoint::PostEncode, "PE"),
        (CrashPoint::MidPersist, "MP"),
        (CrashPoint::MidStripe, "MS"),
        (CrashPoint::PostPersistPreAck, "PA"),
    ];

    /// Drive every `persist_*` entry point once over `stack` at `stripes`
    /// and describe, line by line: each call's result, re-anchor request,
    /// encode/persist samples and crash-point visits; the final ledger;
    /// and every stored key with its length and content hash.
    fn pin_trace(stack: &str, stripes: usize) -> Vec<String> {
        let (tiers, seen) = pin_stack(stack);
        // Armed where no persist goes, so it counts visits and never fires.
        let crash = CrashInjector::arm(CrashPoint::PreSnapshot, 1);
        let retry = RetryPolicy {
            max_retries: 2,
            base_delay: std::time::Duration::ZERO,
            max_delay: std::time::Duration::ZERO,
        };
        let stripe = StripeCfg {
            stripes,
            min_stripe_bytes: 64,
        };
        let opts = FullOpts {
            reanchor_on_failure: true,
        };
        let pool = CowTickets::new(1, false);
        let mut ticket = pool
            .capture(
                &pin_state(10),
                &AuxView::NONE,
                std::slice::from_ref(&(0..64)),
                false,
            )
            .0
            .expect("an empty pool builds a frame");
        let mut writer = BatchedWriter::new(2, ValueCodec::F32);
        writer.offload(21, Arc::new(pin_grad(1)));
        writer.offload(22, Arc::new(pin_grad(2)));
        let mut single = BatchedWriter::new(1, ValueCodec::F32);
        single.offload(23, Arc::new(pin_grad(23)));
        let blob: Vec<u8> = (0..=255).collect();
        type Call<'a> = Box<dyn FnMut(&mut EngineCtx<'_>) -> bool + 'a>;
        let calls: Vec<(&str, Call<'_>)> = vec![
            (
                "capture",
                Box::new(|cx| cx.persist_capture(&tiers, &mut ticket, &opts)),
            ),
            (
                "batch",
                Box::new(|cx| cx.persist_batch(&tiers, &mut writer)),
            ),
            (
                "batch1",
                Box::new(|cx| cx.persist_batch(&tiers, &mut single)),
            ),
            (
                "blob",
                Box::new(|cx| cx.persist_blob(&tiers, "moments-24.bin", &blob)),
            ),
        ];
        let mut lines = Vec::new();
        let stats = with_engine(retry, stripe, Some(Arc::clone(&crash)), |cx| {
            for (name, mut call) in calls {
                let before = PERSIST_POINTS.map(|(p, _)| crash.reached(p));
                let samples = |cx: &EngineCtx<'_>| {
                    let m = cx.engine.metrics.counters();
                    (m.encode.count, m.persist.count)
                };
                let (enc0, put0) = samples(cx);
                let ok = call(cx);
                let (enc1, put1) = samples(cx);
                let reached: Vec<String> = PERSIST_POINTS
                    .iter()
                    .zip(before)
                    .map(|(&(p, tag), b)| format!("{tag}{}", crash.reached(p) - b))
                    .collect();
                lines.push(format!(
                    "{name}: ok={ok} reanchor={} enc={} put={} reached={}",
                    cx.engine.force_full.swap(false, Ordering::SeqCst),
                    enc1 - enc0,
                    put1 - put0,
                    reached.join(" "),
                ));
            }
        });
        assert_eq!(crash.reached(CrashPoint::PreSnapshot), 0);
        assert!(!crash.crashed());
        let tiers: Vec<String> = stats
            .tiers
            .iter()
            .map(|t| {
                format!(
                    "{} b={} a={} e={} c={}",
                    t.name, t.bytes, t.acks, t.errors, t.clamped
                )
            })
            .collect();
        lines.push(format!(
            "ledger: fulls={} diffs={} writes={} bytes={} diff_bytes={} io_errors={} \
             io_retries={} dropped={}/{} degraded={} tiers=[{}]",
            stats.full_checkpoints,
            stats.diff_checkpoints,
            stats.writes,
            stats.bytes_written,
            stats.diff_bytes_written,
            stats.io_errors,
            stats.io_retries,
            stats.dropped_diffs,
            stats.dropped_batches,
            stats.degraded,
            tiers.join("|"),
        ));
        for (label, backend) in &seen {
            let mut keys = backend.list().unwrap();
            keys.sort();
            for key in keys {
                let bytes = backend.get(&key).unwrap();
                lines.push(format!(
                    "{label}: {key} {} {:016x}",
                    bytes.len(),
                    fnv(&bytes)
                ));
            }
        }
        lines
    }

    /// Pins what every `persist_*` entry point does on each kind of stack
    /// — ledger, stored bytes, and how often each crash point is reached
    /// (the torture matrix fires on the n-th visit, so one extra or
    /// missing visit silently moves its cells).
    #[test]
    fn persist_paths_pin_ledger_bytes_and_crash_visits() {
        for (stack, stripes, expected) in PERSIST_PIN {
            let actual = pin_trace(stack, stripes);
            assert_eq!(
                actual.join("\n"),
                expected.trim(),
                "persist pin for {stack} @ {stripes} stripes; actual:\n{}",
                actual.join("\n")
            );
            // Two facts the table encodes that refactors tend to break.
            let blob = &actual[3];
            assert!(blob.starts_with("blob:") && blob.contains("PE0"), "{blob}");
            if stack == "peer" {
                assert!(actual[..4].iter().all(|l| l.contains("MS0")));
            }
        }
    }

    const PERSIST_PIN: [(&str, usize, &str); 12] = [
        (
            "durable",
            1,
            r"
capture: ok=true reanchor=false enc=1 put=1 reached=MC1 PE1 MP1 MS0 PA1
batch: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
batch1: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
blob: ok=true reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA1
ledger: fulls=1 diffs=0 writes=4 bytes=1630 diff_bytes=571 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[durable b=1630 a=4 e=0 c=0]
durable: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
durable: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
durable: full-0000000010.ckpt 803 1f10b6ba480dc1e2
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "durable",
            4,
            r"
capture: ok=true reanchor=false enc=1 put=1 reached=MC1 PE1 MP1 MS1 PA1
batch: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS1 PA1
batch1: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS1 PA1
blob: ok=true reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA1
ledger: fulls=1 diffs=0 writes=4 bytes=1630 diff_bytes=571 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[durable b=1630 a=4 e=0 c=0]
durable: diff-0000000021-0000000022.sd.ckpt 376 6697a90b59d41400
durable: diff-0000000021-0000000022.sm.ckpt 106 2a5a66428a42395e
durable: diff-0000000023-0000000023.sd.ckpt 195 5252d546dd1ecb4a
durable: diff-0000000023-0000000023.sm.ckpt 86 787e30c5350bbecf
durable: full-0000000010.sd.ckpt 803 1f10b6ba480dc1e2
durable: full-0000000010.sm.ckpt 106 2a4c9826c8eb3d2a
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "memory+async",
            1,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS0 PA2
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA2
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA2
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA2
ledger: fulls=1 diffs=1 writes=7 bytes=3260 diff_bytes=1142 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[memory b=1630 a=4 e=0 c=0|durable b=1630 a=4 e=0 c=0]
memory: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
memory: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
memory: full-0000000010.ckpt 803 1f10b6ba480dc1e2
memory: moments-24.bin 256 4242dc5249c33625
durable: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
durable: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
durable: full-0000000010.ckpt 803 1f10b6ba480dc1e2
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "memory+async",
            4,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS2 PA2
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS2 PA2
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS2 PA2
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA2
ledger: fulls=1 diffs=1 writes=7 bytes=3260 diff_bytes=1142 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[memory b=1630 a=4 e=0 c=0|durable b=1630 a=4 e=0 c=0]
memory: diff-0000000021-0000000022.sd.ckpt 376 6697a90b59d41400
memory: diff-0000000021-0000000022.sm.ckpt 106 2a5a66428a42395e
memory: diff-0000000023-0000000023.sd.ckpt 195 5252d546dd1ecb4a
memory: diff-0000000023-0000000023.sm.ckpt 86 787e30c5350bbecf
memory: full-0000000010.sd.ckpt 803 1f10b6ba480dc1e2
memory: full-0000000010.sm.ckpt 106 2a4c9826c8eb3d2a
memory: moments-24.bin 256 4242dc5249c33625
durable: diff-0000000021-0000000022.sd.ckpt 376 6697a90b59d41400
durable: diff-0000000021-0000000022.sm.ckpt 106 2a5a66428a42395e
durable: diff-0000000023-0000000023.sd.ckpt 195 5252d546dd1ecb4a
durable: diff-0000000023-0000000023.sm.ckpt 86 787e30c5350bbecf
durable: full-0000000010.sd.ckpt 803 1f10b6ba480dc1e2
durable: full-0000000010.sm.ckpt 106 2a4c9826c8eb3d2a
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "failing",
            1,
            r"
capture: ok=false reanchor=true enc=1 put=1 reached=MC1 PE1 MP1 MS0 PA0
batch: ok=false reanchor=true enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA0
batch1: ok=false reanchor=true enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA0
blob: ok=false reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA0
ledger: fulls=0 diffs=0 writes=0 bytes=0 diff_bytes=0 io_errors=4 io_retries=8 dropped=3/2 degraded=true tiers=[durable b=0 a=0 e=4 c=0]
",
        ),
        (
            "failing",
            4,
            r"
capture: ok=false reanchor=true enc=1 put=1 reached=MC1 PE1 MP1 MS0 PA0
batch: ok=false reanchor=true enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA0
batch1: ok=false reanchor=true enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA0
blob: ok=false reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA0
ledger: fulls=0 diffs=0 writes=0 bytes=0 diff_bytes=0 io_errors=4 io_retries=24 dropped=3/2 degraded=true tiers=[durable b=0 a=0 e=4 c=0]
",
        ),
        (
            "peer",
            1,
            r"
capture: ok=true reanchor=false enc=1 put=1 reached=MC1 PE1 MP1 MS0 PA1
batch: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
batch1: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
blob: ok=true reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA1
ledger: fulls=0 diffs=0 writes=0 bytes=0 diff_bytes=0 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[peer b=1630 a=4 e=0 c=0]
peer: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
peer: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
peer: full-0000000010.ckpt 803 1f10b6ba480dc1e2
peer: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "peer",
            4,
            r"
capture: ok=true reanchor=false enc=1 put=1 reached=MC1 PE1 MP1 MS0 PA1
batch: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
batch1: ok=true reanchor=false enc=1 put=1 reached=MC0 PE1 MP1 MS0 PA1
blob: ok=true reanchor=false enc=0 put=1 reached=MC0 PE0 MP1 MS0 PA1
ledger: fulls=0 diffs=0 writes=0 bytes=0 diff_bytes=0 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[peer b=1630 a=4 e=0 c=0]
peer: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
peer: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
peer: full-0000000010.ckpt 803 1f10b6ba480dc1e2
peer: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "peer+async",
            1,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS0 PA2
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA2
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA2
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA2
ledger: fulls=1 diffs=0 writes=4 bytes=1630 diff_bytes=571 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[peer b=1630 a=4 e=0 c=0|durable b=1630 a=4 e=0 c=0]
peer: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
peer: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
peer: full-0000000010.ckpt 803 1f10b6ba480dc1e2
peer: moments-24.bin 256 4242dc5249c33625
durable: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
durable: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
durable: full-0000000010.ckpt 803 1f10b6ba480dc1e2
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "peer+async",
            4,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS1 PA2
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS1 PA2
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS1 PA2
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA2
ledger: fulls=1 diffs=0 writes=4 bytes=1630 diff_bytes=571 io_errors=0 io_retries=0 dropped=0/0 degraded=false tiers=[peer b=1630 a=4 e=0 c=0|durable b=1630 a=4 e=0 c=0]
peer: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
peer: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
peer: full-0000000010.ckpt 803 1f10b6ba480dc1e2
peer: moments-24.bin 256 4242dc5249c33625
durable: diff-0000000021-0000000022.sd.ckpt 376 6697a90b59d41400
durable: diff-0000000021-0000000022.sm.ckpt 106 2a5a66428a42395e
durable: diff-0000000023-0000000023.sd.ckpt 195 5252d546dd1ecb4a
durable: diff-0000000023-0000000023.sm.ckpt 86 787e30c5350bbecf
durable: full-0000000010.sd.ckpt 803 1f10b6ba480dc1e2
durable: full-0000000010.sm.ckpt 106 2a4c9826c8eb3d2a
durable: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "memory+failing",
            1,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS0 PA1
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA1
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS0 PA1
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA1
ledger: fulls=0 diffs=1 writes=3 bytes=1630 diff_bytes=571 io_errors=4 io_retries=8 dropped=0/0 degraded=true tiers=[memory b=1630 a=4 e=0 c=0|durable b=0 a=0 e=4 c=0]
memory: diff-0000000021-0000000022.ckpt 376 6697a90b59d41400
memory: diff-0000000023-0000000023.ckpt 195 5252d546dd1ecb4a
memory: full-0000000010.ckpt 803 1f10b6ba480dc1e2
memory: moments-24.bin 256 4242dc5249c33625
",
        ),
        (
            "memory+failing",
            4,
            r"
capture: ok=true reanchor=false enc=1 put=2 reached=MC1 PE1 MP2 MS1 PA1
batch: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS1 PA1
batch1: ok=true reanchor=false enc=1 put=2 reached=MC0 PE1 MP2 MS1 PA1
blob: ok=true reanchor=false enc=0 put=2 reached=MC0 PE0 MP2 MS0 PA1
ledger: fulls=0 diffs=1 writes=3 bytes=1630 diff_bytes=571 io_errors=4 io_retries=24 dropped=0/0 degraded=true tiers=[memory b=1630 a=4 e=0 c=0|durable b=0 a=0 e=4 c=0]
memory: diff-0000000021-0000000022.sd.ckpt 376 6697a90b59d41400
memory: diff-0000000021-0000000022.sm.ckpt 106 2a5a66428a42395e
memory: diff-0000000023-0000000023.sd.ckpt 195 5252d546dd1ecb4a
memory: diff-0000000023-0000000023.sm.ckpt 86 787e30c5350bbecf
memory: full-0000000010.sd.ckpt 803 1f10b6ba480dc1e2
memory: full-0000000010.sm.ckpt 106 2a4c9826c8eb3d2a
memory: moments-24.bin 256 4242dc5249c33625
",
        ),
    ];
}
