//! The persist stage: **the** retry/backoff, degraded-mode and forced
//! re-anchor implementation for every checkpoint write in the system.
//!
//! Before the engine existed each strategy hand-rolled this wiring (PR 1
//! patched retry logic into six files); now policies receive an
//! [`EngineCtx`] and call one of the `persist_*` helpers, which own:
//!
//! * fan-out across an ordered [`TierStack`] of recovery tiers (encode
//!   once, write every tier, account per tier) — see [`super::tier`],
//! * bounded exponential backoff via [`lowdiff_storage::with_retry`],
//! * health accounting into the shared [`StrategyStats`]
//!   (`io_retries`/`io_errors`/`dropped_*`/`degraded`, plus the per-tier
//!   bytes/acks/errors ledger),
//! * the exactly-once `dropped_batches` increment when the synchronous
//!   tiers exhaust,
//! * the forced-full re-anchor request after dropped differential data,
//! * encode/persist stage latency recording,
//! * the striped parallel persist fork: when [`StripeCfg`] allows more
//!   than one stripe for a blob, store-backed tiers fan the encoded
//!   bytes out as concurrent ranged writes and seal them with a
//!   CRC-carrying manifest written last ([`lowdiff_storage::stripe`]).
//!
//! A persist call succeeds iff every [`AckMode::Sync`] tier landed;
//! [`AckMode::Async`] tiers are best-effort (failures are accounted but
//! never fail the call). With a single [`super::tier::DurableTier`] stack
//! the write sequence below is byte-identical to the pre-tier engine —
//! the `engine_equivalence` proptests pin that.

use super::cow::{CowTicket, CowTickets};
use super::crash::{CrashInjector, CrashPoint};
use super::metrics::EngineMetrics;
use super::policy::FullSnapshot;
use super::tier::{AckMode, ObjectSink, TierBacking, TierStack};
use super::SnapshotSlots;
use crate::batched::BatchedWriter;
use crate::strategy::StrategyStats;
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{self, DiffEntry, ValueCodec};
use lowdiff_storage::stripe::StripedData;
use lowdiff_storage::{with_retry, CheckpointStore, RetryPolicy, StripeCfg, StripeManifest};
use lowdiff_util::BufferPool;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a landed full checkpoint is accounted (Gemini's memory-tier fulls
/// count as `diff_checkpoints`, matching the paper's "in-memory
/// checkpoint" framing). Tiers report theirs via
/// [`super::tier::RecoveryTier::counts_as`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Durable storage: counts as `full_checkpoints` + `writes`.
    Durable,
    /// A fast in-memory tier: counts as `diff_checkpoints`, no `writes`.
    Memory,
}

/// Per-write options for [`EngineCtx::persist_full`].
#[derive(Clone, Copy, Debug)]
pub struct FullOpts {
    /// On failure, request an early full so the chain gets re-anchored
    /// (LowDiff semantics). Strategies whose recovery simply falls back to
    /// the previous full (CheckFreq, TorchSave, …) leave this off.
    pub reanchor_on_failure: bool,
    /// Keep only the newest `k` fulls after a successful write (older
    /// fulls and their differential chains are garbage-collected). Applies
    /// to store-backed tiers without their own retention
    /// ([`super::tier::RecoveryTier::retain_fulls`] wins when set).
    pub keep_fulls: Option<u64>,
}

impl FullOpts {
    /// Skip-on-failure, no GC — the common baseline case.
    pub fn durable() -> Self {
        Self {
            reanchor_on_failure: false,
            keep_fulls: None,
        }
    }
}

/// Outcome of one tier's write inside a persist fan-out.
enum TierWrite {
    /// An armed crash point fired during this tier's write: the simulated
    /// process is gone. Nothing is accounted (there is nobody left to
    /// account it) and the remaining tiers never see the blob.
    Died,
    Done {
        /// The write landed on this tier (≥ 1 replica for object tiers).
        ok: bool,
        /// Storage retries burned by this tier.
        retries: u64,
        /// Replica/storage acknowledgements (per-tier ledger).
        acks: u64,
        /// Dropped replicas / failed writes (per-tier ledger).
        errors: u64,
        /// Bytes acknowledged on this tier (per-tier ledger).
        landed: u64,
        /// Replica slots refused by a fan-out clamp (per-tier ledger).
        clamped: u64,
    },
}

/// The engine-owned context a [`super::CheckpointPolicy`] runs against.
pub struct EngineCtx<'a> {
    pub(super) retry: &'a RetryPolicy,
    pub(super) stripe: &'a StripeCfg,
    pub(super) shared: &'a Mutex<StrategyStats>,
    pub(super) force_full: &'a AtomicBool,
    pub(super) metrics: &'a EngineMetrics,
    pub(super) buffers: &'a BufferPool<u8>,
    pub(super) snaps: &'a SnapshotSlots,
    pub(super) cow: &'a CowTickets,
    pub(super) crash: Option<&'a CrashInjector>,
    pub(super) value_codec: &'a ValueCodec,
}

impl EngineCtx<'_> {
    /// Mutate the shared stats under the lock.
    pub fn with_stats<R>(&self, f: impl FnOnce(&mut StrategyStats) -> R) -> R {
        f(&mut self.shared.lock())
    }

    /// The simulated process is dead: every persist becomes a no-op.
    fn crash_dead(&self) -> bool {
        self.crash.is_some_and(|c| c.crashed())
    }

    /// Check-and-fire the armed crash point, if any.
    fn crash_hit(&self, point: CrashPoint) -> bool {
        self.crash.is_some_and(|c| c.hit(point))
    }

    /// The data + seal dance for one striped object. `put_data` fans the
    /// stripes out over the parallel executor (retrying per stripe);
    /// `seal` writes the CRC-carrying manifest that makes the checkpoint
    /// visible to recovery. `None` means the armed
    /// [`CrashPoint::MidStripe`] fired in the window between the two —
    /// every stripe durable and finished, manifest never written — and
    /// the caller must die without accounting.
    fn striped_write(
        &self,
        put_data: impl FnOnce() -> StripedData,
        seal: impl Fn(&StripeManifest) -> std::io::Result<()>,
    ) -> Option<(bool, u64)> {
        let out = put_data();
        let mut retries = out.retries;
        let ok = match out.result {
            Ok(manifest) => {
                if self.crash_hit(CrashPoint::MidStripe) {
                    return None;
                }
                let r = with_retry(self.retry, || seal(&manifest));
                retries += r.retries as u64;
                r.result.is_ok()
            }
            Err(_) => false,
        };
        Some((ok, retries))
    }

    /// Ask the training side to schedule an early full checkpoint.
    pub fn request_reanchor(&self) {
        self.force_full.store(true, Ordering::SeqCst);
    }

    /// Return a processed snapshot slot to the engine's recycle pool so
    /// the next [`super::CheckpointEngine::submit_full`] reuses its
    /// allocations instead of cloning. Policies call this once they no
    /// longer need the state of a [`super::Job::Full`].
    pub fn recycle_state(&self, snap: Box<FullSnapshot>) {
        self.snaps.put(snap);
    }

    /// One store-backed tier's full-checkpoint write: the legacy
    /// store + stripe path, torn-write and seal-window crash points
    /// included.
    fn store_write_full(&self, store: &CheckpointStore, iteration: u64, bytes: &[u8]) -> TierWrite {
        let stripes = self.stripe.effective_stripes(bytes.len());
        if self.crash_hit(CrashPoint::MidPersist) {
            // Power cut mid-write: a torn prefix lands directly (no retry —
            // the process is gone). The codec CRC rejects it at load time.
            // In striped mode the fan-out itself tears: only some stripes
            // land, unfinished and unsealed.
            if stripes >= 2 {
                store.put_full_striped_torn(iteration, bytes, stripes);
            } else {
                let _ = store.put_full(iteration, &bytes[..bytes.len() / 2]);
            }
            return TierWrite::Died;
        }
        let t1 = Instant::now();
        let (ok, retries) = if stripes >= 2 {
            match self.striped_write(
                || store.put_full_striped(iteration, bytes, stripes, self.retry),
                |m| store.seal_full_striped(iteration, m),
            ) {
                Some(v) => v,
                None => return TierWrite::Died,
            }
        } else {
            let r = with_retry(self.retry, || store.put_full(iteration, bytes));
            (r.result.is_ok(), r.retries as u64)
        };
        self.metrics.persist.record(t1.elapsed());
        if ok && self.crash_hit(CrashPoint::PostPersistPreAck) {
            // The blob is durable, but the process dies before
            // acknowledging it: no accounting, no GC, no re-anchor.
            return TierWrite::Died;
        }
        TierWrite::Done {
            ok,
            retries,
            acks: ok as u64,
            errors: !ok as u64,
            landed: if ok { bytes.len() as u64 } else { 0 },
            clamped: 0,
        }
    }

    /// One store-backed tier's diff-batch write (same crash/stripe dance
    /// as fulls, diff key space).
    fn store_write_diff(
        &self,
        store: &CheckpointStore,
        start: u64,
        end: u64,
        bytes: &[u8],
    ) -> TierWrite {
        let stripes = self.stripe.effective_stripes(bytes.len());
        if self.crash_hit(CrashPoint::MidPersist) {
            if stripes >= 2 {
                store.put_diff_striped_torn(start, end, bytes, stripes);
            } else {
                let _ = store.put_diff_batch_bytes(start, end, &bytes[..bytes.len() / 2]);
            }
            return TierWrite::Died;
        }
        let t1 = Instant::now();
        let (ok, retries) = if stripes >= 2 {
            match self.striped_write(
                || store.put_diff_striped(start, end, bytes, stripes, self.retry),
                |m| store.seal_diff_striped(start, end, m),
            ) {
                Some(v) => v,
                None => return TierWrite::Died,
            }
        } else {
            let r = with_retry(self.retry, || store.put_diff_batch_bytes(start, end, bytes));
            (r.result.is_ok(), r.retries as u64)
        };
        self.metrics.persist.record(t1.elapsed());
        if ok && self.crash_hit(CrashPoint::PostPersistPreAck) {
            return TierWrite::Died;
        }
        TierWrite::Done {
            ok,
            retries,
            acks: ok as u64,
            errors: !ok as u64,
            landed: if ok { bytes.len() as u64 } else { 0 },
            clamped: 0,
        }
    }

    /// One object-backed tier's write (peer streams). No striping — the
    /// network frame is the unit — so [`CrashPoint::MidStripe`] never
    /// fires here; a mid-persist crash sends a torn half-frame whose CRC
    /// recovery rejects, exactly like a torn store blob.
    fn object_write(&self, sink: &dyn ObjectSink, key: &str, bytes: &[u8]) -> TierWrite {
        if self.crash_hit(CrashPoint::MidPersist) {
            let _ = sink.put_object(key, &bytes[..bytes.len() / 2]);
            return TierWrite::Died;
        }
        let t1 = Instant::now();
        let rep = sink.put_object(key, bytes);
        self.metrics.persist.record(t1.elapsed());
        let ok = rep.acks > 0;
        if ok && self.crash_hit(CrashPoint::PostPersistPreAck) {
            return TierWrite::Died;
        }
        TierWrite::Done {
            ok,
            retries: 0,
            acks: rep.acks,
            errors: rep.errors,
            landed: rep.bytes,
            clamped: rep.clamped,
        }
    }

    /// Encode a full checkpoint of `state` + `aux` once (v2 format: model
    /// state plus EF residual / compressor / RNG cursor) and fan it across
    /// the tier stack. Returns whether every synchronous tier landed it.
    pub fn persist_full(
        &mut self,
        tiers: &TierStack,
        state: &ModelState,
        aux: &AuxView<'_>,
        opts: &FullOpts,
    ) -> bool {
        if self.crash_dead() {
            return false;
        }
        let t0 = Instant::now();
        let mut bytes = self.buffers.get();
        codec::encode_full_checkpoint_into(state, aux, &mut bytes);
        self.metrics.encode.record(t0.elapsed());
        let ok = self.persist_full_encoded(tiers, state.iteration, &bytes, opts);
        self.buffers.put(bytes);
        ok
    }

    /// Fan an already-encoded full-checkpoint blob across the tier stack
    /// (the post-encode half of [`Self::persist_full`], shared with the
    /// incremental-capture path whose sealed ticket *is* the encoded
    /// blob). Owns the [`CrashPoint::PostEncode`] boundary and all
    /// per-tier accounting/GC/re-anchor behavior.
    pub fn persist_full_encoded(
        &mut self,
        tiers: &TierStack,
        iteration: u64,
        bytes: &[u8],
        opts: &FullOpts,
    ) -> bool {
        if self.crash_dead() || self.crash_hit(CrashPoint::PostEncode) {
            return false;
        }
        let written = bytes.len() as u64;
        let mut ok_overall = true;
        for tier in tiers.iter() {
            let outcome = match tier.backing() {
                TierBacking::Store(store) => self.store_write_full(store, iteration, bytes),
                TierBacking::Object(sink) => {
                    self.object_write(sink, &CheckpointStore::full_key(iteration), bytes)
                }
            };
            let TierWrite::Done {
                ok,
                retries,
                acks,
                errors,
                landed,
                clamped,
            } = outcome
            else {
                return false;
            };
            {
                let mut s = self.shared.lock();
                s.io_retries += retries;
                let ts = s.tier_mut(tier.name());
                ts.acks += acks;
                ts.errors += errors;
                ts.bytes += landed;
                ts.clamped += clamped;
                if ok {
                    // Only store-backed tiers feed the global write
                    // ledger — `bytes_written` stays "bytes handed to
                    // storage backends" (the torch-save pinned invariant);
                    // replica traffic is visible in the per-tier ledger.
                    if matches!(tier.backing(), TierBacking::Store(_)) {
                        match tier.counts_as() {
                            Tier::Durable => {
                                s.full_checkpoints += 1;
                                s.writes += 1;
                            }
                            Tier::Memory => s.diff_checkpoints += 1,
                        }
                        s.bytes_written += written;
                    }
                } else {
                    // The checkpoint is skipped on this tier, never
                    // retried in place: recovery falls back down the
                    // stack (and, when `reanchor_on_failure` is set, an
                    // early full is forced so the window stays bounded).
                    s.io_errors += 1;
                    s.degraded = true;
                    if tier.ack() == AckMode::Sync {
                        ok_overall = false;
                    }
                }
            }
            if ok {
                if let TierBacking::Store(store) = tier.backing() {
                    if let Some(keep) = tier.retain_fulls().or(opts.keep_fulls) {
                        self.gc_keep(store, keep);
                    }
                }
            }
        }
        if !ok_overall && opts.reanchor_on_failure {
            self.request_reanchor();
        }
        ok_overall
    }

    /// Complete an incremental capture on the worker: sweep every chunk
    /// the training thread's COW hooks haven't captured yet, fold the
    /// capture telemetry into the engine metrics, then seal the frame's
    /// CRC. Returns `false` — the ticket stays unsealed and nothing may
    /// land — when the engine is dead or the armed
    /// [`CrashPoint::MidCapture`] fires in the window where the frame is
    /// assembled only in memory.
    pub fn finish_capture(&mut self, ticket: &CowTicket) -> bool {
        if self.crash_dead() {
            return false;
        }
        ticket.sweep();
        let (cow, swept) = ticket.chunk_counts();
        self.metrics.cow_chunks.fetch_add(cow, Ordering::Relaxed);
        self.metrics
            .sweep_chunks
            .fetch_add(swept, Ordering::Relaxed);
        self.metrics.capture.record(ticket.started().elapsed());
        if self.crash_hit(CrashPoint::MidCapture) {
            return false;
        }
        let t0 = Instant::now();
        ticket.seal();
        self.metrics.encode.record(t0.elapsed());
        true
    }

    /// Complete an incremental capture and materialize it as a pooled
    /// [`FullSnapshot`] — for policies that need the decoded model state
    /// (Naïve DC's differential path), at the cost of losing the
    /// streaming. Decode→re-encode of the v2 format is bit-exact, so the
    /// byte-identity invariant survives the round trip.
    pub fn complete_capture_into_snapshot(
        &mut self,
        ticket: &CowTicket,
    ) -> Option<Box<FullSnapshot>> {
        if !self.finish_capture(ticket) {
            return None;
        }
        let fc = codec::decode_full_checkpoint(ticket.sealed_bytes()).ok()?;
        let view = fc.aux.view();
        // On the worker itself: nobody else could refill a dry pool, so
        // never wait here.
        let mut snap = self
            .snaps
            .try_get(&fc.state, &view)
            .unwrap_or_else(|| Box::new(FullSnapshot::empty()));
        snap.capture(&fc.state, &view);
        Some(snap)
    }

    /// Return a processed COW ticket to the engine's pool so the next
    /// incremental anchor reuses its frame buffer. The ticket becomes
    /// reusable once the submitter's pending handle is dropped too.
    pub fn release_ticket(&self, ticket: Arc<CowTicket>) {
        self.cow.put(ticket);
    }

    /// [`CrashPoint::MidCapture`] check for strategies that capture their
    /// fulls outside the ticket machinery (LowDiff+'s replica-side
    /// snapshot copy): fires in the equivalent window between capture and
    /// persist. `true` means the simulated process just died.
    pub fn capture_interrupted(&self) -> bool {
        self.crash_hit(CrashPoint::MidCapture)
    }

    /// Encode the writer's buffered differential batch once and fan it
    /// across the tier stack. When any synchronous tier exhausts, the
    /// batch is dropped — `dropped_batches` counts exactly once per
    /// discarded batch — the run degrades, and a re-anchoring full
    /// checkpoint is requested. Returns whether the batch landed on every
    /// synchronous tier (an empty buffer trivially "lands").
    pub fn persist_batch(&mut self, tiers: &TierStack, writer: &mut BatchedWriter) -> bool {
        if self.crash_dead() {
            return false;
        }
        let t0 = Instant::now();
        let Some(enc) = writer.encode_batch_with(self.buffers.get()) else {
            return true;
        };
        self.metrics.encode.record(t0.elapsed());
        if self.crash_hit(CrashPoint::PostEncode) {
            self.buffers.put(enc.bytes);
            return false;
        }
        let written = enc.bytes.len() as u64;
        let mut ok_overall = true;
        for tier in tiers.iter() {
            let outcome = match tier.backing() {
                TierBacking::Store(store) => {
                    self.store_write_diff(store, enc.start, enc.end, &enc.bytes)
                }
                TierBacking::Object(sink) => self.object_write(
                    sink,
                    &CheckpointStore::diff_key(enc.start, enc.end),
                    &enc.bytes,
                ),
            };
            let TierWrite::Done {
                ok,
                retries,
                acks,
                errors,
                landed,
                clamped,
            } = outcome
            else {
                // Durable-but-unacknowledged (or torn) writes leave the
                // batch buffered (no `complete_write`), which on resume
                // shows up as an overlapping diff key — harmless, the
                // chain walker skips past it.
                self.buffers.put(enc.bytes);
                return false;
            };
            let mut s = self.shared.lock();
            s.io_retries += retries;
            let ts = s.tier_mut(tier.name());
            ts.acks += acks;
            ts.errors += errors;
            ts.bytes += landed;
            ts.clamped += clamped;
            if ok {
                if matches!(tier.backing(), TierBacking::Store(_)) {
                    s.writes += 1;
                    s.bytes_written += written;
                    s.diff_bytes_written += written;
                }
            } else {
                s.io_errors += 1;
                s.degraded = true;
                if tier.ack() == AckMode::Sync {
                    ok_overall = false;
                }
            }
        }
        self.buffers.put(enc.bytes);
        if ok_overall {
            writer.complete_write(written);
            true
        } else {
            // Retries exhausted on a synchronous tier: give the batch up.
            // The gap this leaves in the differential chain is exactly
            // what recovery already bounds (`diff_chain_from` stops at the
            // gap); the forced full re-anchors the chain so later diffs
            // become useful again. Training was never blocked.
            {
                let mut s = self.shared.lock();
                s.dropped_diffs += writer.discard_batch();
                s.dropped_batches += 1;
            }
            self.request_reanchor();
            false
        }
    }

    /// Encode standalone differential entries once (no writer buffering —
    /// the Naïve-DC synchronous path) and fan across the stack. Accounting
    /// matches the batch path: a synchronous-tier failure drops the
    /// entries and counts one `dropped_batches`; the *caller* decides how
    /// to re-anchor (Naïve DC tracks its base validity itself).
    pub fn persist_diff_entries(&mut self, tiers: &TierStack, entries: &[DiffEntry]) -> bool {
        if self.crash_dead() {
            return false;
        }
        if entries.is_empty() {
            // Nothing to write trivially "lands" — mirroring
            // `persist_batch` on an empty buffer. Callers flushing
            // zero-entry tails must not see a phantom failure (or a
            // panic indexing `entries[0]`).
            return true;
        }
        let t0 = Instant::now();
        let mut bytes = self.buffers.get();
        let refs = entries.iter().map(|e| (e.iteration, &e.grad));
        codec::encode_diff_batch_into(refs, self.value_codec, &mut bytes);
        self.metrics.encode.record(t0.elapsed());
        let (start, end) = (entries[0].iteration, entries.last().unwrap().iteration);
        if self.crash_hit(CrashPoint::PostEncode) {
            self.buffers.put(bytes);
            return false;
        }
        let written = bytes.len() as u64;
        let mut ok_overall = true;
        for tier in tiers.iter() {
            let outcome = match tier.backing() {
                TierBacking::Store(store) => self.store_write_diff(store, start, end, &bytes),
                TierBacking::Object(sink) => {
                    self.object_write(sink, &CheckpointStore::diff_key(start, end), &bytes)
                }
            };
            let TierWrite::Done {
                ok,
                retries,
                acks,
                errors,
                landed,
                clamped,
            } = outcome
            else {
                self.buffers.put(bytes);
                return false;
            };
            let mut s = self.shared.lock();
            s.io_retries += retries;
            let ts = s.tier_mut(tier.name());
            ts.acks += acks;
            ts.errors += errors;
            ts.bytes += landed;
            ts.clamped += clamped;
            if ok {
                if matches!(tier.backing(), TierBacking::Store(_)) {
                    s.writes += 1;
                    s.bytes_written += written;
                    s.diff_bytes_written += written;
                }
            } else {
                s.io_errors += 1;
                s.degraded = true;
                if tier.ack() == AckMode::Sync {
                    ok_overall = false;
                }
            }
        }
        self.buffers.put(bytes);
        let mut s = self.shared.lock();
        if ok_overall {
            s.diff_checkpoints += entries.len() as u64;
            true
        } else {
            s.dropped_diffs += entries.len() as u64;
            s.dropped_batches += 1;
            false
        }
    }

    /// Persist an opaque blob under `key` (Naïve DC's dense moments) to
    /// every tier. Failure degrades but drops nothing from the
    /// differential chain.
    pub fn persist_blob(&mut self, tiers: &TierStack, key: &str, bytes: &[u8]) -> bool {
        if self.crash_dead() {
            return false;
        }
        let mut ok_overall = true;
        for tier in tiers.iter() {
            let outcome = match tier.backing() {
                TierBacking::Store(store) => self.store_write_blob(store, key, bytes),
                TierBacking::Object(sink) => self.object_write(sink, key, bytes),
            };
            let TierWrite::Done {
                ok,
                retries,
                acks,
                errors,
                landed,
                clamped,
            } = outcome
            else {
                return false;
            };
            let mut s = self.shared.lock();
            s.io_retries += retries;
            let ts = s.tier_mut(tier.name());
            ts.acks += acks;
            ts.errors += errors;
            ts.bytes += landed;
            ts.clamped += clamped;
            if ok {
                if matches!(tier.backing(), TierBacking::Store(_)) {
                    s.writes += 1;
                    s.bytes_written += bytes.len() as u64;
                }
            } else {
                s.io_errors += 1;
                s.degraded = true;
                if tier.ack() == AckMode::Sync {
                    ok_overall = false;
                }
            }
        }
        ok_overall
    }

    /// One store-backed tier's opaque-blob write (never striped — these
    /// are small dense side blobs, not checkpoint objects).
    fn store_write_blob(&self, store: &CheckpointStore, key: &str, bytes: &[u8]) -> TierWrite {
        if self.crash_hit(CrashPoint::MidPersist) {
            let _ = store.backend().put(key, &bytes[..bytes.len() / 2]);
            return TierWrite::Died;
        }
        let t1 = Instant::now();
        let r = with_retry(self.retry, || store.backend().put(key, bytes));
        self.metrics.persist.record(t1.elapsed());
        let ok = r.result.is_ok();
        if ok && self.crash_hit(CrashPoint::PostPersistPreAck) {
            return TierWrite::Died;
        }
        TierWrite::Done {
            ok,
            retries: r.retries as u64,
            acks: ok as u64,
            errors: !ok as u64,
            landed: if ok { bytes.len() as u64 } else { 0 },
            clamped: 0,
        }
    }

    /// Keep only the newest `keep` full checkpoints. GC failures are not
    /// data loss — count and move on.
    fn gc_keep(&self, store: &CheckpointStore, keep: u64) {
        match store.full_iterations() {
            Ok(fulls) if fulls.len() as u64 > keep => {
                let cutoff = fulls[fulls.len() - keep as usize];
                if store.gc_before(cutoff).is_err() {
                    self.shared.lock().io_errors += 1;
                }
            }
            Ok(_) => {}
            Err(_) => self.shared.lock().io_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tier::{DurableTier, MemoryTier};
    use lowdiff_storage::{MemoryBackend, StorageBackend};
    use std::sync::Arc;

    /// Run `f` against a fresh EngineCtx and return the stats it
    /// accumulated. The stack defaults to a single durable tier over an
    /// in-memory store (the pre-refactor shape); `f` also receives that
    /// store for assertions.
    fn with_stack(
        tiers: TierStack,
        store: Arc<CheckpointStore>,
        f: impl FnOnce(&mut EngineCtx<'_>, &TierStack, &CheckpointStore),
    ) -> StrategyStats {
        let retry = RetryPolicy::none();
        let stripe = StripeCfg::default();
        let shared = Mutex::new(StrategyStats::default());
        let force_full = AtomicBool::new(false);
        let metrics = EngineMetrics::default();
        let buffers = BufferPool::default();
        let snaps = SnapshotSlots::new(1, false);
        let cow = CowTickets::new(1);
        let mut cx = EngineCtx {
            retry: &retry,
            stripe: &stripe,
            shared: &shared,
            force_full: &force_full,
            metrics: &metrics,
            buffers: &buffers,
            snaps: &snaps,
            cow: &cow,
            crash: None,
            value_codec: &ValueCodec::F32,
        };
        f(&mut cx, &tiers, &store);
        shared.into_inner()
    }

    fn with_ctx(f: impl FnOnce(&mut EngineCtx<'_>, &TierStack, &CheckpointStore)) -> StrategyStats {
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        with_stack(TierStack::durable(Arc::clone(&store)), store, f)
    }

    fn state_at(iteration: u64) -> ModelState {
        let mut st = ModelState::new(vec![1.0, 2.0, 3.0, 4.0]);
        st.iteration = iteration;
        st
    }

    #[test]
    fn empty_diff_entry_slice_lands_trivially() {
        let stats = with_ctx(|cx, tiers, store| {
            assert!(
                cx.persist_diff_entries(tiers, &[]),
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
        let stack = TierStack::new(vec![Arc::new(MemoryTier::new(Arc::clone(&mem), 2))]);
        let stats = with_stack(stack, Arc::clone(&mem), |cx, tiers, store| {
            for it in [3u64, 6, 9, 12] {
                assert!(cx.persist_full(
                    tiers,
                    &state_at(it),
                    &AuxView::NONE,
                    &FullOpts::durable()
                ));
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
            Arc::new(MemoryTier::new(Arc::clone(&mem), 1)),
            Arc::new(DurableTier::new(Arc::clone(&dur))),
        ]);
        let stats = with_stack(stack, Arc::clone(&dur), |cx, tiers, _| {
            assert!(cx.persist_full(tiers, &state_at(7), &AuxView::NONE, &FullOpts::durable()));
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
    fn async_tier_failure_degrades_but_does_not_fail_the_persist() {
        let good = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
        let stack = TierStack::new(vec![
            Arc::new(DurableTier::new(Arc::clone(&good))),
            Arc::new(DurableTier::with_ack(Arc::clone(&bad), AckMode::Async)),
        ]);
        let stats = with_stack(stack, Arc::clone(&good), |cx, tiers, _| {
            assert!(
                cx.persist_full(tiers, &state_at(1), &AuxView::NONE, &FullOpts::durable()),
                "an async tier's failure must not fail the persist"
            );
        });
        assert_eq!(stats.full_checkpoints, 1);
        assert_eq!(stats.io_errors, 1, "…but it is accounted");
        assert!(stats.degraded);
        // Both tiers share the name "durable", so the ledger merges them:
        // one ack (the good store) and one error (the blackhole).
        assert_eq!(stats.tiers.len(), 1);
        assert_eq!(stats.tiers[0].acks, 1);
        assert_eq!(stats.tiers[0].errors, 1);
    }

    #[test]
    fn sync_tier_failure_fails_the_persist() {
        let bad = Arc::new(CheckpointStore::new(Arc::new(BlackholeBackend)));
        let stats = with_stack(TierStack::durable(Arc::clone(&bad)), bad, |cx, tiers, _| {
            assert!(!cx.persist_full(tiers, &state_at(1), &AuxView::NONE, &FullOpts::durable()));
        });
        assert_eq!(stats.io_errors, 1);
        assert!(stats.degraded);
        assert_eq!(stats.full_checkpoints, 0);
    }
}
