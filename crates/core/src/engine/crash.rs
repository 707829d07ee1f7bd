//! Deterministic crash-point injection for the checkpoint pipeline.
//!
//! The torture harness (`tests/crash_torture.rs`) needs to kill the
//! checkpointing pipeline at *named stage boundaries* and then prove that
//! resuming from whatever the store holds is bit-exact. [`FaultyBackend`]
//! (storage faults) is the wrong tool for that: it models a flaky device
//! under a live process, while a crash freezes the **whole pipeline** —
//! nothing submitted, encoded, persisted or acknowledged after the crash
//! instant may reach storage, including the engine's drain-on-drop flush.
//!
//! A [`CrashInjector`] is armed at one [`CrashPoint`] and fires on the
//! *n*-th time execution reaches that point. Because the engine worker
//! processes jobs strictly FIFO and every persist happens on that one
//! thread (or inline on the training thread for synchronous engines), the
//! n-th occurrence is deterministic for a deterministic training run —
//! same seed, same crash instant, same frozen store contents.
//!
//! What each point simulates:
//!
//! * [`CrashPoint::PreSnapshot`] — death on the training thread before the
//!   state is even captured: the job never enters the pipeline.
//! * [`CrashPoint::MidCapture`] — incremental snapshots: death while the
//!   copy-on-write capture is still assembling the full frame in memory.
//!   Some chunks have been copied into the (unsealed) snapshot buffer, but
//!   nothing has been encoded or written — the partially captured frame
//!   dies with the process and recovery sees only earlier checkpoints. For
//!   blocking-capture strategies that never go through a ticket (LowDiff+'s
//!   replica-side copy), the point fires in the equivalent window between
//!   the replica snapshot copy and its persist.
//! * [`CrashPoint::PostEncode`] — death after encode, before any byte is
//!   written: the blob never lands.
//! * [`CrashPoint::MidPersist`] — power cut mid-write: a truncated prefix
//!   of the blob lands (bypassing retry — the process is gone), and the
//!   codec's CRC must reject it at load time. In striped mode this tears
//!   the fan-out itself: only some stripes land, the last one cut short,
//!   and neither the ranged staging is finished nor the manifest written.
//! * [`CrashPoint::MidStripe`] — striped writes only: every data stripe is
//!   durable and the staging is finished, but the process dies before the
//!   manifest seals the checkpoint. This is the exact window the
//!   manifest-seal invariant closes — the complete-looking data object
//!   must stay invisible to recovery and be swept as garbage.
//! * [`CrashPoint::PostPersistPreAck`] — death after the write is durable
//!   but before it is acknowledged (accounting, GC, batch
//!   `complete_write`): the blob *is* in the store, the pipeline never
//!   learned it. Resume must tolerate the resulting overlap.
//!
//! [`FaultyBackend`]: lowdiff_storage::FaultyBackend

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A named stage boundary in the snapshot → encode → persist pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Training thread, before the snapshot is captured into a slot.
    PreSnapshot,
    /// Incremental capture, after some chunks have been copied into the
    /// unsealed snapshot frame, before it is sealed or persisted.
    MidCapture,
    /// Worker thread, after encode, before any byte is written.
    PostEncode,
    /// Worker thread, mid-write: a torn prefix lands, then death.
    MidPersist,
    /// Worker thread, striped writes: all data stripes durable and
    /// finished, death before the manifest seals the checkpoint.
    MidStripe,
    /// Worker thread, after a durable write, before it is acknowledged.
    PostPersistPreAck,
}

/// Every crash point, in pipeline order — the torture matrix iterates this.
pub const ALL_CRASH_POINTS: [CrashPoint; 6] = [
    CrashPoint::PreSnapshot,
    CrashPoint::MidCapture,
    CrashPoint::PostEncode,
    CrashPoint::MidPersist,
    CrashPoint::MidStripe,
    CrashPoint::PostPersistPreAck,
];

/// A one-shot crash armed at a single [`CrashPoint`]. Shared (via `Arc`)
/// between the test and the engine; thread-safe because the point may be
/// reached on the worker thread while the test polls [`crashed`].
///
/// After the crash fires, every engine operation becomes a no-op — the
/// simulated process is dead, and a dead process writes nothing.
///
/// [`crashed`]: Self::crashed
#[derive(Debug)]
pub struct CrashInjector {
    point: CrashPoint,
    /// Remaining occurrences of `point` before the crash fires.
    countdown: AtomicU64,
    crashed: AtomicBool,
    /// Times execution reached each point (indexed by `CrashPoint as
    /// usize`), armed or not: the torture matrix addresses cells by
    /// occurrence number, so tests pin these counts per persist path.
    #[cfg(test)]
    reached: [AtomicU64; ALL_CRASH_POINTS.len()],
}

impl CrashInjector {
    /// Arm a crash at the `nth` (1-based) occurrence of `point`.
    pub fn arm(point: CrashPoint, nth: u64) -> Arc<Self> {
        assert!(nth >= 1, "nth is 1-based");
        Arc::new(Self {
            point,
            countdown: AtomicU64::new(nth),
            crashed: AtomicBool::new(false),
            #[cfg(test)]
            reached: Default::default(),
        })
    }

    /// How many times execution has reached `point` so far.
    #[cfg(test)]
    pub(crate) fn reached(&self, point: CrashPoint) -> u64 {
        self.reached[point as usize].load(Ordering::SeqCst)
    }

    /// Has the crash fired yet?
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The point this injector is armed at.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// Execution has reached `point`: returns true exactly once, when this
    /// is the armed point's n-th occurrence — the caller must then die
    /// (stop doing work) at its stage boundary.
    pub fn hit(&self, point: CrashPoint) -> bool {
        #[cfg(test)]
        self.reached[point as usize].fetch_add(1, Ordering::SeqCst);
        if point != self.point || self.crashed() {
            return false;
        }
        let fired = self
            .countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok_and(|prev| prev == 1);
        if fired {
            self.crashed.store(true, Ordering::SeqCst);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_nth_occurrence_only() {
        let c = CrashInjector::arm(CrashPoint::PostEncode, 3);
        assert!(!c.hit(CrashPoint::PostEncode));
        assert!(!c.hit(CrashPoint::MidPersist), "other points don't count");
        assert!(!c.hit(CrashPoint::PostEncode));
        assert!(!c.crashed());
        assert!(c.hit(CrashPoint::PostEncode), "3rd occurrence fires");
        assert!(c.crashed());
        assert!(!c.hit(CrashPoint::PostEncode), "dead stays dead");
        assert_eq!(c.reached(CrashPoint::PostEncode), 4, "every visit counts");
        assert_eq!(c.reached(CrashPoint::MidPersist), 1);
        assert_eq!(c.reached(CrashPoint::MidStripe), 0);
    }

    #[test]
    fn first_occurrence_crash() {
        let c = CrashInjector::arm(CrashPoint::PreSnapshot, 1);
        assert!(c.hit(CrashPoint::PreSnapshot));
        assert!(c.crashed());
    }
}
