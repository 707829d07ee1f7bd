//! Full-checkpoint capture: every full is a [`CowTicket`] — a v2 wire
//! frame checked out of the engine's bounded ticket pool.
//!
//! `CheckpointEngine::submit_full` fills the ticket on the submitting
//! thread with [`codec::encode_full_frame_into`]: the header and small aux
//! sections are stamped and params / m / v / EF residual are copied
//! straight to their wire offsets, with no allocation once the frame is
//! pooled. The copy gathers the engine's index ranges: the whole state,
//! or a cluster rank's shard, which is thereby copied once, from the live
//! state into the frame. The capture is therefore complete when the
//! submitting hook returns, and the caller may mutate the state at once.
//! The engine worker seals the CRC (`CowTicket::seal`) and fans the
//! finished blob across the tier stack; the sealed bytes are
//! **byte-identical** to `encode_full_checkpoint_into` on the gathered
//! state, which the `engine_equivalence` and `sharded_strategy` tests pin.
//! Dropping the ticket hands its frame back to the pool.
//!
//! LowDiff+'s policy captures its CPU replica the same way, on the engine
//! worker, through [`super::EngineCtx::capture`]: that capture never waits
//! on a dry pool, since only the worker itself would return a frame.

use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::codec;
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A captured full checkpoint: the frame plus what policies key persists
/// off. Owned by exactly one job at a time, so sealing needs no sharing
/// protocol.
pub struct CowTicket {
    frame: Vec<u8>,
    iteration: u64,
    adam_t: u64,
    psi: usize,
    sealed: bool,
    /// The pool the frame returns to when the ticket drops.
    home: Arc<CowTickets>,
}

impl CowTicket {
    /// The iteration this capture snapshots.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The Adam step count of the captured state.
    pub fn adam_t(&self) -> u64 {
        self.adam_t
    }

    /// Parameter count of the captured state: the elements gathered.
    pub fn psi(&self) -> usize {
        self.psi
    }

    /// The frame: header, aux sections and regions at their
    /// [`codec::full_frame_layout`] offsets, then — once sealed — the CRC
    /// trailer, making it the wire blob.
    pub fn bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Append the CRC trailer and return the CRC of the captured
    /// params ‖ m ‖ v, taken in the same pass ([`codec::seal_frame`]).
    /// Once per capture.
    pub(crate) fn seal(&mut self) -> u32 {
        assert!(!self.sealed, "double seal of a capture ticket");
        self.sealed = true;
        codec::seal_frame(&mut self.frame, self.psi)
    }
}

impl Drop for CowTicket {
    fn drop(&mut self) {
        self.home.give_back(std::mem::take(&mut self.frame));
    }
}

/// The engine's ticket pool: at most `depth` frames, each ~12Ψ bytes. A
/// capture takes a free frame, builds one while the pool is below its
/// depth, and otherwise waits for the worker to drop a ticket instead of
/// growing the footprint by another full frame.
///
/// The resident footprint is one frame while the store keeps up. The
/// first capture that finds every frame still in flight — the store has
/// fallen behind the anchors — builds and faults in the whole depth at
/// once. The footprint then depends on whether the store ever lagged, not
/// on how far the lag happened to reach, and no later anchor page-faults
/// a fresh frame on the training thread.
pub(crate) struct CowTickets {
    pool: Mutex<Frames>,
    released: Condvar,
    depth: usize,
}

struct Frames {
    /// Frames not checked out, every one filled; the most recently
    /// returned one is last, so a capture prefers frames whose pages are
    /// still in cache.
    free: Vec<Vec<u8>>,
    /// Frames built so far, free or checked out.
    built: usize,
    /// A worker thread is alive and will drop the tickets in flight.
    /// False for inline engines and once the worker has exited: a dry
    /// pool can then never refill, and nobody must wait on it.
    worker_alive: bool,
}

impl CowTickets {
    /// Upper bound on pooled frames: the pool must stay shallow even
    /// behind a deep job queue.
    pub(crate) const MAX_DEPTH: usize = 4;

    pub(crate) fn new(depth: usize, has_worker: bool) -> Arc<Self> {
        Arc::new(Self {
            pool: Mutex::new(Frames {
                free: Vec::new(),
                built: 0,
                worker_alive: has_worker,
            }),
            released: Condvar::new(),
            depth: depth.clamp(1, Self::MAX_DEPTH),
        })
    }

    /// Build and fill the first frame for captures of `ranges` of
    /// `state` + `aux`, off the anchor path, so that an anchor neither
    /// allocates nor page-faults while the store keeps up. A store that
    /// falls behind builds and faults in the rest of the depth at its
    /// first lag ([`Self::capture`]), primed or not. Idempotent.
    ///
    /// The rest is not reserved here: an untouched reservation saves no
    /// time, but it fixes where the frames sit in the allocator's arenas,
    /// and on `cluster-2rank` reserved frames stayed resident after their
    /// rank's pass, raising the workload's peak RSS.
    pub(crate) fn prime(&self, state: &ModelState, aux: &AuxView<'_>, ranges: &[Range<usize>]) {
        let mut pool = self.pool.lock();
        if pool.built > 0 {
            return;
        }
        let mut first = Vec::new();
        codec::encode_full_frame_into(state, aux, ranges, &mut first);
        pool.free.push(first);
        pool.built = 1;
    }

    /// Capture `ranges` of `state` + `aux`
    /// ([`codec::encode_full_frame_into`]) into a free frame, building one
    /// while the pool is below its depth, else — if `may_wait` — waiting
    /// for the worker to drop a ticket. A frame built while another ticket
    /// is in flight means the store has fallen behind: every frame up to
    /// the depth is then built and faulted in before this returns. Also
    /// returns how long it waited (zero when it did not). `None` when every
    /// frame is checked out and waiting is not allowed or no live worker
    /// is left to return one. The worker itself must never wait: no other
    /// thread drops the tickets it would wait for.
    pub(crate) fn capture(
        self: &Arc<Self>,
        state: &ModelState,
        aux: &AuxView<'_>,
        ranges: &[Range<usize>],
        may_wait: bool,
    ) -> (Option<CowTicket>, Duration) {
        let mut pool = self.pool.lock();
        let mut wait_start: Option<Instant> = None;
        let waited = |start: Option<Instant>| start.map_or(Duration::ZERO, |t| t.elapsed());
        let mut frame = loop {
            if let Some(frame) = pool.free.pop() {
                break frame;
            }
            if pool.built < self.depth {
                pool.built += 1;
                break Vec::new();
            }
            if !(may_wait && pool.worker_alive) {
                return (None, waited(wait_start));
            }
            wait_start.get_or_insert_with(Instant::now);
            self.released.wait(&mut pool);
        };
        // Frames checked out besides this one; only a frame built just
        // now is empty.
        let in_flight = pool.built - pool.free.len() - 1;
        let mut cold = 0;
        if frame.is_empty() && in_flight > 0 {
            cold = self.depth - pool.built;
            pool.built = self.depth;
        }
        drop(pool);
        let waited = waited(wait_start);
        codec::encode_full_frame_into(state, aux, ranges, &mut frame);
        if cold > 0 {
            self.warm(cold, frame.len() + 4);
        }
        let ticket = CowTicket {
            frame,
            iteration: state.iteration,
            adam_t: state.opt.t,
            psi: ranges.iter().map(Range::len).sum(),
            sealed: false,
            home: Arc::clone(self),
        };
        (Some(ticket), waited)
    }

    /// Build `n` frames of `len` bytes, faulted in (zero-filled, so they
    /// count as filled), and add them to the pool.
    fn warm(&self, n: usize, len: usize) {
        let mut frames = vec![Vec::new(); n];
        for f in &mut frames {
            // Written, not calloc'd: the point is to fault the pages in.
            f.resize(len, 0);
        }
        self.pool.lock().free.append(&mut frames);
        self.released.notify_all();
    }

    /// A ticket dropped: its frame is free again; wake a waiting capture.
    fn give_back(&self, frame: Vec<u8>) {
        self.pool.lock().free.push(frame);
        self.released.notify_one();
    }

    /// The worker thread is gone (shutdown or panic): release any waiter.
    pub(crate) fn worker_exited(&self) {
        self.pool.lock().worker_alive = false;
        self.released.notify_all();
    }

    /// Frames built so far.
    #[cfg(test)]
    pub(crate) fn built(&self) -> usize {
        self.pool.lock().built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_compress::{AuxState, CompressorCfg};
    use lowdiff_util::DetRng;

    fn demo_state(psi: usize, seed: u64) -> ModelState {
        let mut rng = DetRng::new(seed);
        let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        st.iteration = 42;
        st.opt.t = 42;
        rng.fill_normal_f32(&mut st.opt.m, 0.1);
        rng.fill_normal_f32(&mut st.opt.v, 0.01);
        st
    }

    /// The whole space: the one range a single-rank capture gathers.
    fn all(st: &ModelState) -> Vec<Range<usize>> {
        std::iter::once(0..st.params.len()).collect()
    }

    #[test]
    fn sealed_capture_is_byte_identical_to_blocking_encode() {
        let st = demo_state(1000, 5);
        let aux = AuxState {
            residual: Some(vec![0.25; st.params.len()]),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let view = aux.view();
        let pool = CowTickets::new(1, false);
        let (t, waited) = pool.capture(&st, &view, &all(&st), false);
        let mut t = t.expect("an empty pool builds a frame");
        assert!(waited.is_zero());
        assert_eq!((t.iteration(), t.adam_t(), t.psi()), (42, 42, 1000));
        t.seal();
        assert_eq!(t.bytes(), &codec::encode_full_checkpoint(&st, &view)[..]);
    }

    #[test]
    fn a_dropped_ticket_returns_its_frame_for_reuse() {
        let pool = CowTickets::new(2, false);
        let st = demo_state(100, 8);
        let view = AuxView::NONE;
        pool.prime(&st, &view, &all(&st));
        assert_eq!(pool.built(), 1, "prime fills one frame");
        let mut t = pool
            .capture(&st, &view, &all(&st), false)
            .0
            .expect("primed frame is free");
        t.seal();
        let first = t.bytes().to_vec();
        let ptr = t.bytes().as_ptr();
        drop(t);
        // Second capture of a different state through the same frame.
        let mut st2 = demo_state(100, 9);
        st2.iteration = 77;
        let mut t = pool
            .capture(&st2, &view, &all(&st2), false)
            .0
            .expect("released frame is free");
        assert_eq!(t.bytes().as_ptr(), ptr, "the filled frame is reused first");
        t.seal();
        assert_eq!(t.bytes(), &codec::encode_full_checkpoint(&st2, &view)[..]);
        assert_ne!(t.bytes(), &first[..]);
        assert_eq!(pool.built(), 1, "one frame serves a store that keeps up");
    }

    #[test]
    fn first_lag_faults_in_the_whole_depth() {
        let st = demo_state(100, 11);
        let view = AuxView::NONE;
        for primed in [true, false] {
            let pool = CowTickets::new(3, false);
            if primed {
                pool.prime(&st, &view, &all(&st));
            }
            // A store that keeps up: each ticket drops before the next
            // capture, so one frame serves every capture.
            for _ in 0..3 {
                drop(pool.capture(&st, &view, &all(&st), false).0.unwrap());
            }
            assert_eq!(pool.built(), 1, "primed={primed}");
            // The store falls behind: a second capture while one is held.
            let held = pool.capture(&st, &view, &all(&st), false).0.unwrap();
            let mut lagging = pool.capture(&st, &view, &all(&st), false).0.unwrap();
            assert_eq!(pool.built(), 3, "primed={primed}");
            // The warmed frame carries a capture like any other.
            let mut st2 = demo_state(100, 12);
            st2.iteration = 9;
            let mut last = pool.capture(&st2, &view, &all(&st2), false).0.unwrap();
            assert_eq!(pool.built(), 3, "the warmed frame is reused");
            last.seal();
            assert_eq!(
                last.bytes(),
                &codec::encode_full_checkpoint(&st2, &view)[..]
            );
            lagging.seal();
            assert_eq!(
                lagging.bytes(),
                &codec::encode_full_checkpoint(&st, &view)[..]
            );
            drop(held);
        }
    }

    #[test]
    fn dry_pool_without_a_worker_returns_none_instead_of_waiting() {
        let pool = CowTickets::new(2, false);
        let st = demo_state(100, 10);
        let view = AuxView::NONE;
        let held: Vec<_> = (0..2)
            .map(|_| pool.capture(&st, &view, &all(&st), false).0.unwrap())
            .collect();
        assert_eq!(pool.built(), 2);
        assert!(
            pool.capture(&st, &view, &all(&st), false).0.is_none(),
            "depth bounds the pool"
        );
        drop(held);
        assert!(pool.capture(&st, &view, &all(&st), false).0.is_some());
        assert_eq!(pool.built(), 2);
    }
}
