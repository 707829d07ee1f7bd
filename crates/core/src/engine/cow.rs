//! Incremental copy-on-write snapshot capture.
//!
//! The blocking full-snapshot path ([`super::SnapshotSlots`]) stops the
//! training thread for a ~3Ψ `copy_from` every anchor — the dominant
//! residual stall now that encode is zero-copy and persist is striped. A
//! [`CowTicket`] removes that spike: [`CowTicket::reset`] only *frames*
//! the checkpoint (writes the v2 header and the small aux sections into
//! the final wire buffer, microseconds), and the 12Ψ bytes of params /
//! moments / residual are captured **chunk by chunk** afterwards, raced
//! between two parties:
//!
//! * the **copy-on-write hook** — the optimizer update copies each
//!   still-uncaptured chunk into the frame immediately before overwriting
//!   it ([`CowTicket::cow_range`]), so the snapshot always reflects the
//!   submit-instant values;
//! * the **sweeper** — the engine worker captures every cold chunk
//!   ([`CowTicket::sweep`]) while the training thread is off computing.
//!
//! Chunks land *directly at their wire offsets* (the frame layout is
//! fixed — [`lowdiff_storage::codec::full_frame_layout`]), so capture
//! **is** the streamed encode: once the last chunk lands the worker seals
//! the CRC and hands the finished blob to the striped/tiered persist
//! fan-out. By construction the sealed blob is **byte-identical** to what
//! `encode_full_checkpoint_into` would have produced from a blocking copy
//! at the submit instant — the `engine_equivalence` proptests pin that.
//!
//! ### Safety contract
//!
//! A ticket holds raw pointers into the live `ModelState` (and EF
//! residual). The submitter guarantees, until the capture completes
//! (`remaining() == 0`) or the ticket is re-`reset`:
//!
//! * the source buffers are neither freed nor reallocated;
//! * every mutation of a source region goes through
//!   [`CowTicket::cow_range`] first (or [`CowTicket::cow_all`] completes
//!   the capture before unhooked mutation).
//!
//! The trainer enforces this with a capture guard dropped *before* the
//! model state; direct engine users must keep the state alive across
//! engine drop (which joins the sweeping worker).

use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::{self, FullFrameLayout};
use lowdiff_tensor::chunked::{copy_f32_chunk_le, ChunkMap, ChunkStates};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Elements per capture chunk: matches the Adam kernel's parallel block
/// size (1 << 15 elements = 128 KiB), so a COW hook never straddles more
/// than one extra chunk per update block.
pub const COW_CHUNK_ELEMS: usize = 1 << 15;

/// A capturable source region of the checkpoint frame, named from the
/// mutator's point of view (the trainer knows *which array* it is about
/// to overwrite, not where that array lives in the wire image).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CowRegion {
    /// Model parameters.
    Params,
    /// Adam first moment.
    M,
    /// Adam second moment.
    V,
    /// Error-feedback residual (absent when the run has no EF).
    Residual,
}

/// One source region: where to read, where in the frame to write.
struct Region {
    src: *const f32,
    map: ChunkMap,
    /// Byte offset of the region inside the frame buffer.
    dst_off: usize,
    /// First global chunk index of this region.
    chunk_base: usize,
}

struct Setup {
    iteration: u64,
    regions: Vec<Region>,
    /// Index into `regions` per [`CowRegion`] discriminant; `None` when
    /// the region is absent from this capture (no EF residual).
    by_region: [Option<usize>; 4],
    start: Instant,
}

impl Default for Setup {
    fn default() -> Self {
        Self {
            iteration: 0,
            regions: Vec::new(),
            by_region: [None; 4],
            start: Instant::now(),
        }
    }
}

/// An in-flight incremental full-checkpoint capture: the framed wire
/// buffer plus the per-chunk capture state machine. Shared `Arc`-style
/// between the training thread (COW hooks) and the engine worker
/// (sweeper + seal); all cross-thread mutation is chunk-disjoint,
/// mediated by the [`ChunkStates`] CAS.
pub struct CowTicket {
    buf: UnsafeCell<Vec<u8>>,
    setup: Setup,
    states: ChunkStates,
    sealed: AtomicBool,
    cow_chunks: AtomicU64,
    sweep_chunks: AtomicU64,
}

// Safety: the raw source pointers are only dereferenced under the
// chunk-CAS protocol above (each chunk read by exactly one thread, and
// never concurrently with a mutation of the same chunk — the COW hook
// orders capture before overwrite); the frame buffer is written at
// chunk-disjoint offsets and only len-mutated (seal) after `remaining()`
// reaches 0.
unsafe impl Send for CowTicket {}
unsafe impl Sync for CowTicket {}

impl CowTicket {
    fn empty() -> Self {
        Self {
            buf: UnsafeCell::new(Vec::new()),
            setup: Setup::default(),
            states: ChunkStates::new(0),
            sealed: AtomicBool::new(false),
            cow_chunks: AtomicU64::new(0),
            sweep_chunks: AtomicU64::new(0),
        }
    }

    /// A ticket pre-sized for captures of `state` + `aux`: frame buffer,
    /// region list, and chunk state machine are all built at their final
    /// sizes, so the ticket's *first* `reset` is as allocation-free (and
    /// memset-free) as every later one (pool rotation means first-resets
    /// can land well past warmup). The buffer is fully *framed*, not just
    /// reserved: framing the empty buffer (room for the CRC seal included)
    /// faults its pages in at priming time and stamps the flags byte, so
    /// even the first `reset` takes
    /// [`codec::reframe_full_frame_into`]'s in-place fast path instead of
    /// the multi-MB placeholder zeroing.
    fn primed(state: &ModelState, aux: &AuxView<'_>) -> Self {
        let psi = state.params.len();
        let mut t = Self::empty();
        codec::reframe_full_frame_into(0, 0, psi, aux, t.buf.get_mut());
        t.setup.regions.reserve(4);
        let regions = 3 + usize::from(aux.residual.is_some());
        let chunks = ChunkMap::new(psi, COW_CHUNK_ELEMS).num_chunks();
        t.states = ChunkStates::new(regions * chunks);
        t
    }

    /// Frame a new capture of `state` + `aux` into this (exclusively
    /// held) ticket: write the v2 header and small aux sections at their
    /// final wire offsets, arm the chunk state machine, and remember
    /// where to read each region from. On a recycled (or [`primed`])
    /// ticket this is O(header) — the previous frame's region bytes stay
    /// in place and are overwritten chunk by chunk, so not even a memset
    /// of the Ψ-sized regions lands on the training thread.
    pub(crate) fn reset(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        let psi = state.params.len();
        let buf = self.buf.get_mut();
        let layout: FullFrameLayout =
            codec::reframe_full_frame_into(state.iteration, state.opt.t, psi, aux, buf);
        let map = ChunkMap::new(psi, COW_CHUNK_ELEMS);
        let chunks_per_region = map.num_chunks();
        // The region list is rebuilt in place (≤ 4 entries, capacity kept
        // across resets): a recycled ticket's reset stays allocation-free.
        self.setup.iteration = state.iteration;
        self.setup.by_region = [None; 4];
        self.setup.regions.clear();
        let residual = match (aux.residual, layout.residual_off) {
            (Some(r), Some(off)) => Some((CowRegion::Residual, r.as_ptr(), off)),
            _ => None,
        };
        let sources = [
            Some((CowRegion::Params, state.params.as_ptr(), layout.params_off)),
            Some((CowRegion::M, state.opt.m.as_ptr(), layout.m_off)),
            Some((CowRegion::V, state.opt.v.as_ptr(), layout.v_off)),
            residual,
        ];
        for (region, src, dst_off) in sources.into_iter().flatten() {
            let n = self.setup.regions.len();
            self.setup.by_region[region as usize] = Some(n);
            self.setup.regions.push(Region {
                src,
                map,
                dst_off,
                chunk_base: n * chunks_per_region,
            });
        }
        let total_chunks = self.setup.regions.len() * chunks_per_region;
        if self.states.len() == total_chunks {
            self.states.reset();
        } else {
            self.states = ChunkStates::new(total_chunks);
        }
        self.setup.start = Instant::now();
        self.sealed.store(false, Ordering::Relaxed);
        self.cow_chunks.store(0, Ordering::Relaxed);
        self.sweep_chunks.store(0, Ordering::Relaxed);
    }

    /// The iteration this capture snapshots (policies key persists off it).
    pub fn iteration(&self) -> u64 {
        self.setup.iteration
    }

    /// Chunks not yet captured. 0 means the frame is fully assembled.
    pub fn remaining(&self) -> usize {
        self.states.remaining()
    }

    /// When the capture was framed (worker-side duration telemetry).
    pub(crate) fn started(&self) -> Instant {
        self.setup.start
    }

    /// Chunks captured by the COW hook / the sweeper in this capture.
    pub fn chunk_counts(&self) -> (u64, u64) {
        (
            self.cow_chunks.load(Ordering::Relaxed),
            self.sweep_chunks.load(Ordering::Relaxed),
        )
    }

    /// Copy global chunk `idx` of region `r` into the frame. Caller must
    /// have won the CAS for `idx`.
    fn capture_chunk(&self, r: &Region, idx: usize) {
        let local = idx - r.chunk_base;
        let elems = r.map.range(local);
        // Safety (source): the submit contract keeps the source alive and
        // unmutated-for-this-chunk until `finish` below publishes it.
        let src = unsafe { std::slice::from_raw_parts(r.src.add(elems.start), elems.len()) };
        // Safety (destination): chunk byte ranges are disjoint per idx and
        // the buffer is never reallocated between reset and seal.
        let dst = unsafe {
            let buf = &mut *self.buf.get();
            std::slice::from_raw_parts_mut(
                buf.as_mut_ptr().add(r.dst_off + elems.start * 4),
                elems.len() * 4,
            )
        };
        copy_f32_chunk_le(src, dst);
        self.states.finish(idx);
    }

    /// Copy-on-write hook: ensure every chunk of `region` overlapping the
    /// element range `elems` is captured **before** the caller overwrites
    /// it. Uncaptured chunks are copied here (sub-millisecond slices on
    /// the training thread); chunks a concurrent sweeper is mid-copying
    /// are waited on. No-op for regions absent from this capture and for
    /// already-complete captures.
    pub fn cow_range(&self, region: CowRegion, elems: Range<usize>) {
        if self.remaining() == 0 {
            return;
        }
        let Some(ri) = self.setup.by_region[region as usize] else {
            return;
        };
        let r = &self.setup.regions[ri];
        for idx in r.map.chunks_overlapping(elems) {
            let idx = r.chunk_base + idx;
            if self.states.try_begin(idx) {
                self.capture_chunk(r, idx);
                self.cow_chunks.fetch_add(1, Ordering::Relaxed);
            } else {
                self.states.wait_captured(idx);
            }
        }
    }

    /// Complete the capture from the submitter's side (guard teardown /
    /// stale-ticket replacement): claim and copy every remaining chunk.
    /// After this returns the sources may be mutated or freed.
    pub fn cow_all(&self) {
        for r in &self.setup.regions {
            for idx in 0..r.map.num_chunks() {
                let idx = r.chunk_base + idx;
                if self.states.try_begin(idx) {
                    self.capture_chunk(r, idx);
                    self.cow_chunks.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.states.wait_captured(idx);
                }
            }
        }
    }

    /// Sweeper pass (engine worker): capture every still-cold chunk.
    /// Returns the number of chunks swept. After this returns the capture
    /// is complete (`remaining() == 0`).
    pub fn sweep(&self) -> u64 {
        let mut swept = 0;
        for r in &self.setup.regions {
            for idx in 0..r.map.num_chunks() {
                let idx = r.chunk_base + idx;
                if self.states.try_begin(idx) {
                    self.capture_chunk(r, idx);
                    swept += 1;
                } else {
                    self.states.wait_captured(idx);
                }
            }
        }
        self.sweep_chunks.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// Seal the completed frame with its CRC. Must only be called once
    /// per capture, after `remaining() == 0`.
    pub(crate) fn seal(&self) {
        assert_eq!(self.remaining(), 0, "seal before capture completed");
        assert!(
            !self.sealed.swap(true, Ordering::AcqRel),
            "double seal of a COW ticket"
        );
        // SAFETY: capture complete and the seal flag makes this the only
        // len-mutating access; framing reserved the CRC bytes so no
        // reallocation happens here.
        codec::seal_frame(unsafe { &mut *self.buf.get() });
    }

    /// The sealed wire blob — byte-identical to the blocking encoder's
    /// output for the captured state.
    pub fn sealed_bytes(&self) -> &[u8] {
        assert!(
            self.sealed.load(Ordering::Acquire),
            "sealed_bytes before seal"
        );
        // Safety: sealed tickets are read-only until the next reset.
        unsafe { &*self.buf.get() }
    }
}

/// Recycled COW tickets, mirroring [`super::SnapshotSlots`]: primed to
/// the pipeline depth on the first anchor (the frame buffer is reserved
/// to its final size once), then reused round-robin. A ticket is only
/// reusable when the pool holds its sole reference — both the submitter's
/// pending handle and the worker's job handle have been dropped.
pub(crate) struct CowTickets {
    slots: Mutex<Vec<Arc<CowTicket>>>,
    depth: usize,
    primed: AtomicBool,
}

impl CowTickets {
    /// Shallow bound like the snapshot-slot pool's (each ticket holds a
    /// full wire frame, ~12Ψ bytes), one deeper to cover the saturation
    /// head-start described at the spawn site.
    const MAX_DEPTH: usize = 5;

    pub(crate) fn new(pipeline_depth: usize) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            depth: pipeline_depth.clamp(1, Self::MAX_DEPTH),
            primed: AtomicBool::new(false),
        }
    }

    /// Fill the pool with `depth` tickets pre-sized (and page-touched)
    /// for captures shaped like `state` + `aux`. Idempotent; called
    /// eagerly before the first training iteration so no anchor pays the
    /// one-time allocation + page-fault cost, and again defensively from
    /// [`CowTickets::get_primed`].
    pub(crate) fn prime(&self, state: &ModelState, aux: &AuxView<'_>) {
        let mut slots = self.slots.lock();
        if !self.primed.swap(true, Ordering::Relaxed) {
            while slots.len() < self.depth {
                slots.push(Arc::new(CowTicket::primed(state, aux)));
            }
        }
    }

    /// Pop an exclusively-held ticket, priming the pool first in case no
    /// eager [`CowTickets::prime`] ran.
    pub(crate) fn get_primed(&self, state: &ModelState, aux: &AuxView<'_>) -> Arc<CowTicket> {
        self.prime(state, aux);
        let mut slots = self.slots.lock();
        // Exclusive = the pool's Arc is the only one left; in-flight
        // tickets (worker still persisting) are skipped.
        if let Some(pos) = slots.iter().position(|t| Arc::strong_count(t) == 1) {
            slots.swap_remove(pos)
        } else {
            Arc::new(CowTicket::empty())
        }
    }

    pub(crate) fn put(&self, t: Arc<CowTicket>) {
        let mut slots = self.slots.lock();
        if slots.len() < self.depth {
            slots.push(t);
        }
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

    #[test]
    fn sweep_only_capture_is_byte_identical_to_blocking_encode() {
        let st = demo_state(COW_CHUNK_ELEMS + 100, 5);
        let aux = AuxState {
            residual: Some(vec![0.25; st.params.len()]),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let view = aux.view();
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        assert!(t.remaining() > 0);
        assert_eq!(t.iteration(), 42);
        t.sweep();
        assert_eq!(t.remaining(), 0);
        t.seal();
        assert_eq!(t.sealed_bytes(), &blocking[..]);
        let (cow, swept) = t.chunk_counts();
        assert_eq!(cow, 0);
        assert_eq!(swept, 4 * 2); // 4 regions x 2 chunks each
    }

    #[test]
    fn cow_hook_preserves_submit_instant_values_under_mutation() {
        let mut st = demo_state(3 * COW_CHUNK_ELEMS, 6);
        let view = AuxView::NONE;
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        // Mutate params chunk 1 and m chunk 0, hooked: the hook captures
        // the pre-mutation bytes first.
        let r = COW_CHUNK_ELEMS..2 * COW_CHUNK_ELEMS;
        t.cow_range(CowRegion::Params, r.clone());
        for x in &mut st.params[r] {
            *x = -1.0;
        }
        t.cow_range(CowRegion::M, 0..10);
        for x in &mut st.opt.m[0..10] {
            *x = f32::NAN;
        }
        // Residual region absent: the hook is a no-op, not a panic.
        t.cow_range(CowRegion::Residual, 0..10);
        t.sweep();
        t.seal();
        assert_eq!(
            t.sealed_bytes(),
            &blocking[..],
            "COW capture must snapshot submit-instant values"
        );
        let (cow, swept) = t.chunk_counts();
        assert_eq!(cow, 2);
        assert_eq!(cow + swept, 9);
    }

    #[test]
    fn racing_hook_and_sweeper_still_byte_identical() {
        let st = demo_state(16 * COW_CHUNK_ELEMS / 16, 7); // 1 chunk/region
        let st = {
            let mut s = st;
            s.iteration = 9;
            s
        };
        let view = AuxView::NONE;
        let blocking = codec::encode_full_checkpoint(&st, &view);
        let mut t = CowTicket::empty();
        t.reset(&st, &view);
        let t = Arc::new(t);
        std::thread::scope(|scope| {
            let ts = Arc::clone(&t);
            scope.spawn(move || ts.sweep());
            t.cow_all();
        });
        assert_eq!(t.remaining(), 0);
        t.seal();
        assert_eq!(t.sealed_bytes(), &blocking[..]);
    }

    #[test]
    fn ticket_reuse_reframes_cleanly() {
        let pool = CowTickets::new(2);
        let st = demo_state(100, 8);
        let view = AuxView::NONE;
        let mut t = pool.get_primed(&st, &view);
        Arc::get_mut(&mut t).unwrap().reset(&st, &view);
        t.sweep();
        t.seal();
        let first = t.sealed_bytes().to_vec();
        pool.put(t);
        // Second capture of a different state through the same pool.
        let mut st2 = demo_state(100, 9);
        st2.iteration = 77;
        let mut t = pool.get_primed(&st2, &view);
        Arc::get_mut(&mut t)
            .expect("pooled ticket must be exclusive")
            .reset(&st2, &view);
        t.sweep();
        t.seal();
        assert_eq!(
            t.sealed_bytes(),
            &codec::encode_full_checkpoint(&st2, &view)[..]
        );
        assert_ne!(t.sealed_bytes(), &first[..]);
    }
}
