//! [`BatchedWriter`] — the batched gradient writing optimization of §4.2.
//!
//! The three steps of the paper's Figure "Batched gradient write":
//!
//! * **① Offload to CPU memory** — `push` takes ownership of the gradient
//!   handle and keeps the `Arc` itself in the buffer: offload is a
//!   refcount bump, never a payload copy. The handle (≙ the CUDA IPC
//!   handle) is released when the batch completes or is discarded, which
//!   is when the "GPU memory" frees. The writer tracks the buffered
//!   ("CPU-resident") bytes so Exp. 6(b)'s memory accounting is
//!   measurable.
//! * **② Batch in buffer** — entries accumulate until `batch_size`.
//! * **③ Single write** — the batch is flushed as one storage I/O,
//!   serialized straight from the shared handles by the one diff-batch
//!   encoder (`codec::encode_diff_batch_into`, which takes borrowed
//!   `(iteration, &gradient)` pairs): the payload is only ever
//!   materialized as wire bytes, never as an intermediate owned clone.
//!
//! Two batching modes:
//! * [`BatchMode::Concat`] (default) — entries are stored individually
//!   inside one blob; recovery replays each gradient through Adam →
//!   **exact**.
//! * [`BatchMode::Accumulate`] — entries are merged by sparse addition
//!   (the paper's "tensor addition"); one merged differential per batch →
//!   smaller & fewer merges at recovery, exact for additive deltas, lossy
//!   for Adam replay (see DESIGN.md).

use lowdiff_compress::{CompressedGrad, SparseGrad};
use lowdiff_storage::codec::{self, DiffEntry, ValueCodec};
use lowdiff_storage::CheckpointStore;
use std::io;
use std::sync::Arc;

/// A batch reduced to its storage bytes, ready for the persist stage.
/// Retried puts reuse the same bytes — encode happens once per batch.
pub struct EncodedBatch {
    /// First iteration the batch advances from.
    pub start: u64,
    /// Last iteration the batch advances from (inclusive).
    pub end: u64,
    /// The `codec::encode_diff_batch` image.
    pub bytes: Vec<u8>,
}

/// How a batch is reduced to bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Keep every differential; exact Adam replay at recovery.
    #[default]
    Concat,
    /// Merge sparse differentials by addition before writing.
    Accumulate,
}

/// A buffered differential: the iteration it advances from plus the shared
/// gradient handle, held until the batch is encoded or discarded.
struct BufferedDiff {
    iteration: u64,
    grad: Arc<CompressedGrad>,
}

/// CPU-side buffer that batches differential checkpoints into single writes.
pub struct BatchedWriter {
    batch_size: usize,
    mode: BatchMode,
    /// Value-plane wire format for encoded batches (v2 f32 or v3
    /// quantized). Survives runtime batch-size retuning via
    /// [`with_codec`](Self::with_codec) + [`value_codec`](Self::value_codec).
    value_codec: ValueCodec,
    buffer: Vec<BufferedDiff>,
    /// Bytes of gradients buffered in CPU memory (step-① accounting).
    cpu_resident_bytes: usize,
    /// Peak CPU buffer size observed.
    peak_cpu_bytes: usize,
    writes: u64,
    bytes_written: u64,
    diffs_in: u64,
}

impl BatchedWriter {
    pub fn new(batch_size: usize, mode: BatchMode) -> Self {
        Self::with_codec(batch_size, mode, ValueCodec::F32)
    }

    /// A writer whose batches are encoded with an explicit value codec
    /// ([`ValueCodec::F32`] is byte-identical to [`new`](Self::new)).
    pub fn with_codec(batch_size: usize, mode: BatchMode, value_codec: ValueCodec) -> Self {
        assert!(batch_size >= 1, "batch size must be >= 1");
        Self {
            batch_size,
            mode,
            value_codec,
            buffer: Vec::with_capacity(batch_size),
            cpu_resident_bytes: 0,
            peak_cpu_bytes: 0,
            writes: 0,
            bytes_written: 0,
            diffs_in: 0,
        }
    }

    /// The writer's value-plane wire format.
    pub fn value_codec(&self) -> ValueCodec {
        self.value_codec
    }

    /// Step ①+②: offload a gradient handle to the CPU buffer. Consumes the
    /// handle (the "GPU memory" is freed when the last `Arc` drops). Flushes
    /// automatically when the batch is full. Returns whether a write
    /// happened.
    pub fn push(
        &mut self,
        store: &CheckpointStore,
        iteration: u64,
        grad: Arc<CompressedGrad>,
    ) -> io::Result<bool> {
        self.offload(iteration, grad);
        if self.batch_ready() {
            self.flush(store)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Step ①+②: offload a gradient handle to the CPU buffer *without*
    /// writing — the buffer-only half of [`push`](Self::push), used by the
    /// engine pipeline (which owns the write decision and retry path).
    ///
    /// Zero-copy: the `Arc` handle itself is buffered (a refcount bump),
    /// so the payload is never cloned on the per-iteration path. The
    /// handle — and with it the "GPU memory" — is released when the batch
    /// is written ([`complete_write`](Self::complete_write)) or given up
    /// ([`discard_batch`](Self::discard_batch)).
    pub fn offload(&mut self, iteration: u64, grad: Arc<CompressedGrad>) {
        self.cpu_resident_bytes += grad.payload_bytes();
        self.peak_cpu_bytes = self.peak_cpu_bytes.max(self.cpu_resident_bytes);
        self.diffs_in += 1;
        self.buffer.push(BufferedDiff { iteration, grad });
    }

    /// A full batch is buffered and due for a write.
    pub fn batch_ready(&self) -> bool {
        self.buffer.len() >= self.batch_size
    }

    /// ENCODE half of step ③: reduce the buffered batch to its storage
    /// bytes (merging first in [`BatchMode::Accumulate`]) without touching
    /// the buffer — retries re-put the identical bytes instead of
    /// re-encoding. `None` when nothing is buffered. The caller completes
    /// the cycle with [`complete_write`](Self::complete_write) once the
    /// bytes are durable.
    pub fn encode_batch(&self) -> Option<EncodedBatch> {
        self.encode_batch_with(Vec::new())
    }

    /// [`encode_batch`](Self::encode_batch) into a caller-supplied (pooled)
    /// byte buffer, reusing its allocation for the write image. In
    /// [`BatchMode::Concat`] the gradients are serialized straight from
    /// the buffered `Arc` handles — no owned intermediate entries exist.
    /// Returns `None` (and drops the buffer) when nothing is buffered.
    pub fn encode_batch_with(&self, mut bytes: Vec<u8>) -> Option<EncodedBatch> {
        if self.buffer.is_empty() {
            return None;
        }
        // Build the write image without consuming the buffer.
        let merged: Option<Vec<DiffEntry>> = match self.mode {
            BatchMode::Concat => None,
            BatchMode::Accumulate => {
                // Merge consecutive sparse differentials into one.
                let first_iter = self.buffer[0].iteration;
                let last_iter = self.buffer.last().unwrap().iteration;
                let all_sparse: Option<Vec<&SparseGrad>> =
                    self.buffer.iter().map(|e| e.grad.as_sparse()).collect();
                match all_sparse {
                    Some(sparse) => {
                        let dense_len = sparse[0].dense_len;
                        let merged = SparseGrad::merge_all(dense_len, sparse);
                        // A merged batch is recorded as covering start..=end
                        // by synthesizing consecutive placeholder entries
                        // would break exactness bookkeeping; instead, keep a
                        // single entry at the *first* iteration and rely on
                        // the span encoded in the key. Entries after a merge
                        // carry the full span via iteration numbering below.
                        let mut out = Vec::with_capacity((last_iter - first_iter + 1) as usize);
                        out.push(DiffEntry {
                            iteration: first_iter,
                            grad: CompressedGrad::Sparse(merged),
                        });
                        // Pad with empty diffs so the store's consecutive-
                        // iteration invariant (and chain discovery) holds.
                        for it in (first_iter + 1)..=last_iter {
                            out.push(DiffEntry {
                                iteration: it,
                                grad: CompressedGrad::Sparse(SparseGrad::new(
                                    dense_len,
                                    Vec::new(),
                                    Vec::new(),
                                )),
                            });
                        }
                        Some(out)
                    }
                    // Mixed or non-sparse representations cannot be merged;
                    // fall back to concat.
                    None => None,
                }
            }
        };
        // The store's consecutive-iteration invariant, enforced before
        // encoding (pre-encoded bytes bypass `save_diff_batch`).
        let check_consecutive = |iters: &mut dyn Iterator<Item = u64>| {
            let mut prev: Option<u64> = None;
            for it in iters {
                if let Some(p) = prev {
                    assert_eq!(it, p + 1, "differential batch must be consecutive");
                }
                prev = Some(it);
            }
        };
        let (start, end) = match &merged {
            Some(entries) => {
                check_consecutive(&mut entries.iter().map(|e| e.iteration));
                let refs = entries.iter().map(|e| (e.iteration, &e.grad));
                codec::encode_diff_batch_into(refs, &self.value_codec, &mut bytes);
                (entries[0].iteration, entries.last().unwrap().iteration)
            }
            None => {
                check_consecutive(&mut self.buffer.iter().map(|e| e.iteration));
                codec::encode_diff_batch_into(
                    self.buffer.iter().map(|e| (e.iteration, &*e.grad)),
                    &self.value_codec,
                    &mut bytes,
                );
                (
                    self.buffer[0].iteration,
                    self.buffer.last().unwrap().iteration,
                )
            }
        };
        Some(EncodedBatch { start, end, bytes })
    }

    /// The batch whose [`encode_batch`](Self::encode_batch) bytes became
    /// durable: account the write and clear the buffer.
    pub fn complete_write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
        self.writes += 1;
        self.buffer.clear();
        self.cpu_resident_bytes = 0;
    }

    /// Step ③: write out whatever is buffered (no-op when empty).
    ///
    /// On error the batch **stays buffered**: the caller decides whether to
    /// retry (the engine's persist stage does, with backoff) or give up and
    /// [`discard_batch`](Self::discard_batch).
    pub fn flush(&mut self, store: &CheckpointStore) -> io::Result<()> {
        let Some(enc) = self.encode_batch() else {
            return Ok(());
        };
        store.put_diff_batch_bytes(enc.start, enc.end, &enc.bytes)?;
        self.complete_write(enc.bytes.len() as u64);
        Ok(())
    }

    /// Give up on the buffered batch after storage retries are exhausted:
    /// discard it and return how many differentials were lost. The dropped
    /// iterations become a gap in the chain, which recovery already bounds
    /// (`diff_chain_from` stops at the gap); the caller must schedule an
    /// early full checkpoint to re-anchor.
    pub fn discard_batch(&mut self) -> u64 {
        let n = self.buffer.len() as u64;
        self.buffer.clear();
        self.cpu_resident_bytes = 0;
        n
    }

    /// Differentials currently buffered (unwritten).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    pub fn mode(&self) -> BatchMode {
        self.mode
    }

    /// Writes issued so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes serialized so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Differentials accepted so far.
    pub fn diffs_in(&self) -> u64 {
        self.diffs_in
    }

    /// Current CPU-buffer occupancy in bytes.
    pub fn cpu_resident_bytes(&self) -> usize {
        self.cpu_resident_bytes
    }

    /// Peak CPU-buffer occupancy (Exp. 6(b)).
    pub fn peak_cpu_bytes(&self) -> usize {
        self.peak_cpu_bytes
    }

    /// Carry cumulative counters over from a retired writer (used when the
    /// runtime tuner swaps the batching size mid-run). The retired writer
    /// must already be flushed.
    pub fn inherit_counters(&mut self, old: &BatchedWriter) {
        assert!(old.buffer.is_empty(), "inherit from an unflushed writer");
        self.writes = old.writes;
        self.bytes_written = old.bytes_written;
        self.diffs_in = old.diffs_in;
        self.peak_cpu_bytes = old.peak_cpu_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_storage::MemoryBackend;

    fn store() -> CheckpointStore {
        CheckpointStore::new(Arc::new(MemoryBackend::new()))
    }

    fn sparse(_iter: u64, idx: u32, v: f32) -> Arc<CompressedGrad> {
        Arc::new(CompressedGrad::Sparse(SparseGrad::new(
            16,
            vec![idx],
            vec![v],
        )))
    }

    #[test]
    fn batches_reduce_write_count() {
        let st = store();
        let mut w = BatchedWriter::new(4, BatchMode::Concat);
        for t in 0..12u64 {
            w.push(&st, t, sparse(t, (t % 16) as u32, 1.0)).unwrap();
        }
        assert_eq!(w.writes(), 3, "12 diffs at BS=4 must be 3 writes");
        assert_eq!(w.diffs_in(), 12);
        assert_eq!(st.diff_keys().unwrap().len(), 3);
    }

    #[test]
    fn partial_batch_flushes_on_demand() {
        let st = store();
        let mut w = BatchedWriter::new(10, BatchMode::Concat);
        w.push(&st, 0, sparse(0, 1, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 2, 1.0)).unwrap();
        assert_eq!(w.writes(), 0);
        w.flush(&st).unwrap();
        assert_eq!(w.writes(), 1);
        let chain = st.diff_chain_from(0).unwrap();
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn concat_preserves_each_gradient() {
        let st = store();
        let mut w = BatchedWriter::new(3, BatchMode::Concat);
        for t in 0..3u64 {
            w.push(&st, t, sparse(t, t as u32, t as f32 + 1.0)).unwrap();
        }
        let chain = st.diff_chain_from(0).unwrap();
        assert_eq!(chain.len(), 3);
        for (t, e) in chain.iter().enumerate() {
            let s = e.grad.as_sparse().unwrap();
            assert_eq!(s.indices, vec![t as u32]);
            assert_eq!(s.values, vec![t as f32 + 1.0]);
        }
    }

    #[test]
    fn accumulate_merges_batch_into_one_differential() {
        let st = store();
        let mut w = BatchedWriter::new(3, BatchMode::Accumulate);
        w.push(&st, 0, sparse(0, 2, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 2, 2.0)).unwrap();
        w.push(&st, 2, sparse(2, 5, 4.0)).unwrap();
        let chain = st.diff_chain_from(0).unwrap();
        assert_eq!(chain.len(), 3, "padded entries keep the chain consecutive");
        let merged = chain[0].grad.as_sparse().unwrap();
        assert_eq!(merged.indices, vec![2, 5]);
        assert_eq!(merged.values, vec![3.0, 4.0]);
        assert_eq!(chain[1].grad.as_sparse().unwrap().nnz(), 0);
        assert_eq!(chain[2].grad.as_sparse().unwrap().nnz(), 0);
    }

    #[test]
    fn accumulate_writes_fewer_bytes_than_concat() {
        let mk = |mode| {
            let st = store();
            let mut w = BatchedWriter::new(5, mode);
            for t in 0..5u64 {
                // Heavy overlap in indices → accumulation wins.
                w.push(
                    &st,
                    t,
                    Arc::new(CompressedGrad::Sparse(SparseGrad::new(
                        1000,
                        (0..100).collect(),
                        vec![1.0; 100],
                    ))),
                )
                .unwrap();
            }
            w.bytes_written()
        };
        let concat = mk(BatchMode::Concat);
        let acc = mk(BatchMode::Accumulate);
        assert!(acc < concat / 3, "accumulate {acc} vs concat {concat}");
    }

    #[test]
    fn cpu_memory_accounting() {
        let st = store();
        let mut w = BatchedWriter::new(4, BatchMode::Concat);
        let per = sparse(0, 1, 1.0).payload_bytes();
        w.push(&st, 0, sparse(0, 1, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 1, 1.0)).unwrap();
        assert_eq!(w.cpu_resident_bytes(), 2 * per);
        w.push(&st, 2, sparse(2, 1, 1.0)).unwrap();
        w.push(&st, 3, sparse(3, 1, 1.0)).unwrap(); // triggers flush
        assert_eq!(w.cpu_resident_bytes(), 0, "flush must empty the buffer");
        assert_eq!(w.peak_cpu_bytes(), 4 * per);
    }

    #[test]
    fn handle_held_until_batch_completes() {
        // Offload is zero-copy: the writer buffers the Arc handle itself
        // (refcount 2 with the caller's observer) and releases it when the
        // batch is written — the "GPU memory freed" point moved from
        // offload time to batch-completion time.
        let st = store();
        let mut w = BatchedWriter::new(8, BatchMode::Concat);
        let g = sparse(0, 1, 1.0);
        let observer = Arc::clone(&g);
        w.push(&st, 0, g).unwrap();
        assert_eq!(
            Arc::strong_count(&observer),
            2,
            "writer must hold the handle, not a payload clone"
        );
        w.flush(&st).unwrap();
        assert_eq!(
            Arc::strong_count(&observer),
            1,
            "flush must release the handle"
        );
    }

    #[test]
    fn handle_released_on_discard() {
        let st = store();
        let mut w = BatchedWriter::new(8, BatchMode::Concat);
        let g = sparse(0, 1, 1.0);
        let observer = Arc::clone(&g);
        w.push(&st, 0, g).unwrap();
        assert_eq!(w.discard_batch(), 1);
        assert_eq!(Arc::strong_count(&observer), 1, "discard must release");
    }

    #[test]
    fn encode_batch_with_reuses_pooled_buffer() {
        let st = store();
        let mut w = BatchedWriter::new(8, BatchMode::Concat);
        w.push(&st, 0, sparse(0, 1, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 2, 2.0)).unwrap();
        let fresh = w.encode_batch().unwrap();
        let mut dirty = Vec::with_capacity(4096);
        dirty.extend_from_slice(&[0xAB; 1000]);
        let ptr = dirty.as_ptr();
        let pooled = w.encode_batch_with(dirty).unwrap();
        assert_eq!(pooled.bytes, fresh.bytes, "stale bytes leaked");
        assert_eq!(pooled.bytes.as_ptr(), ptr, "allocation was not reused");
        assert_eq!((pooled.start, pooled.end), (0, 1));
    }

    #[test]
    fn flush_empty_is_noop() {
        let st = store();
        let mut w = BatchedWriter::new(4, BatchMode::Concat);
        w.flush(&st).unwrap();
        assert_eq!(w.writes(), 0);
    }

    #[test]
    fn bytes_written_matches_stored_bytes_exactly() {
        // Regression: flush used to serialize the batch once for byte
        // accounting and a second time inside save_diff_batch. The counter
        // must equal what actually landed in storage, byte for byte.
        let st = store();
        let mut w = BatchedWriter::new(3, BatchMode::Concat);
        for t in 0..7u64 {
            w.push(&st, t, sparse(t, (t % 16) as u32, 0.5)).unwrap();
        }
        w.flush(&st).unwrap();
        let stored: u64 = st
            .diff_keys()
            .unwrap()
            .iter()
            .map(|k| st.backend().get(&k.key).unwrap().len() as u64)
            .sum();
        assert_eq!(w.bytes_written(), stored);
    }

    #[test]
    fn failed_flush_keeps_batch_for_retry() {
        use lowdiff_storage::{FaultConfig, FaultyBackend};
        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let st =
            CheckpointStore::new(Arc::clone(&faulty) as Arc<dyn lowdiff_storage::StorageBackend>);
        let mut w = BatchedWriter::new(8, BatchMode::Concat);
        w.push(&st, 0, sparse(0, 1, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 2, 2.0)).unwrap();
        faulty.fail_next_puts(1);
        assert!(w.flush(&st).is_err());
        assert_eq!(w.buffered(), 2, "batch must survive a failed write");
        assert!(w.cpu_resident_bytes() > 0);
        // The retry writes the identical, still-consecutive batch.
        w.flush(&st).unwrap();
        assert_eq!(w.buffered(), 0);
        assert_eq!(st.diff_chain_from(0).unwrap().len(), 2);
    }

    #[test]
    fn discard_batch_counts_and_clears() {
        let st = store();
        let mut w = BatchedWriter::new(8, BatchMode::Concat);
        w.push(&st, 0, sparse(0, 1, 1.0)).unwrap();
        w.push(&st, 1, sparse(1, 2, 2.0)).unwrap();
        w.push(&st, 2, sparse(2, 3, 3.0)).unwrap();
        assert_eq!(w.discard_batch(), 3);
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.cpu_resident_bytes(), 0);
        w.flush(&st).unwrap();
        assert_eq!(w.writes(), 0, "nothing left to write after discard");
    }
}
