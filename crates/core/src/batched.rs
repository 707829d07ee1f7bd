//! [`BatchedWriter`] — the engine's differential batch buffer, the
//! batched gradient writing optimization of §4.2.
//!
//! The three steps of the paper's Figure "Batched gradient write":
//!
//! * **① Offload to CPU memory** — [`BatchedWriter::offload`] takes
//!   ownership of the gradient handle and keeps the `Arc` itself in the
//!   buffer: offload is a refcount bump, never a payload copy. The handle
//!   (≙ the CUDA IPC handle) is released when the batch completes or is
//!   discarded, which is when the "GPU memory" frees. The writer tracks the
//!   buffered ("CPU-resident") bytes so Exp. 6(b)'s memory accounting is
//!   measurable.
//! * **② Batch in buffer** — entries accumulate until `batch_size`.
//! * **③ Single write** — [`crate::engine::EngineCtx::persist_batch`]
//!   encodes the batch once with [`BatchedWriter::encode_batch_with`],
//!   straight from the shared handles through the one diff-batch encoder
//!   (`codec::encode_diff_batch_into`), and fans it across the tier stack
//!   as one storage I/O. Every entry stays its own differential, so
//!   recovery replays each gradient through Adam exactly.
//!
//! The writer only buffers and encodes; the engine owns the write, its
//! retries and the write ledger ([`crate::strategy::StrategyStats`]).

use lowdiff_compress::CompressedGrad;
use lowdiff_storage::codec::{self, ValueCodec};
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

/// A buffered differential: the iteration it advances from plus the shared
/// gradient handle, held until the batch is encoded or discarded.
struct BufferedDiff {
    iteration: u64,
    grad: Arc<CompressedGrad>,
}

/// CPU-side buffer that batches differential checkpoints into single writes.
pub struct BatchedWriter {
    batch_size: usize,
    /// Value-plane wire format for encoded batches (v2 f32 or v3
    /// quantized).
    value_codec: ValueCodec,
    buffer: Vec<BufferedDiff>,
    /// Bytes of gradients buffered in CPU memory (step-① accounting).
    cpu_resident_bytes: usize,
    /// Peak CPU buffer size observed.
    peak_cpu_bytes: usize,
}

impl BatchedWriter {
    /// A writer that batches `batch_size` differentials per write, encoding
    /// their values with `value_codec`.
    pub fn new(batch_size: usize, value_codec: ValueCodec) -> Self {
        assert!(batch_size >= 1, "batch size must be >= 1");
        Self {
            batch_size,
            value_codec,
            buffer: Vec::with_capacity(batch_size),
            cpu_resident_bytes: 0,
            peak_cpu_bytes: 0,
        }
    }

    /// Step ①+②: offload a gradient handle to the CPU buffer *without*
    /// writing — the persist stage owns the write decision and retry path.
    ///
    /// Zero-copy: the `Arc` handle itself is buffered (a refcount bump),
    /// so the payload is never cloned on the per-iteration path. The
    /// handle — and with it the "GPU memory" — is released when the batch
    /// is written ([`complete_write`](Self::complete_write)) or given up
    /// ([`discard_batch`](Self::discard_batch)).
    pub fn offload(&mut self, iteration: u64, grad: Arc<CompressedGrad>) {
        self.cpu_resident_bytes += grad.payload_bytes();
        self.peak_cpu_bytes = self.peak_cpu_bytes.max(self.cpu_resident_bytes);
        self.buffer.push(BufferedDiff { iteration, grad });
    }

    /// A full batch is buffered and due for a write.
    pub fn batch_ready(&self) -> bool {
        self.buffer.len() >= self.batch_size
    }

    /// ENCODE half of step ③: serialize the buffered batch into a
    /// caller-supplied (pooled) byte buffer, reusing its allocation for the
    /// write image, straight from the buffered `Arc` handles — no owned
    /// intermediate entries exist. The buffer itself is untouched, so
    /// retries re-put the identical bytes instead of re-encoding. Returns
    /// `None` (and drops `bytes`) when nothing is buffered. The caller
    /// completes the cycle with [`complete_write`](Self::complete_write)
    /// once the bytes are durable.
    pub fn encode_batch_with(&self, mut bytes: Vec<u8>) -> Option<EncodedBatch> {
        let (first, last) = (self.buffer.first()?, self.buffer.last()?);
        // The store's consecutive-iteration invariant, enforced before
        // encoding (pre-encoded bytes bypass `save_diff_batch`).
        for w in self.buffer.windows(2) {
            assert_eq!(
                w[1].iteration,
                w[0].iteration + 1,
                "differential batch must be consecutive"
            );
        }
        codec::encode_diff_batch_into(
            self.buffer.iter().map(|e| (e.iteration, &*e.grad)),
            &self.value_codec,
            &mut bytes,
        );
        Some(EncodedBatch {
            start: first.iteration,
            end: last.iteration,
            bytes,
        })
    }

    /// The encoded batch became durable: release its handles.
    pub fn complete_write(&mut self) {
        self.buffer.clear();
        self.cpu_resident_bytes = 0;
    }

    /// Give up on the buffered batch after storage retries are exhausted:
    /// discard it and return how many differentials were lost. The dropped
    /// iterations become a gap in the chain, which recovery already bounds
    /// (`diff_chain_from` stops at the gap); the caller must schedule an
    /// early full checkpoint to re-anchor.
    pub fn discard_batch(&mut self) -> u64 {
        let n = self.buffer.len() as u64;
        self.complete_write();
        n
    }

    /// Retune the batching size. Call on an empty buffer (after the
    /// in-flight batch is written) so differential chains stay consecutive
    /// at batch boundaries.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        assert!(batch_size >= 1, "batch size must be >= 1");
        self.batch_size = batch_size;
    }

    /// Current CPU-buffer occupancy in bytes.
    pub fn cpu_resident_bytes(&self) -> usize {
        self.cpu_resident_bytes
    }

    /// Peak CPU-buffer occupancy (Exp. 6(b)).
    pub fn peak_cpu_bytes(&self) -> usize {
        self.peak_cpu_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_compress::SparseGrad;
    use lowdiff_storage::codec::decode_diff_batch;

    fn sparse(idx: u32, v: f32) -> Arc<CompressedGrad> {
        Arc::new(CompressedGrad::Sparse(SparseGrad::new(
            16,
            vec![idx],
            vec![v],
        )))
    }

    fn encode(w: &BatchedWriter) -> Option<EncodedBatch> {
        w.encode_batch_with(Vec::new())
    }

    #[test]
    fn batch_is_ready_at_its_size_and_retunes() {
        let mut w = BatchedWriter::new(3, ValueCodec::F32);
        for t in 0..2u64 {
            w.offload(t, sparse(t as u32, 1.0));
            assert!(!w.batch_ready());
        }
        w.offload(2, sparse(2, 1.0));
        assert!(w.batch_ready(), "3 diffs at BS=3 make a batch");
        w.complete_write();
        w.set_batch_size(1);
        w.offload(3, sparse(3, 1.0));
        assert!(
            w.batch_ready(),
            "the retuned size applies to the next batch"
        );
    }

    #[test]
    fn encode_keeps_each_gradient_and_its_span() {
        let mut w = BatchedWriter::new(10, ValueCodec::F32);
        for t in 5..8u64 {
            w.offload(t, sparse(t as u32, t as f32 + 1.0));
        }
        let enc = encode(&w).expect("a partial batch encodes on demand");
        assert_eq!((enc.start, enc.end), (5, 7));
        let entries = decode_diff_batch(&enc.bytes).unwrap();
        assert_eq!(entries.len(), 3);
        for (e, t) in entries.iter().zip(5u32..) {
            assert_eq!(e.iteration, t as u64);
            let s = e.grad.as_sparse().unwrap();
            assert_eq!(s.indices, vec![t]);
            assert_eq!(s.values, vec![t as f32 + 1.0]);
        }
    }

    #[test]
    fn cpu_memory_accounting() {
        let mut w = BatchedWriter::new(4, ValueCodec::F32);
        let per = sparse(1, 1.0).payload_bytes();
        for t in 0..4u64 {
            w.offload(t, sparse(1, 1.0));
        }
        assert_eq!(w.cpu_resident_bytes(), 4 * per);
        w.complete_write();
        assert_eq!(
            w.cpu_resident_bytes(),
            0,
            "a written batch leaves the buffer"
        );
        w.offload(4, sparse(1, 1.0));
        assert_eq!(w.peak_cpu_bytes(), 4 * per);
    }

    #[test]
    fn handle_held_until_batch_completes() {
        // Offload is zero-copy: the writer buffers the Arc handle itself
        // (refcount 2 with the caller's observer) and releases it when the
        // batch is written — the "GPU memory freed" point moved from
        // offload time to batch-completion time.
        let mut w = BatchedWriter::new(8, ValueCodec::F32);
        let g = sparse(1, 1.0);
        let observer = Arc::clone(&g);
        w.offload(0, g);
        assert_eq!(
            Arc::strong_count(&observer),
            2,
            "writer must hold the handle, not a payload clone"
        );
        encode(&w).unwrap();
        assert_eq!(Arc::strong_count(&observer), 2, "encode must not release");
        w.complete_write();
        assert_eq!(
            Arc::strong_count(&observer),
            1,
            "a completed write must release the handle"
        );
    }

    #[test]
    fn encode_batch_with_reuses_pooled_buffer() {
        let mut w = BatchedWriter::new(8, ValueCodec::F32);
        w.offload(0, sparse(1, 1.0));
        w.offload(1, sparse(2, 2.0));
        let fresh = encode(&w).unwrap();
        let mut dirty = Vec::with_capacity(4096);
        dirty.extend_from_slice(&[0xAB; 1000]);
        let ptr = dirty.as_ptr();
        let pooled = w.encode_batch_with(dirty).unwrap();
        assert_eq!(pooled.bytes, fresh.bytes, "stale bytes leaked");
        assert_eq!(pooled.bytes.as_ptr(), ptr, "allocation was not reused");
        assert_eq!((pooled.start, pooled.end), (0, 1));
        assert_eq!(
            encode(&w).unwrap().bytes,
            fresh.bytes,
            "a retry re-puts the identical bytes"
        );
    }

    #[test]
    fn empty_buffer_encodes_nothing() {
        assert!(encode(&BatchedWriter::new(4, ValueCodec::F32)).is_none());
    }

    #[test]
    fn discard_batch_counts_releases_and_clears() {
        let mut w = BatchedWriter::new(8, ValueCodec::F32);
        let g = sparse(1, 1.0);
        let observer = Arc::clone(&g);
        w.offload(0, g);
        w.offload(1, sparse(2, 2.0));
        w.offload(2, sparse(3, 3.0));
        assert_eq!(w.discard_batch(), 3);
        assert_eq!(Arc::strong_count(&observer), 1, "discard must release");
        assert_eq!(w.cpu_resident_bytes(), 0);
        assert!(encode(&w).is_none(), "nothing left to write after discard");
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn non_consecutive_batch_is_rejected() {
        let mut w = BatchedWriter::new(8, ValueCodec::F32);
        w.offload(0, sparse(1, 1.0));
        w.offload(2, sparse(2, 1.0));
        encode(&w);
    }
}
