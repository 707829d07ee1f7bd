//! [`CheckpointStore`]: naming, discovery and garbage collection of full
//! and differential checkpoints on any [`StorageBackend`].
//!
//! Key scheme (lexicographically ordered == chronologically ordered):
//!
//! * `full-0000000042.ckpt`          — full checkpoint of `M_42`
//! * `diff-0000000042-0000000045.ckpt` — batched differentials advancing
//!   `M_42 → M_46` (iterations 42..=45, one reused gradient each)
//!
//! Striped checkpoints (see [`crate::stripe`]) use a two-blob layout per
//! checkpoint: the data object (`.sd.ckpt`, written as N concurrent
//! ranged stripes) and the manifest (`.sm.ckpt`, written last — the seal):
//!
//! * `full-0000000042.sd.ckpt` / `full-0000000042.sm.ckpt`
//! * `diff-0000000042-0000000045.sd.ckpt` / `…sm.ckpt`
//!
//! This module is the only one that knows the pair. Every caller names a
//! checkpoint object by its canonical key ([`CheckpointStore::full_key`],
//! [`CheckpointStore::diff_key`]) whichever layout stores it, and reads it
//! with [`CheckpointStore::get_object`].
//!
//! Discovery treats a striped checkpoint as present iff its **manifest**
//! exists; load additionally requires every stripe CRC to verify. A data
//! object with no manifest is a crashed write — invisible to recovery,
//! listed by [`CheckpointStore::unsealed`] and reclaimed by
//! [`CheckpointStore::sweep_unsealed`].
//!
//! Recovery = latest *valid* (CRC-checked) full checkpoint + every valid
//! differential chain after it, in order (Equation 2).

use crate::backend::StorageBackend;
use crate::codec::{self, DiffEntry, FullCheckpoint};
use crate::retry::{with_retry_if, RetryPolicy};
use crate::stripe::{self, StripeManifest};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Manages checkpoint blobs on a backend.
pub struct CheckpointStore {
    backend: Arc<dyn StorageBackend>,
    /// Total read-side retries spent (attempts beyond the first).
    read_retries: AtomicU64,
}

/// A listed differential batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffKey {
    /// First iteration this batch advances from.
    pub start: u64,
    /// Last iteration this batch advances from (inclusive).
    pub end: u64,
    /// The canonical key ([`CheckpointStore::diff_key`]), whichever layout
    /// stores the batch.
    pub key: String,
    /// Stored as a sealed striped pair rather than one blob.
    striped: bool,
}

impl CheckpointStore {
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        Self {
            backend,
            read_retries: AtomicU64::new(0),
        }
    }

    /// Total read-side retries spent so far (attempts beyond the first).
    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Canonical key of a full checkpoint, whichever layout stores it (an
    /// unstriped full is the blob of this name). Public so non-store
    /// transports (peer replication) lay replicas out in the exact key
    /// space the recovery walkers expect.
    pub fn full_key(iteration: u64) -> String {
        format!("full-{iteration:010}.ckpt")
    }

    /// Canonical key of a differential batch (see
    /// [`CheckpointStore::full_key`]).
    pub fn diff_key(start: u64, end: u64) -> String {
        format!("diff-{start:010}-{end:010}.ckpt")
    }

    /// Canonical key of a stitched-global manifest (cluster mode): the
    /// coordinator-written seal record over every rank's shard full.
    pub fn global_key(iteration: u64) -> String {
        format!("global-{iteration:010}.gm.ckpt")
    }

    /// Seal a global checkpoint: writing the manifest is the visibility
    /// point, exactly like the LDSM stripe seal — shard blobs without a
    /// decodable manifest are invisible to cluster recovery.
    pub fn put_global_manifest(&self, manifest: &crate::shard::GlobalManifest) -> io::Result<()> {
        self.backend
            .put(&Self::global_key(manifest.iteration), &manifest.encode())
    }

    /// Iterations with a global manifest blob present, ascending (the
    /// blob may still fail its CRC on read; walkers skip those).
    pub fn global_iterations(&self) -> io::Result<Vec<u64>> {
        let mut out: Vec<u64> = self
            .backend
            .list()?
            .iter()
            .filter_map(|k| {
                k.strip_prefix("global-")?
                    .strip_suffix(".gm.ckpt")?
                    .parse()
                    .ok()
            })
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Load and validate the global manifest sealed at `iteration`.
    pub fn get_global_manifest(&self, iteration: u64) -> io::Result<crate::shard::GlobalManifest> {
        crate::shard::GlobalManifest::decode(&self.get_retried(&Self::global_key(iteration))?)
    }

    /// The newest decodable global manifest, walking backwards past any
    /// torn/corrupt blobs (same contract as
    /// [`CheckpointStore::latest_valid_full_checkpoint`]).
    pub fn latest_global_manifest(&self) -> io::Result<Option<crate::shard::GlobalManifest>> {
        for iter in self.global_iterations()?.into_iter().rev() {
            if let Ok(m) = self.get_global_manifest(iter) {
                return Ok(Some(m));
            }
        }
        Ok(None)
    }

    /// The striped layout of the checkpoint object with canonical key
    /// `key` (`….ckpt`): the data object (`….sd.ckpt`) and the manifest
    /// that seals it (`….sm.ckpt`).
    fn striped_pair(key: &str) -> (String, String) {
        let base = key.strip_suffix(".ckpt").unwrap_or(key);
        (format!("{base}.sd.ckpt"), format!("{base}.sm.ckpt"))
    }

    /// Persist a full checkpoint of `state` (encode + put in one call).
    /// Written without auxiliary state — resume from it is lossy for
    /// error-feedback runs; prefer [`save_full_with_aux`](Self::save_full_with_aux)
    /// on the training path.
    pub fn save_full(&self, state: &ModelState) -> io::Result<()> {
        let bytes = codec::encode_model_state(state);
        self.put_full(state.iteration, &bytes)
    }

    /// Persist a full checkpoint together with the auxiliary training state
    /// (error-feedback residual, compressor config, RNG cursor) that makes
    /// resume bit-exact.
    pub fn save_full_with_aux(&self, state: &ModelState, aux: &AuxView<'_>) -> io::Result<()> {
        let bytes = codec::encode_full_checkpoint(state, aux);
        self.put_full(state.iteration, &bytes)
    }

    /// Store pre-encoded full-checkpoint bytes under the canonical key.
    /// Lets a pipelined writer time (and retry) the put separately from
    /// the encode without re-encoding per attempt.
    pub fn put_full(&self, iteration: u64, bytes: &[u8]) -> io::Result<()> {
        self.backend.put(&Self::full_key(iteration), bytes)
    }

    /// Persist a batch of differential checkpoints. Entries must be
    /// consecutive by iteration. Returns the number of bytes written, so
    /// callers can account I/O without re-encoding the batch.
    pub fn save_diff_batch(&self, entries: &[DiffEntry]) -> io::Result<u64> {
        assert!(!entries.is_empty(), "empty differential batch");
        for w in entries.windows(2) {
            assert_eq!(
                w[1].iteration,
                w[0].iteration + 1,
                "differential batch must be consecutive"
            );
        }
        let (start, end) = (entries[0].iteration, entries.last().unwrap().iteration);
        let bytes = codec::encode_diff_batch(entries);
        self.backend.put(&Self::diff_key(start, end), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Write the encoded checkpoint object `key` in the striped layout:
    /// its data object as `stripes` concurrent ranged writes. The object
    /// is NOT yet visible to recovery — [`seal_striped`](Self::seal_striped)
    /// must write the manifest to seal it. Per-stripe retries run under
    /// `retry` and are summed in the returned outcome.
    pub fn put_striped(
        &self,
        key: &str,
        bytes: &[u8],
        stripes: usize,
        retry: &RetryPolicy,
    ) -> stripe::StripedData {
        let (data_key, _) = Self::striped_pair(key);
        stripe::put_striped_data(&*self.backend, &data_key, bytes, stripes, retry)
    }

    /// Seal the striped object `key`: the manifest put that makes it
    /// durable. Recovery sees the object from this moment on.
    pub fn seal_striped(&self, key: &str, manifest: &StripeManifest) -> io::Result<()> {
        let (_, manifest_key) = Self::striped_pair(key);
        self.backend
            .put(&manifest_key, &stripe::encode_manifest(manifest))
    }

    /// Crash-injection: a power cut midway through a striped write of
    /// `key` — some stripes land (one torn), nothing is finished or sealed.
    pub fn put_striped_torn(&self, key: &str, bytes: &[u8], stripes: usize) {
        let (data_key, _) = Self::striped_pair(key);
        stripe::put_striped_torn(&*self.backend, &data_key, bytes, stripes);
    }

    /// Striped data objects whose manifest never landed — the remains of
    /// writes that crashed between the stripe fan-out and the seal.
    /// Invisible to recovery by construction; listing only (one `list`),
    /// [`sweep_unsealed`](Self::sweep_unsealed) deletes them.
    pub fn unsealed(&self) -> io::Result<Vec<String>> {
        let keys = self.backend.list()?;
        let unsealed = |k: &&String| {
            k.strip_suffix(".sd.ckpt")
                .is_some_and(|base| !keys.contains(&Self::striped_pair(&format!("{base}.ckpt")).1))
        };
        Ok(keys.iter().filter(unsealed).cloned().collect())
    }

    /// Delete every [`unsealed`](Self::unsealed) data object, reclaiming
    /// its space like the `.tmp-` sweep in `DiskBackend::new`. Returns the
    /// number of objects removed.
    pub fn sweep_unsealed(&self) -> io::Result<usize> {
        let keys = self.unsealed()?;
        for k in &keys {
            self.backend.delete(k)?;
        }
        Ok(keys.len())
    }

    /// Read the checkpoint object with canonical key `key` in whichever
    /// layout stores it: the plain blob, or — when there is none — the
    /// striped data object, returned only once its manifest decodes and
    /// every stripe CRC verifies. The payload is not decoded.
    pub fn get_object(&self, key: &str) -> io::Result<Vec<u8>> {
        match self.get_retried(key) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.get_striped(key),
            read => read,
        }
    }

    /// Read and fully validate the striped object `key`: manifest CRC,
    /// stripe coverage, and every stripe CRC must pass before the
    /// reassembled bytes are returned.
    fn get_striped(&self, key: &str) -> io::Result<Vec<u8>> {
        let inv =
            |e: crate::codec::CodecError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let (data_key, manifest_key) = Self::striped_pair(key);
        let manifest = stripe::decode_manifest(&self.get_retried(&manifest_key)?).map_err(inv)?;
        let data = self.get_retried(&data_key)?;
        stripe::validate(&data, &manifest).map_err(inv)?;
        Ok(data)
    }

    /// Iterations of all stored full checkpoints (sorted ascending),
    /// *without* validating their contents. A striped full counts iff its
    /// manifest exists (the seal — an unsealed data object is invisible).
    pub fn full_iterations(&self) -> io::Result<Vec<u64>> {
        let mut out: Vec<u64> = self
            .backend
            .list()?
            .iter()
            .filter_map(|k| {
                let body = k.strip_prefix("full-")?;
                let iter = body
                    .strip_suffix(".ckpt")
                    .and_then(|b| b.strip_suffix(".sm").or(Some(b)))?;
                iter.parse().ok()
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// All differential batches (sorted by start iteration), each under
    /// its canonical key. A striped batch is listed iff its manifest
    /// exists.
    pub fn diff_keys(&self) -> io::Result<Vec<DiffKey>> {
        let mut out: Vec<DiffKey> = self
            .backend
            .list()?
            .iter()
            .filter_map(|k| {
                let body = k.strip_prefix("diff-")?.strip_suffix(".ckpt")?;
                let (body, striped) = match body.strip_suffix(".sm") {
                    Some(b) => (b, true),
                    None => (body, false),
                };
                let (s, e) = body.split_once('-')?;
                let (start, end) = (s.parse().ok()?, e.parse().ok()?);
                Some(DiffKey {
                    start,
                    end,
                    key: Self::diff_key(start, end),
                    striped,
                })
            })
            .collect();
        out.sort_by_key(|d| d.start);
        Ok(out)
    }

    /// Load and CRC-validate a specific full checkpoint (model state only).
    pub fn load_full(&self, iteration: u64) -> io::Result<ModelState> {
        self.load_full_checkpoint(iteration).map(|fc| fc.state)
    }

    /// Load and CRC-validate a specific full checkpoint, in either layout
    /// (see [`get_object`](Self::get_object)), including any auxiliary
    /// training state the blob carries.
    pub fn load_full_checkpoint(&self, iteration: u64) -> io::Result<FullCheckpoint> {
        let bytes = self.get_object(&Self::full_key(iteration))?;
        codec::decode_full_checkpoint(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// `get` with transient-error retries via the shared [`RetryPolicy`]
    /// machinery: a flaky read (`Interrupted`, the kind transient storage
    /// faults surface as) must not demote recovery to an older checkpoint
    /// when a backed-off re-read would have succeeded. Definitive errors
    /// (`NotFound`, corrupt data surfacing later) are not retried.
    fn get_retried(&self, key: &str) -> io::Result<Vec<u8>> {
        let r = with_retry_if(
            &RetryPolicy::default(),
            || self.backend.get(key),
            |e| e.kind() == io::ErrorKind::Interrupted,
        );
        self.read_retries
            .fetch_add(u64::from(r.retries), Ordering::Relaxed);
        r.result
    }

    /// The newest full checkpoint that passes CRC validation. Corrupt (torn)
    /// checkpoints are skipped, and so are persistently unreadable ones —
    /// this is the recovery entry point, and it degrades to an older
    /// checkpoint rather than erroring out.
    pub fn latest_valid_full(&self) -> io::Result<Option<ModelState>> {
        Ok(self.latest_valid_full_checkpoint()?.map(|fc| fc.state))
    }

    /// Like [`latest_valid_full`](Self::latest_valid_full), but returns the
    /// full checkpoint including auxiliary state — the resume entry point.
    pub fn latest_valid_full_checkpoint(&self) -> io::Result<Option<FullCheckpoint>> {
        for iter in self.full_iterations()?.into_iter().rev() {
            match self.load_full_checkpoint(iter) {
                Ok(fc) => return Ok(Some(fc)),
                Err(e) if unreadable_blob(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Load every valid differential entry with `iteration >= from`,
    /// in iteration order, stopping at the first gap (a missing, corrupt or
    /// persistently interrupted batch breaks the replay chain — later diffs
    /// are unusable). Any other read error is returned, as
    /// [`latest_valid_full_checkpoint`](Self::latest_valid_full_checkpoint)
    /// does: the store itself is failing, and a tiered resume moves on to
    /// its next source rather than replaying a silently shortened chain.
    pub fn diff_chain_from(&self, from: u64) -> io::Result<Vec<DiffEntry>> {
        let mut chain: Vec<DiffEntry> = Vec::new();
        let mut next = from;
        for dk in self.diff_keys()? {
            if dk.end < next {
                continue; // already covered by the full checkpoint
            }
            // The listing knows the layout, so no probe read: a striped
            // batch gets the fully validated read, and any stripe failing
            // its CRC ends the chain exactly like a torn plain blob.
            let read = if dk.striped {
                self.get_striped(&dk.key)
            } else {
                self.get_retried(&dk.key)
            };
            let bytes = match read {
                Ok(bytes) => bytes,
                Err(e) if unreadable_blob(&e) => break,
                Err(e) => return Err(e),
            };
            let Ok(entries) = codec::decode_diff_batch(&bytes) else {
                break; // torn batch: chain ends here
            };
            for e in entries {
                if e.iteration < next {
                    continue;
                }
                if e.iteration != next {
                    return Ok(chain); // gap: stop
                }
                chain.push(e);
                next += 1;
            }
        }
        Ok(chain)
    }

    /// Delete all checkpoints strictly older than `keep_from` (both full
    /// checkpoints and differential batches entirely before it). Returns
    /// the number of blobs removed.
    pub fn gc_before(&self, keep_from: u64) -> io::Result<usize> {
        let mut removed = 0;
        let mut listed: HashSet<String> = self.backend.list()?.into_iter().collect();
        // An object may exist in either layout; the manifest goes first so
        // a crash mid-GC never leaves a sealed manifest pointing at
        // deleted data.
        let mut drop_object = |key: &str| -> io::Result<()> {
            let (data_key, manifest_key) = Self::striped_pair(key);
            for k in [manifest_key.as_str(), data_key.as_str(), key] {
                if listed.remove(k) {
                    self.backend.delete(k)?;
                    removed += 1;
                }
            }
            Ok(())
        };
        for iter in self.full_iterations()? {
            if iter < keep_from {
                drop_object(&Self::full_key(iter))?;
            }
        }
        for dk in self.diff_keys()? {
            if dk.end < keep_from {
                drop_object(&dk.key)?;
            }
        }
        Ok(removed)
    }
}

/// A read error that condemns only the blob, not the store: corrupt or
/// torn bytes, a missing object, or a transient fault that outlived its
/// retries. Recovery skips such a full and ends a chain at such a batch.
fn unreadable_blob(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::InvalidData | io::ErrorKind::NotFound | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use lowdiff_compress::{CompressedGrad, SparseGrad};

    fn state_at(iter: u64) -> ModelState {
        let mut st = ModelState::new(vec![iter as f32; 8]);
        st.iteration = iter;
        st.opt.t = iter;
        st
    }

    fn diff_at(iter: u64) -> DiffEntry {
        DiffEntry {
            iteration: iter,
            grad: CompressedGrad::Sparse(SparseGrad::new(8, vec![0], vec![iter as f32])),
        }
    }

    fn mem_store() -> (Arc<MemoryBackend>, CheckpointStore) {
        let mem = Arc::new(MemoryBackend::new());
        let store = CheckpointStore::new(mem.clone() as Arc<dyn StorageBackend>);
        (mem, store)
    }

    #[test]
    fn save_and_load_full() {
        let (_, store) = mem_store();
        store.save_full(&state_at(5)).unwrap();
        store.save_full(&state_at(12)).unwrap();
        assert_eq!(store.full_iterations().unwrap(), vec![5, 12]);
        let latest = store.latest_valid_full().unwrap().unwrap();
        assert_eq!(latest.iteration, 12);
    }

    #[test]
    fn latest_valid_skips_torn_checkpoint() {
        let (mem, store) = mem_store();
        store.save_full(&state_at(5)).unwrap();
        store.save_full(&state_at(12)).unwrap();
        mem.truncate_blob("full-0000000012.ckpt", 10); // torn write
        let latest = store.latest_valid_full().unwrap().unwrap();
        assert_eq!(latest.iteration, 5, "must fall back past the torn ckpt");
    }

    #[test]
    fn empty_store_recovers_to_none() {
        let (_, store) = mem_store();
        assert!(store.latest_valid_full().unwrap().is_none());
    }

    #[test]
    fn diff_chain_assembles_in_order() {
        let (_, store) = mem_store();
        store.save_diff_batch(&[diff_at(10), diff_at(11)]).unwrap();
        store.save_diff_batch(&[diff_at(12)]).unwrap();
        store.save_diff_batch(&[diff_at(13), diff_at(14)]).unwrap();
        let chain = store.diff_chain_from(11).unwrap();
        let iters: Vec<u64> = chain.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![11, 12, 13, 14]);
    }

    #[test]
    fn diff_chain_stops_at_gap() {
        let (_, store) = mem_store();
        store.save_diff_batch(&[diff_at(10)]).unwrap();
        store.save_diff_batch(&[diff_at(12)]).unwrap(); // 11 missing
        let chain = store.diff_chain_from(10).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].iteration, 10);
    }

    #[test]
    fn diff_chain_stops_at_torn_batch() {
        let (mem, store) = mem_store();
        store.save_diff_batch(&[diff_at(10)]).unwrap();
        store.save_diff_batch(&[diff_at(11)]).unwrap();
        store.save_diff_batch(&[diff_at(12)]).unwrap();
        mem.truncate_blob("diff-0000000011-0000000011.ckpt", 4);
        let chain = store.diff_chain_from(10).unwrap();
        assert_eq!(chain.len(), 1, "chain must stop at the torn batch");
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn non_consecutive_batch_rejected() {
        let (_, store) = mem_store();
        store.save_diff_batch(&[diff_at(10), diff_at(12)]).unwrap();
    }

    #[test]
    fn gc_removes_old_blobs() {
        let (_, store) = mem_store();
        store.save_full(&state_at(0)).unwrap();
        store.save_diff_batch(&[diff_at(0), diff_at(1)]).unwrap();
        store.save_full(&state_at(10)).unwrap();
        store.save_diff_batch(&[diff_at(10)]).unwrap();
        let removed = store.gc_before(10).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(store.full_iterations().unwrap(), vec![10]);
        assert_eq!(store.diff_keys().unwrap().len(), 1);
    }

    #[test]
    fn full_with_aux_roundtrips_through_store() {
        use lowdiff_compress::CompressorCfg;
        let (_, store) = mem_store();
        let st = state_at(7);
        let residual = vec![0.25f32; 8];
        let aux = lowdiff_compress::AuxState {
            residual: Some(residual),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([11, 22, 33, 44]),
            quant: None,
        };
        store.save_full_with_aux(&st, &aux.view()).unwrap();
        let fc = store.latest_valid_full_checkpoint().unwrap().unwrap();
        assert_eq!(fc.state, st);
        assert_eq!(fc.aux, aux);
        assert!(!fc.lossy);
        // The model-state-only API still works on the same blob.
        assert_eq!(store.latest_valid_full().unwrap().unwrap(), st);
    }

    fn put_striped_sealed(store: &CheckpointStore, key: &str, bytes: &[u8], stripes: usize) {
        let out = store.put_striped(key, bytes, stripes, &RetryPolicy::none());
        store.seal_striped(key, &out.result.unwrap()).unwrap();
    }

    fn put_sealed_full(store: &CheckpointStore, st: &ModelState, stripes: usize) {
        let bytes = codec::encode_model_state(st);
        put_striped_sealed(
            store,
            &CheckpointStore::full_key(st.iteration),
            &bytes,
            stripes,
        );
    }

    #[test]
    fn striped_full_roundtrips_and_is_discovered() {
        let (_, store) = mem_store();
        store.save_full(&state_at(3)).unwrap();
        put_sealed_full(&store, &state_at(9), 4);
        assert_eq!(store.full_iterations().unwrap(), vec![3, 9]);
        let latest = store.latest_valid_full().unwrap().unwrap();
        assert_eq!(latest, state_at(9));
        // The striped data object holds exactly the legacy encoding.
        assert_eq!(
            store.backend().get("full-0000000009.sd.ckpt").unwrap(),
            codec::encode_model_state(&state_at(9)),
        );
    }

    #[test]
    fn unsealed_striped_full_is_invisible_and_swept() {
        let (_, store) = mem_store();
        store.save_full(&state_at(3)).unwrap();
        let bytes = codec::encode_model_state(&state_at(9));
        // Stripes land and finish, but the crash comes before the seal.
        let key = CheckpointStore::full_key(9);
        let out = store.put_striped(&key, &bytes, 4, &RetryPolicy::none());
        out.result.unwrap();
        assert_eq!(
            store.full_iterations().unwrap(),
            vec![3],
            "no manifest, no checkpoint"
        );
        assert_eq!(store.latest_valid_full().unwrap().unwrap(), state_at(3));
        assert_eq!(
            store.get_object(&key).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // Listing is non-destructive; the sweep deletes what it lists.
        assert_eq!(store.unsealed().unwrap(), vec!["full-0000000009.sd.ckpt"]);
        assert_eq!(store.unsealed().unwrap().len(), 1);
        assert_eq!(store.sweep_unsealed().unwrap(), 1);
        assert!(store.unsealed().unwrap().is_empty());
        assert!(store.backend().get("full-0000000009.sd.ckpt").is_err());
        // Sealed objects are never swept.
        put_sealed_full(&store, &state_at(12), 2);
        assert_eq!(store.sweep_unsealed().unwrap(), 0);
        assert_eq!(store.full_iterations().unwrap(), vec![3, 12]);
    }

    #[test]
    fn corrupt_stripe_invalidates_striped_full() {
        let (mem, store) = mem_store();
        store.save_full(&state_at(3)).unwrap();
        put_sealed_full(&store, &state_at(9), 4);
        // Tear the data object: the manifest is intact but a stripe CRC
        // now fails, so recovery must fall back to the older full.
        mem.truncate_blob("full-0000000009.sd.ckpt", 10);
        assert_eq!(store.latest_valid_full().unwrap().unwrap(), state_at(3));
    }

    #[test]
    fn striped_diff_batches_join_the_chain() {
        let (_, store) = mem_store();
        // Legacy batch then a striped batch: one chain.
        store.save_diff_batch(&[diff_at(10), diff_at(11)]).unwrap();
        let key = CheckpointStore::diff_key(12, 13);
        let bytes = codec::encode_diff_batch(&[diff_at(12), diff_at(13)]);
        put_striped_sealed(&store, &key, &bytes, 2);
        let chain = store.diff_chain_from(10).unwrap();
        let iters: Vec<u64> = chain.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![10, 11, 12, 13]);
        // Both batches list and read under their canonical keys.
        let keys: Vec<String> = store
            .diff_keys()
            .unwrap()
            .into_iter()
            .map(|d| d.key)
            .collect();
        assert_eq!(keys, vec![CheckpointStore::diff_key(10, 11), key.clone()]);
        assert_eq!(store.get_object(&key).unwrap(), bytes);
    }

    #[test]
    fn unsealed_striped_diff_is_a_chain_gap() {
        let (_, store) = mem_store();
        store.save_diff_batch(&[diff_at(10)]).unwrap();
        let bytes = codec::encode_diff_batch(&[diff_at(11)]);
        store
            .put_striped(
                &CheckpointStore::diff_key(11, 11),
                &bytes,
                2,
                &RetryPolicy::none(),
            )
            .result
            .unwrap(); // never sealed
        store.save_diff_batch(&[diff_at(12)]).unwrap();
        let chain = store.diff_chain_from(10).unwrap();
        assert_eq!(chain.len(), 1, "unsealed batch breaks the chain at 11");
    }

    #[test]
    fn gc_removes_striped_pairs() {
        let (_, store) = mem_store();
        put_sealed_full(&store, &state_at(0), 2);
        let bytes = codec::encode_diff_batch(&[diff_at(0), diff_at(1)]);
        put_striped_sealed(&store, &CheckpointStore::diff_key(0, 1), &bytes, 2);
        put_sealed_full(&store, &state_at(10), 2);
        let removed = store.gc_before(10).unwrap();
        assert_eq!(removed, 4, "manifest + data for the full and the batch");
        assert_eq!(store.full_iterations().unwrap(), vec![10]);
        assert!(store.backend().get("full-0000000000.sd.ckpt").is_err());
        assert!(store.backend().get("full-0000000000.sm.ckpt").is_err());
    }

    #[test]
    fn read_retries_are_counted_and_bounded() {
        use crate::faults::{FaultConfig, FaultyBackend};
        let faulty = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let store = CheckpointStore::new(faulty.clone() as Arc<dyn StorageBackend>);
        store.save_full(&state_at(3)).unwrap();
        // NotFound is definitive: no retries spent.
        assert!(store.load_full(99).is_err());
        assert_eq!(store.read_retries(), 0, "NotFound must not be retried");
        // A transient fault on the first get is retried through.
        let always = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig {
                get_transient_rate: 1.0,
                ..FaultConfig::default()
            },
        ));
        let flaky = CheckpointStore::new(always as Arc<dyn StorageBackend>);
        flaky.save_full(&state_at(1)).unwrap();
        assert!(flaky.load_full(1).is_err(), "every read faults");
        assert_eq!(
            flaky.read_retries(),
            u64::from(RetryPolicy::default().max_retries),
            "all retries spent and counted, no more"
        );
    }
}
