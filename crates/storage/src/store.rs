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
//! Discovery treats a striped checkpoint as present iff its **manifest**
//! exists; load additionally requires every stripe CRC to verify. A data
//! object with no manifest is a crashed write — invisible to recovery and
//! reclaimed by [`CheckpointStore::sweep_unsealed`]. (The legacy parsers
//! are untouched: `full-…sd.ckpt` fails their `u64` parse naturally.)
//!
//! Recovery = latest *valid* (CRC-checked) full checkpoint + every valid
//! differential chain after it, in order (Equation 2).

use crate::backend::StorageBackend;
use crate::codec::{self, DiffEntry, FullCheckpoint};
use crate::retry::{with_retry_if, RetryPolicy};
use crate::stripe::{self, StripeManifest};
use lowdiff_compress::AuxView;
use lowdiff_optim::ModelState;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Manages checkpoint blobs on a backend.
pub struct CheckpointStore {
    backend: Arc<dyn StorageBackend>,
    /// Backoff policy for transient *read* faults.
    read_retry: RetryPolicy,
    /// Total read-side retries spent (attempts beyond the first).
    read_retries: AtomicU64,
}

/// A parsed differential-batch key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffKey {
    /// First iteration this batch advances from.
    pub start: u64,
    /// Last iteration this batch advances from (inclusive).
    pub end: u64,
    pub key: String,
}

impl CheckpointStore {
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        Self {
            backend,
            read_retry: RetryPolicy::default(),
            read_retries: AtomicU64::new(0),
        }
    }

    /// Override the read-side retry policy (backoff for transient `get`
    /// faults during recovery).
    pub fn with_read_retry(mut self, policy: RetryPolicy) -> Self {
        self.read_retry = policy;
        self
    }

    /// Total read-side retries spent so far (attempts beyond the first).
    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Canonical blob key of an unstriped full checkpoint. Public so
    /// non-store transports (peer replication) lay replicas out in the
    /// exact key space the recovery walkers expect.
    pub fn full_key(iteration: u64) -> String {
        format!("full-{iteration:010}.ckpt")
    }

    /// Canonical blob key of an unstriped differential batch (see
    /// [`CheckpointStore::full_key`] for why it is public).
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

    fn full_data_key(iteration: u64) -> String {
        format!("full-{iteration:010}.sd.ckpt")
    }

    fn full_manifest_key(iteration: u64) -> String {
        format!("full-{iteration:010}.sm.ckpt")
    }

    fn diff_data_key(start: u64, end: u64) -> String {
        format!("diff-{start:010}-{end:010}.sd.ckpt")
    }

    fn diff_manifest_key(start: u64, end: u64) -> String {
        format!("diff-{start:010}-{end:010}.sm.ckpt")
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
        self.put_diff_batch_bytes(start, end, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Store a pre-encoded differential batch covering `start..=end` under
    /// the canonical key. The caller vouches that `bytes` came from
    /// [`codec::encode_diff_batch`] over consecutive entries spanning
    /// exactly that range.
    pub fn put_diff_batch_bytes(&self, start: u64, end: u64, bytes: &[u8]) -> io::Result<()> {
        self.backend.put(&Self::diff_key(start, end), bytes)
    }

    /// Write a full checkpoint's encoded bytes as `stripes` concurrent
    /// ranged writes (the `.sd.ckpt` data object). The checkpoint is NOT
    /// yet visible to recovery — [`seal_full_striped`](Self::seal_full_striped)
    /// must write the manifest to seal it. Per-stripe retries run under
    /// `retry` and are summed in the returned outcome.
    pub fn put_full_striped(
        &self,
        iteration: u64,
        bytes: &[u8],
        stripes: usize,
        retry: &RetryPolicy,
    ) -> stripe::StripedData {
        stripe::put_striped_data(
            &*self.backend,
            &Self::full_data_key(iteration),
            bytes,
            stripes,
            retry,
        )
    }

    /// Seal a striped full checkpoint: the manifest put that makes it
    /// durable. Recovery sees the checkpoint from this moment on.
    pub fn seal_full_striped(&self, iteration: u64, manifest: &StripeManifest) -> io::Result<()> {
        self.backend.put(
            &Self::full_manifest_key(iteration),
            &stripe::encode_manifest(manifest),
        )
    }

    /// Striped analog of [`put_diff_batch_bytes`](Self::put_diff_batch_bytes):
    /// the data object lands unsealed until
    /// [`seal_diff_striped`](Self::seal_diff_striped).
    pub fn put_diff_striped(
        &self,
        start: u64,
        end: u64,
        bytes: &[u8],
        stripes: usize,
        retry: &RetryPolicy,
    ) -> stripe::StripedData {
        stripe::put_striped_data(
            &*self.backend,
            &Self::diff_data_key(start, end),
            bytes,
            stripes,
            retry,
        )
    }

    /// Seal a striped differential batch with its manifest.
    pub fn seal_diff_striped(
        &self,
        start: u64,
        end: u64,
        manifest: &StripeManifest,
    ) -> io::Result<()> {
        self.backend.put(
            &Self::diff_manifest_key(start, end),
            &stripe::encode_manifest(manifest),
        )
    }

    /// Crash-injection: a power cut midway through a striped full write —
    /// some stripes land (one torn), nothing is finished or sealed.
    pub fn put_full_striped_torn(&self, iteration: u64, bytes: &[u8], stripes: usize) {
        stripe::put_striped_torn(
            &*self.backend,
            &Self::full_data_key(iteration),
            bytes,
            stripes,
        );
    }

    /// Crash-injection: torn striped differential-batch write.
    pub fn put_diff_striped_torn(&self, start: u64, end: u64, bytes: &[u8], stripes: usize) {
        stripe::put_striped_torn(
            &*self.backend,
            &Self::diff_data_key(start, end),
            bytes,
            stripes,
        )
    }

    /// Delete striped data objects whose manifest never landed — the
    /// remains of writes that crashed between the stripe fan-out and the
    /// seal. Invisible to recovery by construction; this reclaims their
    /// space, like the `.tmp-` sweep in `DiskBackend::new`. Returns the
    /// number of objects removed.
    pub fn sweep_unsealed(&self) -> io::Result<usize> {
        let keys = self.backend.list()?;
        let mut removed = 0;
        for k in &keys {
            let Some(base) = k.strip_suffix(".sd.ckpt") else {
                continue;
            };
            if !keys.contains(&format!("{base}.sm.ckpt")) {
                self.backend.delete(k)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Read and fully validate a striped checkpoint given its manifest
    /// key: manifest CRC, stripe coverage, and every stripe CRC must pass
    /// before the reassembled bytes are returned. Public for tooling
    /// (`lowdiff-ctl validate` audits striped pairs through it).
    pub fn get_striped_validated(&self, manifest_key: &str) -> io::Result<Vec<u8>> {
        let inv =
            |e: crate::codec::CodecError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let mbytes = self.get_retried(manifest_key)?;
        let manifest = stripe::decode_manifest(&mbytes).map_err(inv)?;
        let data_key = manifest_key
            .strip_suffix(".sm.ckpt")
            .map(|base| format!("{base}.sd.ckpt"))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "not a manifest key"))?;
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

    /// All differential-batch keys (sorted by start iteration). Striped
    /// batches are listed by their **manifest** key; legacy single blobs
    /// by their plain key.
    pub fn diff_keys(&self) -> io::Result<Vec<DiffKey>> {
        let mut out: Vec<DiffKey> = self
            .backend
            .list()?
            .iter()
            .filter_map(|k| {
                let body = k.strip_prefix("diff-")?;
                let body = body
                    .strip_suffix(".ckpt")
                    .and_then(|b| b.strip_suffix(".sm").or(Some(b)))?;
                let (s, e) = body.split_once('-')?;
                Some(DiffKey {
                    start: s.parse().ok()?,
                    end: e.parse().ok()?,
                    key: k.clone(),
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

    /// Load and CRC-validate a specific full checkpoint, including any
    /// auxiliary training state the blob carries. Tries the legacy single
    /// blob first, then the striped layout (manifest + stripe-validated
    /// data object); either form decodes to the same bytes.
    pub fn load_full_checkpoint(&self, iteration: u64) -> io::Result<FullCheckpoint> {
        let bytes = match self.get_retried(&Self::full_key(iteration)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.get_striped_validated(&Self::full_manifest_key(iteration))?
            }
            Err(e) => return Err(e),
        };
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
            &self.read_retry,
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
            // Striped batches (listed by manifest key) get the fully
            // validated read; any stripe failing its CRC ends the chain
            // exactly like a torn legacy blob.
            let read = if dk.key.ends_with(".sm.ckpt") {
                self.get_striped_validated(&dk.key)
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
        let keys = self.backend.list()?;
        let mut drop_key = |key: &str| -> io::Result<()> {
            if keys.contains(&key.to_string()) {
                self.backend.delete(key)?;
                removed += 1;
            }
            Ok(())
        };
        for iter in self.full_iterations()? {
            if iter < keep_from {
                // A checkpoint may exist in either layout; manifests go
                // first so a crash mid-GC never leaves a sealed manifest
                // pointing at deleted data.
                drop_key(&Self::full_manifest_key(iter))?;
                drop_key(&Self::full_data_key(iter))?;
                drop_key(&Self::full_key(iter))?;
            }
        }
        for dk in self.diff_keys()? {
            if dk.end < keep_from {
                if dk.key.ends_with(".sm.ckpt") {
                    drop_key(&dk.key)?;
                    drop_key(&Self::diff_data_key(dk.start, dk.end))?;
                } else {
                    drop_key(&dk.key)?;
                }
            }
        }
        Ok(removed)
    }

    /// Total stored bytes across all checkpoint blobs (Exp. 7's metric).
    /// Metadata-only: sizes come from [`StorageBackend::len`], never from
    /// downloading blob contents.
    pub fn total_stored_bytes(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for k in self.backend.list()? {
            total += self.backend.len(&k)?;
        }
        Ok(total)
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
    fn total_stored_bytes_counts_everything() {
        let (_, store) = mem_store();
        store.save_full(&state_at(1)).unwrap();
        store.save_diff_batch(&[diff_at(1)]).unwrap();
        let total = store.total_stored_bytes().unwrap();
        assert!(total > 0);
        let full_len = store.backend().get("full-0000000001.ckpt").unwrap().len();
        assert!(total as usize > full_len);
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

    fn put_full_striped_sealed(store: &CheckpointStore, st: &ModelState, stripes: usize) {
        let bytes = codec::encode_model_state(st);
        let out = store.put_full_striped(st.iteration, &bytes, stripes, &RetryPolicy::none());
        let manifest = out.result.unwrap();
        store.seal_full_striped(st.iteration, &manifest).unwrap();
    }

    #[test]
    fn striped_full_roundtrips_and_is_discovered() {
        let (_, store) = mem_store();
        store.save_full(&state_at(3)).unwrap();
        put_full_striped_sealed(&store, &state_at(9), 4);
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
        let out = store.put_full_striped(9, &bytes, 4, &RetryPolicy::none());
        out.result.unwrap();
        assert_eq!(
            store.full_iterations().unwrap(),
            vec![3],
            "no manifest, no checkpoint"
        );
        assert_eq!(store.latest_valid_full().unwrap().unwrap(), state_at(3));
        assert_eq!(store.sweep_unsealed().unwrap(), 1);
        assert!(store.backend().get("full-0000000009.sd.ckpt").is_err());
        // Sealed objects are never swept.
        put_full_striped_sealed(&store, &state_at(12), 2);
        assert_eq!(store.sweep_unsealed().unwrap(), 0);
        assert_eq!(store.full_iterations().unwrap(), vec![3, 12]);
    }

    #[test]
    fn corrupt_stripe_invalidates_striped_full() {
        let (mem, store) = mem_store();
        store.save_full(&state_at(3)).unwrap();
        put_full_striped_sealed(&store, &state_at(9), 4);
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
        let bytes = codec::encode_diff_batch(&[diff_at(12), diff_at(13)]);
        let out = store.put_diff_striped(12, 13, &bytes, 2, &RetryPolicy::none());
        let manifest = out.result.unwrap();
        store.seal_diff_striped(12, 13, &manifest).unwrap();
        let chain = store.diff_chain_from(10).unwrap();
        let iters: Vec<u64> = chain.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![10, 11, 12, 13]);
    }

    #[test]
    fn unsealed_striped_diff_is_a_chain_gap() {
        let (_, store) = mem_store();
        store.save_diff_batch(&[diff_at(10)]).unwrap();
        let bytes = codec::encode_diff_batch(&[diff_at(11)]);
        store
            .put_diff_striped(11, 11, &bytes, 2, &RetryPolicy::none())
            .result
            .unwrap(); // never sealed
        store.save_diff_batch(&[diff_at(12)]).unwrap();
        let chain = store.diff_chain_from(10).unwrap();
        assert_eq!(chain.len(), 1, "unsealed batch breaks the chain at 11");
    }

    #[test]
    fn gc_removes_striped_pairs() {
        let (_, store) = mem_store();
        put_full_striped_sealed(&store, &state_at(0), 2);
        let bytes = codec::encode_diff_batch(&[diff_at(0), diff_at(1)]);
        let out = store.put_diff_striped(0, 1, &bytes, 2, &RetryPolicy::none());
        store.seal_diff_striped(0, 1, &out.result.unwrap()).unwrap();
        put_full_striped_sealed(&store, &state_at(10), 2);
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
        let store = CheckpointStore::new(faulty.clone() as Arc<dyn StorageBackend>)
            .with_read_retry(crate::retry::RetryPolicy {
                max_retries: 4,
                base_delay: std::time::Duration::from_micros(10),
                max_delay: std::time::Duration::from_micros(50),
            });
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
        let flaky = CheckpointStore::new(always as Arc<dyn StorageBackend>).with_read_retry(
            crate::retry::RetryPolicy {
                max_retries: 2,
                base_delay: std::time::Duration::from_micros(10),
                max_delay: std::time::Duration::from_micros(50),
            },
        );
        flaky.save_full(&state_at(1)).unwrap();
        assert!(flaky.load_full(1).is_err(), "every read faults");
        assert_eq!(flaky.read_retries(), 2, "all retries spent and counted");
    }
}
