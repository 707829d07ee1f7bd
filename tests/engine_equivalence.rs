//! Engine-refactor equivalence: every strategy, now an adapter over
//! [`lowdiff::engine::CheckpointEngine`], must produce **byte-identical**
//! checkpoint files and identical recovery to the pre-refactor write path
//! on the same recorded gradient trace.
//!
//! The reference side uses plain storage primitives —
//! `CheckpointStore::save_full`, `save_diff_batch`, and `backend().put` of
//! `codec::encode_diff_batch` under `CheckpointStore::diff_key` — driven by
//! the same schedule arithmetic. The engine side runs the real strategies. Blob
//! maps are compared key-by-key (the engine's `meta-` health blob is the
//! one deliberate addition and is excluded).

use lowdiff::engine::peer_recovery_stores;
use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::lowdiff_plus::{LowDiffPlusConfig, LowDiffPlusStrategy};
use lowdiff::recovery::recover_serial;
use lowdiff::strategy::CheckpointStrategy;
use lowdiff::{
    AuxView, EngineConfig, NoCheckpoint, PeerReplicateStrategy, RecoverySource, ResumeOpts,
    StrategyStats, Trainer, TrainerConfig,
};
use lowdiff_baselines::{CheckFreqStrategy, GeminiStrategy, NaiveDcStrategy, TorchSaveStrategy};
use lowdiff_comm::ReplicaNet;
use lowdiff_compress::{CompressedGrad, Compressor, SparseGrad, TopK};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{encode_diff_batch, encode_full_checkpoint, DiffEntry};
use lowdiff_storage::{stripe, CheckpointStore, MemoryBackend, StripeCfg};
use lowdiff_util::units::Secs;
use lowdiff_util::DetRng;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn mem_store() -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
}

/// A recorded trace: deterministic initial params + dense gradients.
fn trace(seed: u64, psi: usize, iters: u64) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(seed);
    let init: Vec<f32> = (0..psi).map(|_| rng.normal() as f32).collect();
    let grads: Vec<Vec<f32>> = (0..iters)
        .map(|_| (0..psi).map(|_| rng.normal() as f32 * 0.1).collect())
        .collect();
    (init, grads)
}

/// Every blob in the store except the engine's `meta-` telemetry space.
fn blob_map(store: &CheckpointStore) -> BTreeMap<String, Vec<u8>> {
    store
        .backend()
        .list()
        .unwrap()
        .into_iter()
        .filter(|k| !k.starts_with("meta-"))
        .map(|k| {
            let bytes = store.backend().get(&k).unwrap();
            (k, bytes)
        })
        .collect()
}

fn assert_stores_identical(engine: &CheckpointStore, reference: &CheckpointStore, what: &str) {
    let (e, r) = (blob_map(engine), blob_map(reference));
    let ek: Vec<&String> = e.keys().collect();
    let rk: Vec<&String> = r.keys().collect();
    assert_eq!(ek, rk, "{what}: blob key sets differ");
    for (key, eb) in &e {
        assert_eq!(Some(eb), r.get(key), "{what}: bytes differ for blob {key}");
    }
}

/// Recovery over the engine-written store must land on the live state.
fn assert_recovers_to(store: &CheckpointStore, live: &ModelState, what: &str) {
    let (rec, _) = recover_serial(store, &Adam::default())
        .unwrap()
        .unwrap_or_else(|| panic!("{what}: nothing recoverable"));
    assert_eq!(rec.iteration, live.iteration, "{what}: recovery iteration");
    assert_eq!(rec.params, live.params, "{what}: recovery params");
}

/// The reference differential write: the buffered entries encoded as one
/// batch and put under the batch's key, then cleared.
fn put_diff_batch(store: &CheckpointStore, entries: &mut Vec<DiffEntry>) {
    if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
        let key = CheckpointStore::diff_key(first.iteration, last.iteration);
        store
            .backend()
            .put(&key, &encode_diff_batch(entries))
            .unwrap();
    }
    entries.clear();
}

// ---------------------------------------------------------------- lowdiff

fn check_lowdiff(seed: u64, psi: usize, iters: u64, full_every: u64, batch_size: usize) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();

    // Engine path: the real strategy.
    let store_a = mem_store();
    let mut state = ModelState::new(init.clone());
    let mut strat = LowDiffStrategy::new(
        Arc::clone(&store_a),
        LowDiffConfig {
            full_every,
            batch_size,
            ..LowDiffConfig::default()
        },
    );
    let mut comp = TopK::new(0.25);
    strat.after_update(&state, &AuxView::NONE); // anchor full at 0
    for g in &grads {
        let cg = Arc::new(comp.compress(g));
        strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    drop(strat);

    // Reference path: save_full + one put per batch_size differentials.
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    let mut comp = TopK::new(0.25);
    let mut pending = Vec::with_capacity(batch_size);
    store_b.save_full(&ref_state).unwrap();
    for g in &grads {
        let cg = comp.compress(g);
        ref_state.apply_gradient(&adam, &cg.to_dense());
        pending.push(DiffEntry {
            iteration: ref_state.iteration - 1,
            grad: cg,
        });
        if pending.len() == batch_size {
            put_diff_batch(&store_b, &mut pending);
        }
        if ref_state.iteration.is_multiple_of(full_every) {
            store_b.save_full(&ref_state).unwrap();
        }
    }
    put_diff_batch(&store_b, &mut pending);

    assert_eq!(state.params, ref_state.params, "trace replay diverged");
    assert_stores_identical(&store_a, &store_b, "lowdiff");
    assert_recovers_to(&store_a, &state, "lowdiff");
}

// --------------------------------------------------------------- lowdiff+

fn check_lowdiff_plus(seed: u64, psi: usize, iters: u64, persist_every: u64) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();

    let store_a = mem_store();
    let mut state = ModelState::new(init.clone());
    let mut strat = LowDiffPlusStrategy::new(
        Arc::clone(&store_a),
        LowDiffPlusConfig {
            persist_every,
            snapshot_threads: 2,
            ..LowDiffPlusConfig::default()
        },
        state.clone(),
    );
    // The synced-gradient hook reads the staging buffer, not its argument.
    let dummy = Arc::new(CompressedGrad::Sparse(SparseGrad::new(
        psi,
        Vec::new(),
        Vec::new(),
    )));
    for g in &grads {
        strat.on_layer_gradient(state.iteration, 0, 0..psi, g);
        strat.on_synced_gradient(state.iteration, &dummy, &AuxView::NONE);
        state.apply_gradient(&adam, g);
    }
    strat.flush();
    let replica = strat.recover_software();
    drop(strat);
    assert_eq!(replica.params, state.params, "replica drifted on the trace");

    // Reference: the CPU replica replay, persisted as plain fulls.
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    for g in &grads {
        ref_state.apply_gradient(&adam, g);
        if ref_state.iteration.is_multiple_of(persist_every) {
            store_b.save_full(&ref_state).unwrap();
        }
    }

    assert_stores_identical(&store_a, &store_b, "lowdiff+");
    if store_a.full_iterations().unwrap().is_empty() {
        return; // run shorter than the first persist interval
    }
    let rec = store_a.latest_valid_full().unwrap().unwrap();
    let last = (iters / persist_every) * persist_every;
    assert_eq!(rec.iteration, last, "lowdiff+: newest persisted full");
}

// ------------------------------------------------- checkfreq / torch.save

fn check_full_snapshot_baselines(seed: u64, psi: usize, iters: u64, every: u64) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();

    let store_cf = mem_store();
    let store_ts = mem_store();
    let mut cf = CheckFreqStrategy::new(Arc::clone(&store_cf), every);
    let mut ts = TorchSaveStrategy::new(Arc::clone(&store_ts), every);
    let mut state = ModelState::new(init.clone());
    for g in &grads {
        state.apply_gradient(&adam, g);
        cf.after_update(&state, &AuxView::NONE);
        ts.after_update(&state, &AuxView::NONE);
    }
    cf.flush();
    ts.flush();
    drop(cf);
    drop(ts);

    // Reference: a durable full at every `every`-th iteration.
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    for g in &grads {
        ref_state.apply_gradient(&adam, g);
        if ref_state.iteration.is_multiple_of(every) {
            store_b.save_full(&ref_state).unwrap();
        }
    }

    assert_stores_identical(&store_cf, &store_b, "checkfreq");
    assert_stores_identical(&store_ts, &store_b, "torch-save");
    if !store_b.full_iterations().unwrap().is_empty() {
        let rec = store_cf.latest_valid_full().unwrap().unwrap();
        assert_eq!(rec.iteration, (iters / every) * every);
    }
}

// ----------------------------------------------------------------- gemini

fn check_gemini(seed: u64, psi: usize, iters: u64, mem_every: u64, persist_every: u64) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();

    let store_a = mem_store();
    let mut strat = GeminiStrategy::new(Arc::clone(&store_a), mem_every, persist_every);
    let mut state = ModelState::new(init.clone());
    let mut last_mem: Option<(u64, Vec<f32>)> = None;
    for g in &grads {
        state.apply_gradient(&adam, g);
        if state.iteration.is_multiple_of(mem_every) {
            last_mem = Some((state.iteration, state.params.clone()));
        }
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    let mem_rec = strat.recover_memory().unwrap();
    drop(strat);

    // Reference: durable full when both tiers' schedules line up (the
    // policy only sees snapshots the memory-tier gate lets through).
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    for g in &grads {
        ref_state.apply_gradient(&adam, g);
        let i = ref_state.iteration;
        if i.is_multiple_of(mem_every) && i.is_multiple_of(persist_every) {
            store_b.save_full(&ref_state).unwrap();
        }
    }

    assert_stores_identical(&store_a, &store_b, "gemini durable tier");
    // Memory tier: GC'd to exactly the newest memory checkpoint.
    match last_mem {
        Some((it, params)) => {
            let rec = mem_rec.expect("gemini: memory tier must hold the newest ckpt");
            assert_eq!(rec.iteration, it, "gemini memory tier iteration");
            assert_eq!(rec.params, params, "gemini memory tier params");
        }
        None => assert!(mem_rec.is_none()),
    }
}

// --------------------------------------------------------------- naive DC

fn check_naive_dc(seed: u64, psi: usize, iters: u64, diff_every: u64, full_every: u64, rho: f64) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();

    let store_a = mem_store();
    let mut strat = NaiveDcStrategy::new(Arc::clone(&store_a), diff_every, full_every, rho);
    let mut state = ModelState::new(init.clone());
    for g in &grads {
        state.apply_gradient(&adam, g);
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    drop(strat);

    // Reference: base-full / top-k-delta / moments-blob schedule, written
    // through the raw store calls.
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    let mut prev: Option<Vec<f32>> = None;
    let mut has_base = false;
    for g in &grads {
        ref_state.apply_gradient(&adam, g);
        let i = ref_state.iteration;
        if !has_base || i.is_multiple_of(full_every) {
            store_b.save_full(&ref_state).unwrap();
            has_base = true;
            prev = Some(ref_state.params.clone());
        } else if i.is_multiple_of(diff_every) {
            let prev_params = prev.as_ref().unwrap();
            let delta: Vec<f32> = ref_state
                .params
                .iter()
                .zip(prev_params)
                .map(|(&new, &old)| new - old)
                .collect();
            let mut topk = TopK::new(rho);
            let entry = DiffEntry {
                iteration: i - 1,
                grad: topk.compress(&delta),
            };
            store_b
                .save_diff_batch(std::slice::from_ref(&entry))
                .unwrap();
            let mut moments = Vec::with_capacity(8 + ref_state.params.len() * 8);
            moments.extend_from_slice(&ref_state.opt.t.to_le_bytes());
            for &m in &ref_state.opt.m {
                moments.extend_from_slice(&m.to_le_bytes());
            }
            for &v in &ref_state.opt.v {
                moments.extend_from_slice(&v.to_le_bytes());
            }
            store_b
                .backend()
                .put(&format!("ndcmoments-{:010}", i - 1), &moments)
                .unwrap();
            prev = Some(ref_state.params.clone());
        }
    }

    assert_stores_identical(&store_a, &store_b, "naive-dc");
    let (rec, _) = NaiveDcStrategy::recover(&store_a).unwrap().unwrap();
    let (rec_b, _) = NaiveDcStrategy::recover(&store_b).unwrap().unwrap();
    assert_eq!(
        rec.iteration, rec_b.iteration,
        "naive-dc recovery iteration"
    );
    assert_eq!(rec.params, rec_b.params, "naive-dc recovery params");
}

// ----------------------------------------------------------- lowdiff-peer

/// PeerReplicate is LowDiff with a `[Tier::Peer(k), Tier::Durable]` stack:
/// the durable store must stay byte-identical to plain LowDiff's, and
/// every ring peer must hold a byte-identical mirror of it that recovers
/// to the live state with no storage round-trip.
fn check_peer_mirror(
    seed: u64,
    psi: usize,
    iters: u64,
    full_every: u64,
    batch_size: usize,
    ranks: usize,
    k: usize,
) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();
    let cfg = LowDiffConfig {
        full_every,
        batch_size,
        ..LowDiffConfig::default()
    };

    let net = ReplicaNet::new(ranks);
    let store_a = mem_store();
    let mut state = ModelState::new(init.clone());
    let mut strat =
        PeerReplicateStrategy::new(Arc::clone(&store_a), cfg.clone(), Arc::clone(&net), 0, k);
    let mut comp = TopK::new(0.25);
    strat.after_update(&state, &AuxView::NONE); // anchor full at 0
    for g in &grads {
        let cg = Arc::new(comp.compress(g));
        strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    drop(strat);

    // Reference: plain LowDiff, same schedule, no peer tier.
    let store_b = mem_store();
    let mut ref_state = ModelState::new(init);
    let mut strat = LowDiffStrategy::new(Arc::clone(&store_b), cfg);
    let mut comp = TopK::new(0.25);
    strat.after_update(&ref_state, &AuxView::NONE);
    for g in &grads {
        let cg = Arc::new(comp.compress(g));
        strat.on_synced_gradient(ref_state.iteration, &cg, &AuxView::NONE);
        ref_state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&ref_state, &AuxView::NONE);
    }
    strat.flush();
    drop(strat);

    assert_eq!(state.params, ref_state.params, "trace replay diverged");
    assert_stores_identical(&store_a, &store_b, "lowdiff-peer durable tier");

    // Every ring peer mirrors the durable store byte-for-byte.
    let sources = peer_recovery_stores(&net, 0);
    assert_eq!(
        sources.len(),
        k.min(ranks - 1),
        "every ring peer should hold replicas"
    );
    for (tier, peer_store) in &sources {
        assert_stores_identical(peer_store, &store_b, tier);
        assert_recovers_to(peer_store, &state, tier);
    }
}

// ------------------------------------------------- mixed v1/v2 diff chains

/// Recovery over a differential chain whose batches mix the legacy raw-index
/// v1 format and the varint-delta v2 format must land bit-identically on the
/// state the dense replay produces: the per-blob version byte is a decode
/// detail, invisible to Algorithm 1.
fn check_mixed_version_chain(seed: u64, psi: usize, iters: u64, batch: usize) {
    let (init, grads) = trace(seed, psi, iters);
    let adam = Adam::default();
    let store = mem_store();

    let mut state = ModelState::new(init);
    store.save_full(&state).unwrap();
    let mut comp = TopK::new(0.25);
    let mut entries = Vec::new();
    for g in &grads {
        let cg = comp.compress(g);
        entries.push(DiffEntry {
            iteration: state.iteration,
            grad: cg.clone(),
        });
        // The dense path: what an uninterrupted run would hold.
        state.apply_gradient(&adam, &cg.to_dense());
    }
    for (k, chunk) in entries.chunks(batch.max(1)).enumerate() {
        if k % 2 == 0 {
            // Legacy writer: raw little-endian u32 index lists (v1).
            let bytes = lowdiff_testkit::reference::encode_diff_batch(chunk);
            let key =
                CheckpointStore::diff_key(chunk[0].iteration, chunk.last().unwrap().iteration);
            store.backend().put(&key, &bytes).unwrap();
        } else {
            // Current writer: varint-delta v2.
            store.save_diff_batch(chunk).unwrap();
        }
    }

    let (rec, _) = recover_serial(&store, &adam).unwrap().unwrap();
    assert_eq!(rec.iteration, state.iteration, "mixed chain: iteration");
    assert_eq!(rec.params, state.params, "mixed chain: params diverged");
    assert_eq!(rec.opt.m, state.opt.m, "mixed chain: adam m diverged");
    assert_eq!(rec.opt.v, state.opt.v, "mixed chain: adam v diverged");
}

// ------------------------------------------- striped persist equivalence

/// Forwards every hook, and records the reference encoding
/// (`encode_full_checkpoint`) of every state + aux the trainer hands
/// `after_update`, keyed by iteration: what any full written from that
/// hook must be, byte for byte.
struct Recorded {
    inner: Box<dyn CheckpointStrategy>,
    fulls: BTreeMap<u64, Vec<u8>>,
}

impl CheckpointStrategy for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        self.inner.prime(state, aux)
    }
    fn on_layer_gradient(
        &mut self,
        iteration: u64,
        layer: usize,
        range: std::ops::Range<usize>,
        grad: &[f32],
    ) -> Secs {
        self.inner.on_layer_gradient(iteration, layer, range, grad)
    }
    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        self.inner.on_synced_gradient(iteration, grad, aux)
    }
    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        self.fulls
            .insert(state.iteration, encode_full_checkpoint(state, aux));
        self.inner.after_update(state, aux)
    }
    fn flush(&mut self) -> Secs {
        self.inner.flush()
    }
    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}

/// Drive one strategy through a real [`Trainer`] run at the given stripe
/// configuration. Returns the store it wrote and the reference encoding
/// of every state the trainer handed `after_update` (see [`Recorded`]).
/// `scheme` indexes the same six schemes the torture matrix exercises.
fn run_scheme(
    scheme: usize,
    stripe: StripeCfg,
    ef: bool,
    seed: u64,
) -> (Arc<CheckpointStore>, BTreeMap<u64, Vec<u8>>) {
    let dense_only = scheme == 1; // lowdiff+ runs dense
    let cfg = TrainerConfig {
        compress_ratio: if dense_only { None } else { Some(0.25) },
        error_feedback: ef && !dense_only,
        data_seed: 0xEC0 ^ seed,
        ..TrainerConfig::default()
    };
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let network = mlp(&[4, 10, 2], 8);
    let ecfg = EngineConfig {
        stripe,
        ..EngineConfig::default()
    };
    let strat: Box<dyn CheckpointStrategy> = match scheme {
        0 => Box::new(LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 6,
                batch_size: 2,
                engine: ecfg,
                ..LowDiffConfig::default()
            },
        )),
        1 => Box::new(LowDiffPlusStrategy::new(
            Arc::clone(&store),
            LowDiffPlusConfig {
                persist_every: 3,
                engine: ecfg,
                ..LowDiffPlusConfig::default()
            },
            ModelState::new(network.params_flat()),
        )),
        2 => Box::new(CheckFreqStrategy::with_engine_config(
            Arc::clone(&store),
            3,
            ecfg,
        )),
        3 => Box::new(TorchSaveStrategy::with_engine_config(
            Arc::clone(&store),
            3,
            ecfg,
        )),
        4 => Box::new(GeminiStrategy::with_engine_config(
            Arc::clone(&store),
            2,
            4,
            ecfg,
        )),
        _ => Box::new(NaiveDcStrategy::with_engine_config(
            Arc::clone(&store),
            2,
            8,
            0.5,
            ecfg,
        )),
    };
    let strat = Recorded {
        inner: strat,
        fulls: BTreeMap::new(),
    };
    let task = Regression::new(4, 2, 7);
    let mut tr = Trainer::new(network, Adam::default(), strat, cfg);
    tr.run_with_data(18, move |net, _t, rng| {
        let (x, y) = task.batch(rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    let Recorded { inner, fulls } = tr.into_strategy();
    drop(inner); // flush + shutdown
    (store, fulls)
}

/// The striped store must hold exactly the legacy store's logical
/// content: every single-blob checkpoint either appears verbatim (below
/// the stripe threshold, or a non-checkpoint blob) or as a data object
/// byte-identical to the legacy blob plus a manifest that validates it.
fn assert_striped_matches_legacy(striped: &CheckpointStore, legacy: &CheckpointStore, what: &str) {
    let l = blob_map(legacy);
    let s = blob_map(striped);
    for (k, bytes) in &l {
        if let Some(sb) = s.get(k) {
            assert_eq!(sb, bytes, "{what}: unstriped blob {k} differs");
            continue;
        }
        let base = k
            .strip_suffix(".ckpt")
            .unwrap_or_else(|| panic!("{what}: {k} missing from striped store"));
        let dk = format!("{base}.sd.ckpt");
        let mk = format!("{base}.sm.ckpt");
        let data = s
            .get(&dk)
            .unwrap_or_else(|| panic!("{what}: {k} present neither whole nor striped"));
        assert_eq!(data, bytes, "{what}: striped data for {k} differs");
        let manifest = stripe::decode_manifest(
            s.get(&mk)
                .unwrap_or_else(|| panic!("{what}: {dk} has no manifest {mk}")),
        )
        .unwrap_or_else(|e| panic!("{what}: manifest {mk} does not decode: {e}"));
        stripe::validate(data, &manifest)
            .unwrap_or_else(|e| panic!("{what}: manifest {mk} rejects its data: {e}"));
        assert!(
            manifest.stripes.len() >= 2,
            "{what}: {dk} was supposed to be striped"
        );
    }
    // And nothing extra: every striped-store key maps back to a legacy blob.
    for k in s.keys() {
        let logical = k
            .strip_suffix(".sd.ckpt")
            .or_else(|| k.strip_suffix(".sm.ckpt"))
            .map(|base| format!("{base}.ckpt"))
            .unwrap_or_else(|| k.clone());
        assert!(
            l.contains_key(&logical),
            "{what}: striped store holds {k} with no legacy counterpart"
        );
    }
}

fn check_striped_equivalence(scheme: usize, stripes: usize, seed: u64) {
    let names = [
        "lowdiff",
        "lowdiff+",
        "checkfreq",
        "torch-save",
        "gemini",
        "naive-dc",
    ];
    let what = names[scheme];
    let (legacy, _) = run_scheme(scheme, StripeCfg::default(), false, seed);
    let (striped, _) = run_scheme(
        scheme,
        StripeCfg {
            stripes,
            min_stripe_bytes: 1, // toy model: stripe even tiny blobs
        },
        false,
        seed,
    );
    assert_striped_matches_legacy(&striped, &legacy, what);

    // Recovery through the real resume path lands on the identical state.
    assert_resume_equal(&striped, &legacy, scheme, false, seed, what);
}

/// Resume both stores through the real resume path and require identical
/// recovered state (or identical unrecoverability).
fn assert_resume_equal(
    store_a: &Arc<CheckpointStore>,
    store_b: &Arc<CheckpointStore>,
    scheme: usize,
    ef: bool,
    seed: u64,
    what: &str,
) {
    let dense_only = scheme == 1;
    let cfg = TrainerConfig {
        compress_ratio: if dense_only { None } else { Some(0.25) },
        error_feedback: ef && !dense_only,
        data_seed: 0xEC0 ^ seed,
        ..TrainerConfig::default()
    };
    let opts = ResumeOpts {
        fast_forward: scheme != 5, // naive-dc deltas are not replayable
    };
    let resume = |store: &Arc<CheckpointStore>| {
        let durable = RecoverySource {
            tier: "durable".into(),
            store: Arc::clone(store),
        };
        Trainer::resume_tiered(
            mlp(&[4, 10, 2], 8),
            Adam::default(),
            NoCheckpoint::new(),
            cfg.clone(),
            &[durable],
            opts,
        )
        .unwrap()
        .map(|(tr, _)| tr.state().clone())
    };
    match (resume(store_a), resume(store_b)) {
        (Some(a), Some(b)) => {
            assert_eq!(a.iteration, b.iteration, "{what}: resume iteration");
            assert_eq!(a.params, b.params, "{what}: resume params");
            assert_eq!(a.opt.m, b.opt.m, "{what}: resume Adam m");
            assert_eq!(a.opt.v, b.opt.v, "{what}: resume Adam v");
        }
        (None, None) => {}
        (a, b) => panic!(
            "{what}: resume disagrees about recoverability ({} vs {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

// ------------------------------------------------- ticket capture equivalence

/// The sacred invariant of the ticket capture: every full a strategy
/// writes during a real trainer run — captured into a pooled frame on the
/// training thread, sealed on the engine — is **byte-identical** to the
/// blocking encoder run on the live state and aux of that iteration, for
/// every strategy, with and without error feedback (EF puts the residual
/// into the frame).
fn check_capture_matches_encoder(scheme: usize, ef: bool, seed: u64) {
    let names = [
        "lowdiff",
        "lowdiff+",
        "checkfreq",
        "torch-save",
        "gemini",
        "naive-dc",
    ];
    let what = names[scheme];
    let (store, want) = run_scheme(scheme, StripeCfg::default(), ef, seed);
    let fulls = store.full_iterations().unwrap();
    assert!(
        fulls.len() >= 2,
        "{what}: only {} full(s) written",
        fulls.len()
    );
    for it in fulls {
        let got = store.backend().get(&CheckpointStore::full_key(it)).unwrap();
        let want = want
            .get(&it)
            .unwrap_or_else(|| panic!("{what}: full at {it} was never handed to a hook"));
        assert!(
            &got == want,
            "{what}: full at {it} differs from the blocking encode"
        );
    }
}

// ------------------------------------------------------------------ tests

#[test]
fn all_strategies_match_reference_on_default_trace() {
    check_lowdiff(11, 32, 25, 5, 2);
    check_lowdiff_plus(12, 32, 25, 4);
    check_full_snapshot_baselines(13, 32, 25, 3);
    check_gemini(14, 32, 25, 2, 4);
    check_naive_dc(15, 32, 25, 2, 8, 0.3);
}

#[test]
fn peer_replication_mirrors_durable_store() {
    check_peer_mirror(16, 32, 25, 5, 2, 3, 2);
}

#[test]
fn mixed_version_chain_matches_dense_replay() {
    check_mixed_version_chain(21, 48, 23, 3);
}

/// Striped persist is a pure layout change: at 4 stripes every strategy
/// writes data objects byte-identical to its single-blob run, sealed by
/// validating manifests, and resumes to the identical state.
#[test]
fn all_strategies_striped_matches_single_blob() {
    for scheme in 0..6 {
        check_striped_equivalence(scheme, 4, 31 + scheme as u64);
    }
}

/// Ticket capture is byte-invisible: every full each strategy writes in a
/// trainer run equals the blocking encode of that iteration's state, with
/// and without error feedback.
#[test]
fn all_strategies_incremental_matches_blocking() {
    for scheme in 0..6 {
        check_capture_matches_encoder(scheme, scheme % 2 == 0, 51 + scheme as u64);
    }
}

/// Regression (persist accounting): `StrategyStats::bytes_written` must
/// equal the bytes the backend itself counted — i.e. the encoded blob
/// length, not a logical payload size. Health export is off so the
/// backend counter holds checkpoint bytes only; schemes chosen to cover
/// `persist_capture`, `persist_batch` and `persist_blob`.
#[test]
fn stats_bytes_written_matches_backend_counter() {
    type Builder = fn(Arc<CheckpointStore>) -> Box<dyn CheckpointStrategy>;
    let builders: [(&str, Builder); 3] = [
        ("torch-save", |st| {
            Box::new(TorchSaveStrategy::with_engine_config(
                st,
                3,
                EngineConfig {
                    export_health: false,
                    ..EngineConfig::default()
                },
            ))
        }),
        ("checkfreq", |st| {
            Box::new(CheckFreqStrategy::with_engine_config(
                st,
                3,
                EngineConfig {
                    export_health: false,
                    ..EngineConfig::default()
                },
            ))
        }),
        ("naive-dc", |st| {
            Box::new(NaiveDcStrategy::with_engine_config(
                st,
                2,
                8,
                0.5,
                EngineConfig {
                    export_health: false,
                    ..EngineConfig::default()
                },
            ))
        }),
    ];
    let (init, grads) = trace(41, 32, 20);
    for (what, build) in builders {
        let store = mem_store();
        let mut strat = build(Arc::clone(&store));
        let adam = Adam::default();
        let mut state = ModelState::new(init.clone());
        for g in &grads {
            state.apply_gradient(&adam, g);
            strat.after_update(&state, &AuxView::NONE);
        }
        strat.flush();
        let stats = strat.stats();
        drop(strat);
        assert!(stats.bytes_written > 0, "{what}: nothing was written");
        assert_eq!(
            stats.bytes_written,
            store.backend().bytes_written(),
            "{what}: stats diverge from the backend's own byte count"
        );
    }
}

/// Pooled encode buffers recycle across 12Ψ-byte full encodes and far
/// smaller diff batches — including a shorter 3-entry tail batch (27 % 4)
/// — through the same [`lowdiff_util::BufferPool`]. Byte-identity against
/// the fresh-buffer reference proves a reused buffer never leaks stale
/// bytes into a shorter encode.
#[test]
fn pooled_buffer_reuse_with_shrinking_encodes_is_clean() {
    check_lowdiff(22, 64, 27, 6, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1 over the engine: byte-identical blobs for any schedule.
    #[test]
    fn lowdiff_engine_is_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..48,
        iters in 4u64..28,
        full_every in 2u64..9,
        batch_size in 1usize..5,
    ) {
        check_lowdiff(seed, psi, iters, full_every, batch_size);
    }

    /// Algorithm 2 over the engine: replica fusion + periodic fulls.
    #[test]
    fn lowdiff_plus_engine_is_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..48,
        iters in 4u64..24,
        persist_every in 1u64..7,
    ) {
        check_lowdiff_plus(seed, psi, iters, persist_every);
    }

    /// Full-snapshot baselines over the engine (spawned and inline).
    #[test]
    fn full_snapshot_baselines_are_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..40,
        iters in 3u64..20,
        every in 1u64..6,
    ) {
        check_full_snapshot_baselines(seed, psi, iters, every);
    }

    /// Two-tier Gemini over the engine.
    #[test]
    fn gemini_engine_is_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..40,
        iters in 3u64..20,
        mem_every in 1u64..4,
        persist_mult in 1u64..5,
    ) {
        check_gemini(seed, psi, iters, mem_every, mem_every * persist_mult);
    }

    /// Naive-DC over the inline engine: fulls, deltas and moments blobs.
    #[test]
    fn naive_dc_engine_is_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..40,
        iters in 3u64..20,
        diff_every in 1u64..4,
        full_mult in 1u64..6,
        rho in 0.1f64..0.6,
    ) {
        check_naive_dc(seed, psi, iters, diff_every, diff_every * full_mult, rho);
    }

    /// Striped persist + recovery is byte-identical to single-blob for
    /// every strategy, at any stripe count.
    #[test]
    fn striped_persist_is_byte_identical(
        scheme in 0usize..6,
        stripes in 2usize..7,
        seed in 0u64..1000,
    ) {
        check_striped_equivalence(scheme, stripes, seed);
    }

    /// Ticket captures are byte-identical to the blocking encode for every
    /// strategy and either error-feedback setting.
    #[test]
    fn incremental_snapshot_is_byte_identical(
        scheme in 0usize..6,
        ef_raw in 0usize..2,
        seed in 0u64..1000,
    ) {
        check_capture_matches_encoder(scheme, ef_raw == 1, seed);
    }

    /// Peer replication is a pure fan-out: the durable store stays
    /// byte-identical to plain LowDiff and every ring peer mirrors it.
    #[test]
    fn peer_replication_is_byte_identical(
        seed in 0u64..1000,
        psi in 8usize..40,
        iters in 4u64..24,
        full_every in 2u64..8,
        batch_size in 1usize..4,
        ranks in 2usize..5,
        k_raw in 0usize..3,
    ) {
        check_peer_mirror(seed, psi, iters, full_every, batch_size, ranks, 1 + k_raw % (ranks - 1));
    }

    /// Chains mixing v1 and v2 diff blobs recover exactly (satellite: the
    /// upgrade story — old blobs and new blobs interleave in one store).
    #[test]
    fn mixed_version_chains_recover_exactly(
        seed in 0u64..1000,
        psi in 8usize..48,
        iters in 2u64..24,
        batch in 1usize..5,
    ) {
        check_mixed_version_chain(seed, psi, iters, batch);
    }
}
