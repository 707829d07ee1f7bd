//! Peer-replication contract tests: LowDiff over a peer-first tier stack
//! ([`lowdiff::LowDiffStrategy::with_tier_stack`]) and its [`PeerTier`]
//! under injected peer loss, and the full
//! multi-rank recovery story over [`lowdiff_comm::WorkerGroup`].
//!
//! The tier contract under loss (ISSUE satellite): a replica headed for a
//! dead peer is **dropped** (training never blocks on it), **accounted**
//! (the peer tier's error ledger and the pending-replica backlog both
//! show it), and **re-replicated on the next checkpoint interval** once
//! a peer is reachable again.

use lowdiff::engine::{peer_recovery_stores, PeerReplicaBackend};
use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::strategy::CheckpointStrategy;
use lowdiff::{
    AuxView, NoCheckpoint, PeerTier, RecoverySource, ResumeOpts, Tier, TierStack, Trainer,
    TrainerConfig,
};
use lowdiff_comm::{ReplicaNet, WorkerGroup};
use lowdiff_compress::{Compressor, ErrorFeedback, TopK};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_util::DetRng;
use std::io;
use std::sync::Arc;

fn mem_store() -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
}

/// LowDiff over the Checkmate-style `[Tier::Peer(replicas), Tier::Durable]`
/// stack; the peer tier comes back too, for its re-replication backlog.
fn peer_lowdiff(
    store: &Arc<CheckpointStore>,
    cfg: LowDiffConfig,
    net: &Arc<ReplicaNet>,
    rank: usize,
    replicas: usize,
) -> (LowDiffStrategy, Arc<PeerTier>) {
    let peer = Arc::new(PeerTier::new(Arc::clone(net), rank, replicas));
    let tiers = TierStack::new(vec![
        Tier::Peer(Arc::clone(&peer)),
        Tier::Durable {
            store: Arc::clone(store),
            keep: cfg.keep_fulls,
        },
    ]);
    let strat = LowDiffStrategy::with_tier_stack(Arc::clone(store), cfg, tiers);
    (strat, peer)
}

/// The replica-view backend honors the same `StorageBackend` contract the
/// disk and memory backends are held to — the standard recovery walkers
/// run over peer replicas unchanged because of it.
#[test]
fn peer_replica_backend_honors_storage_contract() {
    let net = ReplicaNet::new(2);
    let b = PeerReplicaBackend::new(Arc::clone(&net), 1, 0);
    b.put("a", b"hello").unwrap();
    b.put("b", b"world!").unwrap();
    assert_eq!(b.get("a").unwrap(), b"hello");
    assert_eq!(b.len("a").unwrap(), 5, "metadata size must match blob");
    assert_eq!(b.len("b").unwrap(), 6);
    assert_eq!(
        b.len("missing").unwrap_err().kind(),
        io::ErrorKind::NotFound
    );
    assert_eq!(b.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
    b.put("a", b"overwritten").unwrap();
    assert_eq!(b.get("a").unwrap(), b"overwritten");
    b.delete("a").unwrap();
    assert!(b.get("a").is_err());
    b.delete("a").unwrap(); // idempotent
    assert_eq!(b.bytes_written(), 5 + 6 + 11);

    // The one divergence from a local backend: a dead peer rejects
    // writes — the tier above turns that into drop-and-queue, never
    // a hang or a partial blob.
    net.kill(1);
    assert!(b.put("c", b"lost").is_err());
    assert!(b.get("b").is_err(), "kill wipes the replica set");
}

/// Peer loss mid-run: replicas for the dead peer are dropped and show up
/// in the peer tier's error ledger and pending backlog; checkpoints keep
/// landing on the surviving peer; once the peer revives, the backlog is
/// re-replicated on the next interval and drains to zero.
#[test]
fn dead_peer_replica_dropped_accounted_and_rereplicated() {
    let net = ReplicaNet::new(3);
    let store = mem_store();
    let mut state = ModelState::new({
        let mut rng = DetRng::new(99);
        (0..32).map(|_| rng.normal() as f32).collect()
    });
    let adam = Adam::default();
    let (mut strat, peer) = peer_lowdiff(
        &store,
        LowDiffConfig {
            full_every: 2,
            batch_size: 1,
            ..LowDiffConfig::default()
        },
        &net,
        0,
        2,
    );
    let mut comp = TopK::new(0.25);
    let mut rng = DetRng::new(7);
    let mut drive = |strat: &mut LowDiffStrategy, state: &mut ModelState, iters: u64| {
        for _ in 0..iters {
            let g: Vec<f32> = (0..32).map(|_| rng.normal() as f32 * 0.1).collect();
            let cg = Arc::new(comp.compress(&g));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
            strat.after_update(state, &AuxView::NONE);
        }
    };

    strat.after_update(&state, &AuxView::NONE); // anchor full at 0
    drive(&mut strat, &mut state, 4);
    strat.flush(); // barrier: batch_size 1 leaves nothing partial to force
    assert_eq!(peer.pending_replicas(), 0, "both peers alive: no backlog");

    // Peer 1 dies. Iterations 5..=8 keep checkpointing: every object
    // still acks on peer 2 (k=2 tolerates one loss), the peer-1 copies
    // are dropped and queued.
    net.kill(1);
    drive(&mut strat, &mut state, 4);
    strat.flush();
    let stats = strat.stats();
    let peer_ledger = stats
        .tiers
        .iter()
        .find(|t| t.name == "peer")
        .expect("peer tier must have a ledger entry");
    assert!(
        peer_ledger.errors >= 4,
        "every object attempted while peer 1 was dead is accounted \
         (got {} errors)",
        peer_ledger.errors
    );
    assert!(
        peer.pending_replicas() > 0,
        "dropped replicas are queued for re-replication"
    );
    assert_eq!(
        stats.io_errors, 0,
        "a surviving peer means the tier never failed outright"
    );
    // The durable full at iteration 6 never reached dead peer 1; its
    // dropped copy was retargeted to surviving peer 2 on the *next*
    // interval (re-replication runs ahead of every fresh write), so the
    // replica byte-identical to the durable blob lives there.
    let full6 = CheckpointStore::full_key(6);
    let durable_full6 = store.backend().get(&full6).unwrap();
    assert!(net.fetch(1, 0, &full6).is_none());
    assert_eq!(
        net.fetch(2, 0, &full6).as_deref(),
        Some(&durable_full6),
        "the dropped replica was retargeted byte-identically"
    );

    // Peer 1 revives: the backlog drains to it on the next interval and
    // fresh replicas flow to both peers again.
    net.revive(1);
    drive(&mut strat, &mut state, 4);
    strat.flush();
    assert_eq!(
        peer.pending_replicas(),
        0,
        "backlog drains once the peer is reachable again"
    );
    let full12 = CheckpointStore::full_key(12);
    let durable_full12 = store.backend().get(&full12).unwrap();
    assert_eq!(
        net.fetch(1, 0, &full12).as_deref(),
        Some(&durable_full12),
        "the revived peer receives fresh replicas again"
    );
}

const WORKERS: usize = 3;
const DIMS: [usize; 3] = [6, 16, 2];

/// Multi-rank e2e over [`WorkerGroup`]: every rank streams its
/// checkpoints to its ring successor; when rank 0's machine disappears —
/// live state and durable directory both — `Trainer::resume_tiered`
/// rebuilds it bit-exactly from a surviving peer's replicas, with no
/// storage round-trip.
#[test]
fn whole_rank_loss_recovers_from_peer_replicas_e2e() {
    let replica_net = ReplicaNet::new(WORKERS);
    let stores: Vec<Arc<CheckpointStore>> = (0..WORKERS).map(|_| mem_store()).collect();
    let start = ModelState::new(mlp(&DIMS, 1).params_flat());

    let group = WorkerGroup::new(WORKERS);
    let finals = {
        let replica_net = &replica_net;
        let stores = &stores;
        let start = &start;
        group.run(move |ctx| {
            let mut net = mlp(&DIMS, 1);
            let adam = Adam::default();
            let task = Regression::new(6, 2, 42);
            let mut state = start.clone();
            let psi = state.num_params();
            let mut ef = ErrorFeedback::new(TopK::new(0.1), psi);
            let (mut strategy, _) = peer_lowdiff(
                &stores[ctx.rank()],
                LowDiffConfig {
                    full_every: 10,
                    batch_size: 3,
                    ..LowDiffConfig::default()
                },
                replica_net,
                ctx.rank(),
                1,
            );
            strategy.after_update(&state, &AuxView::NONE); // anchor full at 0
            for _ in 0..23 {
                let t = state.iteration;
                let mut rng = DetRng::new(t * 1000 + ctx.rank() as u64);
                net.set_params_flat(&state.params);
                let (x, y) = task.batch(&mut rng, 4);
                let pred = net.forward(&x);
                let (_, grad_out) = mse(&pred, &y);
                let local = net.backward(&grad_out);
                let compressed = ef.compress(&local);
                let synced = ctx.allgather_sparse(compressed.as_sparse().unwrap());
                let handle = Arc::new(lowdiff_compress::CompressedGrad::Sparse(synced));
                strategy.on_synced_gradient(t, &handle, &AuxView::NONE);
                state.apply_gradient(&adam, &handle.to_dense());
                strategy.after_update(&state, &AuxView::NONE);
            }
            strategy.flush();
            state
        })
    };
    for (rank, st) in finals.iter().enumerate() {
        assert_eq!(st.params, finals[0].params, "rank {rank} replica diverged");
        assert_eq!(st.iteration, 23);
    }

    // Rank 0's machine is gone: live state, durable store, and the
    // replicas it held for rank 2 — all of it.
    replica_net.kill(0);
    drop(stores);

    let cfg = TrainerConfig {
        compress_ratio: Some(0.1),
        error_feedback: true,
        ..TrainerConfig::default()
    };
    let sources: Vec<RecoverySource> = peer_recovery_stores(&replica_net, 0)
        .into_iter()
        .map(|(tier, store)| RecoverySource { tier, store })
        .collect();
    assert_eq!(sources.len(), 1, "rank 0 replicated to exactly one peer");
    let (resumed, report) = Trainer::resume_tiered(
        mlp(&DIMS, 1),
        Adam::default(),
        NoCheckpoint::new(),
        cfg,
        &sources,
        ResumeOpts { fast_forward: true },
    )
    .unwrap()
    .expect("peer replicas must be recoverable");
    assert_eq!(report.source.as_deref(), Some("peer:1"));
    let got = resumed.state();
    assert_eq!(got.iteration, 23);
    assert_eq!(got.params, finals[0].params, "peer recovery diverged");
    assert_eq!(got.opt.m, finals[0].opt.m, "peer recovery: Adam m");
    assert_eq!(got.opt.v, finals[0].opt.v, "peer recovery: Adam v");
}
