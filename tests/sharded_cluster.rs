//! In-process sharded-cluster equivalence over the workspace facade: an
//! in-process coordinator + three in-process "ranks" (threads calling the
//! worker-side building blocks directly) reproduce the multi-process
//! topology without spawning processes — the fast CI-tier complement to
//! `crates/cluster/tests/cluster_e2e.rs`.

use lowdiff::{
    LowDiffConfig, LowDiffStrategy, ResumeOpts, ShardedStrategy, Trainer, TrainerConfig,
};
use lowdiff_cluster::rt::{CoordConfig, Coordinator, HashRing};
use lowdiff_comm::wire::{CoordClient, Msg};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::Adam;
use lowdiff_storage::shard::{stitch_diff_chains, stitch_fulls};
use lowdiff_storage::{CheckpointStore, MemoryBackend, ShardSpec};
use lowdiff_testkit::ShardProjection;
use std::sync::Arc;
use std::time::Duration;

const DIMS: [usize; 3] = [6, 16, 2];
const WORLD: u32 = 3;

fn trainer_cfg() -> TrainerConfig {
    TrainerConfig {
        compress_ratio: Some(0.2),
        error_feedback: true,
        data_seed: 11,
        ..TrainerConfig::default()
    }
}

fn step(
    task: Regression,
) -> impl FnMut(
    &mut lowdiff_model::Network,
    u64,
    &mut lowdiff_util::DetRng,
) -> (f64, lowdiff_tensor::Tensor) {
    move |net, _t, rng| {
        let (x, y) = task.batch(rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    }
}

/// Three ranks register with a real TCP coordinator, train the replicated
/// model persisting only their consistent-hash shards, seal through the
/// coordinator, and the stitched result equals an unsharded run — while
/// the coordinator's status reflects the sealed epoch.
#[test]
fn in_process_cluster_stitches_to_the_unsharded_run() {
    let global = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let coord = Coordinator::start(
        "127.0.0.1:0",
        CoordConfig {
            world_size: WORLD,
            num_chunks: 12,
            global_store: Some(Arc::clone(&global)),
            ..CoordConfig::default()
        },
    )
    .unwrap();

    let net = mlp(&DIMS, 5);
    let psi = net.num_params();
    let iters = 16u64;
    let full_every = 8u64;

    // Unsharded oracle.
    let oracle_store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let mut oracle = Trainer::new(
        mlp(&DIMS, 5),
        Adam::default(),
        LowDiffStrategy::new(
            Arc::clone(&oracle_store),
            LowDiffConfig {
                full_every,
                batch_size: 1,
                ..LowDiffConfig::default()
            },
        ),
        trainer_cfg(),
    );
    oracle.run_with_data(iters, step(Regression::new(6, 2, 42)));

    // Three in-process ranks, each with its own store and TCP channel.
    let handles: Vec<_> = (0..WORLD)
        .map(|r| {
            let addr = coord.addr();
            std::thread::spawn(move || {
                let mut client = CoordClient::connect(addr, Duration::from_secs(5)).unwrap();
                let welcome = client
                    .rpc(&Msg::Register {
                        name: format!("t{r}"),
                        rank_hint: Some(r),
                        psi: mlp(&DIMS, 5).num_params() as u64,
                    })
                    .unwrap();
                let (rank, num_chunks, chunks) = match welcome {
                    Msg::Welcome {
                        rank,
                        num_chunks,
                        chunks,
                        ..
                    } => (rank, num_chunks, chunks),
                    other => panic!("expected Welcome, got {other:?}"),
                };
                let psi = mlp(&DIMS, 5).num_params();
                let spec = ShardSpec::new(psi, num_chunks, chunks).unwrap();
                let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
                let strategy = ShardedStrategy::new(
                    spec.clone(),
                    LowDiffStrategy::new(
                        Arc::clone(&store),
                        LowDiffConfig {
                            full_every: 8,
                            batch_size: 1,
                            ..LowDiffConfig::default()
                        },
                    ),
                );
                let mut tr = Trainer::new(mlp(&DIMS, 5), Adam::default(), strategy, trainer_cfg());
                for _ in 0..2 {
                    tr.run_with_data(8, step(Regression::new(6, 2, 42)));
                    let it = tr.state().iteration;
                    let shard = spec.project_state(tr.state());
                    let (len, crc) = lowdiff_cluster::rt::worker::shard_digest(&shard);
                    client
                        .rpc(&Msg::ShardSealed {
                            rank,
                            iteration: it,
                            len,
                            crc,
                        })
                        .unwrap();
                }
                (spec, store, tr.state().clone())
            })
        })
        .collect();

    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Global manifest sealed at the final iteration; shards stitch to the
    // oracle's bytes.
    let manifest = global.latest_global_manifest().unwrap().unwrap();
    assert_eq!(manifest.iteration, iters);
    let mut parts_full = Vec::new();
    let mut parts_chain = Vec::new();
    for (spec, store, state) in &results {
        assert_eq!(state.max_abs_diff(oracle.state()), 0.0);
        let fc = store.load_full_checkpoint(iters).unwrap();
        let chain = store.diff_chain_from(full_every).unwrap();
        parts_chain.push((spec.clone(), chain));
        parts_full.push((spec.clone(), fc));
    }
    let stitched = stitch_fulls(psi, &parts_full).unwrap();
    let oracle_fc = oracle_store.load_full_checkpoint(iters).unwrap();
    assert_eq!(stitched.state.max_abs_diff(&oracle_fc.state), 0.0);
    assert_eq!(stitched.aux.residual, oracle_fc.aux.residual);

    // The differential chains between the two fulls stitch to the
    // oracle's diffs too.
    let chain = stitch_diff_chains(psi, &parts_chain).unwrap();
    let oracle_chain = oracle_store.diff_chain_from(full_every).unwrap();
    assert_eq!(chain.len(), oracle_chain.len());
    for (a, b) in chain.iter().zip(oracle_chain.iter()) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.grad.to_dense(), b.grad.to_dense());
    }

    // Resume from the stitched parts and train on: still the oracle's
    // trajectory. The full sits at the chain's end, so there is nothing
    // to replay (and the error-feedback residual anchors there anyway).
    let (mut resumed, report) = Trainer::resume_from_parts(
        mlp(&DIMS, 5),
        Adam::default(),
        lowdiff::NoCheckpoint::new(),
        trainer_cfg(),
        stitched,
        Vec::new(),
        ResumeOpts::default(),
    )
    .unwrap();
    assert!(!report.lossy);
    let more = 6u64;
    resumed.run_with_data(more, step(Regression::new(6, 2, 42)));
    oracle.run_with_data(more, step(Regression::new(6, 2, 42)));
    assert_eq!(resumed.state().max_abs_diff(oracle.state()), 0.0);

    // Consistent-hash sanity over the same world the coordinator used.
    let ring = HashRing::new(&[0, 1, 2], HashRing::DEFAULT_VNODES);
    let mut all: Vec<u32> = ring
        .assignment(12)
        .into_iter()
        .flat_map(|(_, c)| c)
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..12).collect::<Vec<_>>());

    coord.shutdown();
}
