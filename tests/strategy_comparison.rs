//! Cross-strategy integration: the same workload trained under every
//! checkpointing strategy; verifies recovery per strategy and the storage
//! ordering the paper's Exp. 7 reports.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::lowdiff_plus::{LowDiffPlusConfig, LowDiffPlusStrategy};
use lowdiff::recovery::recover_serial;
use lowdiff::strategy::{CheckpointStrategy, NoCheckpoint};
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff::EngineConfig;
use lowdiff_baselines::{NaiveDcStrategy, PeriodicFullStrategy};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend};

use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::sync::Arc;

const ITERS: u64 = 24;
const DIMS: [usize; 3] = [5, 12, 2];

fn step_fn() -> impl FnMut(&mut Network, u64) -> (f64, Tensor) {
    let task = Regression::new(5, 2, 3);
    move |net, t| {
        let mut rng = DetRng::new(t.wrapping_mul(0x9E37_79B9) ^ 0xABCD);
        let (x, y) = task.batch(&mut rng, 6);
        let pred = net.forward(&x);
        mse(&pred, &y)
    }
}

fn store() -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
}

fn run<S: CheckpointStrategy>(strategy: S, compress: Option<f64>) -> (ModelState, S) {
    let mut tr = Trainer::new(
        mlp(&DIMS, 7),
        Adam::default(),
        strategy,
        TrainerConfig {
            compress_ratio: compress,
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );
    tr.run(ITERS, step_fn());
    let st = tr.state().clone();
    (st, tr.into_strategy())
}

#[test]
fn all_strategies_train_identically() {
    // Checkpointing must never perturb training: every strategy produces
    // exactly the same final model state for the same data.
    let (reference, _) = run(NoCheckpoint::new(), Some(0.1));
    let (torch, _) = run(
        PeriodicFullStrategy::torch_save(store(), 5, EngineConfig::default()),
        Some(0.1),
    );
    let (cf, _) = run(
        PeriodicFullStrategy::checkfreq(store(), 5, EngineConfig::default()),
        Some(0.1),
    );
    let (gem, _) = run(
        PeriodicFullStrategy::gemini(store(), 1, 5, EngineConfig::default()),
        Some(0.1),
    );
    let (naive, _) = run(NaiveDcStrategy::new(store(), 1, 100, 0.1), Some(0.1));
    let (lowdiff, _) = run(
        LowDiffStrategy::new(store(), LowDiffConfig::default()),
        Some(0.1),
    );
    for (name, st) in [
        ("torch", &torch),
        ("checkfreq", &cf),
        ("gemini", &gem),
        ("naive", &naive),
        ("lowdiff", &lowdiff),
    ] {
        assert_eq!(
            st.params, reference.params,
            "{name} perturbed the training trajectory"
        );
    }
}

#[test]
fn every_strategy_recovers_to_a_valid_state() {
    // torch.save — recovers to the last multiple of 5.
    let st = store();
    let (live, _) = run(
        PeriodicFullStrategy::torch_save(Arc::clone(&st), 5, EngineConfig::default()),
        Some(0.1),
    );
    let rec = st.latest_valid_full().unwrap().unwrap();
    assert_eq!(rec.iteration, 20);
    assert_eq!(live.iteration, ITERS);

    // CheckFreq — same cadence, asynchronous.
    let st = store();
    let (_, mut s) = run(
        PeriodicFullStrategy::checkfreq(Arc::clone(&st), 5, EngineConfig::default()),
        Some(0.1),
    );
    s.flush();
    assert_eq!(st.latest_valid_full().unwrap().unwrap().iteration, 20);

    // Gemini — memory tier is fresher than durable.
    let st = store();
    let (_, s) = run(
        PeriodicFullStrategy::gemini(Arc::clone(&st), 1, 9, EngineConfig::default()),
        Some(0.1),
    );
    let sources = s.recovery_sources();
    let mem = sources[0].store.latest_valid_full().unwrap().unwrap();
    let dur = sources[1].store.latest_valid_full().unwrap().unwrap();
    assert_eq!(mem.iteration, ITERS);
    assert_eq!(dur.iteration, 18, "durable persists at 9 and 18");

    // Naive DC — params approximate, moments exact.
    let st = store();
    let (live, _) = run(
        NaiveDcStrategy::new(Arc::clone(&st), 1, 100, 0.3),
        Some(0.1),
    );
    let (rec, _) = NaiveDcStrategy::recover(&st).unwrap().unwrap();
    assert_eq!(rec.iteration, live.iteration);
    assert_eq!(rec.opt.m, live.opt.m);

    // LowDiff — bit exact.
    let st = store();
    let (live, _) = run(
        LowDiffStrategy::new(
            Arc::clone(&st),
            LowDiffConfig {
                full_every: 7,
                ..LowDiffConfig::default()
            },
        ),
        Some(0.1),
    );
    let (rec, _) = recover_serial(&st, &Adam::default()).unwrap().unwrap();
    assert_eq!(rec.params, live.params);
    assert_eq!(rec.opt.v, live.opt.v);

    // LowDiff+ — software-failure recovery from the replica is exact.
    let st = store();
    let net = mlp(&DIMS, 7);
    let initial = ModelState::new(net.params_flat());
    let strategy = LowDiffPlusStrategy::new(
        Arc::clone(&st),
        LowDiffPlusConfig {
            persist_every: 6,
            snapshot_threads: 2,
            ..LowDiffPlusConfig::default()
        },
        initial,
    );
    let mut tr = Trainer::new(
        net,
        Adam::default(),
        strategy,
        TrainerConfig {
            compress_ratio: None,
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );
    tr.run(ITERS, step_fn());
    let live = tr.state().clone();
    let rec = tr.strategy().recover_software();
    assert_eq!(rec.params, live.params);
    assert_eq!(
        LowDiffPlusStrategy::recover_hardware(&st)
            .unwrap()
            .unwrap()
            .iteration,
        24
    );
}

#[test]
fn storage_footprint_ordering_matches_exp7() {
    // Same run length, rho, and model: LowDiff's differential bytes must
    // be far below Naive DC's, which is below repeated full checkpoints.
    let rho = 0.02;

    let st_full = store();
    run(
        PeriodicFullStrategy::torch_save(Arc::clone(&st_full), 1, EngineConfig::default()),
        Some(rho),
    );
    let full_bytes = st_full.backend().bytes_written();

    let st_naive = store();
    run(
        NaiveDcStrategy::new(Arc::clone(&st_naive), 1, 100, rho),
        Some(rho),
    );
    let naive_bytes = st_naive.backend().bytes_written();

    let st_low = store();
    run(
        LowDiffStrategy::new(
            Arc::clone(&st_low),
            LowDiffConfig {
                full_every: 100,
                batch_size: 4,
                ..LowDiffConfig::default()
            },
        ),
        Some(rho),
    );
    let low_bytes = st_low.backend().bytes_written();

    assert!(
        low_bytes * 3 < naive_bytes,
        "LowDiff {low_bytes} should be well below NaiveDC {naive_bytes}"
    );
    assert!(
        naive_bytes < full_bytes,
        "NaiveDC {naive_bytes} should be below full-every-iteration {full_bytes}"
    );
}
