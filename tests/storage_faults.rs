//! Storage fault-matrix integration tests: training under an injected
//! fault distribution (transient errors, torn writes, latency spikes,
//! persistent outages) must never panic, must surface health through
//! `StrategyStats`, and must always leave a recoverable checkpoint set.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::recovery::recover_serial;
use lowdiff::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff::trainer::{RecoverySource, ResumeOpts, Trainer, TrainerConfig};
use lowdiff::{AuxView, EngineConfig, NoCheckpoint};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{
    CheckpointStore, FaultConfig, FaultyBackend, MemoryBackend, RetryPolicy, StorageBackend,
};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::io;
use std::sync::Arc;
use std::time::Duration;

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

fn faulty_store(cfg: FaultConfig) -> (Arc<FaultyBackend<MemoryBackend>>, Arc<CheckpointStore>) {
    let faulty = Arc::new(FaultyBackend::new(MemoryBackend::new(), cfg));
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&faulty) as Arc<dyn StorageBackend>
    ));
    (faulty, store)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_delay: Duration::from_micros(100),
        max_delay: Duration::from_micros(800),
    }
}

/// Train an MLP with LowDiff attached; returns the live final state and
/// the strategy's health stats.
fn train_faulty(
    store: Arc<CheckpointStore>,
    iters: u64,
    cfg: LowDiffConfig,
) -> (ModelState, StrategyStats) {
    let strat = LowDiffStrategy::new(store, cfg);
    let mut tr = Trainer::new(
        mlp(&DIMS, 7),
        Adam::default(),
        strat,
        TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );
    // Anchor a full checkpoint at iteration 0.
    let initial = tr.state().clone();
    tr.strategy_mut().after_update(&initial, &AuxView::NONE);
    tr.run(iters, step_fn());
    let live = tr.state().clone();
    let stats = tr.into_strategy().stats();
    (live, stats)
}

/// The acceptance test from the issue: a 500-iteration LowDiff run under a
/// 20 % transient put-failure rate completes without a panic, reports the
/// retries it absorbed, and recovery yields a valid state at least as new
/// as the last persisted full checkpoint.
#[test]
fn acceptance_500_iters_survive_20pct_transient_put_faults() {
    let (faulty, store) = faulty_store(FaultConfig {
        seed: 42,
        put_transient_rate: 0.2,
        ..FaultConfig::default()
    });
    let (live, stats) = train_faulty(
        Arc::clone(&store),
        500,
        LowDiffConfig {
            full_every: 25,
            batch_size: 4,
            engine: EngineConfig {
                retry: fast_retry(),
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    assert!(faulty.counters().put_faults > 0, "faults must have fired");
    assert!(stats.io_retries > 0, "retries must be surfaced in stats");

    let fulls = store.full_iterations().unwrap();
    let last_full = *fulls.last().expect("at least one full must persist");
    let (rec, report) = recover_serial(&store, &Adam::default())
        .unwrap()
        .expect("run must stay recoverable");
    assert!(
        rec.iteration >= last_full,
        "recovered iter {} behind last full {last_full}",
        rec.iteration
    );
    assert!(rec.params.iter().all(|p| p.is_finite()));
    assert!(report.full_iteration <= rec.iteration);
    // With every batch retried to success the chain is complete and the
    // recovery is bit-exact; a dropped batch is reported as degradation.
    if !stats.degraded {
        assert_eq!(rec.iteration, live.iteration);
        assert_eq!(rec.params, live.params);
    } else {
        assert!(stats.dropped_batches > 0 || stats.io_errors > 0);
    }
}

#[test]
fn torn_writes_recovery_falls_back_to_intact_blobs() {
    let (faulty, store) = faulty_store(FaultConfig {
        seed: 7,
        put_torn_rate: 0.15,
        ..FaultConfig::default()
    });
    let (_, stats) = train_faulty(
        Arc::clone(&store),
        60,
        LowDiffConfig {
            full_every: 10,
            batch_size: 2,
            engine: EngineConfig {
                retry: fast_retry(),
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    assert!(faulty.counters().torn_writes > 0, "tears must have fired");
    assert!(stats.io_retries > 0);
    let (rec, _) = recover_serial(&store, &Adam::default())
        .unwrap()
        .expect("torn writes must not destroy recoverability");
    assert!(rec.params.iter().all(|p| p.is_finite()));
    let fulls = store.full_iterations().unwrap();
    assert!(rec.iteration >= *fulls.first().unwrap());
}

#[test]
fn latency_spikes_slow_but_never_corrupt() {
    let (faulty, store) = faulty_store(FaultConfig {
        seed: 11,
        latency_spike_rate: 0.3,
        latency_spike: Duration::from_millis(1),
        ..FaultConfig::default()
    });
    let (live, stats) = train_faulty(
        Arc::clone(&store),
        40,
        LowDiffConfig {
            full_every: 10,
            batch_size: 2,
            engine: EngineConfig {
                retry: fast_retry(),
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    assert!(faulty.counters().latency_spikes > 0);
    assert!(stats.healthy(), "latency alone must not degrade the run");
    let (rec, _) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    assert_eq!(rec.iteration, live.iteration);
    assert_eq!(rec.params, live.params, "slow storage must stay bit-exact");
}

#[test]
fn persistent_outage_degrades_then_reanchors_after_heal() {
    let (faulty, store) = faulty_store(FaultConfig::default());
    let strat = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 20,
            batch_size: 2,
            engine: EngineConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    base_delay: Duration::from_micros(100),
                    max_delay: Duration::from_micros(500),
                },
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    let mut tr = Trainer::new(
        mlp(&DIMS, 7),
        Adam::default(),
        strat,
        TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );
    let initial = tr.state().clone();
    tr.strategy_mut().after_update(&initial, &AuxView::NONE);

    let mut step = step_fn();
    tr.run(10, &mut step); // healthy prefix (flushes at the end)
    faulty.fail_all_puts();
    tr.run(5, &mut step); // outage: every write fails, training continues
    faulty.heal();
    tr.run(10, &mut step); // healed tail: forced full re-anchors the chain

    let live = tr.state().clone();
    let stats = tr.into_strategy().stats();
    assert!(stats.degraded, "outage must mark the run degraded");
    assert!(stats.io_errors > 0);
    assert!(stats.dropped_batches >= 1, "outage flushes must drop");
    assert!(stats.forced_fulls >= 1, "drop must force an early full");

    let fulls = store.full_iterations().unwrap();
    let last_full = *fulls.last().unwrap();
    let (rec, _) = recover_serial(&store, &Adam::default())
        .unwrap()
        .expect("recovery must survive an outage window");
    assert!(rec.iteration >= last_full);
    assert!(rec.params.iter().all(|p| p.is_finite()));
    // The healed tail re-anchored and its diffs flushed: recovery reaches
    // the live state exactly.
    assert_eq!(rec.iteration, live.iteration);
    assert_eq!(rec.params, live.params);
}

#[test]
fn transient_read_faults_leave_recovery_usable() {
    // Writes land cleanly; reads flake. Recovery skips unreadable blobs
    // (they look corrupt) and falls back instead of erroring out.
    let (faulty, store) = faulty_store(FaultConfig {
        seed: 23,
        get_transient_rate: 0.3,
        ..FaultConfig::default()
    });
    let (_, stats) = train_faulty(
        Arc::clone(&store),
        30,
        LowDiffConfig {
            full_every: 5,
            batch_size: 2,
            engine: EngineConfig {
                retry: fast_retry(),
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    assert!(stats.io_errors == 0, "writes were clean: {stats:?}");
    // Recovery under flaky reads, repeated until the injector has provably
    // fired (the chain walk does only a handful of reads per pass).
    let mut rec = None;
    for _ in 0..20 {
        rec = recover_serial(&store, &Adam::default())
            .unwrap()
            .map(|(state, _)| state);
        assert!(rec.is_some(), "read flakes must not lose recovery");
        if faulty.counters().get_faults > 0 {
            break;
        }
    }
    let rec = rec.unwrap();
    assert!(faulty.counters().get_faults > 0);
    assert!(rec.params.iter().all(|p| p.is_finite()));
    assert!(rec.iteration >= store.full_iterations().unwrap()[0]);
}

#[test]
fn retry_exhaustion_counts_one_dropped_batch_exactly_once() {
    // Satellite of the engine refactor: the persist stage owns retry
    // exhaustion, and a single lost batch must increment `dropped_batches`
    // exactly once — not once per retry attempt, and not again when a
    // later (empty) flush or the forced re-anchor runs.
    use lowdiff_compress::{Compressor, TopK};

    let (faulty, store) = faulty_store(FaultConfig::default());
    let adam = Adam::default();
    let mut comp = TopK::new(0.2);
    let mut rng = DetRng::new(41);
    let psi = 64;
    let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    let mut strat = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 1000, // no scheduled fulls besides the anchor
            batch_size: 2,
            engine: EngineConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    base_delay: Duration::from_micros(100),
                    max_delay: Duration::from_micros(500),
                },
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    strat.after_update(&state, &AuxView::NONE); // anchor full at 0
    strat.flush();
    assert_eq!(store.full_iterations().unwrap(), vec![0]);

    // Exactly one full batch is submitted during a total outage.
    faulty.fail_all_puts();
    for _ in 0..2 {
        let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
        let cg = Arc::new(comp.compress(&g));
        strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    strat.flush(); // empty-buffer flush must not re-count the drop
    let stats = strat.stats();
    assert!(stats.io_retries >= 1, "the retry loop ran before dropping");
    assert_eq!(
        stats.dropped_batches, 1,
        "one lost batch == one drop, counted once: {stats:?}"
    );
    assert_eq!(stats.dropped_diffs, 2, "both buffered diffs discarded");
    assert!(stats.degraded);

    // Healed tail: the forced full re-anchors, and neither it nor the
    // healthy diffs that follow may move the drop counters.
    faulty.heal();
    for _ in 0..2 {
        let g: Vec<f32> = (0..psi).map(|_| rng.normal() as f32 * 0.1).collect();
        let cg = Arc::new(comp.compress(&g));
        strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
        state.apply_gradient(&adam, &cg.to_dense());
        strat.after_update(&state, &AuxView::NONE);
    }
    strat.flush();
    let stats = strat.stats();
    assert_eq!(stats.dropped_batches, 1, "drop counter must not move");
    assert_eq!(stats.dropped_diffs, 2);
    assert!(stats.forced_fulls >= 1, "drop must force an early full");
    assert!(
        stats.engine.persist.count >= 1,
        "engine persist stage must have recorded the writes"
    );
    let (rec, _) = recover_serial(&store, &Adam::default())
        .unwrap()
        .expect("re-anchored chain must recover");
    assert_eq!(rec.iteration, state.iteration);
    assert_eq!(rec.params, state.params, "recovery lands on the live state");
}

/// A recovery source whose fulls read fine but whose differential objects
/// fail with a hard I/O error — a flaky or dying tier, caught after its
/// anchor loaded.
struct DiffReadsFail(Arc<dyn StorageBackend>);

impl StorageBackend for DiffReadsFail {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.0.put(key, data)
    }
    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        if key.starts_with("diff-") {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "source died",
            ));
        }
        self.0.get(key)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }
    fn delete(&self, key: &str) -> io::Result<()> {
        self.0.delete(key)
    }
    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}

#[test]
fn tiered_recovery_falls_through_on_late_source_errors() {
    // Error feedback off: the resume replays the chain, so the first
    // source fails *after* its full loaded. The walk must fall through to
    // durable storage — neither abort nor replay a shortened chain.
    let cfg = TrainerConfig {
        compress_ratio: Some(0.2),
        error_feedback: false,
        ..TrainerConfig::default()
    };
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let durable = Arc::new(CheckpointStore::new(Arc::clone(&backend)));
    let strat = LowDiffStrategy::new(
        Arc::clone(&durable),
        LowDiffConfig {
            full_every: 5,
            batch_size: 2,
            ..LowDiffConfig::default()
        },
    );
    let mut tr = Trainer::new(mlp(&DIMS, 8), Adam::default(), strat, cfg.clone());
    tr.run(17, step_fn());
    let live = tr.state().clone();
    drop(tr); // crash

    let sources = [
        RecoverySource {
            tier: "peer:1".into(),
            store: Arc::new(CheckpointStore::new(Arc::new(DiffReadsFail(backend)))),
        },
        RecoverySource {
            tier: "durable".into(),
            store: durable,
        },
    ];
    let (tr, report) = Trainer::resume_tiered(
        mlp(&DIMS, 8),
        Adam::default(),
        NoCheckpoint::new(),
        cfg,
        &sources,
        ResumeOpts::default(),
    )
    .unwrap()
    .expect("durable storage holds a valid checkpoint");
    assert_eq!(report.source.as_deref(), Some("durable"));
    assert_eq!(report.replayed, 2, "diffs at 15, 16 replay from durable");
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let got = tr.state();
    assert_eq!((got.iteration, got.opt.t), (live.iteration, live.opt.t));
    assert_eq!(bits(&got.params), bits(&live.params));
    assert_eq!(bits(&got.opt.m), bits(&live.opt.m));
    assert_eq!(bits(&got.opt.v), bits(&live.opt.v));
}
