//! Failure-injection integration tests: torn writes, mid-run crashes at
//! arbitrary iterations, and recovery windows.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::recovery::{recover_serial, recover_sharded};
use lowdiff::strategy::CheckpointStrategy;
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff::{AuxView, EngineConfig};
use lowdiff_model::builders::tiny_gpt;
use lowdiff_model::data::MarkovText;
use lowdiff_model::loss::softmax_cross_entropy;
use lowdiff_model::Network;
use lowdiff_optim::Adam;
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::sync::Arc;

const VOCAB: usize = 10;

fn lm_step() -> impl FnMut(&mut Network, u64) -> (f64, Tensor) {
    let text = MarkovText::new(VOCAB, 5);
    move |net, t| {
        let mut rng = DetRng::new(t ^ 0x5EED);
        let (x, target) = text.sequence_tensor(&mut rng, 16);
        let logits = net.forward(&x);
        softmax_cross_entropy(&logits, &target)
    }
}

fn mem_store() -> (Arc<MemoryBackend>, Arc<CheckpointStore>) {
    let mem = Arc::new(MemoryBackend::new());
    let store = Arc::new(CheckpointStore::new(mem.clone() as Arc<dyn StorageBackend>));
    (mem, store)
}

/// Train a tiny transformer LM with LowDiff attached.
fn train_lm(
    store: Arc<CheckpointStore>,
    iters: u64,
    cfg: LowDiffConfig,
) -> lowdiff_optim::ModelState {
    let net = tiny_gpt(VOCAB, 8, 1, 2);
    let strat = LowDiffStrategy::new(store, cfg);
    let mut tr = Trainer::new(
        net,
        Adam::default(),
        strat,
        TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );
    // Anchor a full checkpoint at iteration 0 so any crash is recoverable.
    let initial = tr.state().clone();
    tr.strategy_mut().after_update(&initial, &AuxView::NONE);
    tr.run(iters, lm_step());
    tr.state().clone()
}

#[test]
fn transformer_crash_recovery_is_bit_exact() {
    let (_, store) = mem_store();
    let live = train_lm(
        Arc::clone(&store),
        17,
        LowDiffConfig {
            full_every: 6,
            batch_size: 2,
            ..LowDiffConfig::default()
        },
    );
    let (rec, report) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    assert_eq!(report.full_iteration, 12);
    assert_eq!(rec.iteration, 17);
    assert_eq!(rec.params, live.params, "transformer recovery diverged");
    assert_eq!(rec.opt.m, live.opt.m);
}

#[test]
fn torn_full_checkpoint_falls_back_to_previous() {
    let (mem, store) = mem_store();
    train_lm(
        Arc::clone(&store),
        14,
        LowDiffConfig {
            full_every: 6,
            batch_size: 2,
            ..LowDiffConfig::default()
        },
    );
    // Fulls at 0, 6, 12. Tear the newest mid-write.
    mem.truncate_blob("full-0000000012.ckpt", 40);
    let (rec, report) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    assert_eq!(
        report.full_iteration, 6,
        "must fall back to the intact full"
    );
    // Diffs from 6 onward replay the rest.
    assert_eq!(rec.iteration, 14);
}

#[test]
fn torn_diff_batch_bounds_the_loss_window() {
    let (mem, store) = mem_store();
    let live = train_lm(
        Arc::clone(&store),
        14,
        LowDiffConfig {
            full_every: 100,
            batch_size: 2,
            ..LowDiffConfig::default()
        },
    );
    // Tear one diff batch in the middle of the chain.
    let keys = store.diff_keys().unwrap();
    let victim = &keys[keys.len() / 2];
    mem.truncate_blob(&victim.key, 10);
    let (rec, _) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    // Chain stops exactly at the torn batch.
    assert_eq!(rec.iteration, victim.start);
    assert!(rec.iteration < live.iteration);
    // The recovered prefix is still exact: replaying the remaining live
    // gradients is possible in principle; here we check state validity.
    assert!(rec.params.iter().all(|p| p.is_finite()));
}

#[test]
fn crash_at_every_iteration_is_recoverable() {
    // Sweep the crash point: whatever iteration we stop at, recovery must
    // return a valid state no older than batch_size+1 iterations behind.
    for crash_at in [1u64, 2, 3, 5, 8, 11] {
        let (_, store) = mem_store();
        let live = train_lm(
            Arc::clone(&store),
            crash_at,
            LowDiffConfig {
                full_every: 4,
                batch_size: 3,
                ..LowDiffConfig::default()
            },
        );
        let (rec, _) = recover_serial(&store, &Adam::default())
            .unwrap()
            .unwrap_or_else(|| panic!("no recovery point at crash {crash_at}"));
        assert_eq!(
            rec.iteration, live.iteration,
            "flushed run must recover completely (crash at {crash_at})"
        );
        assert_eq!(rec.params, live.params);
    }
}

#[test]
fn transient_storage_faults_plus_torn_blob_still_recover() {
    // Compound failure: the run trains through a 10 % transient put-fault
    // rate (retried transparently), and then the newest full checkpoint is
    // torn as if the machine died mid-write. Recovery must fall back to an
    // intact full and replay the diff chain from there.
    use lowdiff_storage::{FaultConfig, FaultyBackend, RetryPolicy};
    let faulty = Arc::new(FaultyBackend::new(
        MemoryBackend::new(),
        FaultConfig {
            seed: 99,
            put_transient_rate: 0.1,
            ..FaultConfig::default()
        },
    ));
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(&faulty) as Arc<dyn StorageBackend>
    ));
    let live = train_lm(
        Arc::clone(&store),
        14,
        LowDiffConfig {
            full_every: 6,
            batch_size: 2,
            engine: EngineConfig {
                retry: RetryPolicy {
                    max_retries: 4,
                    base_delay: std::time::Duration::from_micros(100),
                    max_delay: std::time::Duration::from_micros(800),
                },
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    );
    assert!(faulty.counters().put_faults > 0, "faults must have fired");
    // Fulls at 0, 6, 12 — tear the newest one mid-write.
    faulty.inner().truncate_blob("full-0000000012.ckpt", 40);
    let (rec, report) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    assert_eq!(
        report.full_iteration, 6,
        "must fall back to the intact full"
    );
    assert_eq!(rec.iteration, 14, "diff chain replays the rest");
    assert_eq!(
        rec.params, live.params,
        "compound-failure recovery diverged"
    );
}

#[test]
fn sharded_and_serial_agree_after_injected_corruption() {
    let (mem, store) = mem_store();
    train_lm(
        Arc::clone(&store),
        13,
        LowDiffConfig {
            full_every: 5,
            batch_size: 2,
            ..LowDiffConfig::default()
        },
    );
    mem.truncate_blob("full-0000000010.ckpt", 8);
    let (a, _) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
    let (b, _) = recover_sharded(&store, &Adam::default(), 3)
        .unwrap()
        .unwrap();
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.params, b.params);
    assert_eq!(a.opt.m, b.opt.m);
}
