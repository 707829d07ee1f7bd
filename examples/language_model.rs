//! Language-model workload (the paper's GPT-2 scenario, scaled down):
//! a tiny causal transformer trained without gradient compression, using
//! **LowDiff+** — layer-wise gradient reuse into a CPU-resident replica,
//! in-memory checkpoints every iteration, asynchronous persistence, and
//! instant software-failure recovery.
//!
//! ```bash
//! cargo run --release --example language_model
//! ```

use lowdiff::lowdiff_plus::{LowDiffPlusConfig, LowDiffPlusStrategy};
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff_model::builders::tiny_gpt;
use lowdiff_model::data::MarkovText;
use lowdiff_model::loss::softmax_cross_entropy;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;

const VOCAB: usize = 16;
const DIM: usize = 16;
const BLOCKS: usize = 2;
const SEQ: usize = 32;

fn main() {
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let net = tiny_gpt(VOCAB, DIM, 1, BLOCKS, 11);
    println!(
        "tiny GPT: {} parameters in {} layers, vocab {VOCAB}, seq {SEQ}",
        net.num_params(),
        net.num_layers()
    );

    let initial = ModelState::new(net.params_flat());
    let adam = Adam {
        lr: 3e-3,
        ..Adam::default()
    };
    let strategy = LowDiffPlusStrategy::new(
        Arc::clone(&store),
        LowDiffPlusConfig {
            persist_every: 25, // async persistence cadence
            snapshot_threads: 4,
            adam, // replica must replay with the trainer's hyperparameters
            ..LowDiffPlusConfig::default()
        },
        initial,
    );
    let mut tr = Trainer::new(
        net,
        adam,
        strategy,
        TrainerConfig {
            compress_ratio: None, // the non-compression scenario
            error_feedback: false,
            ..TrainerConfig::default()
        },
    );

    let text = MarkovText::new(VOCAB, 21);
    let report = tr.run(120, |net, t| {
        let mut rng = DetRng::new(t ^ 0xBEEF);
        let (x, target) = text.sequence_tensor(&mut rng, SEQ);
        let logits = net.forward(&x);
        softmax_cross_entropy(&logits, &target)
    });

    let uniform = (VOCAB as f64).ln();
    println!(
        "loss {:.3} -> {:.3} (uniform baseline {:.3}); in-memory ckpts: {}, persisted fulls: {}",
        report.losses[0],
        report.losses.last().unwrap(),
        uniform,
        report.stats.diff_checkpoints,
        report.stats.full_checkpoints,
    );
    assert!(*report.losses.last().unwrap() < uniform, "LM did not learn");

    // SOFTWARE FAILURE: the training process dies but the checkpointing
    // side's memory survives. Recovery is an in-memory copy — no storage.
    let live = tr.state().clone();
    let t0 = std::time::Instant::now();
    let recovered = tr.strategy().recover_software();
    let dt = t0.elapsed();
    assert_eq!(recovered.params, live.params, "replica drifted!");
    assert_eq!(recovered.iteration, 120);
    println!("software-failure recovery: exact, from CPU replica, in {dt:?}");

    // HARDWARE FAILURE: host memory gone; fall back to the last
    // asynchronously persisted full checkpoint (iteration 100).
    drop(tr);
    let hw = LowDiffPlusStrategy::recover_hardware(&store)
        .unwrap()
        .expect("a persisted checkpoint exists");
    println!(
        "hardware-failure recovery: from storage at iteration {} (persist_every = 25)",
        hw.iteration
    );
    assert_eq!(hw.iteration, 100);
}
