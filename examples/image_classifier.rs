//! Image-classification workload (the paper's ResNet/VGG scenario, scaled
//! down): a small CNN trained on Gaussian-blob "images", comparing the
//! checkpointing cost of every strategy on the same run.
//!
//! ```bash
//! cargo run --release --example image_classifier
//! ```

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::strategy::{CheckpointStrategy, NoCheckpoint, StrategyStats};
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff::EngineConfig;
use lowdiff_baselines::{NaiveDcStrategy, PeriodicFullStrategy};
use lowdiff_model::builders::tiny_cnn;
use lowdiff_model::data::Blobs;
use lowdiff_model::loss::{accuracy, softmax_cross_entropy};
use lowdiff_model::Network;
use lowdiff_optim::Adam;
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::sync::Arc;

const C: usize = 1;
const H: usize = 8;
const W: usize = 8;
const CLASSES: usize = 4;
const ITERS: u64 = 60;

fn mem_store() -> Arc<CheckpointStore> {
    Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())))
}

fn step() -> impl FnMut(&mut Network, u64) -> (f64, Tensor) {
    let blobs = Blobs::new(C * H * W, CLASSES, 5);
    move |net, t| {
        let mut rng = DetRng::new(t ^ 0xC0FFEE);
        let (x, labels) = blobs.image_batch(&mut rng, 8, C, H, W);
        let logits = net.forward(&x);
        softmax_cross_entropy(&logits, &labels)
    }
}

fn train<S: CheckpointStrategy>(strategy: S) -> (f64, StrategyStats, u64) {
    let mut tr = Trainer::new(
        tiny_cnn(C, H, W, CLASSES, 3),
        Adam {
            lr: 2e-3,
            ..Adam::default()
        },
        strategy,
        TrainerConfig {
            compress_ratio: Some(0.05),
            error_feedback: true,
            ..TrainerConfig::default()
        },
    );
    let report = tr.run(ITERS, step());

    // Final accuracy on a held-out batch.
    let blobs = Blobs::new(C * H * W, CLASSES, 5);
    let mut rng = DetRng::new(99_999);
    let (x, labels) = blobs.image_batch(&mut rng, 64, C, H, W);
    let mut net = tiny_cnn(C, H, W, CLASSES, 3);
    net.set_params_flat(&tr.state().params);
    let logits = net.forward(&x);
    let acc = accuracy(&logits, &labels);
    let bytes = report.stats.bytes_written;
    (acc, report.stats, bytes)
}

fn main() {
    println!("tiny CNN, {ITERS} iterations, per-iteration differential checkpointing\n");
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "strategy", "accuracy", "diffs", "writes", "bytes", "stall"
    );

    let rows: Vec<(&str, f64, StrategyStats)> = vec![
        {
            let (acc, st, _) = train(NoCheckpoint::new());
            ("wo-ckpt", acc, st)
        },
        {
            let (acc, st, _) = train(PeriodicFullStrategy::torch_save(
                mem_store(),
                1,
                EngineConfig::default(),
            ));
            ("torch.save", acc, st)
        },
        {
            let (acc, st, _) = train(PeriodicFullStrategy::checkfreq(
                mem_store(),
                1,
                EngineConfig::default(),
            ));
            ("checkfreq", acc, st)
        },
        {
            let (acc, st, _) = train(NaiveDcStrategy::new(mem_store(), 1, 30, 0.05));
            ("naive-dc", acc, st)
        },
        {
            let (acc, st, _) = train(LowDiffStrategy::new(
                mem_store(),
                LowDiffConfig {
                    full_every: 30,
                    batch_size: 5,
                    ..LowDiffConfig::default()
                },
            ));
            ("lowdiff", acc, st)
        },
    ];

    for (name, acc, st) in &rows {
        println!(
            "{:<12} {:>8.1}% {:>8} {:>8} {:>12} {:>9.2}ms",
            name,
            acc * 100.0,
            st.diff_checkpoints,
            st.writes,
            st.bytes_written,
            st.stall.as_f64() * 1e3
        );
    }

    // All strategies see identical data, so they learn identically —
    // checkpointing differs only in cost.
    let accs: Vec<f64> = rows.iter().map(|r| r.1).collect();
    assert!(
        accs.iter().all(|&a| (a - accs[0]).abs() < 1e-9),
        "strategies must not perturb training"
    );
    let lowdiff = &rows[4].2;
    let naive = &rows[3].2;
    println!(
        "\nLowDiff wrote {:.1}x fewer bytes than Naive DC and stalled {:.1}x less than torch.save",
        naive.bytes_written as f64 / lowdiff.bytes_written.max(1) as f64,
        rows[1].2.stall.as_f64() / lowdiff.stall.as_f64().max(1e-9)
    );
}
