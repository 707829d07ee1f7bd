//! Quickstart: train a model with LowDiff frequent checkpointing, crash,
//! and recover bit-exactly.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::recovery::recover_serial;
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::Adam;
use lowdiff_storage::{CheckpointStore, DiskBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;

fn main() {
    // 1. A checkpoint store on local disk.
    let dir = std::env::temp_dir().join("lowdiff-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(CheckpointStore::new(Arc::new(
        DiskBackend::new(&dir).expect("create checkpoint dir"),
    )));

    // 2. The LowDiff strategy: differential checkpoint EVERY iteration
    //    (reusing the compressed gradients), full checkpoint every 20,
    //    batching 4 differentials per storage write.
    let strategy = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 20,
            batch_size: 4,
            ..LowDiffConfig::default()
        },
    );

    // 3. A model and a task: 3-layer MLP on a synthetic regression.
    let net = mlp(&[16, 64, 4], 1);
    let task = Regression::new(16, 4, 7);
    let adam = Adam {
        lr: 2e-3,
        ..Adam::default()
    };
    let mut tr = Trainer::new(
        net,
        adam,
        strategy,
        TrainerConfig {
            compress_ratio: Some(0.05), // Top-K, rho = 5%
            error_feedback: true,
            ..TrainerConfig::default()
        },
    );

    // 4. Train 97 iterations; every gradient becomes a differential
    //    checkpoint, asynchronously, off the training thread.
    let mut rng = DetRng::new(2);
    let report = tr.run(97, |net, _| {
        let (x, y) = task.batch(&mut rng, 16);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    println!(
        "trained 97 iterations: loss {:.4} -> {:.4}",
        report.losses[0],
        report.losses.last().unwrap()
    );
    println!(
        "checkpointing: {} differentials, {} fulls, {} storage writes, {} bytes, training stalled {:.2} ms total",
        report.stats.diff_checkpoints,
        report.stats.full_checkpoints,
        report.stats.writes,
        report.stats.bytes_written,
        report.stats.stall.as_f64() * 1e3,
    );

    // 5. CRASH. (The trainer and its checkpointing thread drop here.)
    let live = tr.state().clone();
    drop(tr);
    println!("simulated crash at iteration {}", live.iteration);

    // 6. Recover: latest full checkpoint + replay of the reused gradients.
    //    Replay MUST use the same optimizer hyperparameters as training —
    //    the differentials are gradients, and Adam's lr scales the update.
    let t0 = std::time::Instant::now();
    let (recovered, rep) = recover_serial(&store, &adam)
        .expect("storage readable")
        .expect("a checkpoint exists");
    println!(
        "recovered from full@{} + {} differentials -> iteration {} in {:?}",
        rep.full_iteration,
        rep.replayed,
        recovered.restored_iteration_display(),
        t0.elapsed()
    );

    // 7. The recovered state is IDENTICAL to the live state at the crash.
    assert_eq!(recovered.params, live.params);
    assert_eq!(recovered.opt.m, live.opt.m);
    assert_eq!(recovered.opt.v, live.opt.v);
    println!("recovery is bit-exact: params, Adam m and v all match");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny display helper so the example reads naturally.
trait IterationDisplay {
    fn restored_iteration_display(&self) -> u64;
}
impl IterationDisplay for lowdiff_optim::ModelState {
    fn restored_iteration_display(&self) -> u64 {
        self.iteration
    }
}
