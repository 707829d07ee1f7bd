//! Produce a small on-disk checkpoint directory to point `lowdiff-ctl` at
//! by hand: trains a small model with LowDiff and leaves the checkpoints
//! in the given directory (default /tmp/lowdiff-demo). The CLI's own
//! tests (`crates/core/tests/ctl.rs`) write their directories themselves.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::Adam;
use lowdiff_storage::{CheckpointStore, DiskBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/lowdiff-demo".to_string());
    let store = Arc::new(CheckpointStore::new(Arc::new(
        DiskBackend::new(&dir).expect("create dir"),
    )));
    let strategy = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 10,
            batch_size: 3,
            ..LowDiffConfig::default()
        },
    );
    let task = Regression::new(8, 2, 3);
    let mut rng = DetRng::new(1);
    let mut tr = Trainer::new(
        mlp(&[8, 32, 2], 2),
        Adam::default(),
        strategy,
        TrainerConfig {
            compress_ratio: Some(0.05),
            error_feedback: true,
            ..TrainerConfig::default()
        },
    );
    tr.run(27, |net, _| {
        let (x, y) = task.batch(&mut rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    });
    println!("wrote checkpoints for 27 iterations to {dir}");
}
