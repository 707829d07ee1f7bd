//! Experiment 5: recovery time vs full-checkpoint frequency (GPT2-S).
//!
//! Two parts:
//! 1. cluster-scale recovery model (Baseline / Naïve DC / LowDiff-parallel
//!    / LowDiff+(S)) — the paper's figure;
//! 2. a *real* measurement of serial vs sharded recovery on an actual
//!    checkpoint chain (mechanism level), demonstrating the speedup is
//!    real, not just modeled.

use lowdiff::recovery::{recover_serial, recover_sharded};
use lowdiff_bench::{compare, print_table, secs};
use lowdiff_cluster::{hardware, CostModel, StrategyKind};
use lowdiff_compress::{Compressor, TopK};
use lowdiff_model::zoo::by_name;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{CheckpointStore, MemoryBackend};
use lowdiff_util::DetRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Part 1: cluster-scale model.
    let cm = CostModel::new(hardware::a100(), by_name("GPT2-S").unwrap(), 8, 0.01);
    let fcfs = [5u64, 10, 20, 50];
    let mut rows = Vec::new();
    for &f in &fcfs {
        rows.push(vec![
            format!("FCF={f}"),
            secs(cm.recovery_time(StrategyKind::TorchSave, f, 1).as_f64()),
            secs(cm.recovery_time(StrategyKind::NaiveDc, f, 1).as_f64()),
            secs(cm.recovery_time(StrategyKind::LowDiff, f, 8).as_f64()),
            secs(cm.recovery_time(StrategyKind::LowDiffPlus, f, 1).as_f64()),
        ]);
    }
    print_table(
        "Exp. 5 — recovery time vs full-checkpoint frequency (GPT2-S, modeled)",
        &[
            "",
            "Baseline",
            "Naive DC",
            "LowDiff (parallel)",
            "LowDiff+(S)",
        ],
        &rows,
    );

    println!();
    let base10 = cm.recovery_time(StrategyKind::TorchSave, 10, 1).as_f64();
    let naive10 = cm.recovery_time(StrategyKind::NaiveDc, 10, 1).as_f64();
    let low10 = cm.recovery_time(StrategyKind::LowDiff, 10, 8).as_f64();
    compare(
        "FCF=10: LowDiff(parallel) reduction vs Baseline",
        "83.2%",
        &format!("{:.1}%", (1.0 - low10 / base10) * 100.0),
    );
    compare(
        "FCF=10: LowDiff(parallel) reduction vs Naive DC",
        "55.8%",
        &format!("{:.1}%", (1.0 - low10 / naive10) * 100.0),
    );
    let sp5 = cm.recovery_time(StrategyKind::TorchSave, 5, 1).as_f64()
        / cm.recovery_time(StrategyKind::LowDiffPlus, 5, 1).as_f64();
    let sp50 = cm.recovery_time(StrategyKind::TorchSave, 50, 1).as_f64()
        / cm.recovery_time(StrategyKind::LowDiffPlus, 50, 1).as_f64();
    compare(
        "LowDiff+(S) speedup vs Baseline, FCF 5..50",
        "9.4x - 57.1x",
        &format!("{:.1}x - {:.1}x", sp5, sp50),
    );

    // Part 2: real serial-vs-sharded recovery on an actual chain.
    println!("\n--- mechanism-level measurement: serial vs sharded exact recovery ---");
    let psi = 2_000_000; // 2M parameters, 64 differentials
    let n_diffs = 64;
    let adam = Adam::default();
    let mut rng = DetRng::new(9);
    let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
    store.save_full(&state).unwrap();
    let mut comp = TopK::new(0.01);
    let mut entries = Vec::new();
    let mut grad = vec![0.0f32; psi];
    for k in 0..n_diffs {
        rng.fill_normal_f32(&mut grad, 0.05);
        let cg = comp.compress(&grad);
        let dense = cg.to_dense();
        entries.push(lowdiff_storage::codec::DiffEntry {
            iteration: k,
            grad: cg,
        });
        state.apply_gradient(&adam, &dense);
    }
    for chunk in entries.chunks(4) {
        store.save_diff_batch(chunk).unwrap();
    }

    let t0 = Instant::now();
    let (rec_s, rep_s) = recover_serial(&store, &adam).unwrap().unwrap();
    let serial_s = t0.elapsed().as_secs_f64();
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get());
    let t0 = Instant::now();
    let (rec_p, _) = recover_sharded(&store, &adam, shards).unwrap().unwrap();
    let sharded_s = t0.elapsed().as_secs_f64();
    assert_eq!(rec_s.params, rec_p.params, "parallel recovery diverged!");
    assert_eq!(rec_s.params, state.params, "recovery is not exact!");
    println!(
        "  serial : {:>10}   ({} diffs, psi = {psi})",
        secs(serial_s),
        rep_s.replayed
    );
    println!(
        "  sharded: {:>10}   ({} shards)  speedup {:.2}x — bit-exact vs serial & live state",
        secs(sharded_s),
        shards,
        serial_s / sharded_s.max(1e-9)
    );
}
