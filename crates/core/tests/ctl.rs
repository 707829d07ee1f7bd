//! `lowdiff-ctl` on real checkpoint directories: `DiskBackend` stores
//! written by `LowDiffStrategy` in the plain and the striped layout, an
//! unsealed striped write, and a truncated stripe. Every command must read
//! both layouts the way recovery does.

use lowdiff::lowdiff::{LowDiffConfig, LowDiffStrategy};
use lowdiff::trainer::{Trainer, TrainerConfig};
use lowdiff::EngineConfig;
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_optim::Adam;
use lowdiff_storage::{CheckpointStore, DiskBackend, StripeCfg};
use lowdiff_util::DetRng;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Train 27 iterations with LowDiff (full every 10, batches of 3) into a
/// fresh directory, every object striped `stripes` ways.
fn write_dir(name: &str, stripes: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lowdiff-ctl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(CheckpointStore::new(Arc::new(
        DiskBackend::new(&dir).unwrap(),
    )));
    let strategy = LowDiffStrategy::new(
        store,
        LowDiffConfig {
            full_every: 10,
            batch_size: 3,
            engine: EngineConfig {
                stripe: StripeCfg {
                    stripes,
                    min_stripe_bytes: 16,
                },
                ..EngineConfig::default()
            },
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
    dir
}

/// Run `lowdiff-ctl <cmd> <dir>`: exit code and stdout.
fn ctl(cmd: &str, dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lowdiff-ctl"))
        .arg(cmd)
        .arg(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

/// The stored files of `dir` whose names end with `suffix`, sorted.
fn files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    out.sort();
    out
}

fn assert_healthy(dir: &Path) {
    let (code, out) = ctl("list", dir);
    assert_eq!(code, 0, "list:\n{out}");
    assert!(!out.contains("CORRUPT"), "list:\n{out}");
    assert!(out.contains("differential batches (9)"), "list:\n{out}");
    let (code, out) = ctl("validate", dir);
    assert_eq!(code, 0, "validate:\n{out}");
    assert!(out.contains("0 corrupt, 0 unsealed"), "validate:\n{out}");
    let (code, out) = ctl("health", dir);
    assert_eq!(code, 0, "health:\n{out}");
    assert!(
        out.contains("diff batches: 9 (0 corrupt)"),
        "health:\n{out}"
    );
    assert!(out.contains("healthy"), "health:\n{out}");
}

#[test]
fn plain_directory_is_healthy() {
    let dir = write_dir("plain", 1);
    assert!(
        files(&dir, ".sm.ckpt").is_empty(),
        "one stripe stores plain blobs"
    );
    assert_healthy(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn striped_directory_is_healthy() {
    let dir = write_dir("striped", 2);
    assert_eq!(
        files(&dir, ".sm.ckpt").len(),
        11,
        "fulls 10 and 20 plus 9 batches, all striped"
    );
    assert_healthy(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsealed_data_object_is_reported_not_corrupt() {
    let dir = write_dir("unsealed", 2);
    let manifest = files(&dir, ".sm.ckpt").pop().unwrap();
    std::fs::remove_file(&manifest).unwrap();
    let name = manifest.file_name().unwrap().to_string_lossy().into_owned();
    let data = name.replace(".sm.ckpt", ".sd.ckpt");
    let (code, out) = ctl("validate", &dir);
    assert_eq!(
        code, 0,
        "an unsealed object is garbage, not corruption:\n{out}"
    );
    assert!(
        out.contains(&format!("UNSEALED    {data}")),
        "validate:\n{out}"
    );
    assert!(out.contains("0 corrupt, 1 unsealed"), "validate:\n{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_stripe_fails_validate_and_health() {
    let dir = write_dir("torn", 2);
    let data = files(&dir, ".sd.ckpt").remove(0);
    let len = std::fs::metadata(&data).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&data)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    let (code, out) = ctl("validate", &dir);
    assert_eq!(code, 1, "validate:\n{out}");
    assert!(out.contains("1 corrupt"), "validate:\n{out}");
    let (code, out) = ctl("health", &dir);
    assert_eq!(code, 1, "health:\n{out}");
    assert!(out.contains("(1 corrupt)"), "health:\n{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}
