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
use lowdiff_util::crc::crc32;
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

/// Run `lowdiff-ctl <cmd> <path>`: exit code, and stdout followed by
/// stderr.
fn ctl(cmd: &str, path: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lowdiff-ctl"))
        .arg(cmd)
        .arg(path)
        .output()
        .unwrap();
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

/// The `full@N + M differentials` anchor a command's output names.
fn anchor_of(out: &str) -> &str {
    let start = out.find("full@").expect("names an anchor");
    let len = out[start..].find(" differentials").expect("names a chain");
    &out[start..start + len + " differentials".len()]
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
    let (code, out) = ctl("resume-info", dir);
    assert_eq!(code, 0, "resume-info:\n{out}");
    assert!(out.contains("bit-exact"), "resume-info:\n{out}");
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

/// `(name, length, body CRC32)` of every full and differential object the
/// plain 27-iteration run stores. The body CRC is the one each object's
/// trailer seals (the CRC32 of a whole sealed blob is a constant). The
/// health blob holds timings and is not pinned.
const PLAIN_RUN_PIN: &[(&str, u64, u32)] = &[
    ("diff-0000000000-0000000002.ckpt", 349, 0x8e777b54),
    ("diff-0000000003-0000000005.ckpt", 348, 0x22e17cd8),
    ("diff-0000000006-0000000008.ckpt", 349, 0xaeac9db0),
    ("diff-0000000009-0000000011.ckpt", 348, 0x8abfc9f0),
    ("diff-0000000012-0000000014.ckpt", 347, 0xb9c9a039),
    ("diff-0000000015-0000000017.ckpt", 348, 0xf759952d),
    ("diff-0000000018-0000000020.ckpt", 349, 0x4adc1e9e),
    ("diff-0000000021-0000000023.ckpt", 347, 0x4eda6890),
    ("diff-0000000024-0000000026.ckpt", 347, 0x02a827ad),
    ("full-0000000010.ckpt", 5741, 0x82f8861e),
    ("full-0000000020.ckpt", 5741, 0x27b0aa21),
];

#[test]
fn plain_run_stores_pinned_bytes() {
    let dir = write_dir("pinned", 1);
    let stored: Vec<(String, u64, u32)> = files(&dir, ".ckpt")
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).unwrap();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let (body, trailer) = bytes.split_at(bytes.len() - 4);
            let crc = crc32(body);
            assert_eq!(trailer, crc.to_le_bytes(), "{name} is not sealed");
            (name, bytes.len() as u64, crc)
        })
        .filter(|(name, ..)| name.starts_with("full-") || name.starts_with("diff-"))
        .collect();
    let pinned: Vec<(String, u64, u32)> = PLAIN_RUN_PIN
        .iter()
        .map(|&(name, len, crc)| (name.to_string(), len, crc))
        .collect();
    assert_eq!(stored, pinned);
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

#[test]
fn every_command_anchors_where_recover_does() {
    let dir = write_dir("flipped", 1);
    let newest = dir.join("full-0000000020.ckpt");
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes[100] ^= 0x01;
    std::fs::write(&newest, bytes).unwrap();
    let (code, out) = ctl("recover", &dir);
    assert_eq!(code, 0, "recover:\n{out}");
    let recovered = anchor_of(&out).to_string();
    assert_eq!(recovered, "full@10 + 17 differentials", "recover:\n{out}");
    let (code, out) = ctl("list", &dir);
    assert_eq!(code, 0, "list:\n{out}");
    assert_eq!(anchor_of(&out), recovered, "list:\n{out}");
    let (code, out) = ctl("health", &dir);
    assert_eq!(code, 1, "a corrupt full is unhealthy:\n{out}");
    assert_eq!(anchor_of(&out), recovered, "health:\n{out}");
    let (code, out) = ctl("resume-info", &dir);
    assert_eq!(code, 0, "resume-info:\n{out}");
    assert!(out.contains("anchor: full@10 "), "resume-info:\n{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inspect_rejects_a_version_1_blob() {
    let dir = write_dir("inspect", 1);
    for name in ["full-0000000020.ckpt", "diff-0000000024-0000000026.ckpt"] {
        let path = dir.join(name);
        let (code, out) = ctl("inspect", &path);
        assert_eq!(code, 0, "{name}:\n{out}");
        let mut body = std::fs::read(&path).unwrap();
        body.truncate(body.len() - 4);
        body[4..6].copy_from_slice(&1u16.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, body).unwrap();
        let (code, out) = ctl("inspect", &path);
        assert_eq!(code, 1, "{name} as version 1:\n{out}");
        assert!(
            out.contains("unsupported version 1"),
            "{name} as version 1:\n{out}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
