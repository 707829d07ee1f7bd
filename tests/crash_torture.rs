//! Crash-point torture matrix: the tentpole proof that resume is
//! bit-exact for **every** strategy, at **every** stage of the checkpoint
//! pipeline a process can die in.
//!
//! Each cell of the matrix {strategy} × {crash point} × {error feedback}:
//!
//! 1. trains `TOTAL` iterations uninterrupted — the ground truth,
//! 2. re-trains with a [`CrashInjector`] armed on the nth occurrence of
//!    one [`CrashPoint`] (n drawn from a per-cell seeded RNG), stopping
//!    the loop as soon as the "process" dies,
//! 3. drops the trainer (the crash), calls [`Trainer::resume`] against
//!    whatever the store durably holds, trains to `TOTAL`,
//! 4. asserts parameters and both Adam moments are bit-identical to the
//!    uninterrupted run.
//!
//! A crash before the first durable full resumes `None`; the cell then
//! cold-starts from scratch, which is what a real system does with an
//! empty store — determinism makes that equal to the straight run too.
//!
//! LowDiff+ runs dense-only (its scenario: gradients travel uncompressed),
//! so its error-feedback arm is skipped. Naïve DC's differentials are
//! parameter deltas, not replayable gradients, so its cells resume with
//! `fast_forward: false` and anchor at the full checkpoint.

use lowdiff::engine::peer_recovery_stores;
use lowdiff::{
    CheckpointStrategy, CrashInjector, CrashPoint, EngineConfig, LowDiffConfig, LowDiffPlusConfig,
    LowDiffPlusStrategy, LowDiffStrategy, NoCheckpoint, PeerTier, RecoverySource, ResumeOpts, Tier,
    TierStack, Trainer, TrainerConfig, ALL_CRASH_POINTS,
};
use lowdiff_baselines::{NaiveDcStrategy, PeriodicFullStrategy};
use lowdiff_comm::ReplicaNet;
use lowdiff_model::builders::mlp;
use lowdiff_model::data::Regression;
use lowdiff_model::loss::mse;
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{QuantizedValues, ValueCodec};
use lowdiff_storage::{CheckpointStore, MemoryBackend, StripeCfg};
use lowdiff_tensor::Tensor;
use lowdiff_util::DetRng;
use std::sync::Arc;

/// Iterations per run. Every (strategy, crash-point) schedule below hits
/// each crash point at least 8 times within this budget, so any armed
/// `nth ∈ [2, 8]` is guaranteed to fire. Exception: MidCapture fires once
/// per *full* checkpoint, and the sparsest full cadence below (LowDiff's
/// `full_every: 6`) yields only 4 — MidCapture cells draw `nth ∈ [2, 4]`.
const TOTAL: u64 = 24;

/// The armed occurrence count for a cell: `[2, 8]` normally, clamped to
/// `[2, 4]` for MidCapture (see [`TOTAL`]).
fn arm_nth(point: CrashPoint, seed: u64) -> u64 {
    let span = if point == CrashPoint::MidCapture {
        3
    } else {
        7
    };
    2 + DetRng::new(seed).next_u64() % span
}

#[derive(Clone, Copy, Debug)]
enum Scheme {
    LowDiff,
    LowDiffPlus,
    CheckFreq,
    TorchSave,
    Gemini,
    NaiveDc,
}

const SCHEMES: [Scheme; 6] = [
    Scheme::LowDiff,
    Scheme::LowDiffPlus,
    Scheme::CheckFreq,
    Scheme::TorchSave,
    Scheme::Gemini,
    Scheme::NaiveDc,
];

fn net() -> Network {
    mlp(&[4, 10, 2], 8)
}

/// Batches sampled from the trainer-owned data cursor — the resumable form.
fn data_step() -> impl FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor) {
    let task = Regression::new(4, 2, 7);
    move |net: &mut Network, _t: u64, rng: &mut DetRng| {
        let (x, y) = task.batch(rng, 8);
        let pred = net.forward(&x);
        mse(&pred, &y)
    }
}

fn torture_cell(scheme: Scheme, point: CrashPoint, error_feedback: bool, cell_seed: u64) {
    let dense_only = matches!(scheme, Scheme::LowDiffPlus);
    let cfg = TrainerConfig {
        compress_ratio: if dense_only { None } else { Some(0.25) },
        error_feedback: error_feedback && !dense_only,
        data_seed: 0xD1CE ^ cell_seed,
        ..TrainerConfig::default()
    };

    // Ground truth: the same run, never crashed.
    let mut straight = Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone());
    straight.run_with_data(TOTAL, data_step());
    let want = straight.state().clone();

    let nth = arm_nth(point, 0x7081 ^ cell_seed.rotate_left(17));
    let injector = CrashInjector::arm(point, nth);
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    // MidStripe only exists on the striped persist path, so those cells
    // run it (tiny blobs → no minimum stripe size). Every other cell
    // keeps the default single stripe, leaving the 44 legacy cells'
    // store layouts bit-identical to before striping existed.
    let stripe = if point == CrashPoint::MidStripe {
        StripeCfg {
            stripes: 2,
            min_stripe_bytes: 1,
        }
    } else {
        StripeCfg::default()
    };
    let ecfg = || EngineConfig {
        stripe,
        crash: Some(Arc::clone(&injector)),
        ..EngineConfig::default()
    };

    let network = net();
    let strat: Box<dyn CheckpointStrategy> = match scheme {
        Scheme::LowDiff => Box::new(LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 6,
                batch_size: 2,
                engine: ecfg(),
                ..LowDiffConfig::default()
            },
        )),
        Scheme::LowDiffPlus => Box::new(LowDiffPlusStrategy::new(
            Arc::clone(&store),
            LowDiffPlusConfig {
                persist_every: 3,
                engine: ecfg(),
                ..LowDiffPlusConfig::default()
            },
            ModelState::new(network.params_flat()),
        )),
        Scheme::CheckFreq => Box::new(PeriodicFullStrategy::checkfreq(
            Arc::clone(&store),
            3,
            ecfg(),
        )),
        Scheme::TorchSave => Box::new(PeriodicFullStrategy::torch_save(
            Arc::clone(&store),
            3,
            ecfg(),
        )),
        Scheme::Gemini => Box::new(PeriodicFullStrategy::gemini(
            Arc::clone(&store),
            2,
            4,
            ecfg(),
        )),
        Scheme::NaiveDc => Box::new(NaiveDcStrategy::with_engine_config(
            Arc::clone(&store),
            2,
            8,
            0.5,
            ecfg(),
        )),
    };

    // The doomed run: iterate one step at a time (each call flushes, so
    // worker-side crash points have fired before we look) and stop as
    // soon as the injected crash kills the checkpointing process.
    let mut doomed = Trainer::new(network, Adam::default(), strat, cfg.clone());
    let mut step = data_step();
    let mut ran = 0;
    while ran < TOTAL && !injector.crashed() {
        doomed.run_with_data(1, &mut step);
        ran += 1;
    }
    assert!(
        injector.crashed(),
        "{scheme:?}/{point:?} nth={nth}: crash never fired in {TOTAL} iterations"
    );
    drop(doomed); // the crash: live model, residual and cursor are gone

    let opts = ResumeOpts {
        // Naïve DC's diffs are parameter deltas — not replayable gradients.
        fast_forward: !matches!(scheme, Scheme::NaiveDc),
    };
    let durable = RecoverySource {
        tier: "durable".into(),
        store: Arc::clone(&store),
    };
    let mut resumed = match Trainer::resume_tiered(
        net(),
        Adam::default(),
        NoCheckpoint::new(),
        cfg.clone(),
        &[durable],
        opts,
    )
    .unwrap()
    {
        Some((tr, rep)) => {
            assert!(
                !rep.lossy,
                "{scheme:?}/{point:?}: v2 fulls carry the whole training state"
            );
            assert!(rep.resumed_iteration <= TOTAL);
            tr
        }
        // Crashed before anything durable landed: cold start.
        None => Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone()),
    };
    let remaining = TOTAL - resumed.state().iteration;
    resumed.run_with_data(remaining, data_step());

    let got = resumed.state();
    assert_eq!(got.iteration, TOTAL);
    assert_eq!(
        got.params, want.params,
        "{scheme:?}/{point:?} ef={error_feedback} nth={nth}: params diverged after resume"
    );
    assert_eq!(
        got.opt.m, want.opt.m,
        "{scheme:?}/{point:?} ef={error_feedback} nth={nth}: Adam m diverged after resume"
    );
    assert_eq!(
        got.opt.v, want.opt.v,
        "{scheme:?}/{point:?} ef={error_feedback} nth={nth}: Adam v diverged after resume"
    );
}

/// Quantized-compressor cells: LowDiff with the adaptive precision policy
/// (gradients quantized at 8 bits, policy free to move on the 4↔8↔16
/// ladder) persisting through the v3 quantized diff codec. Training
/// updates from the *dequantized* gradient and `Quant` records are stored
/// losslessly, so crash + resume must still be bit-identical to the
/// straight quantized run — including the policy state machine, which the
/// resume path restores from aux and fast-forwards through the replayed
/// chain's emitted `(scale, bits)` pairs.
fn quant_torture_cell(point: CrashPoint, error_feedback: bool, cell_seed: u64) {
    let cfg = TrainerConfig {
        compress_ratio: None,
        error_feedback,
        quant_bits: Some(8),
        adaptive_quant: true,
        max_quant_err: 0.05,
        data_seed: 0xBEEF ^ cell_seed,
    };

    let mut straight = Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone());
    straight.run_with_data(TOTAL, data_step());
    let want = straight.state().clone();

    let nth = arm_nth(point, 0x51AB ^ cell_seed.rotate_left(11));
    let injector = CrashInjector::arm(point, nth);
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let stripe = if point == CrashPoint::MidStripe {
        StripeCfg {
            stripes: 2,
            min_stripe_bytes: 1,
        }
    } else {
        StripeCfg::default()
    };
    let strat = LowDiffStrategy::new(
        Arc::clone(&store),
        LowDiffConfig {
            full_every: 6,
            batch_size: 2,
            engine: EngineConfig {
                stripe,
                crash: Some(Arc::clone(&injector)),
                ..EngineConfig::default()
            },
            value_codec: ValueCodec::Quantized(QuantizedValues {
                bits: 8,
                max_err: 0.05,
                adaptive: true,
                floor_bits: 4,
            }),
            ..LowDiffConfig::default()
        },
    );

    let mut doomed = Trainer::new(net(), Adam::default(), strat, cfg.clone());
    let mut step = data_step();
    let mut ran = 0;
    while ran < TOTAL && !injector.crashed() {
        doomed.run_with_data(1, &mut step);
        ran += 1;
    }
    assert!(
        injector.crashed(),
        "quant/{point:?} nth={nth}: crash never fired in {TOTAL} iterations"
    );
    drop(doomed);

    let mut resumed = match Trainer::resume(
        net(),
        Adam::default(),
        NoCheckpoint::new(),
        cfg.clone(),
        &store,
    )
    .unwrap()
    {
        Some((tr, rep)) => {
            assert!(
                !rep.lossy,
                "quant/{point:?}: v2 fulls carry the whole training state \
                 including the precision-policy snapshot"
            );
            tr
        }
        None => Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone()),
    };
    let remaining = TOTAL - resumed.state().iteration;
    resumed.run_with_data(remaining, data_step());

    let got = resumed.state();
    assert_eq!(got.iteration, TOTAL);
    assert_eq!(
        got.params, want.params,
        "quant/{point:?} ef={error_feedback} nth={nth}: params diverged after resume"
    );
    assert_eq!(
        got.opt.m, want.opt.m,
        "quant/{point:?} ef={error_feedback} nth={nth}: Adam m diverged after resume"
    );
    assert_eq!(
        got.opt.v, want.opt.v,
        "quant/{point:?} ef={error_feedback} nth={nth}: Adam v diverged after resume"
    );
}

/// Whole-rank-loss cell: the crash takes the *entire rank* with it —
/// live model, optimizer, AND the rank's durable checkpoint directory.
/// The only surviving copies are the replicas LowDiff's peer tier
/// streamed to its ring peers, so recovery runs [`Trainer::resume_tiered`]
/// over the peers' replica stores with **no durable source at all**. The
/// resumed run must still land bit-identical to the straight run.
fn rank_loss_cell(point: CrashPoint, error_feedback: bool, cell_seed: u64) {
    const RANKS: usize = 3;
    const REPLICAS: usize = 2;
    let cfg = TrainerConfig {
        compress_ratio: Some(0.25),
        error_feedback,
        data_seed: 0xFEED ^ cell_seed,
        ..TrainerConfig::default()
    };

    let mut straight = Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone());
    straight.run_with_data(TOTAL, data_step());
    let want = straight.state().clone();

    let nth = arm_nth(point, 0xC4A5 ^ cell_seed.rotate_left(23));
    let injector = CrashInjector::arm(point, nth);
    let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
    let stripe = if point == CrashPoint::MidStripe {
        StripeCfg {
            stripes: 2,
            min_stripe_bytes: 1,
        }
    } else {
        StripeCfg::default()
    };
    let replica_net = ReplicaNet::new(RANKS);
    let lcfg = LowDiffConfig {
        full_every: 6,
        batch_size: 2,
        engine: EngineConfig {
            stripe,
            crash: Some(Arc::clone(&injector)),
            ..EngineConfig::default()
        },
        ..LowDiffConfig::default()
    };
    let tiers = TierStack::new(vec![
        Tier::Peer(Arc::new(PeerTier::new(
            Arc::clone(&replica_net),
            0,
            REPLICAS,
        ))),
        Tier::Durable {
            store: Arc::clone(&store),
            keep: lcfg.keep_fulls,
        },
    ]);
    let strat = LowDiffStrategy::with_tier_stack(Arc::clone(&store), lcfg, tiers);

    let mut doomed = Trainer::new(net(), Adam::default(), Box::new(strat), cfg.clone());
    let mut step = data_step();
    let mut ran = 0;
    while ran < TOTAL && !injector.crashed() {
        doomed.run_with_data(1, &mut step);
        ran += 1;
    }
    assert!(
        injector.crashed(),
        "rank-loss/{point:?} nth={nth}: crash never fired in {TOTAL} iterations"
    );
    drop(doomed);
    drop(store); // the whole rank is gone — its durable directory with it

    // Recovery sources: surviving peers' replica stores ONLY. A durable
    // source would mask the thing under test (peer-only recovery).
    let sources: Vec<RecoverySource> = peer_recovery_stores(&replica_net, 0)
        .into_iter()
        .map(|(tier, store)| RecoverySource { tier, store })
        .collect();
    let opts = ResumeOpts { fast_forward: true };
    let mut resumed = match Trainer::resume_tiered(
        net(),
        Adam::default(),
        NoCheckpoint::new(),
        cfg.clone(),
        &sources,
        opts,
    )
    .unwrap()
    {
        Some((tr, rep)) => {
            assert!(
                !rep.lossy,
                "rank-loss/{point:?}: replicated v2 fulls carry the whole state"
            );
            assert!(rep.resumed_iteration <= TOTAL);
            let src = rep.source.as_deref().unwrap_or("");
            assert!(
                src.starts_with("peer:"),
                "rank-loss/{point:?}: resumed from {src:?}, not a peer replica"
            );
            tr
        }
        // Crashed before anything replicated: cold start.
        None => Trainer::new(net(), Adam::default(), NoCheckpoint::new(), cfg.clone()),
    };
    let remaining = TOTAL - resumed.state().iteration;
    resumed.run_with_data(remaining, data_step());

    let got = resumed.state();
    assert_eq!(got.iteration, TOTAL);
    assert_eq!(
        got.params, want.params,
        "rank-loss/{point:?} ef={error_feedback} nth={nth}: params diverged after peer recovery"
    );
    assert_eq!(
        got.opt.m, want.opt.m,
        "rank-loss/{point:?} ef={error_feedback} nth={nth}: Adam m diverged after peer recovery"
    );
    assert_eq!(
        got.opt.v, want.opt.v,
        "rank-loss/{point:?} ef={error_feedback} nth={nth}: Adam v diverged after peer recovery"
    );
}

/// CI smoke subset: LowDiff (the paper's scheme) through every crash
/// point with error feedback on — the configuration the original bug
/// silently diverged in.
#[test]
fn smoke_lowdiff_every_crash_point_with_error_feedback() {
    for (i, point) in ALL_CRASH_POINTS.into_iter().enumerate() {
        torture_cell(Scheme::LowDiff, point, true, 100 + i as u64);
    }
}

/// CI smoke subset: every strategy survives a torn write (the nastiest
/// point — half a checkpoint is durable) and resumes bit-exactly.
#[test]
fn smoke_every_strategy_survives_a_torn_write() {
    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        torture_cell(scheme, CrashPoint::MidPersist, i % 2 == 0, 200 + i as u64);
    }
}

/// CI smoke subset: every strategy survives dying mid-capture (the
/// captured but unsealed frame must vanish without a trace) and resumes
/// bit-exactly, EF alternating across schemes.
#[test]
fn smoke_every_strategy_survives_a_mid_capture_crash() {
    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        torture_cell(scheme, CrashPoint::MidCapture, i % 2 == 1, 600 + i as u64);
    }
}

/// The full matrix: {six strategies} × {six crash points} × {EF on/off}
/// (LowDiff+ dense-only). 66 cells, each asserting bit-identical final
/// parameters and Adam moments. MidStripe cells run the striped persist
/// path; all other cells keep the single-blob layout.
#[test]
fn torture_matrix_all_strategies_all_crash_points() {
    let mut cell = 0u64;
    for scheme in SCHEMES {
        for point in ALL_CRASH_POINTS {
            for ef in [false, true] {
                if matches!(scheme, Scheme::LowDiffPlus) && ef {
                    continue;
                }
                torture_cell(scheme, point, ef, cell);
                cell += 1;
            }
        }
    }
}

/// Quantized extension of the matrix: {adaptive quant compressor + v3 diff
/// codec} × {six crash points} × {EF on/off}. 12 cells, each asserting
/// the resumed state is bit-identical to the straight quantized run.
#[test]
fn torture_matrix_quantized_compressor_all_crash_points() {
    let mut cell = 0u64;
    for point in ALL_CRASH_POINTS {
        for ef in [false, true] {
            quant_torture_cell(point, ef, 300 + cell);
            cell += 1;
        }
    }
}

/// CI smoke subset: whole-rank loss at the two points that leave the
/// replica set in its nastiest shapes — a torn half-frame on every peer
/// (MidPersist) and a crash between persist and ack (PostPersistPreAck).
#[test]
fn smoke_whole_rank_loss_recovers_from_peers() {
    rank_loss_cell(CrashPoint::MidPersist, true, 400);
    rank_loss_cell(CrashPoint::PostPersistPreAck, false, 401);
}

/// Whole-rank-loss extension of the matrix: {peer-replicated LowDiff} ×
/// {six crash points} × {EF on/off}. 12 cells; the lost rank's durable
/// store is destroyed with it, recovery runs over peer replicas alone,
/// and the resumed state must still be bit-identical to the straight run.
#[test]
fn torture_matrix_whole_rank_loss_all_crash_points() {
    let mut cell = 0u64;
    for point in ALL_CRASH_POINTS {
        for ef in [false, true] {
            rank_loss_cell(point, ef, 500 + cell);
            cell += 1;
        }
    }
}
