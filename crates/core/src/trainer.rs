//! [`Trainer`]: the training process of Algorithm 1, with a pluggable
//! [`CheckpointStrategy`].
//!
//! Per iteration (paper lines 2–8):
//!
//! 1. forward + loss (caller-provided step closure),
//! 2. backward — layer by layer, firing `on_layer_gradient` as each layer's
//!    gradient completes (LowDiff+'s reuse point),
//! 3. compress (Top-K with optional error feedback; `None` = the
//!    non-compression scenario, gradients travel dense),
//! 4. `on_synced_gradient` with the shared handle (LowDiff's reuse point),
//! 5. decompress and update the model state (`M_{t+1} = M_t + Adam(G_t)`) —
//!    note training updates from the *decompressed* gradient, which is what
//!    makes gradient-replay recovery bit-exact,
//! 6. `after_update` (full checkpoints, state-diff baselines).
//!
//! ## Resume = never crashed
//!
//! The model state alone does not determine the rest of the run: the
//! error-feedback residual, the compressor identity, and the data-RNG
//! cursor all feed into it. The trainer therefore
//!
//! * owns the data RNG ([`TrainerConfig::data_seed`]) and draws exactly
//!   **one** `u64` per iteration — the iteration's batch seed — so the
//!   data cursor is a 4-word value that a checkpoint can carry;
//! * captures residual + compressor + cursor as an [`AuxView`] each
//!   iteration and hands it to the strategy hooks (the v2 full-checkpoint
//!   format persists it);
//! * restores all of it in [`Trainer::resume`], the first-class
//!   crash-resume entry point. [`Trainer::with_state`] remains as the
//!   model-state-only constructor; with error feedback on it silently
//!   zeroes the residual, which is exactly the divergence `resume` fixes.

use crate::recovery;
use crate::strategy::{CheckpointStrategy, StrategyStats};
use lowdiff_compress::{
    AdaptiveQuant, AuxView, CompressedGrad, Compressor, CompressorCfg, ErrorFeedback, TopK,
};
use lowdiff_model::Network;
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::codec::{DiffEntry, FullCheckpoint};
use lowdiff_storage::CheckpointStore;
use lowdiff_tensor::Tensor;
use lowdiff_util::units::Secs;
use lowdiff_util::DetRng;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Top-K compression ratio ρ; `None` disables compression (gradients
    /// are shared dense — the LowDiff+ scenario). Mutually exclusive with
    /// [`quant_bits`](Self::quant_bits).
    pub compress_ratio: Option<f64>,
    /// Error feedback (residual accumulation) for compressed training.
    pub error_feedback: bool,
    /// Uniform gradient quantization width (4, 8 or 16 bits); `None`
    /// disables quantization. Mutually exclusive with
    /// [`compress_ratio`](Self::compress_ratio).
    pub quant_bits: Option<u8>,
    /// Let the adaptive precision policy retune the quantization width at
    /// runtime (promote on bound violation, demote after a calm streak).
    /// Only meaningful with `quant_bits`.
    pub adaptive_quant: bool,
    /// Hard per-element reconstruction bound the adaptive policy enforces;
    /// `<= 0.0` pins the configured width. Only meaningful with
    /// `adaptive_quant`.
    pub max_quant_err: f32,
    /// Seed of the trainer-owned data RNG. One `u64` is drawn from it per
    /// iteration (the batch seed handed to the step closure), so its
    /// cursor *is* the data-pipeline position — checkpointed in the v2
    /// full format and restored on resume.
    pub data_seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            compress_ratio: Some(0.01),
            error_feedback: true,
            quant_bits: None,
            adaptive_quant: false,
            max_quant_err: 0.0,
            data_seed: 0,
        }
    }
}

impl TrainerConfig {
    /// The compressor identity this config trains under (what resume
    /// checks the checkpoint against).
    pub fn compressor_cfg(&self) -> CompressorCfg {
        match (self.compress_ratio, self.quant_bits) {
            (Some(_), Some(_)) => {
                panic!("compress_ratio and quant_bits are mutually exclusive")
            }
            (Some(rho), None) => CompressorCfg::topk(rho),
            (None, Some(bits)) => CompressorCfg::quant(bits),
            (None, None) => CompressorCfg::none(),
        }
    }

    /// True when error feedback is actually in play: some gradient
    /// compressor (Top-K or quant) is configured and EF is on.
    fn ef_on(&self) -> bool {
        self.error_feedback && (self.compress_ratio.is_some() || self.quant_bits.is_some())
    }

    /// Refuse a checkpoint written under another compressor: its residual
    /// and differential chain would not compose with this config.
    fn check_compressor(&self, fc: &FullCheckpoint) -> io::Result<()> {
        let expected = self.compressor_cfg();
        match fc.aux.compressor {
            Some(stored) if stored != expected => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint compressor {stored:?} does not match \
                     configured {expected:?}: the stored residual and \
                     differential chain would not compose"
                ),
            )),
            _ => Ok(()),
        }
    }
}

enum Comp {
    None,
    Plain(TopK),
    Ef(ErrorFeedback<TopK>),
    Quant(AdaptiveQuant),
    QuantEf(ErrorFeedback<AdaptiveQuant>),
}

/// The auxiliary resume state a checkpoint of the current state carries:
/// the EF residual, the compressor, the data-RNG cursor and the precision
/// policy. Takes the trainer's fields, not the trainer, so it can be built
/// while the strategy is borrowed mutably.
fn aux_view<'a>(comp: &'a Comp, comp_cfg: CompressorCfg, data_rng: &DetRng) -> AuxView<'a> {
    AuxView {
        residual: match comp {
            Comp::Ef(c) => Some(c.residual()),
            Comp::QuantEf(c) => Some(c.residual()),
            _ => None,
        },
        compressor: Some(comp_cfg),
        rng: Some(data_rng.state()),
        quant: match comp {
            Comp::Quant(q) => Some(q.policy_state()),
            Comp::QuantEf(c) => Some(c.inner().policy_state()),
            _ => None,
        },
    }
}

/// What one training run produced.
#[derive(Clone, Debug)]
pub struct TrainerReport {
    /// Loss per iteration.
    pub losses: Vec<f64>,
    /// Wall-clock run time.
    pub elapsed: Secs,
    /// Strategy accounting (stall, writes, checkpoints).
    pub stats: StrategyStats,
    /// Iterations completed in this run.
    pub iterations: u64,
}

/// How [`Trainer::resume`] treats the differential chain past the latest
/// full checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct ResumeOpts {
    /// Replay the stored differentials through the optimizer to fast-forward
    /// past the full checkpoint. Requires the diffs to be replayable
    /// *gradients* (LowDiff's reuse). Schemes whose diffs are parameter
    /// deltas (Naïve DC) must pass `false` and resume at the full.
    pub fast_forward: bool,
}

impl Default for ResumeOpts {
    fn default() -> Self {
        Self { fast_forward: true }
    }
}

impl ResumeOpts {
    /// The replay gate: will resuming `cfg` from `fc` replay the
    /// differential chain? Not when fast-forward is off, and not under
    /// error feedback with a stored residual — the residual belongs to the
    /// full's iteration boundary, and replaying diffs would advance the
    /// parameters past it; anchoring at the full is the bit-exact point.
    /// Loaders consult it before fetching a chain at all.
    pub fn replays_chain(&self, cfg: &TrainerConfig, fc: &FullCheckpoint) -> bool {
        self.fast_forward && !(cfg.ef_on() && fc.aux.residual.is_some())
    }
}

/// What a resume ([`Trainer::resume`] and friends) or a model-state
/// recovery ([`crate::recovery::recover_serial`] / `recover_sharded`,
/// which never report `lossy`) restored.
#[derive(Clone, Debug)]
pub struct ResumeReport {
    /// Iteration training resumes from.
    pub resumed_iteration: u64,
    /// Iteration of the full checkpoint resume anchored on.
    pub full_iteration: u64,
    /// Differentials replayed on top of the full.
    pub replayed: usize,
    /// True when some training state could not be restored bit-exactly
    /// (a full written without aux, or a residual/error-feedback mismatch):
    /// training continues but may diverge from the uninterrupted run.
    pub lossy: bool,
    /// Which recovery source anchored the resume (`"peer:2"`,
    /// `"durable"`, …) under [`Trainer::resume_tiered`]; `None` for the
    /// single-store entry points.
    pub source: Option<String>,
}

/// One level of a tier-priority recovery walk: a label for reporting and
/// a store view of that tier's checkpoints (a peer's replica mailbox via
/// [`crate::engine::PeerReplicaBackend`], Gemini's memory store, or plain
/// durable storage).
#[derive(Clone)]
pub struct RecoverySource {
    /// Tier label surfaced in [`ResumeReport::source`].
    pub tier: String,
    pub store: Arc<CheckpointStore>,
}

/// Training engine binding a model, optimizer, compressor and strategy.
pub struct Trainer<S: CheckpointStrategy> {
    net: Network,
    state: ModelState,
    adam: Adam,
    comp: Comp,
    comp_cfg: CompressorCfg,
    data_rng: DetRng,
    strategy: S,
}

impl<S: CheckpointStrategy> Trainer<S> {
    /// Fresh trainer; the initial model state is the network's parameters.
    pub fn new(net: Network, adam: Adam, strategy: S, cfg: TrainerConfig) -> Self {
        let params = net.params_flat();
        let state = ModelState::new(params);
        Self::with_state(net, adam, strategy, cfg, state)
    }

    /// Rebuild a trainer around a recovered [`ModelState`] only.
    ///
    /// The data cursor is re-derived by advancing a fresh
    /// `DetRng::new(cfg.data_seed)` by `state.iteration` draws, so the
    /// data stream continues correctly; but with error feedback on the
    /// residual starts zeroed — a **lossy** resume. Prefer
    /// [`Trainer::resume`], which restores the full v2 aux state.
    pub fn with_state(
        net: Network,
        adam: Adam,
        strategy: S,
        cfg: TrainerConfig,
        state: ModelState,
    ) -> Self {
        assert_eq!(
            net.num_params(),
            state.num_params(),
            "state does not fit the network"
        );
        let psi = state.num_params();
        let comp_cfg = cfg.compressor_cfg(); // also rejects ratio+quant combos
        let comp = match (cfg.compress_ratio, cfg.quant_bits) {
            (None, None) => Comp::None,
            (Some(rho), _) if cfg.error_feedback => {
                Comp::Ef(ErrorFeedback::new(TopK::new(rho), psi))
            }
            (Some(rho), _) => Comp::Plain(TopK::new(rho)),
            (None, Some(bits)) => {
                let q = AdaptiveQuant::new(bits, cfg.adaptive_quant, cfg.max_quant_err, 4);
                if cfg.error_feedback {
                    Comp::QuantEf(ErrorFeedback::new(q, psi))
                } else {
                    Comp::Quant(q)
                }
            }
        };
        let mut data_rng = DetRng::new(cfg.data_seed);
        for _ in 0..state.iteration {
            data_rng.next_u64();
        }
        Self {
            net,
            state,
            adam,
            comp,
            comp_cfg,
            data_rng,
            strategy,
        }
    }

    /// Resume from the latest valid full checkpoint in `store`, restoring
    /// the *whole* training state: model + optimizer, error-feedback
    /// residual, data-RNG cursor. Returns `Ok(None)` when the store holds
    /// no full checkpoint (cold start). Fails with
    /// [`io::ErrorKind::InvalidInput`] when the checkpoint was produced
    /// under a different compressor than `cfg` configures.
    pub fn resume(
        net: Network,
        adam: Adam,
        strategy: S,
        cfg: TrainerConfig,
        store: &CheckpointStore,
    ) -> io::Result<Option<(Self, ResumeReport)>> {
        let found = Self::resume_walk(net, adam, strategy, cfg, &[store], ResumeOpts::default())?;
        Ok(found.map(|(tr, report, _)| (tr, report)))
    }

    /// Tier-priority resume: walk `sources` front-to-back and anchor on
    /// the **first** tier holding a valid full checkpoint — peers' replica
    /// stores before durable storage rebuild a lost rank with no storage
    /// round-trip (Checkmate), Gemini's memory store before durable skips
    /// the slow tier when the machine survived. The differential chain is
    /// replayed from the same source that held the full, so a resume never
    /// mixes tiers.
    ///
    /// A source that errors — while its full loads or while its chain
    /// does (dead peer mid-walk, unreadable backend) — is skipped, and
    /// recovery keeps falling down the stack. Only when *no* source yields
    /// a checkpoint is the first error returned; all-empty sources are a
    /// cold start (`Ok(None)`). A compressor mismatch is returned, not
    /// skipped.
    pub fn resume_tiered(
        net: Network,
        adam: Adam,
        strategy: S,
        cfg: TrainerConfig,
        sources: &[RecoverySource],
        opts: ResumeOpts,
    ) -> io::Result<Option<(Self, ResumeReport)>> {
        let stores: Vec<&CheckpointStore> = sources.iter().map(|s| &*s.store).collect();
        let found = Self::resume_walk(net, adam, strategy, cfg, &stores, opts)?;
        Ok(found.map(|(tr, mut report, i)| {
            report.source = Some(sources[i].tier.clone());
            (tr, report)
        }))
    }

    /// The one store-backed resume: [`crate::recovery`]'s walk over
    /// `stores` (sweeping unsealed striped leftovers — a crash between the
    /// stripe fan-out and the manifest seal leaves garbage invisible to
    /// recovery), then [`Trainer::resume_from_parts`]. Also returns the
    /// index of the store that anchored.
    fn resume_walk(
        net: Network,
        adam: Adam,
        strategy: S,
        cfg: TrainerConfig,
        stores: &[&CheckpointStore],
        opts: ResumeOpts,
    ) -> io::Result<Option<(Self, ResumeReport, usize)>> {
        let found = recovery::walk(stores, true, |fc| {
            cfg.check_compressor(fc)?;
            Ok(opts.replays_chain(&cfg, fc))
        })?;
        let Some((i, fc, chain)) = found else {
            return Ok(None);
        };
        let (tr, report) = Self::resume_from_parts(net, adam, strategy, cfg, fc, chain, opts)?;
        Ok(Some((tr, report, i)))
    }

    /// Resume from an already-decoded [`FullCheckpoint`] plus an
    /// already-fetched differential chain — the store-free core of every
    /// resume. Cluster workers use this directly: they stitch the per-rank
    /// shard checkpoints and diff chains into global parts first
    /// ([`lowdiff_storage::shard`]) and hand the result here. `chain` must
    /// be the diffs *after* `fc`'s iteration, in order; it is ignored
    /// whenever [`ResumeOpts::replays_chain`] says no, so a loader should
    /// ask that gate before fetching it.
    pub fn resume_from_parts(
        net: Network,
        adam: Adam,
        strategy: S,
        cfg: TrainerConfig,
        fc: FullCheckpoint,
        chain: Vec<DiffEntry>,
        opts: ResumeOpts,
    ) -> io::Result<(Self, ResumeReport)> {
        cfg.check_compressor(&fc)?;
        let chain = if opts.replays_chain(&cfg, &fc) {
            chain
        } else {
            Vec::new()
        };
        let FullCheckpoint {
            state: mut model,
            aux,
            lossy: blob_lossy,
            ..
        } = fc;
        let ef_on = cfg.ef_on();
        let has_residual = aux.residual.is_some();
        let full_iteration = model.iteration;

        // Fast-forward by gradient replay. Quantized entries also yield
        // their emitted `(scale, bits)` pairs, which fast-forward the
        // adaptive precision policy through exactly the transitions the
        // crashed run took.
        let replayed = chain.len();
        let observed: Vec<(f32, u8)> = chain
            .iter()
            .filter_map(|e| match &e.grad {
                CompressedGrad::Quant(q) => Some((q.scale, q.bits)),
                _ => None,
            })
            .collect();
        recovery::replay_chain(
            &mut model,
            &adam,
            &chain,
            rayon::pool::current_num_threads(),
        );

        let quant_policy_lossy =
            cfg.quant_bits.is_some() && cfg.adaptive_quant && aux.quant.is_none();
        let lossy = blob_lossy
            || (ef_on && !has_residual)
            || (has_residual && !ef_on)
            || quant_policy_lossy;

        // Data cursor: the stored state is positioned for the full's next
        // draw; each replayed diff consumed one more. Without a stored
        // cursor, re-derive from the seed (`with_state` below does it).
        let restored_rng = aux.rng.map(|words| {
            let mut r = DetRng::from_state(words);
            for _ in 0..replayed {
                r.next_u64();
            }
            r
        });

        let mut tr = Self::with_state(net, adam, strategy, cfg, model);
        if let Some(r) = restored_rng {
            tr.data_rng = r;
        }
        if ef_on {
            if let Some(res) = aux.residual {
                match &mut tr.comp {
                    Comp::Ef(c) => c.set_residual(res),
                    Comp::QuantEf(c) => c.set_residual(res),
                    _ => {}
                }
            }
        }
        // Re-enter the adaptive precision state machine exactly: restore
        // the snapshot taken at the full, then replay the transitions the
        // fast-forwarded chain entries caused.
        if let Some(policy) = match &mut tr.comp {
            Comp::Quant(q) => Some(q),
            Comp::QuantEf(c) => Some(c.inner_mut()),
            _ => None,
        } {
            if let Some(ps) = aux.quant {
                policy.restore_state(ps);
            }
            for &(scale, bits) in &observed {
                policy.observe(scale, bits);
            }
        }
        let report = ResumeReport {
            resumed_iteration: tr.state.iteration,
            full_iteration,
            replayed,
            lossy,
            source: None,
        };
        Ok((tr, report))
    }

    pub fn state(&self) -> &ModelState {
        &self.state
    }

    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    pub fn strategy_mut(&mut self) -> &mut S {
        &mut self.strategy
    }

    /// Dismantle the trainer, handing back the strategy (e.g. to inspect
    /// final stats or drive recovery APIs after the run).
    pub fn into_strategy(self) -> S {
        self.strategy
    }

    /// Run `iters` iterations. `step` does forward + loss on the network
    /// and returns `(loss, dL/d-output)`; the trainer does the rest. The
    /// per-iteration data RNG is drawn and discarded — use
    /// [`Trainer::run_with_data`] for data pipelines that should survive
    /// resume bit-exactly.
    pub fn run<F>(&mut self, iters: u64, mut step: F) -> TrainerReport
    where
        F: FnMut(&mut Network, u64) -> (f64, Tensor),
    {
        self.run_with_data(iters, move |net, t, _rng| step(net, t))
    }

    /// Run `iters` iterations with the trainer-owned data cursor: `step`
    /// receives a fresh `DetRng` seeded from this iteration's draw of the
    /// data RNG. Sampling batches from it makes the data stream a pure
    /// function of (`data_seed`, iteration) — and therefore resumable.
    /// Ends with the strategy's flush: everything the iterations
    /// checkpointed is durable when this returns.
    pub fn run_with_data<F>(&mut self, iters: u64, step: F) -> TrainerReport
    where
        F: FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor),
    {
        let (losses, t_start) = self.train(iters, step);
        self.strategy.flush();
        self.report(losses, t_start)
    }

    /// [`Trainer::run_with_data`] without the trailing flush: the
    /// checkpoints of these iterations may still be in flight when it
    /// returns. For callers that overlap persistence with the iterations
    /// that follow and flush once at the end (the cluster worker seals
    /// each epoch when its full lands, asking the strategy per
    /// iteration).
    pub fn run_unflushed<F>(&mut self, iters: u64, step: F) -> TrainerReport
    where
        F: FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor),
    {
        let (losses, t_start) = self.train(iters, step);
        self.report(losses, t_start)
    }

    fn report(&self, losses: Vec<f64>, t_start: Instant) -> TrainerReport {
        TrainerReport {
            iterations: losses.len() as u64,
            losses,
            elapsed: Secs(t_start.elapsed().as_secs_f64()),
            stats: self.strategy.stats(),
        }
    }

    /// The training loop of both `run_*` entry points: primes the
    /// strategy, then runs `iters` iterations. Returns the losses and
    /// when the first iteration started.
    fn train<F>(&mut self, iters: u64, mut step: F) -> (Vec<f64>, Instant)
    where
        F: FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor),
    {
        // Warm the capture machinery before the first measured iteration:
        // the aux view here has the exact shape every later capture will
        // have (contents don't matter for sizing), so engines can build
        // their capture frames without any anchor paying that one-time
        // cost.
        let aux = aux_view(&self.comp, self.comp_cfg, &self.data_rng);
        self.strategy.prime(&self.state, &aux);

        let t_start = Instant::now();
        let mut losses = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t = self.state.iteration;
            // Exactly one draw per iteration: the batch seed. The cursor
            // past this draw is what checkpoints capture — positioned for
            // iteration t+1, matching the state they snapshot (M_{t+1}).
            let iter_seed = self.data_rng.next_u64();
            let mut data = DetRng::new(iter_seed);
            // Model state is the single source of truth; materialize it
            // into the network before the forward pass.
            self.net.set_params_flat(&self.state.params);
            let (loss, grad_out) = step(&mut self.net, t, &mut data);
            losses.push(loss);

            // Backward with the layer-wise reuse hook.
            let strategy = &mut self.strategy;
            let flat_grad = self
                .net
                .backward_layerwise(&grad_out, |layer, grad, range| {
                    strategy.on_layer_gradient(t, layer, range, grad);
                });

            // Compress (or pass through dense — moving the flat gradient
            // into the handle, not copying it).
            let compressed = match &mut self.comp {
                Comp::None => CompressedGrad::Dense(flat_grad),
                Comp::Plain(c) => c.compress(&flat_grad),
                Comp::Ef(c) => c.compress(&flat_grad),
                Comp::Quant(c) => c.compress(&flat_grad),
                Comp::QuantEf(c) => c.compress(&flat_grad),
            };
            let handle = Arc::new(compressed);

            // The auxiliary resume state belonging to M_{t+1}: residual
            // after this compress, cursor after this draw, precision-policy
            // state after this interval's observation.
            let aux = aux_view(&self.comp, self.comp_cfg, &self.data_rng);

            // Reuse point (Q.put) — zero-copy handle.
            self.strategy.on_synced_gradient(t, &handle, &aux);

            // Decompress and update (lines 7–8). Dense handles are applied
            // by borrow — the Ψ-sized gradient is never re-materialized.
            let expanded;
            let dense: &[f32] = match handle.as_dense() {
                Some(d) => d,
                None => {
                    expanded = handle.to_dense();
                    &expanded
                }
            };
            self.state.apply_gradient(&self.adam, dense);
            self.strategy.after_update(&self.state, &aux);
        }
        (losses, t_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowdiff::{LowDiffConfig, LowDiffStrategy};
    use crate::recovery::recover_serial;
    use crate::strategy::NoCheckpoint;
    use lowdiff_model::builders::mlp;
    use lowdiff_model::data::Regression;
    use lowdiff_model::loss::mse;
    use lowdiff_storage::{CheckpointStore, MemoryBackend};

    fn regression_step(
        task: Regression,
        seed: u64,
    ) -> impl FnMut(&mut Network, u64) -> (f64, Tensor) {
        let mut rng = DetRng::new(seed);
        move |net: &mut Network, _t: u64| {
            let (x, y) = task.batch(&mut rng, 8);
            let pred = net.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            (loss, grad)
        }
    }

    /// A step closure that samples its batch from the trainer-owned data
    /// cursor — the resumable form.
    fn data_step(task: Regression) -> impl FnMut(&mut Network, u64, &mut DetRng) -> (f64, Tensor) {
        move |net: &mut Network, _t: u64, rng: &mut DetRng| {
            let (x, y) = task.batch(rng, 8);
            let pred = net.forward(&x);
            mse(&pred, &y)
        }
    }

    #[test]
    fn trains_with_no_checkpointing() {
        let net = mlp(&[6, 24, 2], 1);
        let mut tr = Trainer::new(
            net,
            Adam {
                lr: 3e-3,
                ..Adam::default()
            },
            NoCheckpoint::new(),
            TrainerConfig {
                compress_ratio: Some(0.3),
                error_feedback: true,
                ..TrainerConfig::default()
            },
        );
        let report = tr.run(120, regression_step(Regression::new(6, 2, 2), 3));
        assert_eq!(report.iterations, 120);
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first * 0.6, "loss {first} -> {last}");
        assert_eq!(tr.state().iteration, 120);
    }

    #[test]
    fn compressed_training_with_lowdiff_recovers_bit_exact() {
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let net = mlp(&[5, 16, 2], 4);
        let strat = LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 10,
                batch_size: 3,
                ..LowDiffConfig::default()
            },
        );
        let mut tr = Trainer::new(
            net,
            Adam::default(),
            strat,
            TrainerConfig {
                compress_ratio: Some(0.1),
                error_feedback: true,
                ..TrainerConfig::default()
            },
        );
        let report = tr.run(27, regression_step(Regression::new(5, 2, 5), 6));
        assert_eq!(report.stats.diff_checkpoints, 27);
        let live = tr.state().clone();
        drop(tr); // crash

        let (rec, rep) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
        assert_eq!(rep.full_iteration, 20);
        assert_eq!(rec.iteration, 27);
        assert_eq!(rec.params, live.params, "recovered params differ");
        assert_eq!(rec.opt.m, live.opt.m);
        assert_eq!(rec.opt.v, live.opt.v);
    }

    /// A full every iteration behind a slow store runs the ticket pool
    /// dry: the trainer waits out the worker instead of allocating more
    /// frames, and the run neither deadlocks nor loses a byte.
    #[test]
    fn fulls_behind_a_slow_store_wait_out_a_dry_ticket_pool() {
        use lowdiff_storage::{FaultConfig, FaultyBackend};

        // Every put stalls: the worker falls behind from the first write.
        let slow = FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig {
                latency_spike_rate: 1.0,
                latency_spike: std::time::Duration::from_millis(20),
                ..FaultConfig::default()
            },
        );
        let store = Arc::new(CheckpointStore::new(Arc::new(slow)));
        let strat = LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 1,
                batch_size: 1,
                ..LowDiffConfig::default()
            },
        );
        let mut tr = Trainer::new(
            mlp(&[5, 16, 2], 4),
            Adam::default(),
            strat,
            TrainerConfig {
                compress_ratio: Some(0.1),
                error_feedback: true,
                ..TrainerConfig::default()
            },
        );
        tr.run(8, regression_step(Regression::new(5, 2, 5), 6));
        assert!(
            tr.strategy().backpressure_events() > 0,
            "the ticket pool never ran dry"
        );
        let live = tr.state().clone();
        drop(tr);
        let (rec, rep) = recover_serial(&store, &Adam::default()).unwrap().unwrap();
        assert_eq!(rep.full_iteration, 8);
        assert_eq!(rec.params, live.params);
        assert_eq!(rec.opt.m, live.opt.m);
        assert_eq!(rec.opt.v, live.opt.v);
    }

    /// Every blob in `store` but the engine's `meta-` telemetry (the
    /// health blob carries timings).
    fn checkpoint_blobs(store: &CheckpointStore) -> Vec<(String, Vec<u8>)> {
        let backend = store.backend();
        let mut keys = backend.list().unwrap();
        keys.retain(|k| !k.starts_with("meta-"));
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let bytes = backend.get(&k).unwrap();
                (k, bytes)
            })
            .collect()
    }

    /// `run_unflushed` returns while the anchor's full is still being
    /// written; `run_with_data` returns only once it landed. After a final
    /// flush both leave the same bytes.
    #[test]
    fn unflushed_run_returns_before_the_anchor_lands() {
        use crate::engine::FullOutcome;
        use lowdiff_storage::{FaultConfig, FaultyBackend};
        use std::time::Duration;

        let run = |flush: bool| {
            // Every put stalls: the full at 4 queues behind two
            // differential batches.
            let slow = FaultyBackend::new(
                MemoryBackend::new(),
                FaultConfig {
                    latency_spike_rate: 1.0,
                    latency_spike: Duration::from_millis(150),
                    ..FaultConfig::default()
                },
            );
            let store = Arc::new(CheckpointStore::new(Arc::new(slow)));
            let strat = LowDiffStrategy::new(
                Arc::clone(&store),
                LowDiffConfig {
                    full_every: 4,
                    batch_size: 2,
                    ..LowDiffConfig::default()
                },
            );
            let cfg = TrainerConfig {
                compress_ratio: Some(0.2),
                data_seed: 5,
                ..TrainerConfig::default()
            };
            let mut tr = Trainer::new(mlp(&[4, 12, 2], 8), Adam::default(), strat, cfg);
            let task = Regression::new(4, 2, 7);
            let report = if flush {
                tr.run_with_data(4, data_step(task))
            } else {
                tr.run_unflushed(4, data_step(task))
            };
            assert_eq!(report.iterations, 4);
            let outcome = tr.strategy().full_outcome(4, Duration::ZERO);
            tr.strategy_mut().flush();
            (outcome, checkpoint_blobs(&store))
        };
        let (unflushed, unflushed_blobs) = run(false);
        let (flushed, flushed_blobs) = run(true);
        assert_eq!(unflushed, None, "the unflushed loop waited for the full");
        assert!(
            matches!(flushed, Some(FullOutcome::Landed { .. })),
            "run_with_data returned before its full landed"
        );
        assert!(unflushed_blobs
            .iter()
            .any(|(k, _)| k == &CheckpointStore::full_key(4)));
        assert!(
            unflushed_blobs == flushed_blobs,
            "the two entry points persisted different bytes"
        );
    }

    /// The tentpole property as a matrix: straight run ≡ crash + resume,
    /// bit for bit, with error feedback both off (diff-replay fast-forward)
    /// and on (anchored resume restoring the residual).
    #[test]
    fn resumed_training_continues_identically() {
        for error_feedback in [false, true] {
            resume_matrix_cell(error_feedback);
        }
    }

    fn resume_matrix_cell(error_feedback: bool) {
        let cfg = TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback,
            data_seed: 21,
            ..TrainerConfig::default()
        };
        let task = || Regression::new(4, 2, 7);

        // Straight run.
        let mut tr = Trainer::new(
            mlp(&[4, 12, 2], 8),
            Adam::default(),
            NoCheckpoint::new(),
            cfg.clone(),
        );
        tr.run_with_data(30, data_step(task()));
        let straight = tr.state().clone();

        // Checkpointed + crashed run. With EF the crash lands on a
        // full-checkpoint boundary (the anchored-resume case loses the
        // tail otherwise); without EF it crashes mid-chain so resume must
        // replay differentials and advance the data cursor past them.
        let crash_at = if error_feedback { 15 } else { 17 };
        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let strat = LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 5,
                batch_size: 2,
                ..LowDiffConfig::default()
            },
        );
        let mut tr1 = Trainer::new(mlp(&[4, 12, 2], 8), Adam::default(), strat, cfg.clone());
        tr1.run_with_data(crash_at, data_step(task()));
        drop(tr1); // crash

        let (mut tr2, rep) = Trainer::resume(
            mlp(&[4, 12, 2], 8),
            Adam::default(),
            NoCheckpoint::new(),
            cfg.clone(),
            &store,
        )
        .unwrap()
        .unwrap();
        assert!(!rep.lossy, "v2 full with aux resumes exactly");
        assert_eq!(rep.full_iteration, 15);
        if error_feedback {
            assert_eq!(rep.replayed, 0, "EF resume anchors at the full");
        } else {
            assert_eq!(rep.replayed, 2, "diffs at 15,16 fast-forward");
        }
        assert_eq!(rep.resumed_iteration, if error_feedback { 15 } else { 17 });

        tr2.run_with_data(30 - rep.resumed_iteration, data_step(task()));
        assert_eq!(tr2.state().iteration, 30);
        assert_eq!(
            tr2.state().params,
            straight.params,
            "resume diverged (error_feedback={error_feedback})"
        );
        assert_eq!(tr2.state().opt.m, straight.opt.m);
        assert_eq!(tr2.state().opt.v, straight.opt.v);
    }

    #[test]
    fn with_state_zeroes_residual_but_resume_restores_it() {
        // The historical bug, pinned: with error feedback on, `with_state`
        // diverges from the straight run while `resume` does not.
        let cfg = TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback: true,
            data_seed: 33,
            ..TrainerConfig::default()
        };
        let task = || Regression::new(4, 2, 9);
        let mut tr = Trainer::new(
            mlp(&[4, 12, 2], 5),
            Adam::default(),
            NoCheckpoint::new(),
            cfg.clone(),
        );
        tr.run_with_data(20, data_step(task()));
        let straight = tr.state().clone();

        let store = Arc::new(CheckpointStore::new(Arc::new(MemoryBackend::new())));
        let strat = LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 10,
                batch_size: 2,
                ..LowDiffConfig::default()
            },
        );
        let mut tr1 = Trainer::new(mlp(&[4, 12, 2], 5), Adam::default(), strat, cfg.clone());
        tr1.run_with_data(10, data_step(task()));
        drop(tr1);

        // Lossy path: model state only, residual zeroed.
        let fc = store.latest_valid_full_checkpoint().unwrap().unwrap();
        let mut lossy = Trainer::with_state(
            mlp(&[4, 12, 2], 5),
            Adam::default(),
            NoCheckpoint::new(),
            cfg.clone(),
            fc.state.clone(),
        );
        lossy.run_with_data(10, data_step(task()));
        assert_ne!(
            lossy.state().params,
            straight.params,
            "zeroed residual must diverge — otherwise the bug this PR fixes \
             is untestable"
        );

        // Exact path.
        let (mut exact, rep) = Trainer::resume(
            mlp(&[4, 12, 2], 5),
            Adam::default(),
            NoCheckpoint::new(),
            cfg,
            &store,
        )
        .unwrap()
        .unwrap();
        assert!(!rep.lossy);
        exact.run_with_data(10, data_step(task()));
        assert_eq!(exact.state().params, straight.params, "resume diverged");
    }

    #[test]
    fn auxless_full_resumes_lossy() {
        let net = mlp(&[4, 12, 2], 8);
        let psi = net.num_params();
        let mut state = ModelState::new(vec![0.5; psi]);
        state.iteration = 3;
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        store.save_full(&state).unwrap();

        let cfg = TrainerConfig {
            compress_ratio: Some(0.2),
            error_feedback: true,
            data_seed: 9,
            ..TrainerConfig::default()
        };
        let (tr, rep) = Trainer::resume(net, Adam::default(), NoCheckpoint::new(), cfg, &store)
            .unwrap()
            .unwrap();
        assert!(rep.lossy, "the full has no aux: EF resume is lossy");
        assert_eq!(rep.resumed_iteration, 3);
        assert_eq!(tr.state().params, state.params);
    }

    #[test]
    fn resume_rejects_compressor_mismatch() {
        let net = mlp(&[4, 12, 2], 8);
        let psi = net.num_params();
        let mut state = ModelState::new(vec![0.25; psi]);
        state.iteration = 4;
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        let aux = AuxView {
            residual: None,
            compressor: Some(CompressorCfg::topk(0.1)),
            rng: None,
            quant: None,
        };
        store.save_full_with_aux(&state, &aux).unwrap();

        let cfg = TrainerConfig {
            compress_ratio: Some(0.5),
            error_feedback: false,
            data_seed: 0,
            ..TrainerConfig::default()
        };
        match Trainer::resume(net, Adam::default(), NoCheckpoint::new(), cfg, &store) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("mismatched compressor must not resume"),
        }
    }

    #[test]
    fn resume_from_empty_store_is_none() {
        let store = CheckpointStore::new(Arc::new(MemoryBackend::new()));
        let r = Trainer::resume(
            mlp(&[3, 8, 1], 2),
            Adam::default(),
            NoCheckpoint::new(),
            TrainerConfig::default(),
            &store,
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn dense_mode_produces_dense_handles() {
        // compress_ratio: None → the LowDiff+ scenario: gradient handles
        // are Dense and still flow through the strategy.
        struct Probe {
            dense_seen: u64,
            stats: StrategyStats,
        }
        impl CheckpointStrategy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_synced_gradient(
                &mut self,
                _: u64,
                g: &Arc<CompressedGrad>,
                _aux: &AuxView<'_>,
            ) -> Secs {
                if matches!(**g, CompressedGrad::Dense(_)) {
                    self.dense_seen += 1;
                }
                Secs::ZERO
            }
            fn stats(&self) -> StrategyStats {
                self.stats.clone()
            }
        }
        let mut tr = Trainer::new(
            mlp(&[3, 8, 1], 9),
            Adam::default(),
            Probe {
                dense_seen: 0,
                stats: StrategyStats::default(),
            },
            TrainerConfig {
                compress_ratio: None,
                error_feedback: false,
                ..TrainerConfig::default()
            },
        );
        tr.run(5, regression_step(Regression::new(3, 1, 10), 12));
        assert_eq!(tr.strategy().dense_seen, 5);
    }

    #[test]
    fn layerwise_hook_fires_per_parameterized_layer() {
        struct Probe {
            layer_events: Vec<(u64, usize)>,
            stats: StrategyStats,
        }
        impl CheckpointStrategy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_layer_gradient(
                &mut self,
                iter: u64,
                layer: usize,
                _r: std::ops::Range<usize>,
                _g: &[f32],
            ) -> Secs {
                self.layer_events.push((iter, layer));
                Secs::ZERO
            }
            fn stats(&self) -> StrategyStats {
                self.stats.clone()
            }
        }
        let mut tr = Trainer::new(
            mlp(&[3, 8, 1], 13), // fc0, relu, fc1 → 2 parameterized layers
            Adam::default(),
            Probe {
                layer_events: vec![],
                stats: StrategyStats::default(),
            },
            TrainerConfig::default(),
        );
        tr.run(3, regression_step(Regression::new(3, 1, 14), 15));
        let probe = tr.strategy();
        assert_eq!(probe.layer_events.len(), 6, "2 layers × 3 iters");
        // Reverse layer order within an iteration.
        assert_eq!(probe.layer_events[0], (0, 2));
        assert_eq!(probe.layer_events[1], (0, 0));
    }
}
