//! [`ShardedStrategy`] gathers the rank's shard straight into its capture
//! frames — no hook allocates anything shard-sized once the pool is
//! primed — and still writes exactly the blobs that projecting every hook
//! argument eagerly writes.

use lowdiff::{
    AuxView, CheckpointStrategy, CompressorCfg, EngineConfig, FullOutcome, LowDiffConfig,
    LowDiffStrategy, ShardedStrategy, StrategyStats,
};
use lowdiff_compress::{CompressedGrad, ErrorFeedback, TopK};
use lowdiff_optim::{Adam, ModelState};
use lowdiff_storage::{
    codec, CheckpointStore, FaultConfig, FaultyBackend, MemoryBackend, RetryPolicy, ShardSpec,
    StorageBackend,
};
use lowdiff_testkit::ShardProjection;
use lowdiff_util::units::Secs;
use lowdiff_util::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Records the largest allocation the current thread makes while armed.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // try_with: the allocator also runs during thread teardown.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only thread-local cells and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest allocation `f` makes on this thread.
fn peak_alloc(f: impl FnOnce()) -> usize {
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    PEAK.with(Cell::get)
}

/// Ψ not divisible by the chunk count: the last chunk is short.
const PSI: usize = 40_003;
const FULL_EVERY: u64 = 5;

fn spec() -> ShardSpec {
    ShardSpec::new(PSI, 16, vec![1, 4, 5, 9, 15]).unwrap()
}

type Faulty = FaultyBackend<MemoryBackend>;

fn lowdiff_over(backend: &Arc<Faulty>) -> LowDiffStrategy {
    let store = Arc::new(CheckpointStore::new(
        Arc::clone(backend) as Arc<dyn StorageBackend>
    ));
    LowDiffStrategy::new(
        store,
        LowDiffConfig {
            full_every: FULL_EVERY,
            batch_size: 1,
            engine: EngineConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    base_delay: Duration::from_micros(100),
                    max_delay: Duration::from_micros(500),
                },
                // The health blob carries timings; it is not a checkpoint.
                export_health: false,
                ..EngineConfig::default()
            },
            ..LowDiffConfig::default()
        },
    )
}

/// A deterministic Top-K + error-feedback training stream over a Ψ-sized
/// state: the gradient handle and aux view each hook receives.
struct Stream {
    rng: DetRng,
    ef: ErrorFeedback<TopK>,
    adam: Adam,
    state: ModelState,
}

impl Stream {
    fn new() -> Self {
        let mut rng = DetRng::new(17);
        let state = ModelState::new((0..PSI).map(|_| rng.normal() as f32).collect());
        Self {
            rng,
            ef: ErrorFeedback::new(TopK::new(0.01), PSI),
            adam: Adam::default(),
            state,
        }
    }

    fn aux(&self) -> AuxView<'_> {
        AuxView {
            residual: Some(self.ef.residual()),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([self.state.iteration, 2, 3, 4]),
            quant: None,
        }
    }

    fn grad(&mut self) -> Arc<CompressedGrad> {
        let g: Vec<f32> = (0..PSI).map(|_| self.rng.normal() as f32 * 0.1).collect();
        Arc::new(self.ef.compress(&g))
    }

    fn update(&mut self, g: &CompressedGrad) {
        self.state.apply_gradient(&self.adam, &g.to_dense());
    }
}

/// Once the capture pool is primed the training thread allocates nothing
/// shard-sized: not on a synced gradient, not after a non-anchor update,
/// not on a second `prime`, and not at a capture — the scheduled anchor
/// and a forced re-anchor both gather the shard straight into a primed
/// frame.
#[test]
fn primed_hooks_make_no_shard_sized_allocation() {
    let backend = Arc::new(FaultyBackend::new(
        MemoryBackend::new(),
        FaultConfig::default(),
    ));
    let spec = spec();
    let shard_bytes = spec.len() * 4;
    let mut strategy = ShardedStrategy::new(spec, lowdiff_over(&backend));
    let mut stream = Stream::new();
    strategy.prime(&stream.state, &stream.aux());

    // One epoch up to the scheduled anchor, then one more iteration whose
    // diff is dropped, so that its update forces a re-anchor.
    let mut peak = 0;
    for t in 0..=FULL_EVERY {
        let outage = t == FULL_EVERY;
        if outage {
            // The anchor lands before the store is cut off.
            strategy.flush();
            backend.fail_all_puts();
        }
        let g = stream.grad();
        peak = peak.max(peak_alloc(|| {
            strategy.on_synced_gradient(t, &g, &stream.aux());
        }));
        if outage {
            strategy.flush();
            backend.heal();
        }
        stream.update(&g);
        peak = peak.max(peak_alloc(|| {
            strategy.after_update(&stream.state, &stream.aux());
        }));
    }
    peak = peak.max(peak_alloc(|| strategy.prime(&stream.state, &stream.aux())));
    assert!(
        peak < shard_bytes,
        "a {peak}-byte allocation on a primed hook (shard is {shard_bytes} bytes)"
    );

    strategy.flush();
    let stats = strategy.stats();
    assert_eq!(stats.full_checkpoints, 2);
    assert_eq!(stats.forced_fulls, 1);
    assert_eq!(stats.dropped_batches, 1);
    assert_eq!(stats.diff_checkpoints, FULL_EVERY + 1);
}

/// The reference the lazy adapter must reproduce byte for byte: every
/// hook argument projected onto the shard, then handed to a plain
/// [`LowDiffStrategy`].
struct EagerProjection {
    spec: ShardSpec,
    inner: LowDiffStrategy,
}

impl CheckpointStrategy for EagerProjection {
    fn name(&self) -> &'static str {
        "eager-projection"
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        let aux = self.spec.project_aux(aux);
        self.inner
            .prime(&self.spec.project_state(state), &aux.view());
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        let grad = Arc::new(self.spec.project_grad(grad).unwrap());
        let aux = self.spec.project_aux(aux);
        self.inner.on_synced_gradient(iteration, &grad, &aux.view())
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        let aux = self.spec.project_aux(aux);
        self.inner
            .after_update(&self.spec.project_state(state), &aux.view())
    }

    fn flush(&mut self) -> Secs {
        self.inner.flush()
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}

const ITERS: u64 = 14;
/// `prime` runs again at every multiple, as each `run_with_data` call does.
const EPOCH: u64 = 4;

/// Drive `strategy` through the stream. Flushing after every synced
/// gradient persists its diff before the update's hook runs, so when the
/// store is cut off for the diff of iteration `outage`, the dropped batch's
/// re-anchor request reaches the very next `after_update`. Returns every
/// blob stored, sorted by key, and the final stats.
fn drive(
    mut strategy: impl CheckpointStrategy,
    backend: &Faulty,
    outage: Option<u64>,
) -> (Vec<(String, Vec<u8>)>, StrategyStats) {
    let mut stream = Stream::new();
    for t in 0..ITERS {
        if t % EPOCH == 0 {
            strategy.prime(&stream.state, &stream.aux());
        }
        let g = stream.grad();
        if outage == Some(t) {
            backend.fail_all_puts();
        }
        strategy.on_synced_gradient(t, &g, &stream.aux());
        strategy.flush();
        backend.heal();
        stream.update(&g);
        strategy.after_update(&stream.state, &stream.aux());
    }
    strategy.flush();
    let mem = backend.inner();
    let blobs = mem
        .list()
        .unwrap()
        .into_iter()
        .map(|k| {
            let v = mem.get(&k).unwrap();
            (k, v)
        })
        .collect();
    (blobs, strategy.stats())
}

/// Shard fulls and diff batches are the eager projection's, blob for blob
/// — with no fault, with a forced re-anchor between scheduled anchors
/// (the diff of iteration 5 dropped: a full at 6), and with one that
/// coincides with the scheduled anchor at 10.
#[test]
fn lazy_projection_writes_the_eager_projection_blobs() {
    for (outage, fulls) in [(None, 2), (Some(5), 3), (Some(9), 2)] {
        let lazy_backend = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let lazy = ShardedStrategy::new(spec(), lowdiff_over(&lazy_backend));
        let (lazy_blobs, lazy_stats) = drive(lazy, &lazy_backend, outage);

        let eager_backend = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let eager = EagerProjection {
            spec: spec(),
            inner: lowdiff_over(&eager_backend),
        };
        let (eager_blobs, eager_stats) = drive(eager, &eager_backend, outage);

        let dropped = u64::from(outage.is_some());
        for stats in [&lazy_stats, &eager_stats] {
            assert_eq!(stats.dropped_batches, dropped, "outage {outage:?}");
            assert_eq!(stats.forced_fulls, dropped, "outage {outage:?}");
        }
        assert_eq!(lazy_stats.full_checkpoints, fulls, "outage {outage:?}");
        assert_eq!(eager_stats.full_checkpoints, fulls, "outage {outage:?}");
        let keys = |blobs: &[(String, Vec<u8>)]| -> Vec<String> {
            blobs.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&lazy_blobs), keys(&eager_blobs), "outage {outage:?}");
        assert!(
            lazy_blobs == eager_blobs,
            "outage {outage:?}: same keys, different bytes"
        );
    }
}

/// A landed shard full's outcome carries the CRC of the rank's shard of
/// the state at its iteration, for ragged specs too.
#[test]
fn landed_outcome_carries_the_crc_of_the_projected_shard() {
    let mut rng = DetRng::new(9);
    let cases: [(usize, u32, Vec<u32>); 7] = [
        (37, 5, vec![]),        // empty shard
        (37, 5, vec![2]),       // one chunk
        (37, 5, vec![0, 3, 4]), // Ψ not divisible by num_chunks
        (37, 5, vec![4]),       // only the short last chunk
        (5, 8, vec![1, 6, 7]),  // chunks past Ψ own nothing
        (3 * 4096 + 17, 16, vec![0, 5, 6, 15]),
        (3 * 4096 + 17, 1, vec![0]), // world size 1: the whole space
    ];
    for (psi, num_chunks, chunks) in cases {
        let spec = ShardSpec::new(psi, num_chunks, chunks.clone()).unwrap();
        let mut state = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
        for (m, v) in state.opt.m.iter_mut().zip(state.opt.v.iter_mut()) {
            *m = rng.normal() as f32;
            *v = rng.normal().abs() as f32;
        }
        state.iteration = FULL_EVERY;
        // A residual puts a region behind the span the CRC covers.
        let residual: Vec<f32> = (0..psi).map(|_| rng.normal() as f32).collect();
        let aux = AuxView {
            residual: Some(&residual),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let backend = Arc::new(FaultyBackend::new(
            MemoryBackend::new(),
            FaultConfig::default(),
        ));
        let mut strategy = ShardedStrategy::new(spec.clone(), lowdiff_over(&backend));
        strategy.after_update(&state, &aux);
        assert_eq!(
            strategy.full_outcome(FULL_EVERY, Duration::from_secs(10)),
            Some(FullOutcome::Landed {
                state_crc: codec::state_crc(&spec.project_state(&state))
            }),
            "psi={psi} num_chunks={num_chunks} chunks={chunks:?}"
        );
        strategy.flush();
    }
}
