//! Hot-path micro-benchmarks: naive vs optimized implementations of the
//! kernels this repo's training and checkpointing loops spend their time in.
//!
//! Each benchmark times the retained pre-optimization reference against the
//! shipping implementation on the same ≥16M-element buffers (the matmul row
//! on the benchmark MLP's first-layer shape, the v2 decode row at the
//! benchmark model's Ψ ≈ 4.2 M), so the reported speedups are algorithmic
//! (bulk memcpy codec, one-pass verify-and-decode, slicing-by-8 CRC,
//! chunked reduce-scatter, radix-threshold selection, register-blocked
//! matmul) and reproducible on any host — they do not depend on core
//! count, though the parallel kernels additionally scale with threads
//! where cores exist.
//!
//! Usage: `bench_hotpath [--elems N] [--ranks R] [--reps K] [--out PATH]
//! [--smoke]` (defaults: 16 Mi elements, 4 ranks, 3 reps,
//! BENCH_hotpath.json). `--smoke` runs a tiny single-rep configuration for
//! CI sanity and skips the JSON unless `--out` is given explicitly.
//! `scripts/bench.sh` builds release and refreshes the JSON at the repo root.
//!
//! Built with `--features count-allocs` (as `scripts/bench.sh` and the CI
//! smoke run do), the run ends by asserting that a steady-state Top-K +
//! error-feedback `compress` makes no allocation of Ψ·4 bytes or more.
//!
//! Every optimized kernel is additionally re-timed with the worker pool
//! forced to 1, 2 and 4 threads (`pool_sweep` per row in the JSON), so the
//! recorded numbers separate algorithmic speedup from thread scaling.
//! Kernels that don't fan out through the calling thread's pool (the
//! allreduce drives its own worker group) stay flat across the sweep —
//! that flatness is the recorded fact.

use lowdiff_bench::print_table;
use lowdiff_comm::WorkerGroup;
use lowdiff_compress::{AuxState, CompressorCfg, TopK};
use lowdiff_optim::{Adam, AdamState, ModelState};
use lowdiff_storage::codec;
use lowdiff_tensor::{ops, Tensor};
use lowdiff_testkit::reference;
use lowdiff_util::crc::crc32;
use lowdiff_util::DetRng;
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: lowdiff_bench::alloc::CountingAlloc = lowdiff_bench::alloc::CountingAlloc;

/// The compress path's allocation contract: once warm, `compress` reuses
/// its histogram scratch and residual buffer, and allocates only the
/// k-sized handle it returns — nothing as large as the gradient.
#[cfg(feature = "count-allocs")]
fn assert_compress_allocates_nothing_psi_sized(grad: &[f32]) {
    use lowdiff_bench::alloc;
    use lowdiff_compress::ErrorFeedback;
    alloc::set_large_threshold(grad.len() * 4);
    alloc::track_current_thread();
    let mut ef = ErrorFeedback::new(TopK::new(0.01), grad.len());
    ef.compress(grad); // warm-up: sizes the scratch
    let (_, before) = alloc::counts();
    for _ in 0..3 {
        std::hint::black_box(ef.compress(grad));
    }
    let (_, after) = alloc::counts();
    assert_eq!(
        after - before,
        0,
        "steady-state compress made gradient-sized allocations"
    );
    eprintln!(
        "compress: 0 allocations >= {} B in steady state",
        grad.len() * 4
    );
}

/// Pool widths every optimized kernel is re-timed at.
const POOL_SWEEP: [usize; 3] = [1, 2, 4];

struct BenchResult {
    name: &'static str,
    what: &'static str,
    baseline_secs: f64,
    optimized_secs: f64,
    /// Optimized-kernel time at each [`POOL_SWEEP`] width.
    pool_sweep: Vec<(usize, f64)>,
}

impl BenchResult {
    fn speedup(&self) -> f64 {
        self.baseline_secs / self.optimized_secs
    }
}

/// The Top-K baseline: the comparator quick-select over an index array
/// that `TopK::select` used to be (random access through `grad[idx]`, a
/// Ψ-long `Vec<u32>` of scratch per call). Defined for NaN-free inputs.
fn topk_index_quickselect(grad: &[f32], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..grad.len() as u32).collect();
    let cmp = |&a: &u32, &b: &u32| {
        let (va, vb) = (grad[a as usize].abs(), grad[b as usize].abs());
        vb.partial_cmp(&va)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    idx.select_nth_unstable_by(k - 1, cmp);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Best-of-`reps` wall time of `f` (min filters scheduler noise).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        drop(out);
    }
    best
}

/// Best-of-`reps` time of `f` with the pool forced to each sweep width.
fn sweep_pool<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<(usize, f64)> {
    POOL_SWEEP
        .iter()
        .map(|&t| {
            let secs = rayon::pool::with_num_threads(t, || time_best(reps, &mut f));
            (t, secs)
        })
        .collect()
}

fn main() {
    let mut elems: usize = 1 << 24;
    let mut ranks: usize = 4;
    let mut reps: usize = 3;
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut out_explicit = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--elems" => elems = val("--elems").parse().expect("bad --elems"),
            "--ranks" => ranks = val("--ranks").parse().expect("bad --ranks"),
            "--reps" => reps = val("--reps").parse().expect("bad --reps"),
            "--out" => {
                out_path = val("--out");
                out_explicit = true;
            }
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if smoke {
        // CI sanity: every kernel pair runs once on a tiny buffer; the
        // timings are meaningless, only "it completes" matters.
        elems = 1 << 13;
        ranks = 2;
        reps = 1;
    }
    let threads = rayon::pool::current_num_threads();
    eprintln!(
        "bench_hotpath: {elems} elements, {ranks} ranks, {reps} reps, {threads} pool threads"
    );

    let mut rng = DetRng::new(42);
    let grad: Vec<f32> = (0..elems).map(|_| rng.normal() as f32).collect();
    let mut results: Vec<BenchResult> = Vec::new();

    // --- codec encode / decode (bulk memcpy vs per-element) ----------------
    {
        let mut st = ModelState::new(grad.clone());
        st.iteration = 77;
        st.opt.t = 77;
        rng.fill_normal_f32(&mut st.opt.m, 0.1);
        rng.fill_normal_f32(&mut st.opt.v, 0.01);

        let base = time_best(reps, || reference::encode_model_state(&st));
        let opt = time_best(reps, || codec::encode_model_state(&st));
        results.push(BenchResult {
            name: "codec_encode",
            what: "full checkpoint serialize (3 x elems f32)",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || codec::encode_model_state(&st)),
        });

        // The reference decoder predates the v2 full format, so the decode
        // comparison runs on a v1 blob both decoders accept.
        let bytes = reference::encode_model_state(&st);
        let base = time_best(reps, || reference::decode_model_state(&bytes).unwrap());
        let opt = time_best(reps, || codec::decode_model_state(&bytes).unwrap());
        results.push(BenchResult {
            name: "codec_decode",
            what: "full checkpoint deserialize",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || codec::decode_model_state(&bytes).unwrap()),
        });

        // A v2 full with an error-feedback residual at the benchmark
        // model's Ψ ≈ 4.2 M (what recovery reads): the two-pass decoder
        // (whole-body CRC, then copy) against the one-pass one that CRCs
        // and copies each piece while it is in cache.
        let psi = elems.min(4_200_000);
        let small = ModelState {
            iteration: st.iteration,
            params: st.params[..psi].to_vec(),
            opt: AdamState {
                m: st.opt.m[..psi].to_vec(),
                v: st.opt.v[..psi].to_vec(),
                t: st.opt.t,
            },
        };
        let aux = AuxState {
            residual: Some(grad[elems - psi..].to_vec()),
            compressor: Some(CompressorCfg::topk(0.01)),
            rng: Some([1, 2, 3, 4]),
            quant: None,
        };
        let v2 = codec::encode_full_checkpoint(&small, &aux.view());
        assert_eq!(
            codec::decode_full_checkpoint(&v2).unwrap(),
            reference::decode_full_checkpoint(&v2).unwrap(),
            "full decoders disagree"
        );
        let base = time_best(reps, || reference::decode_full_checkpoint(&v2).unwrap());
        let opt = time_best(reps, || codec::decode_full_checkpoint(&v2).unwrap());
        results.push(BenchResult {
            name: "codec_decode_v2",
            what: "v2 full + residual deserialize at psi 4.2M (two-pass vs one-pass)",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || codec::decode_full_checkpoint(&v2).unwrap()),
        });
        drop((small, v2));

        let base = time_best(reps, || reference::crc32_bytewise(&bytes));
        let opt = time_best(reps, || crc32(&bytes));
        results.push(BenchResult {
            name: "crc32",
            what: "checksum over the encoded checkpoint",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || crc32(&bytes)),
        });
    }

    // --- allreduce (reduce-scatter vs clone-everything) --------------------
    {
        let per_rank: Vec<Vec<f32>> = (0..ranks)
            .map(|r| {
                let mut rng = DetRng::new(1000 + r as u64);
                (0..elems).map(|_| rng.normal() as f32).collect()
            })
            .collect();
        let run = |naive: bool| {
            let group = WorkerGroup::new(ranks);
            group.run(|ctx| {
                let mut buf = per_rank[ctx.rank()].clone();
                if naive {
                    ctx.allreduce_mean_naive(&mut buf);
                } else {
                    ctx.allreduce_mean(&mut buf);
                }
                buf[0]
            });
        };
        let base = time_best(reps, || run(true));
        let opt = time_best(reps, || run(false));
        results.push(BenchResult {
            name: "allreduce",
            what: "dense mean allreduce across ranks",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || run(false)),
        });
    }

    // --- Top-K selection (radix threshold vs index quick-select) -----------
    {
        let k = (elems / 100).max(1); // the paper's rho = 0.01
        assert_eq!(
            TopK::select(&grad, k),
            topk_index_quickselect(&grad, k),
            "selection kernels disagree"
        );
        let base = time_best(reps, || topk_index_quickselect(&grad, k));
        let opt = time_best(reps, || TopK::select(&grad, k));
        results.push(BenchResult {
            name: "topk",
            what: "top-1% selection over the gradient",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || TopK::select(&grad, k)),
        });
    }

    // --- Adam step (chunked-parallel vs serial loop) -----------------------
    {
        let adam = Adam::default();
        let serial = |st: &mut AdamState, p: &mut [f32], g: &[f32]| {
            st.t += 1;
            let bc1 = (1.0 - (adam.beta1 as f64).powi(st.t as i32)) as f32;
            let bc2 = (1.0 - (adam.beta2 as f64).powi(st.t as i32)) as f32;
            for i in 0..p.len() {
                let gi = g[i];
                let m = adam.beta1 * st.m[i] + (1.0 - adam.beta1) * gi;
                let v = adam.beta2 * st.v[i] + (1.0 - adam.beta2) * gi * gi;
                st.m[i] = m;
                st.v[i] = v;
                p[i] -= adam.lr * (m / bc1) / ((v / bc2).sqrt() + adam.eps);
            }
        };
        let base = time_best(reps, || {
            let mut st = AdamState::new(elems);
            let mut p = vec![0.5f32; elems];
            serial(&mut st, &mut p, &grad);
            p[0]
        });
        let opt = time_best(reps, || {
            let mut st = AdamState::new(elems);
            let mut p = vec![0.5f32; elems];
            adam.step(&mut st, &mut p, &grad);
            p[0]
        });
        results.push(BenchResult {
            name: "adam",
            what: "one optimizer step over the full parameter vector",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || {
                let mut st = AdamState::new(elems);
                let mut p = vec![0.5f32; elems];
                adam.step(&mut st, &mut p, &grad);
                p[0]
            }),
        });
    }

    // --- matmul_nt (register-blocked tiles vs one dot per output) ----------
    {
        // fc0's forward in the repo benchmark's MLP: a batch of 8 against a
        // 2048×1024 weight, independent of --elems.
        let (batch, out_dim, in_dim) = (8, 2048, 1024);
        let mut x = Tensor::zeros(&[batch, in_dim]);
        let mut w = Tensor::zeros(&[out_dim, in_dim]);
        rng.fill_normal_f32(x.as_mut_slice(), 1.0);
        rng.fill_normal_f32(w.as_mut_slice(), 0.03);
        assert_eq!(
            ops::matmul_nt(&x, &w).as_slice(),
            reference::matmul_nt_scalar(&x, &w).as_slice(),
            "matmul_nt kernels disagree"
        );
        let base = time_best(reps, || reference::matmul_nt_scalar(&x, &w));
        let opt = time_best(reps, || ops::matmul_nt(&x, &w));
        results.push(BenchResult {
            name: "matmul_nt",
            what: "Linear forward x·Wᵀ at fc0's shape (8×1024 · (2048×1024)ᵀ)",
            baseline_secs: base,
            optimized_secs: opt,
            pool_sweep: sweep_pool(reps, || ops::matmul_nt(&x, &w)),
        });
    }

    // --- report ------------------------------------------------------------
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![
                r.name.to_string(),
                format!("{:.1}ms", r.baseline_secs * 1e3),
                format!("{:.1}ms", r.optimized_secs * 1e3),
                format!("{:.2}x", r.speedup()),
            ];
            for (_, secs) in &r.pool_sweep {
                row.push(format!("{:.1}ms", secs * 1e3));
            }
            row
        })
        .collect();
    print_table(
        &format!("hot-path kernels, {elems} elements"),
        &[
            "kernel",
            "baseline",
            "optimized",
            "speedup",
            "@1 thread",
            "@2 threads",
            "@4 threads",
        ],
        &rows,
    );

    #[cfg(feature = "count-allocs")]
    assert_compress_allocates_nothing_psi_sized(&grad);

    if smoke && !out_explicit {
        eprintln!("smoke mode: skipping json");
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"elems\": {elems},\n"));
    json.push_str(&format!("  \"ranks\": {ranks},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"pool_threads\": {threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sweep = r
            .pool_sweep
            .iter()
            .map(|(t, s)| format!("{{\"threads\": {t}, \"secs\": {s:.6}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"what\": \"{}\", \"baseline_secs\": {:.6}, \"optimized_secs\": {:.6}, \"speedup\": {:.3}, \"pool_sweep\": [{sweep}]}}{}\n",
            r.name,
            r.what,
            r.baseline_secs,
            r.optimized_secs,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
