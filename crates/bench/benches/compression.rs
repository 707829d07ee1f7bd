//! Gradient-compression kernel benchmarks: Top-K selection, uniform
//! quantization, decompress, sparse merge — the operations on LowDiff's
//! per-iteration path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowdiff_compress::{Compressor, SparseGrad, TopK, UniformQuant};
use lowdiff_util::DetRng;
use std::hint::black_box;

fn gradient(n: usize) -> Vec<f32> {
    let mut rng = DetRng::new(42);
    let mut g = vec![0.0f32; n];
    rng.fill_normal_f32(&mut g, 1.0);
    g
}

fn bench_compressors(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.sample_size(10);
    for &n in &[100_000usize, 1_000_000] {
        let g = gradient(n);
        group.throughput(Throughput::Bytes((n * 4) as u64));
        group.bench_with_input(BenchmarkId::new("topk_rho0.01", n), &g, |b, g| {
            let mut comp = TopK::new(0.01);
            b.iter(|| black_box(comp.compress(g)));
        });
        group.bench_with_input(BenchmarkId::new("quant8", n), &g, |b, g| {
            let mut comp = UniformQuant::new(8);
            b.iter(|| black_box(comp.compress(g)));
        });
    }
    group.finish();
}

fn bench_decompress_and_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_ops");
    group.sample_size(10);
    let n = 1_000_000;
    let g = gradient(n);
    let mut comp = TopK::new(0.01);
    let a = comp.compress(&g);
    let sa = a.as_sparse().unwrap().clone();
    let g2 = gradient(n);
    let sb = comp.compress(&g2).as_sparse().unwrap().clone();

    group.bench_function("decompress_1m_rho0.01", |b| {
        b.iter(|| black_box(a.to_dense()))
    });
    group.bench_function("merge_two_rho0.01", |b| b.iter(|| black_box(sa.merge(&sb))));
    group.bench_function("merge_batch_of_20", |b| {
        let grads: Vec<SparseGrad> = (0..20).map(|_| sa.clone()).collect();
        b.iter(|| black_box(SparseGrad::merge_all(n, grads.iter())));
    });
    group.finish();
}

criterion_group!(benches, bench_compressors, bench_decompress_and_merge);
criterion_main!(benches);
