//! Adam kernel benchmarks: full steps and range-restricted steps (the
//! primitive sharded recovery parallelizes over).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lowdiff_optim::{Adam, AdamState};
use lowdiff_util::DetRng;
use std::hint::black_box;

fn bench_adam(c: &mut Criterion) {
    let mut group = c.benchmark_group("adam");
    group.sample_size(10);
    for &n in &[100_000usize, 1_000_000] {
        let mut rng = DetRng::new(2);
        let mut g = vec![0.0f32; n];
        rng.fill_normal_f32(&mut g, 0.1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("step", n), &n, |b, &n| {
            let adam = Adam::default();
            let mut st = AdamState::new(n);
            let mut p = vec![0.0f32; n];
            b.iter(|| {
                adam.step(&mut st, &mut p, &g);
                black_box(p[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("step_range_half", n), &n, |b, &n| {
            let adam = Adam::default();
            let mut st = AdamState::new(n);
            let mut p = vec![0.0f32; n];
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                let h = n / 2;
                adam.step_range(&mut p[..h], &mut st.m[..h], &mut st.v[..h], &g[..h], t);
                black_box(p[0])
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adam);
criterion_main!(benches);
