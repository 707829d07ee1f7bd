//! Shard capture/stitch benchmarks: the per-anchor cost a cluster rank
//! pays to gather its Ψ/n slice into a full-checkpoint frame, and the
//! recovery-path cost of stitching all shards back into a global state.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lowdiff_compress::{AuxView, Compressor, TopK};
use lowdiff_optim::ModelState;
use lowdiff_storage::codec::encode_full_frame_into;
use lowdiff_storage::shard::stitch_states;
use lowdiff_storage::ShardSpec;
use lowdiff_testkit::ShardProjection;
use lowdiff_util::DetRng;
use std::hint::black_box;
use std::ops::Range;

fn three_way_specs(psi: usize, num_chunks: u32) -> Vec<ShardSpec> {
    // Round-robin chunks over 3 ranks: the bench cares about gather and
    // scatter throughput, not ring placement.
    let mut chunk_sets = vec![Vec::new(); 3];
    for c in 0..num_chunks {
        chunk_sets[(c % 3) as usize].push(c);
    }
    chunk_sets
        .into_iter()
        .map(|chunks| ShardSpec::new(psi, num_chunks, chunks).unwrap())
        .collect()
}

fn bench_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard");
    group.sample_size(10);
    let psi = 1_000_000;
    let mut rng = DetRng::new(17);
    let mut st = ModelState::new((0..psi).map(|_| rng.normal() as f32).collect());
    rng.fill_normal_f32(&mut st.opt.m, 0.1);
    rng.fill_normal_f32(&mut st.opt.v, 0.01);

    let specs = three_way_specs(psi, 48);

    // One rank's anchor capture: its Ψ/3 shard of the state gathered
    // into a reused frame, as the ticket pool does.
    let ranges: Vec<Range<usize>> = specs[0].ranges().collect();
    let mut frame = Vec::new();
    group.throughput(Throughput::Bytes((psi * 12 / 3) as u64));
    group.bench_function("gather_full_frame_1m_over_3", |b| {
        b.iter(|| {
            encode_full_frame_into(&st, &AuxView::NONE, &ranges, &mut frame);
            black_box(frame.len())
        })
    });

    // Sparse diff projection: the per-iteration hot path in cluster mode.
    let mut g = vec![0.0f32; psi];
    rng.fill_normal_f32(&mut g, 1.0);
    let grad = TopK::new(0.01).compress(&g);
    group.throughput(Throughput::Elements((psi as f64 * 0.01) as u64));
    group.bench_function("project_topk_grad_1m_rho01", |b| {
        b.iter(|| black_box(specs[0].project_grad(&grad)))
    });

    // Recovery: stitch all three shards back into the global state.
    let parts: Vec<(ShardSpec, ModelState)> = specs
        .iter()
        .map(|s| (s.clone(), s.project_state(&st)))
        .collect();
    group.throughput(Throughput::Bytes((psi * 12) as u64));
    group.bench_function("stitch_states_1m_from_3", |b| {
        b.iter(|| black_box(stitch_states(psi, &parts).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
