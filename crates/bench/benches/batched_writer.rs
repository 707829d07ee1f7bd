//! BatchedWriter: writes issued and serialization work per differential,
//! across batch sizes (the Exp. 6 mechanism, microbenchmark form): each
//! batch is encoded once and put under its key, as the engine's
//! `persist_batch` does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowdiff::batched::BatchedWriter;
use lowdiff_compress::{CompressedGrad, Compressor, TopK};
use lowdiff_storage::codec::ValueCodec;
use lowdiff_storage::{CheckpointStore, MemoryBackend, StorageBackend};
use lowdiff_util::DetRng;
use std::hint::black_box;
use std::sync::Arc;

fn grads(n_grads: usize, psi: usize) -> Vec<Arc<CompressedGrad>> {
    let mut rng = DetRng::new(3);
    let mut comp = TopK::new(0.01);
    let mut g = vec![0.0f32; psi];
    (0..n_grads)
        .map(|_| {
            rng.fill_normal_f32(&mut g, 1.0);
            Arc::new(comp.compress(&g))
        })
        .collect()
}

fn bench_batched_writer(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_writer");
    group.sample_size(10);
    let gs = grads(40, 500_000);
    for &bs in &[1usize, 2, 5, 20] {
        group.bench_with_input(BenchmarkId::new("Concat", bs), &bs, |b, &bs| {
            b.iter(|| {
                let backend = MemoryBackend::new();
                let mut w = BatchedWriter::new(bs, ValueCodec::F32);
                let mut writes = 0u64;
                let mut write = |w: &mut BatchedWriter| {
                    if let Some(enc) = w.encode_batch_with(Vec::new()) {
                        let key = CheckpointStore::diff_key(enc.start, enc.end);
                        backend.put(&key, &enc.bytes).unwrap();
                        w.complete_write();
                        writes += 1;
                    }
                };
                for (t, g) in gs.iter().enumerate() {
                    w.offload(t as u64, Arc::clone(g));
                    if w.batch_ready() {
                        write(&mut w);
                    }
                }
                write(&mut w);
                black_box(writes)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_writer);
criterion_main!(benches);
